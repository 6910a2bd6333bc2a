"""The paper's identities, proved with sympy for an arbitrary curvature.

F is int kappa, an unknown function of s (so F' = kappa), B the exponent
offset and lam the whirl constant.  The synthesized curve's exponent is
E = lam*F - B, and its torsion-to-curvature ratio is
h = sqrt(1+lam^2) e^E / sqrt(1 - e^(2E)).  Each identity is an expression
that simplifies to 0 for every F, lam and B.
"""

import sympy as sp

s, lam, B = sp.symbols("s lam B", real=True)
F = sp.Function("F")(s)
KAPPA = F.diff(s)
E = lam * F - B
ROOT = sp.sqrt(1 + lam ** 2)
H = ROOT * sp.exp(E) / sp.sqrt(1 - sp.exp(2 * E))


def test_cos_polar_is_the_companion_constant_form():
    # WhirlCurve.cos_polar's e^E/sqrt(1+lam^2) is e^(lam*F - C) with
    # C = axis_bound(B, lam) = B + ln(1+lam^2)/2
    C = B + sp.log(1 + lam ** 2) / 2
    assert sp.simplify(sp.exp(E) / ROOT - sp.exp(lam * F - C)) == 0


def test_the_ratio_satisfies_the_intrinsic_equation():
    # tau*lam*(1 + lam^2 + h^2) = (1 + lam^2) h', with tau = h*kappa
    assert sp.simplify(H * KAPPA * lam * (1 + lam ** 2 + H ** 2)
                       - (1 + lam ** 2) * H.diff(s)) == 0


def test_the_ratio_keeps_its_invariant():
    # ln(h^2/(1 + lam^2 + h^2))/2 - E is constant along the curve
    assert sp.simplify((sp.log(H ** 2 / (1 + lam ** 2 + H ** 2)) / 2 - E).diff(s)) == 0
