"""Synthesis of whirl curves from an arbitrary positive curvature function.

Given kappa(s) > 0, a nonzero constant lam, an offset ``bound`` and a base
point s0, the construction produces a unit-speed curve whose whirl axis is
(0, 0, +-1).  Everything is driven by the exponent

    E(s) = lam * int_{s0}^{s} kappa - bound,

valid while E(s) < 0.  Torsion, the spherical tangent angles and the closed
azimuth form all follow from E; positions come from quadrature of the
closed-form tangent (no Frenet-system integration, hence no frame drift).
At the Gauss nodes of a position panel, int kappa comes from kappa at those
same nodes (spectral integration).  :func:`synthesize` knows its validated
window, so it samples each panel of the window once and reads every position
off that panel's Legendre series: a sample costs no tangent evaluation of its
own.  A curve without a window integrates one 24-node panel per position.
"""

from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .numerics import EPS, ScalarFn, SmoothCumulative, as_scalar_fn, diff_weights
from .traceio import CurveTrace

EXPONENT_CEIL = -1e-12   # requests with exponent above this are rejected

# How far a verification stencil of a synthesized curve probes from its node:
# two steps of at most EPS**0.2 (ratio_rate; frenet_at given the tangent).
REACH = 2.0 * EPS ** 0.2

# Two congruent tangent arrangements: "spherical" keeps the explicit
# (polar, azimuth) angles; "combined" folds the arctan phase into the
# cos/sin coefficients.  They differ by a rotation about the vertical axis
# (a half turn when lam < 0), so traces agree up to a rigid motion.
_FORMS = ("spherical", "combined")


@dataclass(frozen=True)
class WhirlSpec:
    """Parameters defining one synthesized whirl curve.

    ``kappa`` must be positive on its domain and is expected to accept numpy
    arrays.  ``bound`` caps lam * int kappa; use :func:`bound_from_ratio` to
    derive it from an initial torsion-to-curvature ratio.  The two sign
    switches select among the four congruent branches of the construction.
    """

    kappa: ScalarFn
    lam: float
    bound: float
    s0: float = 0.0
    z_sign: int = 1
    tau_sign: int = 1

    def __post_init__(self):
        object.__setattr__(self, "kappa", as_scalar_fn(self.kappa))
        if abs(self.lam) < 1e-12:
            raise ValueError("lam must be nonzero")
        if self.z_sign not in (1, -1) or self.tau_sign not in (1, -1):
            raise ValueError("z_sign and tau_sign must be +1 or -1")


@dataclass(frozen=True)
class SphericalTangent:
    """Unit tangent in spherical coordinates: polar angle in (0, pi) plus
    azimuth, so t = (sin(phi) cos(theta), sin(phi) sin(theta), cos(phi))."""

    phi: float
    theta: float

    def __post_init__(self):
        if not 0.0 < self.phi < np.pi:
            raise ValueError("polar angle must lie in (0, pi)")

    def vector(self) -> np.ndarray:
        sp = np.sin(self.phi)
        return np.array([sp * np.cos(self.theta), sp * np.sin(self.theta),
                         np.cos(self.phi)])


def bound_from_ratio(h0: float, lam: float) -> float:
    """Offset that anchors the construction to ratio tau/kappa = h0 at s0.

    Equals -ln[(|h0|/sqrt(1+lam^2)) / sqrt(1 + h0^2/(1+lam^2))], always > 0.
    """
    if h0 == 0.0:
        raise ValueError("initial ratio h0 must be nonzero")
    lam2 = lam * lam
    return 0.5 * np.log(1.0 + lam2 + h0 * h0) - np.log(abs(h0))


def axis_bound(bound: float, lam: float) -> float:
    """Companion constant C with (1+lam^2) e^(-2C) = e^(-2*bound)."""
    return bound + 0.5 * np.log(1.0 + lam * lam)


class WhirlCurve:
    """Evaluator for one synthesized whirl curve.

    Callable for positions; all methods accept floats or numpy arrays.
    Positions integrate the closed-form tangent from ``origin`` (where the
    position is the zero vector) on fixed-node panels, so they are smooth
    enough for difference stencils.  The curve owns its panel tables: the
    cumulative curvature from ``spec.s0`` and the position from ``origin``,
    which nests the former as the ``inner`` of its tangent integrand.  Given
    a ``window=(lo, hi)`` holding ``origin``, on which the caller has checked
    the exponent bound, positions are read off one Legendre series per panel
    of the window and are defined only there.
    """

    def __init__(self, spec: WhirlSpec, origin: float = None,
                 form: str = "spherical", window=None):
        if form not in _FORMS:
            raise ValueError(f"form must be one of {_FORMS}")
        self.spec = spec
        self.form = form
        self.origin = spec.s0 if origin is None else float(origin)
        self._kcum = SmoothCumulative(spec.kappa, anchor=spec.s0)
        self._pos = SmoothCumulative(self._tangent, anchor=self.origin, inner=self._kcum,
                                     window=window)

    # -- scalar machinery -------------------------------------------------

    def exponent(self, s):
        """lam * int_{s0}^{s} kappa - bound; must stay below zero."""
        return self._exponent(s, self._kcum(s))

    def _exponent(self, s, kcum):
        """The exponent at ``s`` from ``kcum`` = int_{s0}^{s} kappa there."""
        val = self.spec.lam * kcum - self.spec.bound
        if np.any(np.asarray(val) > EXPONENT_CEIL):
            bad = np.atleast_1d(np.asarray(s))[
                np.atleast_1d(np.asarray(val) > EXPONENT_CEIL)][0]
            raise DomainError(
                f"domain bound lam*int(kappa) < bound violated at s={bad}")
        return val

    @staticmethod
    def _qw(e):
        """E, e^E and w = sqrt(1 - e^(2E)) from the exponent E."""
        return e, np.exp(e), np.sqrt(-np.expm1(2.0 * e))

    def _ratio(self, s):
        """tau/kappa = tau_sign * sqrt(1+lam^2) * e^E / w."""
        _, q, w = self._qw(self.exponent(s))
        return self.spec.tau_sign * np.sqrt(1.0 + self.spec.lam ** 2) * q / w

    def torsion(self, s):
        """Torsion of the synthesized curve (sign = tau_sign)."""
        return self.spec.kappa(s) * self._ratio(s)

    def cos_polar(self, s):
        """z-component of the unit tangent, z_sign * e^E / sqrt(1+lam^2)."""
        _, q, _ = self._qw(self.exponent(s))
        return self.spec.z_sign * q / np.sqrt(1.0 + self.spec.lam ** 2)

    def axis_component(self, s):
        """Inner product of the tangent with the axis, +-e^(lam*int kappa - C)."""
        lam = self.spec.lam
        c = axis_bound(self.spec.bound, lam)
        return self.spec.z_sign * np.exp(lam * self._kcum(s) - c)

    def azimuth(self, s):
        """Closed azimuth form arctan(w/lam) - arctanh(w)/lam, w = sqrt(1-e^{2E}).

        arctanh(w) is evaluated as log1p(w) - E, which is exact in the
        w -> 1 limit where the naive form loses all precision.
        """
        e, _, w = self._qw(self.exponent(s))
        lam = self.spec.lam
        return np.arctan(w / lam) - (np.log1p(w) - e) / lam

    def azimuth_rate(self, s):
        """Derivative of the closed azimuth form (positive for kappa > 0)."""
        e, _, w = self._qw(self.exponent(s))
        lam2 = self.spec.lam ** 2
        return (1.0 + lam2) * self.spec.kappa(s) * w / (1.0 + lam2 - np.exp(2.0 * e))

    def spherical_tangent(self, s: float) -> SphericalTangent:
        """Tangent direction at one point as (polar, azimuth) angles."""
        theta = (self.spec.z_sign * self.spec.tau_sign
                 * float(self.azimuth(s)))
        return SphericalTangent(phi=float(np.arccos(self.cos_polar(s))),
                                theta=theta)

    # -- curve ------------------------------------------------------------

    def tangent(self, s):
        """Closed-form unit tangent; rows of shape (3,) for array input."""
        return self._tangent(s, self._kcum(s))

    def _tangent(self, s, kcum):
        """The tangent formula at ``s`` from ``kcum`` = int_{s0}^{s} kappa there."""
        e, q, w = self._qw(self._exponent(s, kcum))
        lam = self.spec.lam
        root = np.sqrt(1.0 + lam * lam)
        cphi = self.spec.z_sign * q / root
        sphi = np.sqrt(1.0 - (q * q) / (1.0 + lam * lam))
        if self.form == "spherical":
            theta = self.spec.z_sign * self.spec.tau_sign * (
                np.arctan(w / lam) - (np.log1p(w) - e) / lam)
            x = sphi * np.cos(theta)
            y = sphi * np.sin(theta)
        else:
            psi = (np.log1p(w) - e) / lam
            x = (lam * np.cos(psi) + w * np.sin(psi)) / root
            y = (w * np.cos(psi) - lam * np.sin(psi)) / root
            if self.spec.z_sign * self.spec.tau_sign < 0:
                y = -y
        return np.stack(np.broadcast_arrays(x, y, cphi), axis=-1)

    def position(self, s):
        return self._pos(s)

    __call__ = position

    def ratio_rate(self, s):
        """d(tau/kappa)/ds from a five-point (fourth-order) stencil whose step,
        EPS**0.2 over the ratio's growth rate |lam|*kappa*(1+lam^2+3h^2)/(1+lam^2)
        when above 1, is the curve's own length scale whatever s is: it resolves
        the derivative to ~1e-9 across the valid window, even at |lam| = 20 near
        the domain edge, and keeps every probe within REACH of s."""
        s = np.asarray(s, dtype=float)
        lam2 = self.spec.lam ** 2
        ratio = self._ratio(s)
        rate = np.maximum(1.0, np.abs(self.spec.lam * np.asarray(self.spec.kappa(s)))
                          * (1.0 + lam2 + 3.0 * ratio * ratio) / (1.0 + lam2))
        step = (s + 0.5 * REACH / rate) - s   # exactly representable
        w = diff_weights(5, 4)[0]   # offsets -2..2; the centre's weight is zero
        return sum(w[k + 2] * self._ratio(s + k * step) for k in (-2, -1, 1, 2)) / step


def synthesize(spec: WhirlSpec, s_lo: float, s_hi: float, n: int,
               form: str = "spherical") -> CurveTrace:
    """Sample the synthesized curve on a uniform n-point grid.

    The position integration constant is chosen so the trace starts at the
    origin.  Raises DomainError when the exponent bound is violated anywhere
    on [s_lo, s_hi] and ValueError when kappa's domain does not cover the
    hull of the request and s0.
    """
    if n < 2:
        raise ValueError("n must be at least 2")
    if not s_lo < s_hi:
        raise ValueError("need s_lo < s_hi")
    hull_lo = min(s_lo, spec.s0)
    hull_hi = max(s_hi, spec.s0)
    if not spec.kappa.contains(hull_lo, hull_hi):
        raise ValueError(
            f"kappa domain {spec.kappa.domain} does not cover [{hull_lo}, {hull_hi}]")
    curve = WhirlCurve(spec, origin=s_lo, form=form, window=(s_lo, s_hi))
    # the exponent is monotone in int(kappa); checking both ends guards the
    # window before its position table samples the tangent
    curve.exponent(np.array([s_lo, s_hi]))
    grid = np.linspace(s_lo, s_hi, n)
    pts = curve.position(grid)
    meta = {
        "param": "s",
        "kind": "whirl_synth",
        "form": form,
        "lam": float(spec.lam),
        "bound": float(spec.bound),
        "s0": float(spec.s0),
        "z_sign": int(spec.z_sign),
        "tau_sign": int(spec.tau_sign),
    }
    return CurveTrace(grid, pts, meta=meta)


# -- curvature families ----------------------------------------------------

def kappa_constant(value: float,
                   domain=(-np.inf, np.inf)) -> ScalarFn:
    """Constant curvature function."""
    value = float(value)
    if not value > 0:
        raise ValueError("curvature must be positive")

    def ev(s):
        return np.full(np.shape(s), value) if np.ndim(s) else value

    return ScalarFn(ev, domain)


def kappa_linear_ratio(lam: float, a: float, b: float,
                       domain) -> ScalarFn:
    """Curvature whose whirl curve has torsion/curvature = a*s + b.

    kappa(s) = (1+lam^2) a / (lam (a s + b) (1 + lam^2 + (a s + b)^2)); the
    domain must keep it positive (sign(a s + b) = sign(a / lam)) and away
    from the a*s + b = 0 pole.
    """
    lam, a, b = float(lam), float(a), float(b)
    if a == 0.0 or abs(lam) < 1e-12:
        raise ValueError("need a != 0 and lam != 0")
    lo, hi = float(domain[0]), float(domain[1])
    if not lo < hi:
        raise ValueError("empty domain")

    def ev(s):
        h = a * np.asarray(s, dtype=float) + b
        return (1.0 + lam * lam) * a / (lam * h * (1.0 + lam * lam + h * h))

    for edge in (lo, hi):
        if not ev(edge) > 0:
            raise ValueError(
                "kappa is not positive on the requested domain "
                "(need sign(a*s+b) = sign(a/lam) throughout)")
    if (a * lo + b) * (a * hi + b) <= 0:
        raise ValueError("domain crosses the a*s + b = 0 pole")
    return ScalarFn(ev, (lo, hi))


def kappa_polynomial(coeffs, domain) -> ScalarFn:
    """Polynomial curvature sum(coeffs[k] * s^k); checked positive by sampling."""
    coeffs = [float(c) for c in coeffs]
    lo, hi = float(domain[0]), float(domain[1])
    if not lo < hi:
        raise ValueError("empty domain")

    def ev(s):
        s = np.asarray(s, dtype=float)
        out = np.zeros(s.shape)
        for c in reversed(coeffs):
            out = out * s + c
        return out if out.ndim else float(out)

    probe = ev(np.linspace(lo, hi, 1001))
    if np.min(probe) <= 0:
        raise ValueError("polynomial curvature is not positive on the domain")
    return ScalarFn(ev, (lo, hi))


# -- intrinsic-equation residual ---------------------------------------------

def intrinsic_residual_max(spec: WhirlSpec, s_lo: float, s_hi: float,
                           n: int = 2049) -> float:
    """Max |intrinsic residual| over an n-node grid spanning [s_lo, s_hi].

    Nodes are kept REACH clear of the window ends so the ratio-derivative
    probes never leave the validated window.
    """
    from .whirl import intrinsic_residual
    curve = WhirlCurve(spec)
    grid = np.linspace(s_lo + REACH, s_hi - REACH, n)
    kv = np.asarray(spec.kappa(grid), dtype=float)
    resid = intrinsic_residual(kv, kv * curve._ratio(grid), curve.ratio_rate(grid), spec.lam)
    return float(np.max(np.abs(resid)))
