"""Adaptive Simpson quadrature: the tests' independent reference for the
library's Gauss-Legendre and Legendre-series integration.

It shares no code with :class:`whirlcurves.SmoothCumulative`, so agreement
between the two is evidence for both.
"""

from dataclasses import dataclass

import numpy as np

from whirlcurves.errors import QuadratureError


@dataclass
class QuadratureResult:
    value: float
    error_estimate: float
    evaluations: int
    converged: bool = True


def integrate(f, lo: float, hi: float, abs_tol: float = 1e-10,
              max_depth: int = 40) -> QuadratureResult:
    """Adaptive Simpson quadrature of ``f`` over ``[lo, hi]``.

    Antisymmetric on interval swap.  On non-convergence the partial value is
    returned with ``converged=False``; non-finite samples raise
    :class:`QuadratureError`.
    """
    if abs_tol <= 0:
        raise ValueError("abs_tol must be positive")
    if lo == hi:
        return QuadratureResult(0.0, 0.0, 1, True)
    sign = 1.0
    if lo > hi:
        lo, hi, sign = hi, lo, -1.0

    counter = [0]

    def ev(x):
        counter[0] += 1
        val = float(f(x))
        if not np.isfinite(val):
            raise QuadratureError(f"non-finite integrand sample at s={x!r}")
        return val

    def simpson(a, fa, b, fb):
        m = 0.5 * (a + b)
        fm = ev(m)
        return m, fm, (b - a) / 6.0 * (fa + 4.0 * fm + fb)

    flag = [True]
    err_acc = [0.0]

    def recurse(a, fa, b, fb, m, fm, whole, tol, depth):
        lm, flm, left = simpson(a, fa, m, fm)
        rm, frm, right = simpson(m, fm, b, fb)
        delta = left + right - whole
        if abs(delta) <= 15.0 * tol or depth >= max_depth:
            if abs(delta) > 15.0 * tol:
                flag[0] = False
            err_acc[0] += abs(delta) / 15.0
            return left + right + delta / 15.0
        return (recurse(a, fa, m, fm, lm, flm, left, tol / 2.0, depth + 1)
                + recurse(m, fm, b, fb, rm, frm, right, tol / 2.0, depth + 1))

    fa, fb = ev(lo), ev(hi)
    m, fm, whole = simpson(lo, fa, hi, fb)
    value = recurse(lo, fa, hi, fb, m, fm, whole, abs_tol, 0)
    return QuadratureResult(sign * value, err_acc[0], counter[0], flag[0])
