"""Quadrature and finite-difference utilities shared by the geometry modules.

All routines work in 64-bit floating point.  The curve constructions
integrate with :class:`SmoothCumulative`, a fixed-node Gauss-Legendre panel
sum that is smooth in its upper limit; adaptive Simpson :func:`integrate`
is the independent reference it is tested against.
"""

import threading
from dataclasses import dataclass
from typing import Callable, Tuple

import numpy as np

from .errors import DomainError, QuadratureError

EPS = float(np.finfo(float).eps)

# Central-difference steps: truncation/roundoff balance for orders 1..3.
_REL_STEP = {1: EPS ** (1.0 / 3.0), 2: EPS ** 0.25, 3: EPS ** 0.2}

# SmoothCumulative: lattice panel width, 24-node Gauss-Legendre rule, the
# number of intervals one call of the integrand covers (a power of two, so
# blocks split the matrix-vector product where BLAS row groups do and the
# sums match one unblocked call bit for bit), and the farthest a query may
# lie from the anchor, in panels.
PANEL = 0.125
_GAUSS_X, _GAUSS_W = np.polynomial.legendre.leggauss(24)
BLOCK = 4096
MAX_PANELS = 2 ** 20


@dataclass(frozen=True)
class ScalarFn:
    """A real-valued function together with the closed interval it lives on.

    The evaluator must be finite on the stated domain and should accept
    numpy arrays as well as floats (all built-in curvature families do).
    """

    evaluator: Callable
    domain: Tuple[float, float] = (-np.inf, np.inf)

    def __call__(self, s):
        return self.evaluator(s)

    def contains(self, lo: float, hi: float) -> bool:
        return self.domain[0] <= lo and hi <= self.domain[1]


def as_scalar_fn(f) -> ScalarFn:
    """Wrap a bare callable; pass ScalarFn instances through unchanged."""
    if isinstance(f, ScalarFn):
        return f
    return ScalarFn(f)


@dataclass
class QuadratureResult:
    value: float
    error_estimate: float
    evaluations: int
    converged: bool = True


def _finite(x, where) -> float:
    x = float(x)
    if not np.isfinite(x):
        raise QuadratureError(f"non-finite integrand sample at s={where!r}")
    return x


def integrate(f, lo: float, hi: float, abs_tol: float = 1e-10,
              max_depth: int = 40) -> QuadratureResult:
    """Adaptive Simpson quadrature of ``f`` over ``[lo, hi]``.

    Antisymmetric on interval swap.  On non-convergence the partial value is
    returned with ``converged=False``; non-finite samples raise
    :class:`QuadratureError`.
    """
    if abs_tol <= 0:
        raise ValueError("abs_tol must be positive")
    f = as_scalar_fn(f)
    if lo == hi:
        return QuadratureResult(0.0, 0.0, 1, True)
    sign = 1.0
    if lo > hi:
        lo, hi, sign = hi, lo, -1.0

    counter = [0]

    def ev(x):
        counter[0] += 1
        return _finite(f(x), x)

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


def sample(f, s, error=QuadratureError) -> np.ndarray:
    """``f`` at each point of the 1-d array ``s``, one row per point.

    Tries one vectorized call, else calls ``f`` per point.  A batch never has
    exactly 3 points (a fourth is added and dropped): ``lambda s: R @ c(s)``
    maps 3 points to a (3, 3) matrix that would pass for 3 rows.  Raises
    ``error`` naming the first point where ``f`` is not finite.
    """
    s = np.asarray(s, dtype=float)
    batch = np.append(s, s[:1]) if s.size == 3 else s
    try:
        vals = np.asarray(f(batch), dtype=float)
        if vals.shape[:1] != batch.shape:
            raise TypeError
        vals = vals[:s.size]
    except (TypeError, ValueError, IndexError):
        vals = np.array([f(si) for si in s], dtype=float)
    bad = np.flatnonzero(~np.all(np.isfinite(vals), axis=tuple(range(1, vals.ndim))))
    if bad.size:
        raise error(f"non-finite sample at s={float(s[bad[0]])!r}")
    return vals


def derivative(f, s, order: int) -> np.ndarray:
    """Central-difference derivative of a (vector-valued) function of one real.

    ``s`` is a scalar or a 1-d array, all stencil points sampled in one call
    (see :func:`sample`).  Error is O(step^2) with the step chosen per order
    and element to balance truncation against roundoff.
    """
    if order not in (1, 2, 3):
        raise ValueError("order must be 1, 2 or 3")
    x = np.atleast_1d(np.asarray(s, dtype=float))
    h = _REL_STEP[order] * np.maximum(1.0, np.abs(x))
    # make the step exactly representable
    h = (x + h) - x
    offsets = {1: (1, -1), 2: (1, 0, -1), 3: (2, 1, -1, -2)}[order]
    vals = sample(f, np.concatenate([x + k * h for k in offsets]))
    p = np.split(vals, len(offsets))
    h = h.reshape(h.shape + (1,) * (vals.ndim - 1))
    if order == 1:
        d = (p[0] - p[1]) / (2.0 * h)
    elif order == 2:
        d = (p[0] - 2.0 * p[1] + p[2]) / (h * h)
    else:
        d = (p[0] - 2.0 * p[1] + 2.0 * p[2] - p[3]) / (2.0 * h ** 3)
    return d if np.ndim(s) else d[0]


class SmoothCumulative:
    """Cumulative integral ``F(s) = ∫_anchor^s f`` evaluated panel by panel.

    F(s) is a prefix sum over whole panels of width ``PANEL`` on a lattice
    through ``anchor``, plus one fractional panel from the lattice edge
    toward the anchor up to s, all by the same 24-node Gauss rule; hence F is
    smooth in s and safe to feed to difference stencils.  ``f`` must accept
    numpy arrays; it may return scalars or rows of one fixed length, and is
    called on at most ``BLOCK`` intervals (24 points each) at a time.

    The prefix is one array over a contiguous range of lattice indices,
    grown on demand by a cumulative sum seeded with its current end value.
    A query that is not finite or lies more than ``MAX_PANELS`` panels from
    the anchor raises :class:`DomainError` before the table grows.  A lock
    serializes growth, so an instance can be shared across threads.
    """

    def __init__(self, f, anchor: float):
        self.f = f
        self.anchor = float(anchor)
        self._lo = 0          # lattice index of the table's first row
        self._table = None    # F at lattice points; None while only F(anchor) = 0
        self._lock = threading.Lock()

    def _gauss(self, mids, halves):
        """Integrals of f over [mids - halves, mids + halves], one per interval."""
        halves = np.broadcast_to(halves, mids.shape)
        out = []
        for i in range(0, mids.size, BLOCK):
            m, h = mids[i:i + BLOCK], halves[i:i + BLOCK]
            pts = m[:, None] + h[:, None] * _GAUSS_X
            vals = np.asarray(self.f(pts.ravel()), dtype=float)
            if vals.ndim == 1:
                out.append(h * (vals.reshape(pts.shape) @ _GAUSS_W))
            else:
                vals = vals.reshape(pts.shape + vals.shape[1:])
                out.append(h[:, None] * np.einsum("pn...,n->p...", vals, _GAUSS_W))
        return np.concatenate(out)

    def _panels(self, k_from: int, k_to: int):
        """Integrals of f over the lattice panels [k, k+1), k_from <= k < k_to."""
        edges = self.anchor + PANEL * np.arange(k_from, k_to + 1)
        return self._gauss(0.5 * (edges[:-1] + edges[1:]), 0.5 * PANEL)

    def _extend(self, k_min: int, k_max: int):
        """Grow the table over lattice indices [k_min, k_max]; return it with
        the lattice index of its first row."""
        with self._lock:
            lo, table = self._lo, self._table
            hi = lo if table is None else lo + len(table) - 1
            if k_max > hi:
                inc = self._panels(hi, k_max)
                table = _zero_row(inc) if table is None else table
                table = np.concatenate([table, _running_sum(table[-1:], inc)])
            if k_min < lo:
                dec = -self._panels(k_min, lo)[::-1]
                table = _zero_row(dec) if table is None else table
                table = np.concatenate([_running_sum(table[:1], dec)[::-1], table])
                lo = k_min
            self._lo, self._table = lo, table
            return lo, table

    def __call__(self, s):
        s_arr = np.atleast_1d(np.asarray(s, dtype=float))
        d = (s_arr - self.anchor) / PANEL
        far = ~(np.abs(d) <= MAX_PANELS)
        if far.any():
            raise DomainError(
                f"s={float(s_arr[far][0])!r} is not finite or lies farther than "
                f"{MAX_PANELS * PANEL:g} from the integration anchor {self.anchor!r}")
        # base the fractional panel on the lattice edge TOWARD the anchor, so
        # every sample of f stays inside the hull of (anchor, s); a floor on
        # both sides would step up to one panel outside the caller's domain
        k = np.where(s_arr >= self.anchor, np.floor(d), np.ceil(d)).astype(int)
        lo, table = self._extend(int(k.min()), int(k.max()))
        edges = self.anchor + PANEL * k
        part = self._gauss(0.5 * (edges + s_arr), 0.5 * (s_arr - edges))
        out = (0.0 if table is None else table[k - lo]) + part
        return out if np.ndim(s) else out[0]


def _zero_row(rows):
    return np.zeros((1,) + rows.shape[1:])


def _running_sum(start, steps):
    """start + steps[0], start + steps[0] + steps[1], ..., summed in order."""
    return np.cumsum(np.concatenate([start, steps]), axis=0)[1:]
