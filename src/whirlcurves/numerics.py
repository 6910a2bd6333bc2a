"""Quadrature and differentiation utilities shared by the geometry modules.

All routines work in 64-bit floating point.  The curve constructions
integrate with :class:`SmoothCumulative`, a fixed-node Gauss-Legendre panel
sum that is smooth in its upper limit and nests one cumulative in another
by spectral integration on the same nodes; adaptive Simpson :func:`integrate`
is the independent reference.  Every derivative comes from :func:`diff_weights`,
applied to a callable by :func:`derivative`, to samples by :func:`grid_derivatives`.
"""

import threading
from dataclasses import dataclass
from typing import Callable, Tuple

import numpy as np

from .errors import DomainError, QuadratureError

EPS = float(np.finfo(float).eps)

# grid_derivatives: least-squares degree and the bounds of the window width
DEGREE, MIN_WIDTH, MAX_WIDTH = 8, 7, 201

# SmoothCumulative: lattice panel width, 24-node Gauss-Legendre rule, the
# number of intervals one call of the integrand covers (a power of two, so
# blocks split the matrix-vector product where BLAS row groups do and the
# sums match one unblocked call bit for bit), and the farthest a query may
# lie from the anchor, in panels.
PANEL = 0.125
_LEG = np.polynomial.legendre
_GAUSS_X, _GAUSS_W = _LEG.leggauss(24)
# Spectral integration on those nodes (Greengard, SIAM J. Numer. Anal. 1991):
# S[j, i] is the integral from -1 to x_j of the i-th Lagrange polynomial
# through them, from the Legendre coefficients the Gauss rule gives exactly.
_SPECTRAL = (_LEG.legval(_GAUSS_X, _LEG.legint(np.eye(24), lbnd=-1)).T
             @ ((np.arange(24) + 0.5)[:, None] * _LEG.legvander(_GAUSS_X, 23).T * _GAUSS_W))
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


def diff_weights(width: int, degree: int, at=None) -> np.ndarray:
    """Savitzky-Golay (1964) weights: the first three derivatives, at position
    ``at`` (default: the centre), of the least-squares polynomial of ``degree``
    through samples at positions 0..width-1 (degree ``width - 1``
    interpolates).  Row k-1, dotted with the samples and divided by h**k for
    spacing h, is the k-th derivative; shape (3, width), or (m, 3, width).
    """
    half = 0.5 * (width - 1)
    coef = np.linalg.pinv(np.vander(np.arange(width) / half - 1.0, degree + 1,
                                    increasing=True))
    x0 = (np.asarray(half if at is None else at, dtype=float)[..., None, None] - half) / half
    m, k = np.arange(degree + 1), np.arange(1, 4)[:, None]
    # k-th derivative of x**m: m (m-1) ... (m-k+1) x**(m-k), zero for m < k
    dpow = np.cumprod([m, m - 1, m - 2], axis=0) * x0 ** np.maximum(m - k, 0)
    return (dpow @ coef) / half ** k


def derivative(f, s, order) -> np.ndarray:
    """Derivatives of a (vector-valued) function of one real at ``s``, a
    scalar or a 1-d grid sampled in one call (see :func:`sample`).

    ``order`` is 1, 2 or 3, or a tuple of them (one array per order, stacked
    on a new first axis), all from one stencil: W = 2*max(order)+1 samples
    EPS**(1/W) apart on a unit length scale, whatever ``s`` is, less the
    centre when every order is odd (its weight is zero).  Order 0 in a tuple
    returns the centre sample itself."""
    orders = np.atleast_1d(order)
    if not np.all(np.isin(orders, (0, 1, 2, 3))) or orders.max() == 0:
        raise ValueError("order must be 1, 2 or 3 (0 only alongside them)")
    width = 2 * int(orders.max()) + 1
    offsets = np.arange(width) - width // 2
    used = (offsets != 0) | np.any(orders % 2 == 0)
    x = np.atleast_1d(np.asarray(s, dtype=float))
    h = (x + EPS ** (1.0 / width)) - x   # an exactly representable step
    rows = np.split(sample(f, np.concatenate([x + k * h for k in offsets[used]])), used.sum())
    h = h.reshape(h.shape + (1,) * (rows[0].ndim - 1))
    weights = np.vstack([offsets == 0, diff_weights(width, width - 1)])
    d = np.stack([sum(w * row for w, row in zip(ws[used], rows)) / h ** k for ws, k
                  in zip(weights[orders], orders)])
    d = d if np.ndim(s) else d[:, 0]
    return d if np.ndim(order) else d[0]


def grid_derivatives(s, y) -> np.ndarray:
    """First three derivatives, shape (3,) + y.shape, of samples ``y`` (one
    row per node) at every node of the uniform grid ``s``.

    Each node takes the least-squares polynomial of degree min(8, W-1) on its
    centred window of W nodes, or near an end on the first or last window.
    W = 2*round(r/h) + 1, clamped to [7, 201] and to the node count, for
    spacing h and half-width r = (EPS*M)**(1/9), M = max |y|: this r balances
    third-derivative roundoff, ~EPS*M/r**3, against truncation, ~r**6.
    """
    dx, y = np.diff(np.asarray(s, dtype=float)), np.asarray(y, dtype=float)
    if np.ptp(dx) > 1e-9 * np.max(np.abs(dx)):
        raise ValueError("derivatives of samples need a uniform grid")
    h = float(np.mean(dx))
    r = (EPS * np.max(np.abs(y))) ** (1.0 / (DEGREE + 1))
    width = min(len(y), int(np.clip(2 * np.round(r / abs(h)) + 1, MIN_WIDTH, MAX_WIDTH)))
    w, c = diff_weights(width, min(DEGREE, width - 1), np.arange(width)), width // 2
    cols = y.reshape(len(y), -1)
    mid = [[np.correlate(col, wk, "valid") for col in cols.T] for wk in w[c]]
    d = np.concatenate([np.moveaxis(w[:c] @ cols[:width], 0, 1), np.transpose(mid, (0, 2, 1)),
                        np.moveaxis(w[c + 1:] @ cols[-width:], 0, 1)], axis=1)
    return (d / h ** np.arange(1, 4)[:, None, None]).reshape((3,) + y.shape)


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

    With ``inner``, an instance with a scalar integrand, ``f`` is called as
    ``f(s, inner(s))``; at the nodes of a panel from a of half-width h,
    inner(s) = inner(a) + h * _SPECTRAL @ inner.f(nodes): inner's integrand
    is sampled where f is, plus one query of inner per distinct panel start.
    """

    def __init__(self, f, anchor: float, inner: "SmoothCumulative" = None):
        self.f = f
        self.anchor = float(anchor)
        self.inner = inner
        self._lo = 0          # lattice index of the table's first row
        self._table = None    # F at lattice points; None while only F(anchor) = 0
        self._lock = threading.Lock()

    def _gauss(self, mids, halves, starts):
        """Integrals of f over [mids - halves, mids + halves], one per interval;
        ``starts`` (= mids - halves up to rounding) is where inner is queried."""
        halves = np.broadcast_to(halves, mids.shape)
        out = []
        for i in range(0, mids.size, BLOCK):
            m, h = mids[i:i + BLOCK], halves[i:i + BLOCK]
            pts = m[:, None] + h[:, None] * _GAUSS_X
            if self.inner is None:
                vals = np.asarray(self.f(pts.ravel()), dtype=float)
            else:
                a, where = np.unique(starts[i:i + BLOCK], return_inverse=True)
                g = np.asarray(self.inner.f(pts.ravel()), dtype=float).reshape(pts.shape)
                at = self.inner(a)[where][:, None] + h[:, None] * (g @ _SPECTRAL.T)
                vals = np.asarray(self.f(pts.ravel(), at.ravel()), dtype=float)
            if vals.ndim == 1:
                out.append(h * (vals.reshape(pts.shape) @ _GAUSS_W))
            else:
                vals = vals.reshape(pts.shape + vals.shape[1:])
                out.append(h[:, None] * np.einsum("pn...,n->p...", vals, _GAUSS_W))
        return np.concatenate(out)

    def _panels(self, k_from: int, k_to: int):
        """Integrals of f over the lattice panels [k, k+1), k_from <= k < k_to."""
        edges = self.anchor + PANEL * np.arange(k_from, k_to + 1)
        return self._gauss(0.5 * (edges[:-1] + edges[1:]), 0.5 * PANEL, edges[:-1])

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
        part = self._gauss(0.5 * (edges + s_arr), 0.5 * (s_arr - edges), edges)
        out = (0.0 if table is None else table[k - lo]) + part
        return out if np.ndim(s) else out[0]


def _zero_row(rows):
    return np.zeros((1,) + rows.shape[1:])


def _running_sum(start, steps):
    """start + steps[0], start + steps[0] + steps[1], ..., summed in order."""
    return np.cumsum(np.concatenate([start, steps]), axis=0)[1:]
