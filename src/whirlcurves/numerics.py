"""Quadrature and finite-difference utilities shared by the geometry modules.

All routines work in 64-bit floating point.  Integrands are expected to be
smooth away from declared singular endpoints; the adaptive Simpson rule with
interval bisection handles the steep exponential regions that show up in the
curve constructions.
"""

import threading
import warnings
from dataclasses import dataclass
from typing import Callable, Tuple

import numpy as np

from .errors import QuadratureError

EPS = float(np.finfo(float).eps)

# Central-difference steps: truncation/roundoff balance for orders 1..3.
_REL_STEP = {1: EPS ** (1.0 / 3.0), 2: EPS ** 0.25, 3: EPS ** 0.2}

_GAUSS_CACHE: dict = {}


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


def cumulative_integral(f, s0: float, grid, abs_tol: float = 1e-10,
                        max_depth: int = 40) -> np.ndarray:
    """``out[i] = integral of f from s0 to grid[i]`` for a sorted grid.

    Warns (and returns the partial values) when any segment fails to
    converge; non-finite samples raise as in :func:`integrate`.
    """
    grid = np.asarray(grid, dtype=float)
    if grid.ndim != 1 or grid.size == 0:
        raise ValueError("grid must be a non-empty 1-d array")
    if np.any(np.diff(grid) < 0):
        raise ValueError("grid must be sorted ascending")
    f = as_scalar_fn(f)
    out = np.empty(grid.shape)
    running = integrate(f, s0, grid[0], abs_tol=abs_tol, max_depth=max_depth)
    bad = not running.converged
    out[0] = running.value
    acc = running.value
    for i in range(1, grid.size):
        seg = integrate(f, grid[i - 1], grid[i], abs_tol=abs_tol,
                        max_depth=max_depth)
        bad = bad or not seg.converged
        acc += seg.value
        out[i] = acc
    if bad:
        warnings.warn("cumulative_integral: at least one segment did not "
                      "converge; values are partial", RuntimeWarning)
    return out


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


def _gauss_nodes(n: int):
    if n not in _GAUSS_CACHE:
        _GAUSS_CACHE[n] = np.polynomial.legendre.leggauss(n)
    return _GAUSS_CACHE[n]


def gauss_legendre(f, lo: float, hi: float, nodes: int = 24):
    """Fixed-node Gauss-Legendre panel. Smooth in the endpoints, so results
    can be finite-differenced without adaptive-subdivision jitter."""
    x, w = _gauss_nodes(nodes)
    mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
    vals = np.asarray(f(mid + half * x), dtype=float)
    if vals.ndim == 1:
        return half * float(w @ vals)
    return half * (w @ vals)


class SmoothCumulative:
    """Cumulative integral ``F(s) = ∫_anchor^s f`` evaluated panel by panel.

    Full panels on a fixed lattice are cached, the fractional panel uses the
    same Gauss rule, hence F is smooth in s and safe to feed to difference
    stencils.  ``f`` must accept numpy arrays; it may return scalars or rows
    of a fixed vector shape.  Cache growth is serialized by a lock, so
    instances can be shared across threads once warm.
    """

    def __init__(self, f, anchor: float, panel: float = 0.125, nodes: int = 24):
        if panel <= 0:
            raise ValueError("panel width must be positive")
        self.f = f
        self.anchor = float(anchor)
        self.panel = float(panel)
        self.nodes = nodes
        self._lo = 0          # cached prefix covers lattice indices [_lo, _hi]
        self._hi = 0
        self._prefix = {0: None}   # filled lazily; None means "zero of f's shape"
        self._lock = threading.Lock()

    def _panel_values(self, k_from: int, k_to: int):
        """Integrals of f over consecutive panels [k, k+1) for k in range."""
        x, w = _gauss_nodes(self.nodes)
        edges = self.anchor + self.panel * np.arange(k_from, k_to + 1)
        mids = 0.5 * (edges[:-1] + edges[1:])
        half = 0.5 * self.panel
        pts = mids[:, None] + half * x[None, :]
        vals = np.asarray(self.f(pts.ravel()), dtype=float)
        if vals.ndim == 1:
            vals = vals.reshape(pts.shape)
            return half * (vals @ w)
        vals = vals.reshape(pts.shape + vals.shape[1:])
        return half * np.einsum("pn...,n->p...", vals, w)

    def _zero_like(self):
        probe = np.asarray(self.f(np.array([self.anchor])), dtype=float)
        return 0.0 if probe.ndim == 1 else np.zeros(probe.shape[1:])

    def _extend(self, k_min: int, k_max: int):
        if self._lo <= k_min and k_max <= self._hi and self._prefix[0] is not None:
            return
        with self._lock:
            if self._prefix[0] is None:
                self._prefix[0] = self._zero_like()
            if k_max > self._hi:
                inc = self._panel_values(self._hi, k_max)
                acc = self._prefix[self._hi]
                for j, k in enumerate(range(self._hi + 1, k_max + 1)):
                    acc = acc + inc[j]
                    self._prefix[k] = acc
                self._hi = k_max
            if k_min < self._lo:
                dec = self._panel_values(k_min, self._lo)
                acc = self._prefix[self._lo]
                for j, k in enumerate(range(self._lo - 1, k_min - 1, -1)):
                    acc = acc - dec[len(dec) - 1 - j]
                    self._prefix[k] = acc
                self._lo = k_min

    def __call__(self, s):
        scalar = np.isscalar(s) or np.ndim(s) == 0
        s_arr = np.atleast_1d(np.asarray(s, dtype=float))
        d = (s_arr - self.anchor) / self.panel
        # base the fractional panel on the lattice edge TOWARD the anchor, so
        # every sample of f stays inside the hull of (anchor, s); a floor on
        # both sides would step up to one panel outside the caller's domain
        k = np.where(s_arr >= self.anchor, np.floor(d), np.ceil(d)).astype(int)
        k_min, k_max = int(k.min()), int(k.max())
        self._extend(k_min, k_max)
        table = np.stack([np.asarray(self._prefix[i], dtype=float)
                          for i in range(k_min, k_max + 1)])
        base = table[k - k_min]
        edges = self.anchor + self.panel * k
        x, w = _gauss_nodes(self.nodes)
        mids = 0.5 * (edges + s_arr)
        halves = 0.5 * (s_arr - edges)
        pts = mids[:, None] + halves[:, None] * x[None, :]
        vals = np.asarray(self.f(pts.ravel()), dtype=float)
        if vals.ndim == 1:
            part = halves * (vals.reshape(pts.shape) @ w)
        else:
            vals = vals.reshape(pts.shape + vals.shape[1:])
            part = halves[:, None] * np.einsum("pn...,n->p...", vals, w)
        out = base + part
        return out[0] if scalar else out
