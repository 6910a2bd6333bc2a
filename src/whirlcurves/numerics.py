"""Quadrature and differentiation utilities shared by the geometry modules.

All routines work in 64-bit floating point.  The curve constructions
integrate with :class:`SmoothCumulative`, a fixed-node Gauss-Legendre panel
sum that is smooth in its upper limit; given a validated window, it reads F
off one adaptively split Legendre series per panel instead.  It is the
library's only integrator.  Every derivative
comes from :func:`diff_weights`, applied to a callable by :func:`derivative`,
to samples by :func:`grid_derivatives`.
"""

import threading
from dataclasses import dataclass
from typing import Callable, Tuple

import numpy as np

from .errors import DomainError, FrameError, QuadratureError

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
BLOCK = 4096
MAX_PANELS = 2 ** 20
# Windowed series: coefficients from the samples by the inverse
# Legendre-Vandermonde matrix (a Gauss-weight transform leaves a ~2e-14
# floor in the even coefficients) whose first row, the mean, is the Gauss
# rule itself (the inverse's row is off by up to 7e-16, a bias every panel
# integral would share), antiderivative coefficients 1..24 (the constant is
# fixed by F(-1) = 0 and never formed), and the chopping bounds.
_VINV = np.vstack([0.5 * _GAUSS_W, np.linalg.inv(_LEG.legvander(_GAUSS_X, 23))[1:]])
_INTEG = _LEG.legint(np.eye(24), lbnd=-1)[1:]
CHOP_TOL, MAX_SPLITS = 1e-14, 40
_LEFT = (-1.0) ** np.arange(1, 25)[None]   # P_j(-1), j = 1..24


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


def sample(f, s, error=QuadratureError) -> np.ndarray:
    """``f`` at each point of the 1-d array ``s``, one row per point.

    Tries one vectorized call (raising its DomainError or FrameError), else
    calls ``f`` per point.  A batch never has exactly 3 points (a fourth is
    added and dropped): ``lambda s: R @ c(s)`` maps 3 points to a (3, 3)
    matrix that would pass for 3 rows.  Raises ``error`` naming the first
    point where ``f`` is not finite.
    """
    s = np.asarray(s, dtype=float)
    batch = np.append(s, s[:1]) if s.size == 3 else s
    try:
        vals = np.asarray(f(batch), dtype=float)
        if vals.shape[:1] != batch.shape:
            raise TypeError
        vals = vals[:s.size]
    except (DomainError, FrameError):
        raise
    except (TypeError, ValueError, IndexError):
        vals = np.array([f(si) for si in s], dtype=float)
    if not np.isfinite(vals).all():   # flat first: a row-wise all() is far slower
        first = np.argmin(np.isfinite(vals).reshape(len(vals), -1).all(axis=1))
        raise error(f"non-finite sample at s={float(s[first])!r}")
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

    ``f`` must accept numpy arrays; it may return scalars or rows of one fixed
    length, and is called on at most ``BLOCK`` intervals (24 points each) at a
    time.  Panels of width ``PANEL`` lie on a lattice through ``anchor``.  A
    sample of f that is not finite raises :class:`QuadratureError` at once.

    Without a ``window``, F(s) is a prefix sum over whole lattice panels plus
    one fractional panel from the lattice edge toward the anchor up to s, all
    by the same 24-node Gauss rule, so every sample of f stays inside the hull
    of (anchor, s).  The prefix is one array over a contiguous range of
    lattice indices, grown on demand by a cumulative sum seeded with its
    current end value; a lock serializes growth, so an instance can be shared
    across threads.  A query that is not finite or lies more than
    ``MAX_PANELS`` panels from the anchor raises :class:`DomainError` before
    the table grows.

    With ``window=(lo, hi)`` (holding the anchor; an end more than
    ``MAX_PANELS`` panels from it raises :class:`DomainError` at once), the
    lattice panels are clipped to the window and F is read off one Legendre
    series per panel (Greengard 1991): the 24 Gauss samples become
    coefficients c_j by the inverse Legendre-Vandermonde matrix, and F(s) is
    the prefix at the panel's left edge plus the antiderivative series at s.
    A panel is bisected until its series is resolved (chopping as in Aurentz
    & Trefethen, 2017): its last three |c_j| are at most ``CHOP_TOL`` *
    max(scale, 1), scale = max |c_j|, or they are at most EPS**(2/3) * scale
    and no longer decay (at least a tenth of |c_15..17|).  A child whose tail
    is not below 0.9 of its parent's, or ``MAX_SPLITS`` bisections down, is
    kept as it is.  The table holds the prefix only and is built on the first
    call, ``BLOCK`` lattice panels at a time; a later call rebuilds the series
    of the blocks its queries fall in, so F(s) depends on s and the window
    alone, never on the batch.  Threads whose first calls race each build the
    same table, and it is set in one assignment, so no lock is needed.  A
    query outside the window raises :class:`DomainError`.  Only a caller that
    knows its hull has a window; the others keep the windowless path.
    """

    def __init__(self, f, anchor: float, window=None):
        self.f = f
        self.anchor = float(anchor)
        self._lo = 0          # lattice index of the table's first row
        self._table = None    # F at lattice points; None while only F(anchor) = 0
        self._lock = threading.Lock()
        self._series_table = None   # the windowed table: lattice, prefix, first panels
        self.window = None if window is None else (float(window[0]), float(window[1]))
        if window is not None:
            self._check_far(np.array(self.window))
            if not self.window[0] <= self.anchor <= self.window[1]:
                raise ValueError(f"anchor {self.anchor!r} lies outside the window {self.window}")

    @property
    def panels(self) -> int:
        """Panels of the windowed series table; 0 until it is built."""
        return 0 if self._series_table is None else len(self._series_table[1])

    def _check_far(self, s_arr):
        far = ~(np.abs((s_arr - self.anchor) / PANEL) <= MAX_PANELS)
        if far.any():
            raise DomainError(
                f"s={float(s_arr[far][0])!r} is not finite or lies farther than "
                f"{MAX_PANELS * PANEL:g} from the integration anchor {self.anchor!r}")

    def _samples(self, mids, halves):
        """f at the 24 Gauss nodes of each of at most BLOCK intervals
        [mids - halves, mids + halves], shape (intervals, 24, ...); raises
        :class:`QuadratureError` at the first node where f is not finite."""
        pts = mids[:, None] + halves[:, None] * _GAUSS_X
        vals = np.asarray(self.f(pts.ravel()), dtype=float)
        if not np.isfinite(vals).all():
            bad = float(pts.ravel()[~np.isfinite(vals.reshape(pts.size, -1)).all(axis=1)][0])
            raise QuadratureError(f"non-finite integrand sample at s={bad!r}")
        return vals.reshape(pts.shape + vals.shape[1:])

    def _gauss(self, mids, halves):
        """Integrals of f over [mids - halves, mids + halves], one per interval."""
        halves = np.broadcast_to(halves, mids.shape)
        out = []
        for i in range(0, mids.size, BLOCK):
            h = halves[i:i + BLOCK]
            vals = self._samples(mids[i:i + BLOCK], h)
            if vals.ndim == 2:
                out.append(h * (vals @ _GAUSS_W))
            else:
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

    def _series(self, lattice):
        """Resolved panels covering the lattice panels between the sorted
        ``lattice`` edges: (left edges, right edges, Legendre coefficients of
        f on the last axis), sorted by left edge."""
        todo = [(lattice[:-1], lattice[1:], np.full(lattice.size - 1, np.inf), 0)]
        done = []
        while todo:
            a, z, parent_tail, depth = todo.pop()
            mid = 0.5 * (a + z)
            c = _transform(_VINV, np.moveaxis(self._samples(mid, 0.5 * (z - a)), 1, -1))
            mag = np.abs(c).reshape(a.size, -1, 24).max(axis=1)
            scale, tail = mag.max(axis=1), mag[:, -3:].max(axis=1)
            ok = ((tail <= CHOP_TOL * np.maximum(scale, 1.0))
                  | (tail <= EPS ** (2.0 / 3.0) * scale) & (tail >= 0.1 * mag[:, 15:18].max(axis=1))
                  | (tail >= 0.9 * parent_tail) | (depth >= MAX_SPLITS)
                  | ~((a < mid) & (mid < z)))   # no representable midpoint
            done.append((a[ok], z[ok], c[ok]))
            a, z = np.concatenate([a[~ok], mid[~ok]]), np.concatenate([mid[~ok], z[~ok]])
            tail = np.tile(tail[~ok], 2)
            todo += [(a[i:i + BLOCK], z[i:i + BLOCK], tail[i:i + BLOCK], depth + 1)
                     for i in range(0, a.size, BLOCK)]
        if len(done) == 1:
            return done[0]
        a, z, c = (np.concatenate(part) for part in zip(*done))
        order = np.argsort(a)
        return a[order], z[order], c[order]

    def _windowed(self, s_arr):
        """F at points of the window.  The first call builds the table, block
        by block, and reads its own queries off each block's series as it
        goes; a later call rebuilds the series of the blocks it falls in."""
        lo, hi = self.window
        outside = ~((s_arr >= lo) & (s_arr <= hi))
        if outside.any():
            raise DomainError(f"s={float(s_arr[outside][0])!r} is not finite or lies "
                              f"outside the integration window [{lo!r}, {hi!r}]")
        table = self._series_table
        if table is None:
            k = np.arange(np.floor((lo - self.anchor) / PANEL),
                          np.ceil((hi - self.anchor) / PANEL) + 1)
            inside = self.anchor + PANEL * k
            lattice = np.concatenate([[lo], inside[(inside > lo) & (inside < hi)], [hi]])
            edges, integrals, first = [], [], [0]
        else:
            lattice, prefix, first = table
        # a query's block of lattice panels is known before the table is
        blocks = np.minimum(np.searchsorted(lattice, s_arr, side="right") - 1,
                            lattice.size - 2) // BLOCK
        todo = (range(-(-(lattice.size - 1) // BLOCK)) if table is None
                else np.flatnonzero(np.bincount(blocks)))
        out, panel = None, np.empty(s_arr.size, dtype=int)   # each query's panel
        for b in todo:
            a, z, c = self._series(lattice[b * BLOCK:(b + 1) * BLOCK + 1])
            if table is None:
                edges.append(a)
                # the integral over [-1, 1] of sum c_j P_j is 2 c_0
                integrals.append((z - a).reshape((-1,) + (1,) * (c.ndim - 2)) * c[..., 0])
                first.append(first[-1] + a.size)
            ours = np.flatnonzero(blocks == b)
            if not ours.size:
                continue
            i = np.searchsorted(a, s_arr[ours], side="right") - 1
            order = np.argsort(i, kind="stable")   # each panel's queries together
            ours, i = ours[order], i[order]
            anti = _transform(_INTEG, c) * (0.5 * (z - a)).reshape((-1,) + (1,) * (c.ndim - 1))
            out = np.empty(s_arr.shape + c.shape[1:-1]) if out is None else out
            out[ours] = _series_at(a, z, anti, i, s_arr[ours])
            panel[ours] = first[b] + i
        if table is None:
            integrals = np.concatenate(integrals)
            # F(anchor) = 0: sum outward from the panel edge at the anchor
            at = int(np.searchsorted(np.concatenate(edges), self.anchor))
            zero = _zero_row(integrals)
            prefix = np.concatenate([-_running_sum(zero, integrals[:at][::-1])[::-1],
                                     zero, _running_sum(zero, integrals[at:])])[:-1]
            self._series_table = (lattice, prefix, first)
        if out is None:   # no queries
            return np.empty(s_arr.shape + prefix.shape[1:])
        out += prefix[panel]
        return out

    def __call__(self, s):
        s_arr = np.atleast_1d(np.asarray(s, dtype=float))
        if self.window is not None:
            out = self._windowed(s_arr)
            return out if np.ndim(s) else out[0]
        self._check_far(s_arr)
        d = (s_arr - self.anchor) / PANEL
        # base the fractional panel on the lattice edge TOWARD the anchor, so
        # every sample of f stays inside the hull of (anchor, s); a floor on
        # both sides would step up to one panel outside the caller's domain
        k = np.where(s_arr >= self.anchor, np.floor(d), np.ceil(d)).astype(int)
        lo, table = self._extend(int(k.min()), int(k.max()))
        edges = self.anchor + PANEL * k
        part = self._gauss(0.5 * (edges + s_arr), 0.5 * (s_arr - edges))
        out = (0.0 if table is None else table[k - lo]) + part
        return out if np.ndim(s) else out[0]


def _series_at(a, z, anti, i, s):
    """The integral from a[i] to each s of panel i's series, ``anti`` being
    each panel's antiderivative coefficients 1..24 on [a, z], for i sorted.
    Each run of one panel's queries meets that panel's coefficients in one
    product without BLAS, so a value does not depend on the other queries.
    The series at the left edge comes from the same product of the exact
    row P_j(-1) = (-1)^j, so it is 0 there exactly."""
    x = (s - 0.5 * (a[i] + z[i])) / (0.5 * (z[i] - a[i]))
    out = np.empty(s.shape + anti.shape[1:-1])
    for lo in range(0, s.size, BLOCK):
        rows, ii = _legendre_rows(x[lo:lo + BLOCK]), i[lo:lo + BLOCK]
        cuts = np.concatenate([[0], np.flatnonzero(np.diff(ii)) + 1, [ii.size]])
        for u, v in zip(cuts[:-1], cuts[1:]):
            at = np.einsum("qj,...j->q...", rows[u:v], anti[ii[u]])
            out[lo + u:lo + v] = at - np.einsum("qj,...j->q...", _LEFT, anti[ii[u]])
    return out


def _transform(matrix, values):
    """``matrix`` applied to the last axis of ``values``, as one product."""
    flat = np.ascontiguousarray(values).reshape(-1, values.shape[-1])
    return (flat @ matrix.T).reshape(values.shape[:-1] + (-1,))


def _legendre_rows(x):
    """P_1(x) .. P_24(x), one row per point, from the three-term recurrence
    P_{j+1} = x P_j + j/(j+1) (x P_j - P_{j-1}), exact at x = +-1."""
    p, t = np.empty((25,) + x.shape), np.empty_like(x)
    p[0], p[1] = 1.0, x
    for j in range(1, 24):
        np.multiply(x, p[j], out=p[j + 1])
        np.subtract(p[j + 1], p[j - 1], out=t)
        t *= j / (j + 1)
        p[j + 1] += t
    return np.ascontiguousarray(p[1:].T)


def _zero_row(rows):
    return np.zeros((1,) + rows.shape[1:])


def _running_sum(start, steps):
    """start + steps[0], start + steps[0] + steps[1], ..., summed in order."""
    return np.cumsum(np.concatenate([start, steps]), axis=0)[1:]
