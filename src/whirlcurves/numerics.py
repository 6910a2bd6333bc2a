"""Quadrature and differentiation utilities shared by the geometry modules.

All routines work in 64-bit floating point.  The curve constructions
integrate with :class:`SmoothCumulative`, the library's only integrator: it
keeps a window's panel lattice and the integral at each block edge, and reads
F off one adaptively split Legendre series per panel of the blocks a call
falls in, each evaluated to its resolved length.  Every derivative comes
from :func:`diff_weights`, applied to a callable by :func:`derivative`, to
samples by :func:`grid_derivatives`, which takes the centred nodes of a
trace as block rows of one banded matrix product on samples centred at
each block's middle sample.
"""

from dataclasses import dataclass
from typing import Callable, Optional, Tuple

import numpy as np

from .errors import DomainError, FrameError, QuadratureError

EPS = float(np.finfo(float).eps)

# grid_derivatives: least-squares degree, the bounds of the window width, and
# the spread of the spacing it takes as uniform, relative to max |s| and, at
# most, to the step
DEGREE, MIN_WIDTH, MAX_WIDTH = 8, 7, 201
S_DIGITS, MAX_SPREAD = 1e-7, 1e-3
# grid_derivatives: centred nodes per block row of the banded product, and
# the most float64 values in one chunk's temporaries (64 KB each, under
# malloc's mmap threshold, so they reuse freed heap instead of faulting in
# fresh pages)
BLOCK_ROWS, CHUNK_VALUES = 32, 8192

# SmoothCumulative: lattice panel width, 24-node Gauss-Legendre rule, the
# number of intervals one call of the integrand covers, and the farthest a
# window end may lie from the anchor, in panels.
PANEL = 0.125
_LEG = np.polynomial.legendre
_GAUSS_X, _GAUSS_W = _LEG.leggauss(24)
BLOCK = 4096
MAX_PANELS = 2 ** 20
# Series: coefficients from the samples by the inverse
# Legendre-Vandermonde matrix (a Gauss-weight transform leaves a ~2e-14
# floor in the even coefficients) whose first row, the mean, is the Gauss
# rule itself (the inverse's row is off by up to 7e-16, a bias every panel
# integral would share), antiderivative coefficients 1..24 (the constant is
# fixed by F(-1) = 0 and never formed), and the chopping bounds.
_VINV = np.vstack([0.5 * _GAUSS_W, np.linalg.inv(_LEG.legvander(_GAUSS_X, 23))[1:]])
_INTEG = _LEG.legint(np.eye(24), lbnd=-1)[1:]
CHOP_TOL, MAX_SPLITS = 1e-14, 40
_LEFT = (-1.0) ** np.arange(1, 25)   # P_j(-1), j = 1..24
# _series_at: the mean number of queries per panel from which multiplying
# each panel's run of queries by its coefficients beats gathering every
# query's (measured on a shared 2-core machine: gathering wins up to 512,
# the runs from 2048)
LONG_RUN = 1024


@dataclass(frozen=True)
class ScalarFn:
    """A real-valued function together with the closed interval it lives on.

    The evaluator must be finite on the stated domain and should accept
    numpy arrays as well as floats (all built-in curvature families do).
    ``cumulative``, when given, is the evaluator's exact integral:
    ``cumulative(s0)`` returns F with F(s) = int_{s0}^{s} evaluator, exactly
    0 at s0, for floats and numpy arrays alike.
    """

    evaluator: Callable
    domain: Tuple[float, float] = (-np.inf, np.inf)
    cumulative: Optional[Callable] = None

    def __call__(self, s):
        return self.evaluator(s)

    def contains(self, lo: float, hi: float) -> bool:
        return self.domain[0] <= lo and hi <= self.domain[1]


def as_scalar_fn(f) -> ScalarFn:
    """Wrap a bare callable; pass ScalarFn instances through unchanged."""
    if isinstance(f, ScalarFn):
        return f
    return ScalarFn(f)


def sample(f, s) -> np.ndarray:
    """``f`` at each point of the 1-d array ``s``, one row per point.

    Tries one vectorized call (raising its DomainError, FrameError or
    QuadratureError), else calls ``f`` per point.  A batch never has exactly
    3 points (a fourth is added and dropped): ``lambda s: R @ c(s)`` maps 3
    points to a (3, 3) matrix that would pass for 3 rows.  Raises
    QuadratureError naming the first point where ``f`` is not finite.
    """
    s = np.asarray(s, dtype=float)
    batch = np.append(s, s[:1]) if s.size == 3 else s
    try:
        vals = np.asarray(f(batch), dtype=float)
        if vals.shape[:1] != batch.shape:
            raise TypeError
        vals = vals[:s.size]
    except (DomainError, FrameError, QuadratureError):
        raise
    except (TypeError, ValueError, IndexError):
        vals = np.array([f(si) for si in s], dtype=float)
    if not np.isfinite(vals).all():   # flat first: a row-wise all() is far slower
        first = np.argmin(np.isfinite(vals).reshape(len(vals), -1).all(axis=1))
        raise QuadratureError(f"non-finite sample at s={float(s[first])!r}")
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


# the interpolating stencils of derivative, by width 2*max(order)+1
STENCILS = {width: diff_weights(width, width - 1) for width in (3, 5, 7)}


def derivative(f, s, order) -> np.ndarray:
    """Derivatives of a (vector-valued) function of one real at ``s``, a
    scalar or a 1-d grid sampled in one call (see :func:`sample`).

    ``order`` is 1, 2 or 3, or a tuple of them (one array per order, stacked
    on a new first axis), all from one stencil: W = 2*max(order)+1 samples
    EPS**(1/W) apart on a unit length scale, whatever ``s`` is, less the
    centre when every order is odd (its weight is zero).  Order 0 in a tuple
    returns the centre sample itself.  DomainError names the first s where
    the step rounds to zero, the float spacing there exceeding twice it."""
    orders = np.atleast_1d(order)
    if not set(orders.tolist()) <= {0, 1, 2, 3} or orders.max() == 0:
        raise ValueError("order must be 1, 2 or 3 (0 only alongside them)")
    width = 2 * int(orders.max()) + 1
    offsets = np.arange(width) - width // 2
    used = (offsets != 0) | np.any(orders % 2 == 0)
    x = np.atleast_1d(np.asarray(s, dtype=float))
    h = (x + EPS ** (1.0 / width)) - x   # an exactly representable step
    if not h.all():
        raise DomainError(f"s={float(x[h == 0][0])!r} is too large to difference: "
                          f"the stencil step rounds to zero")
    rows = np.split(sample(f, np.concatenate([x + k * h for k in offsets[used]])), used.sum())
    h = h.reshape(h.shape + (1,) * (rows[0].ndim - 1))
    weights = np.vstack([offsets == 0, STENCILS[width]])
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
    the third-derivative roundoff of uncentred sums, ~EPS*M/r**3, against
    truncation, ~r**6 (the centred sums below round less; the rule stays).

    The centred nodes go in block rows of B = ``BLOCK_ROWS`` consecutive
    nodes.  A block row takes the span of B + W - 1 samples its windows
    read, subtracts the span's middle sample, and multiplies it by one
    banded (B + W - 1) x 3B matrix of the centre weights, in chunks of block
    rows whose temporaries hold at most ``CHUNK_VALUES`` values each.  Every
    weight row sums to zero, since a derivative of a constant vanishes, so
    the subtraction is exact but for rounding; it shrinks the summed terms
    from about max |y| to about W*h*|y'|, and the roundoff with them.

    The spacing may spread by ``S_DIGITS`` of max |s|, the rounding of an s
    column printed with 8 significant digits, or by 1e-9 of the step, but
    never by more than ``MAX_SPREAD`` of the step (else ValueError), and it
    needs at least 2 samples.
    """
    s, y = np.asarray(s, dtype=float), np.asarray(y, dtype=float)
    if s.size < 2:
        raise ValueError(f"derivatives of samples need at least 2 samples, got {s.size}")
    dx = np.diff(s)
    step, spread = np.max(np.abs(dx)), np.ptp(dx)
    if spread > min(max(1e-9 * step, S_DIGITS * np.max(np.abs(s))), MAX_SPREAD * step):
        raise ValueError(f"derivatives of samples need a uniform grid: the spacing "
                         f"strays by {spread / step:.2g} of the step")
    h = float(np.mean(dx))
    r = (EPS * np.max(np.abs(y))) ** (1.0 / (DEGREE + 1))
    width = min(len(y), int(np.clip(2 * np.round(r / abs(h)) + 1, MIN_WIDTH, MAX_WIDTH)))
    w, c = diff_weights(width, min(DEGREE, width - 1), np.arange(width)), width // 2
    cols = y.reshape(len(y), -1)
    (n, p), m = cols.shape, len(y) - width + 1   # m centred nodes, c .. c + m - 1
    b = min(BLOCK_ROWS, m)
    blocks, span, j = -(-m // b), b + width - 1, np.arange(b)
    band = np.zeros((span, b, 3))   # band[j + t, j, k] = w[c, k, t]: node j's window
    band[np.add.outer(np.arange(width), j), j] = w[c].T[:, None]
    band = band.reshape(span, 3 * b)
    # each column of y as one row, its last sample repeated past the end,
    # where only the dropped nodes of the last block row read
    series = np.empty((p, blocks * b + width - 1))
    series[:, :n], series[:, n:] = cols.T, cols[-1:].T
    item = series.itemsize
    spans = np.lib.stride_tricks.as_strided(   # spans[q, i] = series[q, i*b:i*b + span]
        series, (p, blocks, span), (series.strides[0], b * item, item), writeable=False)
    per = max(1, CHUNK_VALUES // (p * max(span, 3 * b)))
    out = np.empty((3, n, p))
    out[:, :c] = (w[:c] @ cols[:width]).transpose(1, 0, 2)
    out[:, c + m:] = (w[c + 1:] @ cols[-width:]).transpose(1, 0, 2)
    # samples near the float range give infinite derivatives, and a step whose
    # cube underflows infinite or NaN ones: the frames refuse or report them
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        for k in range(0, blocks, per):
            v = spans[:, k:k + per]
            x = (v - v[:, :, span // 2, None]).reshape(-1, span)
            done = min(v.shape[1] * b, m - k * b)
            # a product row per (column, block row), a column per (node, order)
            out[:, c + k * b:c + k * b + done] = (x @ band).reshape(p, -1, 3).T[:, :done]
        out /= h ** np.arange(1, 4)[:, None, None]
    return out.reshape((3,) + y.shape)


class SmoothCumulative:
    """Cumulative integral ``F(s) = ∫_anchor^s f`` on a window, read off one
    Legendre series per panel.

    ``f`` is sampled by :func:`sample`, on at most ``BLOCK`` intervals (24
    points each) at a time: one call on the batch, else one per point.  It
    may return scalars or rows of one fixed length.  A sample of f that is
    not finite raises :class:`QuadratureError` at once.  ``window=(lo,
    hi)`` must hold the anchor (else ValueError) and lie within
    ``MAX_PANELS`` panels of it (else :class:`DomainError` at once); f is
    sampled only inside it, and a query outside it raises
    :class:`DomainError`.

    Panels of width ``PANEL`` lie on a lattice through ``anchor``, clipped to
    the window, and F is read off one Legendre series per panel (Greengard
    1991): the 24 Gauss samples become coefficients c_j by the inverse
    Legendre-Vandermonde matrix.  A panel is bisected until its series is
    resolved (chopping as in Aurentz & Trefethen, 2017): its last three |c_j|
    are at most ``CHOP_TOL`` * max(scale, 1), scale = max |c_j|, or they are
    at most EPS**(2/3) * scale and no longer decay (at least a tenth of
    |c_15..17|).  A child whose tail is not below 0.9 of its parent's, or
    ``MAX_SPLITS`` bisections down, is kept as it is.

    P(s), the integral from the window's left end, is P at s's panel's left
    edge plus that panel's antiderivative series at s, evaluated to its
    resolved length: the trailing terms whose |coefficients| sum to at most
    EPS/2 of the panel's largest are dropped (see :func:`_series_at`).
    F(s) = P(s) - P(anchor), the anchor read as one more query, so F(anchor)
    is exactly 0.  The table is the lattice, P at the edge of each block of
    ``BLOCK`` lattice panels, and P(anchor).  The first call builds it block
    by block; a block's P at its panel edges is a running sum, left to
    right, from its left edge.  A call sorts its queries, unless they are
    sorted already, so each block's are one run.  A later call rebuilds the
    series and that sum for the blocks its queries fall in, so F(s) depends
    on s and the window alone, never on the batch.  Threads whose
    first calls race each build the same table, and it is set in one
    assignment, so no lock is needed.
    """

    def __init__(self, f, anchor: float, window):
        self.f = f
        self.anchor = float(anchor)
        self._table = None   # lattice, P at block edges, P(anchor), panels
        self.window = lo, hi = float(window[0]), float(window[1])
        for end in self.window:
            if not abs(end - self.anchor) / PANEL <= MAX_PANELS:
                raise DomainError(
                    f"s={end!r} is not finite or lies farther than {MAX_PANELS * PANEL:g} "
                    f"from the integration anchor {self.anchor!r}")
        if not lo <= self.anchor <= hi:
            raise ValueError(f"anchor {self.anchor!r} lies outside the window {self.window}")

    @property
    def panels(self) -> int:
        """Panels of the series table; 0 until it is built."""
        return 0 if self._table is None else self._table[3]

    def _samples(self, mids, halves):
        """f at the 24 Gauss nodes of each of at most BLOCK intervals
        [mids - halves, mids + halves], shape (intervals, 24, ...), sampled
        by :func:`sample`."""
        pts = mids[:, None] + halves[:, None] * _GAUSS_X
        vals = sample(self.f, pts.ravel())
        return vals.reshape(pts.shape + vals.shape[1:])

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
            if ok.all():
                done.append((a, z, c))
                continue
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

    def __call__(self, s):
        """F at ``s``, a float or an array of points of the window.  The first
        call builds every block, recording P at its edges and P(anchor), and
        reads its own queries off each block's series as it goes; a later call
        rebuilds the blocks it falls in."""
        s_arr = np.atleast_1d(np.asarray(s, dtype=float))
        lo, hi = self.window
        outside = ~((s_arr >= lo) & (s_arr <= hi))
        if outside.any():
            raise DomainError(f"s={float(s_arr[outside][0])!r} is not finite or lies "
                              f"outside the integration window [{lo!r}, {hi!r}]")
        table = self._table
        if table is None:
            k = np.arange(np.floor((lo - self.anchor) / PANEL),
                          np.ceil((hi - self.anchor) / PANEL) + 1)
            inside = self.anchor + PANEL * k
            lattice = np.concatenate([[lo], inside[(inside > lo) & (inside < hi)], [hi]])
            starts, panels = [0.0], 0
        else:
            lattice, starts, at_anchor, panels = table
        # sorted, each block's queries are one run, cut at the blocks' left
        # lattice edges: a query's block is known before the table is
        order = None if np.all(s_arr[1:] >= s_arr[:-1]) else np.argsort(s_arr, kind="stable")
        ordered = s_arr if order is None else s_arr[order]
        lefts = lattice[:-1:BLOCK]
        cuts = np.append(np.searchsorted(ordered, lefts), s_arr.size)
        home = -1 if table is not None else np.searchsorted(lefts, self.anchor, "right") - 1
        P = None
        for b in range(cuts.size - 1):
            ours = slice(cuts[b], cuts[b + 1])
            if table is not None and ours.start == ours.stop:
                continue
            a, z, c = self._series(lattice[b * BLOCK:(b + 1) * BLOCK + 1])
            # P at each panel edge, summed on from the block's left edge; the
            # integral over [-1, 1] of sum c_j P_j is 2 c_0
            edge = np.empty((a.size + 1,) + c.shape[1:-1])
            edge[0], edge[1:] = starts[b], (z - a).reshape((-1,) + (1,) * (c.ndim - 2)) * c[..., 0]
            edge = np.cumsum(edge, axis=0)
            if table is None:
                starts.append(edge[-1].copy())   # not a view that keeps the block's sums
                panels += a.size
            # the anchor is read as one more query, so F(anchor) is exactly 0
            at = np.append(ordered[ours], self.anchor) if b == home else ordered[ours]
            if not at.size:
                continue
            anti = _transform(_INTEG, c) * (0.5 * (z - a)).reshape((-1,) + (1,) * (c.ndim - 1))
            vals = _series_at(a, z, anti, edge, at)
            if b == home:
                vals, at_anchor = vals[:-1], vals[-1].copy()
            P = np.empty(s_arr.shape + c.shape[1:-1]) if P is None else P
            P[ours if order is None else order[ours]] = vals
        if table is None:
            self._table = (lattice, starts, at_anchor, panels)
        if P is None:   # no queries
            return np.empty(s_arr.shape + np.shape(at_anchor))
        P -= at_anchor   # F = P - P(anchor), in place
        return P if np.ndim(s) else P[0]


def _series_at(a, z, anti, edge, s):
    """P at each ``s``: ``edge[i]``, P at the left edge of s's panel i,
    plus the integral from a[i] to s of that panel's series, ``anti`` being
    each panel's antiderivative coefficients 1..24 on [a, z].

    Each panel's series is evaluated to its resolved length: the trailing
    terms whose |coefficients| (the largest over the trailing axes) sum to
    at most EPS/2 of the panel's largest are dropped.  edge[i] less the
    series at the left edge, from the exact row P_j(-1) = (-1)^j, is one
    offset per panel, so the value is the offset plus the series at s, and
    the dropped tail moves the integral from a[i] to s by at most EPS of
    the panel's largest coefficient (|P_j| <= 1 on [-1, 1], at s and at
    -1).  At a panel's left edge the value matches edge[i] to within
    rounding, no longer exactly.  A query's terms, zero past its panel's
    length, are summed from the last down, then its offset is added, each
    query on its own without BLAS, so a value does not depend on the other
    queries.  Long runs of one panel's queries (see ``LONG_RUN``) are
    multiplied by its coefficients run by run, other queries' coefficients
    gathered one by one: the same products either way."""
    i = np.searchsorted(a, s, side="right") - 1
    x = ((s - a[i]) - (z[i] - s)) / (z[i] - a[i])
    flat = anti.reshape(a.size, -1, 24)
    mag = np.abs(flat).max(axis=1)
    keep = np.cumsum(mag[:, ::-1], axis=1)[:, ::-1] > 0.5 * EPS * mag.max(axis=1, keepdims=True)
    length = keep.sum(axis=1)
    coef = (flat * keep[:, None]).T.copy()   # (term, component, panel)
    offset = edge[:-1].reshape(a.size, -1).T - np.einsum("j,jkp->kp", _LEFT, coef)
    out = np.empty((coef.shape[1], s.size))
    rows = np.empty((25, min(s.size, BLOCK)))
    terms = np.empty(24 * out.shape[0] * rows.shape[1])
    for lo in range(0, s.size, BLOCK):
        ii = i[lo:lo + BLOCK]
        m, n = ii.size, length[ii].max()
        p = _legendre_rows(x[lo:lo + m], rows[:n + 1, :m])
        t = terms[:n * out.shape[0] * m].reshape(n, out.shape[0], m)   # (term, component, query)
        runs = np.flatnonzero(np.append(True, ii[1:] != ii[:-1]))
        if runs.size * LONG_RUN > m:   # gather each query's coefficients
            np.take(coef[:n], ii, axis=2, out=t, mode="clip")
            t *= p[1:, None]
        else:   # each run of one panel's queries times that panel's coefficients
            for u, v in zip(runs, np.append(runs[1:], m)):
                np.multiply(p[1:, None, u:v], coef[:n, :, ii[u], None], out=t[..., u:v])
        acc = out[:, lo:lo + m]
        acc[...] = 0.0
        for j in range(n - 1, -1, -1):
            acc += t[j]
        acc += np.take(offset, ii, axis=1)
    return out.T.reshape(s.shape + anti.shape[1:-1])


def _transform(matrix, values):
    """``matrix`` applied to the last axis of ``values``, as one product."""
    flat = np.ascontiguousarray(values).reshape(-1, values.shape[-1])
    return (flat @ matrix.T).reshape(values.shape[:-1] + (-1,))


def _legendre_rows(x, p):
    """P_0(x) .. P_n(x) into the n+1 rows of ``p``, one column per point,
    from the three-term recurrence P_{j+1} = x P_j + j/(j+1) (x P_j -
    P_{j-1}), exact at x = +-1; returns ``p``."""
    t = np.empty_like(x)
    p[0] = 1.0
    if len(p) > 1:
        p[1] = x
    for j in range(1, len(p) - 1):
        np.multiply(x, p[j], out=p[j + 1])
        np.subtract(p[j + 1], p[j - 1], out=t)
        t *= j / (j + 1)
        p[j + 1] += t
    return p
