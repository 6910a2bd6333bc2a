"""The tests' independent references.

Adaptive Simpson quadrature, for the library's Legendre-series
integration: it shares no code with :class:`whirlcurves.SmoothCumulative`,
so agreement between the two is evidence for both.  A windowless
Gauss-Legendre panel cumulative, where a bound of a few EPS needs the same
rule as the library's panels.  The full 24-term evaluation of a panel
series, for the resolved-length one of ``whirlcurves.numerics._series_at``,
and the resolved length itself, one panel at a time.  A text-mode
``np.loadtxt`` CSV reader, for :func:`whirlcurves.traceio.read_csv`, which
parses plain bodies with orjson.  The whirl fit by an eigensolver scan and
bisection, for :func:`whirlcurves.fit_lambda_axis`, which scans in closed
form and finds the slope's root by regula falsi.  The weight sums of
:func:`whirlcurves.grid_derivatives`, node by node in long double, for its
blocked matrix product.
"""

from dataclasses import dataclass

import numpy as np

from whirlcurves import CurveTrace, Frames
from whirlcurves.errors import FrameError, QuadratureError
from whirlcurves.numerics import DEGREE, EPS, diff_weights
from whirlcurves.whirl import LAMBDA_BRACKET, LAMBDA_FLOOR, TAU_FLOOR, WhirlFit


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


PANEL = 0.125
_GAUSS_X, _GAUSS_W = np.polynomial.legendre.leggauss(24)


def _gauss(f, mid, half):
    """int f over [mid - half, mid + half], one per interval, by the 24-node
    Gauss-Legendre rule."""
    vals = np.asarray(f((mid[:, None] + half[:, None] * _GAUSS_X).ravel()), dtype=float)
    vals = np.moveaxis(vals.reshape((mid.size, 24) + vals.shape[1:]), 1, -1)
    return half.reshape((-1,) + (1,) * (vals.ndim - 2)) * (vals @ _GAUSS_W)


def gauss_cumulative(f, anchor: float, s) -> np.ndarray:
    """int_anchor^s f at each point of the 1-d array ``s`` (one row per point
    for vector-valued f): whole panels of width PANEL on a lattice through
    ``anchor``, summed in order outward from it, plus one fractional panel
    from the lattice edge toward the anchor up to s, all by the 24-node
    Gauss-Legendre rule, so f is sampled only between ``anchor`` and s."""
    s = np.asarray(s, dtype=float)
    d = (s - anchor) / PANEL
    k = np.where(s >= anchor, np.floor(d), np.ceil(d)).astype(int)
    lo, hi = min(k.min(), 0), max(k.max(), 0)
    edges = anchor + PANEL * np.arange(lo, hi + 1)
    panels = _gauss(f, 0.5 * (edges[:-1] + edges[1:]), np.full(hi - lo, 0.5 * PANEL))
    table = np.concatenate([-np.cumsum(panels[:-lo][::-1], axis=0)[::-1],
                            np.zeros((1,) + panels.shape[1:]), np.cumsum(panels[-lo:], axis=0)])
    base = anchor + PANEL * k
    return table[k - lo] + _gauss(f, 0.5 * (base + s), 0.5 * (s - base))


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


_LEFT = (-1.0) ** np.arange(1, 25)[None]   # P_j(-1), j = 1..24


def full_series_at(a, z, anti, edge, s):
    """P at each ``s`` as ``whirlcurves.numerics._series_at`` takes it, with
    every panel's series to all 24 terms: ``edge[i]`` plus the integral from
    a[i] to s of panel i's series, its antiderivative coefficients ``anti``
    on [a, z], each run of one panel's queries in one product without BLAS,
    less the same product of the row P_j(-1) = (-1)^j.  This is how the
    library read its series before each was cut to its resolved length."""
    i = np.searchsorted(a, s, side="right") - 1
    order = np.argsort(i, kind="stable")
    i, s = i[order], s[order]
    x = ((s - a[i]) - (z[i] - s)) / (z[i] - a[i])
    rows = _legendre_rows(x)
    out = np.empty(s.shape + anti.shape[1:-1])
    cuts = np.concatenate([[0], np.flatnonzero(np.diff(i)) + 1, [i.size]])
    for u, v in zip(cuts[:-1], cuts[1:]):
        at = np.einsum("qj,...j->q...", rows[u:v], anti[i[u]])
        out[u:v] = at - np.einsum("qj,...j->q...", _LEFT, anti[i[u]])
    out += edge[i]
    back = np.empty_like(out)
    back[order] = out
    return back


def resolved_lengths(anti):
    """Each panel's resolved length, one panel and one term at a time: the
    fewest leading terms such that the |coefficients| left out, the largest
    over the trailing axes, sum to at most EPS/2 of the panel's largest."""
    lengths = []
    for panel in anti:
        mag = np.abs(panel.reshape(-1, panel.shape[-1])).max(axis=0)
        n = mag.size
        while n and sum(mag[n - 1:][::-1]) <= 0.5 * np.finfo(float).eps * mag.max():
            n -= 1
        lengths.append(n)
    return np.array(lengths)


def read_csv(path) -> CurveTrace:
    """A CSV trace read as every CSV trace was before the orjson parse: in text
    mode, blank lines dropped, the first line checked as the header, the rest
    through ``np.loadtxt``; the same arrays and error messages are expected."""
    try:
        with open(path, "r") as fh:
            lines = [ln for ln in fh if ln.strip()]
    except UnicodeDecodeError as exc:
        raise ValueError(f"malformed CSV trace in {path}: {exc}") from None
    if len(lines) < 2:
        raise ValueError(f"no samples in trace file: {path}")
    header = [c.strip() for c in lines[0].split(",")]
    if len(header) != 4 or header[1:] != ["x", "y", "z"]:
        raise ValueError(f"bad CSV header {lines[0].strip()!r} in {path}")
    try:
        data = np.loadtxt(lines[1:], delimiter=",", ndmin=2)
    except ValueError as exc:
        raise ValueError(f"malformed CSV row in {path}: {exc}") from None
    if data.shape[1] != 4:
        raise ValueError(f"malformed CSV body in {path}")
    try:
        return CurveTrace(data[:, 0], data[:, 1:], meta={"param": header[0]})
    except ValueError as exc:
        raise ValueError(f"{exc} in {path}") from None


def fit_lambda_bisect(frames: Frames, rms_tol: float = 1e-3) -> WhirlFit:
    """The whirl fit of ``frames`` as the library made it before its closed-form
    scan: the smallest eigenvalue of M(lam) = A - lam*B + lam^2*C from one
    batched ``eigvalsh`` over the 1026 candidates of +-[1e-12, 1e4], ties to the
    smallest |lam| and then to positive lam, and bisection of the slope
    d'(2*lam*C - B)d inside the best candidate's bracket down to one ulp (one
    ``eigh`` per halving).  The axis, rms, verdict and notes follow as in
    :func:`whirlcurves.fit_lambda_axis`, without its note for a lam beyond the
    scan's bound.  A, B and C are the blocks of R'R, R the triangular factor
    of [N T], as the library's fit reads its frames only through R."""
    T, N = frames.t, frames.n
    R = np.linalg.qr(np.hstack([N, T]), mode="r")
    G = R.T @ R
    A, B, C = G[:3, :3], G[:3, 3:] + G[3:, :3], G[3:, 3:]

    def slope(lam):
        d = np.linalg.eigh(A - lam * B + lam * lam * C)[1][:, 0]
        return d @ (2.0 * lam * C - B) @ d

    mags = np.geomspace(LAMBDA_FLOOR, LAMBDA_BRACKET, 513)
    cands = np.concatenate([-mags[::-1], mags])
    stack = (A[None, :, :] - cands[:, None, None] * B[None, :, :]
             + (cands * cands)[:, None, None] * C[None, :, :])
    vals = np.linalg.eigvalsh(stack)[:, 0]
    floor = vals.min()
    near = np.nonzero(vals <= floor + 1e-18 + 1e-12 * abs(floor))[0]
    best_idx = min(near, key=lambda i: (abs(cands[i]), -np.sign(cands[i])))
    lo = cands[max(best_idx - 1, 0)]
    hi = cands[min(best_idx + 1, cands.size - 1)]
    lam = cands[best_idx]
    if slope(lo) < 0.0 < slope(hi):
        for _ in range(200):
            lam = 0.5 * (lo + hi)
            if not lo < lam < hi:
                break
            if slope(lam) < 0.0:
                lo = lam
            else:
                hi = lam
    if abs(lam) < LAMBDA_FLOOR:
        lam = LAMBDA_FLOOR if lam >= 0 else -LAMBDA_FLOOR
    vals3, vecs = np.linalg.eigh(A - lam * B + lam * lam * C)
    if vals3[1] <= 1e-12 * max(float(vals3[-1]), 1.0):
        raise FrameError("no stable fit: degenerate normal system")
    d = vecs[:, 0]
    if d[np.argmax(np.abs(d))] < 0:
        d = -d
    rms = float(np.sqrt(np.mean((N @ d - lam * (T @ d)) ** 2)))
    is_whirl, note = rms < rms_tol, ""
    if not np.all(np.isfinite(frames.tau)):
        is_whirl, note = False, "not a whirl curve: torsion is not finite on the grid"
    elif np.min(np.abs(frames.tau)) < TAU_FLOOR:
        is_whirl, note = False, "not a whirl curve: torsion vanishes on the grid"
    elif abs(lam) <= 4.0 * LAMBDA_FLOOR:
        is_whirl, note = False, "not a whirl curve: fitted constant is indistinguishable from zero"
    elif not is_whirl:
        note = "no axis satisfies the proportionality within tolerance"
    return WhirlFit(lam=float(lam), axis=d, rms=rms, is_whirl=is_whirl, note=note)


def weight_sums(y, width):
    """The weight sums of :func:`whirlcurves.grid_derivatives` at a window of
    ``width`` nodes, before the division by h**k, and the rounding scale of
    each, EPS * sum_t |w_t| * max |y| for the column's largest sample: two
    arrays of shape (3, n, columns).

    A node i < c = width // 2 takes row i of the weights on the first
    ``width`` samples, a node i > n - width + c row i - n + width on the
    last, and every other node the centre row on its centred window.  Each
    sum is one node's own product in long double (80-bit on x86-64), with
    the same float64 weights.
    """
    w = diff_weights(width, min(DEGREE, width - 1), np.arange(width))
    cols = np.asarray(y, dtype=float).reshape(len(y), -1)
    n, c, top = len(cols), width // 2, np.max(np.abs(cols), axis=0)
    sums = np.empty((3, n, cols.shape[1]), dtype=np.longdouble)
    scale = np.empty(sums.shape)
    for i in range(n):
        lo = min(max(i - c, 0), n - width)
        wi, x = w[i - lo], cols[lo:lo + width]
        sums[:, i] = wi.astype(np.longdouble) @ x.astype(np.longdouble)
        scale[:, i] = EPS * np.abs(wi).sum(axis=1)[:, None] * top
    return sums, scale
