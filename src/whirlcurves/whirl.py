"""Whirl-property primitives: intrinsic equation, axis vector, verification
and the inverse fit.

The checks run on the :class:`~whirlcurves.frenet.Frames` of a whole grid.

A whirl curve has kappa > 0, tau != 0, and a fixed unit direction d with
<n, d> = lam * <t, d> for a nonzero constant lam.  Its curvature and torsion
then satisfy

    tau * lam * (1 + lam^2 + (tau/kappa)^2) = (1 + lam^2) * (tau/kappa)'

and d is recovered, up to sign, from one frame as

    d = +- (t + lam*n + (1+lam^2)*(kappa/tau)*b) / norm.
"""

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import FrameError
from .frenet import Frames, frenet_at
from .numerics import grid_derivatives

LAMBDA_FLOOR = 1e-12
LAMBDA_BRACKET = 1e4
TAU_FLOOR = 1e-9   # a fit over frames with |tau| below this is no whirl
MIN_FIT_FRAMES = 4   # fit_lambda_axis: the fewest frames it fits
FIT_RMS_TOL = 1e-3   # fit_lambda_axis: a whirl curve's fit rms is below this


def check_lam(lam):
    """The one rule for a whirl constant: ValueError for a ``lam`` (a float
    or an array) that is not finite, whose 1 + lam^2 overflows (|lam| above
    ~1.3e154), or that is zero, below LAMBDA_FLOOR in magnitude."""
    if not np.all(np.isfinite(lam)):
        raise ValueError(f"lam must be finite, got {lam}")
    with np.errstate(over="ignore"):
        if not np.all(np.isfinite(1.0 + np.square(lam))):
            raise ValueError(f"1 + lam^2 overflows at lam = {lam}")
    if np.any(np.abs(lam) < LAMBDA_FLOOR):
        raise ValueError("lam must be nonzero")


def intrinsic_residual(kappa, tau, ratio_prime, lam) -> float:
    """Signed defect of the intrinsic equation at one point.

    Zero exactly when (kappa, tau) belong to a whirl curve with constant
    ``lam``.  ``ratio_prime`` is d(tau/kappa)/ds at the same point.  Odd under
    (tau, ratio_prime) -> (-tau, -ratio_prime) (the mirror curve) and under
    (lam, ratio_prime) -> (-lam, -ratio_prime).
    """
    kappa = np.asarray(kappa, dtype=float)
    if np.any(kappa <= 0):
        raise ValueError("kappa must be positive")
    check_lam(lam)
    ratio = tau / kappa
    out = tau * lam * (1.0 + lam * lam + ratio * ratio) - (1.0 + lam * lam) * ratio_prime
    return out if np.ndim(out) else float(out)


def intrinsic_residual_grid(s_grid, kappas, taus, lam) -> np.ndarray:
    """Intrinsic residual at every node of a uniform grid, d(tau/kappa)/ds from
    :func:`~whirlcurves.numerics.grid_derivatives`.  Raises ValueError on a
    non-uniform grid.
    """
    s = np.asarray(s_grid, dtype=float)
    kappas, taus = np.asarray(kappas, dtype=float), np.asarray(taus, dtype=float)
    ratios = taus / kappas
    if s.size != ratios.size or s.size < 3:
        raise ValueError("need at least 3 grid points")
    return intrinsic_residual(kappas, taus, grid_derivatives(s, ratios)[0], lam)


def whirl_axis(frame: Frames, lam: float) -> np.ndarray:
    """Candidate unit whirl axis: (3,) from a row of Frames, else (n, 3);
    FrameError where a torsion is zero, not finite or too small against kappa."""
    check_lam(lam)
    if not np.all(np.isfinite(frame.tau)):
        raise FrameError("axis undefined: torsion is not finite")
    if np.any(frame.tau == 0.0):
        raise FrameError("axis undefined: zero torsion")
    with np.errstate(over="ignore", invalid="ignore"):   # a subnormal tau overflows r
        r = np.asarray(frame.kappa / frame.tau)[..., None]
        num = frame.t + lam * frame.n + (1.0 + lam * lam) * r * frame.b
        norm = np.linalg.norm(num, axis=-1, keepdims=True)
    if not np.all(np.isfinite(norm)):
        raise FrameError("axis undefined: torsion too small against curvature, "
                         f"kappa/tau = {float(np.max(np.abs(r))):.3g}")
    return num / norm


def proportionality_residual(frame: Frames, d: np.ndarray, lam: float):
    """Signed defect <n, d> - lam * <t, d>: a float for a row, else (n,)."""
    d = np.asarray(d, dtype=float)
    if abs(np.linalg.norm(d) - 1.0) > 1e-6:
        raise ValueError("d must be a unit vector")
    out = frame.n @ d - lam * (frame.t @ d)
    return out if np.ndim(out) else float(out)


@dataclass
class AxisReport:
    """Representative axis of a candidate whirl curve and the spread of its
    per-sample axes."""

    d: np.ndarray          # representative unit axis (normalized mean)
    max_deviation: float   # max_i |d_i - d_0|
    max_residual: float    # max_i |<n_i, d> - lam <t_i, d>|

    def passes(self, tol: float) -> bool:
        return self.max_deviation < tol and self.max_residual < tol


def verify_whirl(curve: Callable, s_grid, *, lam: float,
                 deriv: Optional[Callable] = None) -> AxisReport:
    """Check axis constancy of the position callable ``curve`` on ``s_grid``
    for a given ``lam``; ``deriv`` is its optional analytic first derivative.
    Given ``deriv``, the frames come from it alone (see
    :func:`~whirlcurves.frenet.frenet_at`): ``curve`` is never evaluated,
    so the check is of ``deriv``, not of the positions.

    The curve passes at tolerance tol when ``report.passes(tol)``.
    """
    frames = frenet_at(curve, np.atleast_1d(s_grid), deriv=deriv)
    if not len(frames):
        raise ValueError("empty grid")
    axes = whirl_axis(frames, lam)
    axes = -axes if frames.t[0] @ axes[0] < 0 else axes
    dev = float(np.max(np.linalg.norm(axes - axes[0], axis=1)))
    d_mean = axes.mean(axis=0)
    nm = float(np.linalg.norm(d_mean))
    # axes of a decidedly non-whirl curve can average out; fall back to the
    # first sample so the report stays well-formed
    d_mean = axes[0] if nm < 1e-9 else d_mean / nm
    resid = np.max(np.abs(proportionality_residual(frames, d_mean, lam)))
    return AxisReport(d=d_mean, max_deviation=dev, max_residual=float(resid))


@dataclass
class WhirlFit:
    """Least-squares whirl constant and axis for sampled frames."""

    lam: float
    axis: np.ndarray
    rms: float
    is_whirl: bool
    note: str = ""


# the scan's candidates: 513 magnitudes geometric over [LAMBDA_FLOOR,
# LAMBDA_BRACKET], each with both signs, in increasing order
_CANDIDATES = np.concatenate([-np.geomspace(LAMBDA_FLOOR, LAMBDA_BRACKET, 513)[::-1],
                              np.geomspace(LAMBDA_FLOOR, LAMBDA_BRACKET, 513)])
_TINY = np.finfo(float).tiny


def _smallest_eigenvalues(N, T, lams) -> np.ndarray:
    """Smallest eigenvalue of M(lam) = A - lam*B + lam^2*C for each lam, in
    one vectorized pass with no eigensolver.

    M(lam) is the Gram matrix of N - lam*T, whose singular values are those
    of W = R[:, :3] - lam*R[:, 3:], R the triangular factor of [N T].
    Modified Gram-Schmidt splits W's columns into orthogonal parts of
    squared norms a2, d2 and f2 (coefficients b1, b2 and g), which give the
    characteristic cubic x^3 - F*x^2 + G*x - P of W'W, P = a2*d2*f2.  Its
    largest root comes from the trigonometric form (Smith 1961), the
    smallest as a quotient of the quadratic left.  So the smallest is
    accurate relative to itself; M formed in floating point loses all below
    EPS times its largest eigenvalue, which on a nearly straight trace hides
    the minimum.  A planar trace gives exactly 0.
    """
    R = np.linalg.qr(np.hstack([N, T]), mode="r")
    w0, w1, w2 = (R[:, k, None] - lams * R[:, k + 3, None] for k in range(3))
    a2 = np.maximum(np.einsum("jk,jk->k", w0, w0), _TINY)
    b1, b2 = np.einsum("jk,jk->k", w0, w1) / a2, np.einsum("jk,jk->k", w0, w2) / a2
    w1 -= b1 * w0
    w2 -= b2 * w0
    d2 = np.maximum(np.einsum("jk,jk->k", w1, w1), _TINY)
    g = np.einsum("jk,jk->k", w1, w2) / d2
    w2 -= g * w1
    f2 = np.einsum("jk,jk->k", w2, w2)
    F = a2 * (1.0 + b1 * b1 + b2 * b2) + d2 * (1.0 + g * g) + f2
    G = a2 * d2 * (1.0 + g * g + (b1 * g - b2) ** 2) + f2 * (a2 * (1.0 + b1 * b1) + d2)
    P = a2 * d2 * f2
    m = F / 3.0
    p = np.sqrt(np.maximum(m * m - G / 3.0, 0.0))
    r = np.clip((P - G * m + 2.0 * m ** 3) / np.maximum(2.0 * p ** 3, _TINY), -1.0, 1.0)
    x1 = np.maximum(m + 2.0 * p * np.cos(np.arccos(r) / 3.0), _TINY)
    prod = P / x1                    # x2 * x3
    total = (G - prod) / x1          # x2 + x3
    x2 = 0.5 * (total + np.sqrt(np.maximum(total * total - 4.0 * prod, 0.0)))
    return prod / np.maximum(x2, _TINY)


def _illinois_root(f, lo, hi, f_lo, f_hi) -> float:
    """A root of ``f`` in [lo, hi], where f(lo) < 0 < f(hi), by Illinois
    regula falsi: a step that would leave the bracket bisects it, and the
    value at an end the bracket keeps twice in a row is halved, so both
    ends converge.  Stops when the bracket is at most 4 ulps wide.
    """
    x, kept = lo, 0
    for _ in range(200):
        if hi - lo <= 4.0 * np.spacing(max(abs(lo), abs(hi))):
            break
        x = (lo * f_hi - hi * f_lo) / (f_hi - f_lo)
        if not lo < x < hi:
            x = 0.5 * (lo + hi)
        fx = f(x)
        if fx == 0.0:
            break
        if fx < 0.0:
            lo, f_lo = x, fx
            if kept == 1:
                f_hi *= 0.5
            kept = 1
        else:
            hi, f_hi = x, fx
            if kept == -1:
                f_lo *= 0.5
            kept = -1
    return x


def fit_lambda_axis(frames: Frames) -> WhirlFit:
    """Fit ``lam`` and a unit axis minimizing sum(<n_i,d> - lam <t_i,d>)^2.

    The normal matrix is quadratic in lam, M(lam) = A - lam*B + lam^2*C with
    fixed 3x3 blocks, and d is its bottom eigenvector.  A scan evaluates the
    smallest eigenvalue of M at 1026 candidates, 513 geometric magnitudes
    over [1e-12, 1e4] with both signs, in one vectorized closed form (no
    eigensolver call per candidate); ties break toward the smallest |lam|,
    then the positive sign.  The best candidate's two neighbours bracket
    the root of the eigenvalue's slope d'(2*lam*C - B)d (Hellmann-Feynman),
    which resolves lam where the flat eigenvalue cannot; Illinois regula
    falsi narrows that bracket to 4 ulps with one 3x3 eigensolve per step.
    A bracket the slope does not change sign across keeps the scan's best.
    At the ends of the scan: a lam within 4e-12 of zero is no whirl (the
    definition needs lam != 0), and a best candidate at +-1e4 whose bracket
    holds no root is no whirl either, since the minimum lies beyond the
    bound.  So are frames with a torsion that is not finite or is below
    TAU_FLOOR in magnitude.  The axis sign makes its largest-magnitude
    component positive, so noise in the small components cannot flip an
    axis near a coordinate direction; the rms comes from the residuals
    themselves.
    """
    if len(frames) < MIN_FIT_FRAMES:
        raise FrameError(f"no stable fit: need at least {MIN_FIT_FRAMES} frames")
    T, N = frames.t, frames.n
    A = N.T @ N
    B = N.T @ T + T.T @ N
    C = T.T @ T

    def _fit_objective(lam):
        return np.linalg.eigh(A - lam * B + lam * lam * C)

    def slope(lam):
        d = _fit_objective(lam)[1][:, 0]
        return d @ (2.0 * lam * C - B) @ d

    cands = _CANDIDATES
    vals = _smallest_eigenvalues(N, T, cands)
    floor = vals.min()
    # deterministic tie-breaking: smallest |lam|, then positive lam
    near = np.nonzero(vals <= floor + 1e-18 + 1e-12 * abs(floor))[0]
    best_idx = min(near, key=lambda i: (abs(cands[i]), -np.sign(cands[i])))
    lo = cands[max(best_idx - 1, 0)]
    hi = cands[min(best_idx + 1, cands.size - 1)]
    lam = cands[best_idx]
    slope_lo, slope_hi = slope(lo), slope(hi)
    rooted = slope_lo < 0.0 < slope_hi
    if rooted:
        lam = _illinois_root(slope, lo, hi, slope_lo, slope_hi)
    if abs(lam) < LAMBDA_FLOOR:
        lam = LAMBDA_FLOOR if lam >= 0 else -LAMBDA_FLOOR
    vals3, vecs = _fit_objective(lam)
    scale = max(float(vals3[-1]), 1.0)
    if vals3[1] <= 1e-12 * scale:
        raise FrameError("no stable fit: degenerate normal system")
    d = vecs[:, 0]
    if d[np.argmax(np.abs(d))] < 0:
        d = -d
    # from the residuals themselves: the smallest eigenvalue is a difference
    # of O(n) terms, so near zero it is rounding noise, often clamped to 0
    rms = float(np.sqrt(np.mean((N @ d - lam * (T @ d)) ** 2)))
    note = ""
    is_whirl = rms < FIT_RMS_TOL
    if not np.all(np.isfinite(frames.tau)):   # NaN fails every comparison below
        is_whirl = False
        note = "not a whirl curve: torsion is not finite on the grid"
    elif np.min(np.abs(frames.tau)) < TAU_FLOOR:
        is_whirl = False
        note = "not a whirl curve: torsion vanishes on the grid"
    elif abs(lam) <= 4.0 * LAMBDA_FLOOR:
        # the proportionality only holds with a zero constant (e.g. a helix
        # whose normal is orthogonal to its axis); the definition needs
        # lam != 0
        is_whirl = False
        note = "not a whirl curve: fitted constant is indistinguishable from zero"
    elif not rooted and best_idx in (0, cands.size - 1):
        # the eigenvalue still falls at the scan's end: lam lies beyond it
        is_whirl = False
        note = f"not a whirl curve: fitted constant lies beyond the scan bound {LAMBDA_BRACKET:g}"
    elif not is_whirl:
        note = "no axis satisfies the proportionality within tolerance"
    return WhirlFit(lam=float(lam), axis=d, rms=rms, is_whirl=is_whirl, note=note)
