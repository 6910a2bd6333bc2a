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
from typing import Callable, Optional, Union

import numpy as np

from .errors import FrameError
from .frenet import Frames, FrenetApparatus, Vec3, frenet_at
from .numerics import grid_derivatives

LAMBDA_FLOOR = 1e-12
LAMBDA_BRACKET = 1e4


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
    if np.any(np.abs(lam) < LAMBDA_FLOOR):
        raise ValueError("lam must be nonzero")
    ratio = tau / kappa
    out = tau * lam * (1.0 + lam * lam + ratio * ratio) - (1.0 + lam * lam) * ratio_prime
    return out if np.ndim(out) else float(out)


def ratio_derivative(s_grid, ratios) -> np.ndarray:
    """d(ratio)/ds at every node of a uniform grid: the first row of
    :func:`~whirlcurves.numerics.grid_derivatives`.  Raises ValueError on a
    non-uniform grid.
    """
    s, r = np.asarray(s_grid, dtype=float), np.asarray(ratios, dtype=float)
    if s.size != r.size or s.size < 3:
        raise ValueError("need at least 3 grid points")
    return grid_derivatives(s, r)[0]


def intrinsic_residual_grid(s_grid, kappas, taus, lam) -> np.ndarray:
    """Intrinsic residual at every grid node, ratio derivative from the grid."""
    kappas, taus = np.asarray(kappas, dtype=float), np.asarray(taus, dtype=float)
    return intrinsic_residual(kappas, taus, ratio_derivative(s_grid, taus / kappas), lam)


def whirl_axis(frame: Union[FrenetApparatus, Frames], lam: float, sign: int = 1) -> Vec3:
    """Candidate unit whirl axis from one frame, or (n, 3) axes from Frames."""
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    if abs(lam) < LAMBDA_FLOOR:
        raise ValueError("lam must be nonzero")
    if np.any(frame.tau == 0.0):
        raise FrameError("axis undefined: zero torsion")
    r = np.asarray(frame.kappa / frame.tau)[..., None]
    num = frame.t + lam * frame.n + (1.0 + lam * lam) * r * frame.b
    return sign * num / np.linalg.norm(num, axis=-1, keepdims=True)


def proportionality_residual(frame: Union[FrenetApparatus, Frames], d: Vec3, lam: float):
    """Signed defect <n, d> - lam * <t, d>: a float, or (n,) for Frames."""
    d = np.asarray(d, dtype=float)
    if abs(np.linalg.norm(d) - 1.0) > 1e-6:
        raise ValueError("d must be a unit vector")
    out = frame.n @ d - lam * (frame.t @ d)
    return out if np.ndim(out) else float(out)


@dataclass
class AxisReport:
    """Per-sample axes of a candidate whirl curve and their spread."""

    d: Vec3                      # representative unit axis (normalized mean)
    sign: int                    # branch chosen so <t(s_0), d> > 0
    per_sample_axes: np.ndarray  # (n, 3)
    max_deviation: float         # max_i |d_i - d_0|
    max_residual: float          # max_i |<n_i, d> - lam <t_i, d>|

    def __post_init__(self):
        if abs(np.linalg.norm(self.d) - 1.0) > 1e-9:
            raise ValueError("axis must be a unit vector")
        if self.max_deviation < 0.0:
            raise ValueError("max_deviation must be non-negative")

    def passes(self, tol: float) -> bool:
        return self.max_deviation < tol and self.max_residual < tol


def as_frames(curve: Union[Callable, Frames], s_grid=None,
              deriv: Optional[Callable] = None) -> Frames:
    """``curve`` itself when it is Frames, else the frames of the callable
    on ``s_grid`` (``deriv``: its optional analytic first derivative)."""
    if isinstance(curve, Frames):
        return curve
    return frenet_at(curve, np.atleast_1d(np.asarray(s_grid, dtype=float)),
                     deriv=deriv, strict_unit_speed=False)


def verify_whirl(curve: Union[Callable, Frames], s_grid=None, lam: float = None,
                 deriv: Optional[Callable] = None) -> AxisReport:
    """Check axis constancy of a candidate whirl curve for a given ``lam``.

    Accepts a position callable plus grid, or pre-computed Frames.
    The curve passes at tolerance tol when ``report.passes(tol)``.
    """
    if lam is None:
        raise ValueError("lam is required")
    frames = as_frames(curve, s_grid, deriv)
    if not len(frames):
        raise ValueError("empty grid")
    axes = whirl_axis(frames, lam)
    sign = -1 if frames.t[0] @ axes[0] < 0 else 1
    axes = sign * axes
    dev = float(np.max(np.linalg.norm(axes - axes[0], axis=1)))
    d_mean = axes.mean(axis=0)
    nm = float(np.linalg.norm(d_mean))
    # axes of a decidedly non-whirl curve can average out; fall back to the
    # first sample so the report stays well-formed
    d_mean = axes[0] if nm < 1e-9 else d_mean / nm
    resid = np.max(np.abs(proportionality_residual(frames, d_mean, lam)))
    return AxisReport(d=d_mean, sign=sign, per_sample_axes=axes,
                      max_deviation=dev, max_residual=float(resid))


@dataclass
class WhirlFit:
    """Least-squares whirl constant and axis for sampled frames."""

    lam: float
    axis: Vec3
    rms: float
    is_whirl: bool
    note: str = ""


def fit_lambda_axis(curve, s_grid=None, deriv: Optional[Callable] = None,
                    rms_tol: float = 1e-3,
                    tau_floor: float = 1e-9) -> WhirlFit:
    """Fit ``lam`` and a unit axis minimizing sum(<n_i,d> - lam <t_i,d>)^2.

    The normal matrix is quadratic in lam, M(lam) = A - lam*B + lam^2*C with
    fixed 3x3 blocks, and d is its bottom eigenvector; lam itself is found by
    a deterministic scan of +-[1e-12, 1e4] refined by golden-section search.
    Ties break toward the smallest |lam|, then the positive sign; the axis
    sign makes its largest-magnitude component positive, so noise in the
    small components cannot flip an axis near a coordinate direction.
    """
    frames = as_frames(curve, s_grid, deriv)
    if len(frames) < 4:
        raise FrameError("no stable fit: need at least 4 frames")
    T, N = frames.t, frames.n
    A = N.T @ N
    B = N.T @ T + T.T @ N
    C = T.T @ T

    def _fit_objective(lam):
        return np.linalg.eigh(A - lam * B + lam * lam * C)

    def g(lam):
        return float(_fit_objective(lam)[0][0])

    mags = np.geomspace(LAMBDA_FLOOR, LAMBDA_BRACKET, 513)
    cands = np.concatenate([-mags[::-1], mags])
    stack = (A[None, :, :] - cands[:, None, None] * B[None, :, :]
             + (cands * cands)[:, None, None] * C[None, :, :])
    vals = np.linalg.eigvalsh(stack)[:, 0]
    floor = vals.min()
    # deterministic tie-breaking: smallest |lam|, then positive lam
    near = np.nonzero(vals <= floor + 1e-18 + 1e-12 * abs(floor))[0]
    best_idx = min(near, key=lambda i: (abs(cands[i]), -np.sign(cands[i])))
    lo = cands[max(best_idx - 1, 0)]
    hi = cands[min(best_idx + 1, cands.size - 1)]

    # golden-section refine on [lo, hi]
    gr = (np.sqrt(5.0) - 1.0) / 2.0
    x1 = hi - gr * (hi - lo)
    x2 = lo + gr * (hi - lo)
    g1, g2 = g(x1), g(x2)
    for _ in range(200):
        if hi - lo < 1e-14 * max(1.0, abs(lo), abs(hi)):
            break
        if g1 <= g2:
            hi, x2, g2 = x2, x1, g1
            x1 = hi - gr * (hi - lo)
            g1 = g(x1)
        else:
            lo, x1, g1 = x1, x2, g2
            x2 = lo + gr * (hi - lo)
            g2 = g(x2)
    lam = 0.5 * (lo + hi)
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
    is_whirl = rms < rms_tol
    if np.min(np.abs(frames.tau)) < tau_floor:
        is_whirl = False
        note = "not a whirl curve: torsion vanishes on the grid"
    elif abs(lam) <= 4.0 * LAMBDA_FLOOR:
        # the proportionality only holds with a zero constant (e.g. a helix
        # whose normal is orthogonal to its axis); the definition needs
        # lam != 0
        is_whirl = False
        note = "not a whirl curve: fitted constant is indistinguishable from zero"
    elif not is_whirl:
        note = "no axis satisfies the proportionality within tolerance"
    return WhirlFit(lam=float(lam), axis=d, rms=rms, is_whirl=is_whirl, note=note)
