"""Closed-form whirl-rectifying curves and their cone/sphere geometry.

The family is parametrized by constants a != 0, b, lam != 0 and lives on one
sheet of the two-leaf hyperboloid z^2 - (x^2 + y^2)/lam^2 = 1/a^2.  It is a
geodesic of the cone X(t, u) = u * w(t) over a unit-speed spherical curve w,
and extends continuously through the a*s + b = 0 seam (curve extension on the
whole line, sphere-curve extension on the open angular interval).

Numerical note: every closed form contains arctanh(x) with
x = sqrt((1+lam^2)/(1+h^2+lam^2)) -> 1 as h -> 0.  Since 1 - x^2 = h^2/G
exactly, arctanh is evaluated in the cancellation-free log form
ln(1+x) + ln(sqrt(G)/|h|).
"""

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, FrameError
from .frenet import Frames, frenet_at
from .numerics import derivative
from .whirl import LAMBDA_FLOOR, check_lam

HALF_PI = 0.5 * np.pi
# a ratio line that changes by at most this over the frames' s-span, |c1| *
# span, is constant, not rectifying: a bound free of the unit of length
SLOPE_FLOOR = 1e-3
CHEN_RMS_TOL = 1e-3   # chen_ratio_fit: a rectifying ratio line's rms is below this


@dataclass(frozen=True)
class RectifyingSpec:
    """Constants of one whirl-rectifying curve.

    ``branch`` selects the half line a*s + b > 0 (+1, the default) or < 0
    (-1), held by :func:`branch_ratio`.  ``d_shift`` is the angular offset
    of the sphere-curve parametrization.  The branch with sign(a*s+b) =
    sign(a*lam) is the one whose torsion-to-curvature ratio is exactly
    a*s + b and whose whirl constant is exactly lam.
    """

    a: float
    b: float
    lam: float
    d_shift: float = 0.0
    branch: int = 1

    def __post_init__(self):
        check_lam(self.lam)
        for name in ("a", "b", "d_shift"):
            if not np.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if abs(self.a) < LAMBDA_FLOOR:
            raise ValueError("a must be nonzero")
        if self.branch not in (1, -1):
            raise ValueError("branch must be +1 or -1")

    def consistent_branch(self) -> int:
        """Branch on which chen_ratio_fit recovers (a, b) and the whirl fit lam."""
        return 1 if self.a * self.lam > 0 else -1


def _phase(h, lam: float):
    """(sqrt(1+lam^2), G, A) with G = 1+h^2+lam^2 and the azimuth
    A = arctanh(sqrt((1+lam^2)/G)) / lam, arctanh in the stable log form;
    DomainError where G overflows."""
    with np.errstate(over="ignore"):
        hh = h * h
        G = 1.0 + hh + lam * lam
    over = np.atleast_1d(np.isinf(G))
    if over.any():
        bad = np.atleast_1d(h)[over][0]
        raise DomainError(f"1 + h^2 + lambda^2 overflows at tau/kappa = h = {float(bad)!r} "
                          f"with lambda = {lam!r}")
    x = np.sqrt((1.0 + lam * lam) / G)
    with np.errstate(divide="ignore"):
        log_h = 0.5 * np.log(hh)
    if not hh.all():   # h^2 underflows to 0 for |h| below ~1e-162
        log_h = np.where(hh == 0.0, np.log(np.abs(h)), log_h)
    A = (np.log1p(x) + 0.5 * np.log(G) - log_h) / lam
    return np.sqrt(1.0 + lam * lam), G, A


def _ratio(spec: RectifyingSpec, s):
    """h = a*s + b; one that overflows is infinite, which _phase rejects."""
    with np.errstate(over="ignore"):
        return spec.a * np.asarray(s, dtype=float) + spec.b


def branch_ratio(spec: RectifyingSpec, s):
    """h = a*s + b at ``s``; DomainError naming the first s where h is 0 or
    has the sign opposite to ``spec.branch``, on or past the a*s + b = 0
    seam, where the branch's formulas do not hold.  An h that overflows
    does so under the caller's errstate."""
    h = spec.a * np.asarray(s, dtype=float) + spec.b
    off = np.atleast_1d(~(spec.branch * h > 0))
    if off.any():
        raise DomainError(f"s={float(np.atleast_1d(s)[off][0])!r} lies on or past "
                          f"the a*s + b = 0 seam of branch {spec.branch:+d}")
    return h


def _omega(spec: RectifyingSpec, h):
    """Closed-form position at ratio h = a*s + b != 0, for either sign of h."""
    lam = spec.lam
    root, G, A = _phase(h, lam)
    x = (h / spec.a) * (lam / root) * np.cos(A)
    y = -(h / spec.a) * (lam / root) * np.sin(A)
    z = np.sqrt(G) / (spec.a * root)
    return np.stack(np.broadcast_arrays(x, y, z), axis=-1)


def curve_point(spec: RectifyingSpec, s) -> np.ndarray:
    """Position of the whirl-rectifying curve (unit-speed parameter s) on
    ``spec.branch``: DomainError at an s on or past the seam
    (:func:`branch_ratio`; :func:`extended_point` crosses it)."""
    with np.errstate(over="ignore"):   # an infinite h is refused by _phase
        h = branch_ratio(spec, s)
    return _omega(spec, h)


def curve_velocity(spec: RectifyingSpec, s) -> np.ndarray:
    """Analytic first derivative of :func:`curve_point` (a unit vector)."""
    with np.errstate(over="ignore"):
        h = branch_ratio(spec, s)
    lam = spec.lam
    root, G, A = _phase(h, lam)
    sg = np.sqrt(G)
    x = (lam / root) * np.cos(A) + np.sin(A) / sg
    y = -(lam / root) * np.sin(A) + np.cos(A) / sg
    z = h / (sg * root)
    return np.stack(np.broadcast_arrays(x, y, z), axis=-1)


def hyperboloid_residual(p, lam: float, a: float):
    """z^2 - (x^2 + y^2)/lam^2 - 1/a^2; zero on the membership sheet."""
    p = np.asarray(p, dtype=float)
    x, y, z = p[..., 0], p[..., 1], p[..., 2]
    out = z * z - (x * x + y * y) / (lam * lam) - 1.0 / (a * a)
    return out if out.ndim else float(out)


def sphere_point(spec: RectifyingSpec, t) -> np.ndarray:
    """Unit-speed curve on the unit sphere whose cone carries the curve, on
    the branch's open interval, whose end t = -d is the seam
    (:func:`extended_sphere_point` crosses it)."""
    t = np.asarray(t, dtype=float)
    seam = 0.0 - spec.d_shift   # 0.0, not -0.0, when d is 0
    ends = (seam, seam + HALF_PI) if spec.branch == 1 else (seam - HALF_PI, seam)
    _check_open(t, ends, "branch interval")
    return _sphere_formula(spec, t)


def _check_open(t, ends, name: str) -> None:
    """DomainError naming the first t not inside the open interval ``ends``
    (a nan t too), as :func:`branch_ratio` names its s."""
    lo, hi = ends
    off = np.atleast_1d(~((t > lo) & (t < hi)))
    if off.any():
        raise DomainError(f"t={float(np.atleast_1d(t)[off][0])!r} lies outside "
                          f"the open {name} ({lo!r}, {hi!r})")


def _sphere_formula(spec: RectifyingSpec, t):
    lam = spec.lam
    ang = spec.d_shift + t
    root, G, A = _phase(np.tan(ang), lam)
    sa = 1.0 if spec.a > 0 else -1.0
    x = sa * (lam / root) * np.sin(ang) * np.cos(A)
    y = -sa * (lam / root) * np.sin(ang) * np.sin(A)
    z = sa * np.cos(ang) * np.sqrt(G) / root
    return np.stack(np.broadcast_arrays(x, y, z), axis=-1)


def cone_coords(spec: RectifyingSpec, s):
    """Change of variables s -> (t, u) with u * w(t) = curve_point(s): two
    arrays shaped like ``s`` (u > 0 always)."""
    h = _ratio(spec, s)
    return -spec.d_shift + np.arctan(h), np.sqrt(1.0 + h * h) / abs(spec.a)


def cone_point(spec: RectifyingSpec, t, u) -> np.ndarray:
    """Points u * w(t) of the cone surface, ``t`` and ``u`` broadcast together."""
    u = np.asarray(u, dtype=float)
    if not np.all(u > 0):
        raise ValueError("u must be positive")
    return u[..., None] * sphere_point(spec, t)


def geodesic_residual(spec: RectifyingSpec, s):
    """Norm of N x n, the unit cone normal against the unit curve normal.

    Zero exactly when the curve normal is parallel to the surface normal,
    i.e. when the curve runs along a geodesic of the cone.  A scalar ``s``
    gives a float; a 1-d grid gives one residual per point, from one frame
    computation over the whole grid.
    """
    grid = np.asarray(s, dtype=float)
    t, u = cone_coords(spec, grid)
    if np.any(u < 1e-12):
        raise DomainError("degenerate surface normal: u -> 0")
    w = sphere_point(spec, t)
    wp = derivative(lambda q: _sphere_formula(spec, np.asarray(q)), t, 1)
    normal = np.cross(wp, w)
    nn = np.linalg.norm(normal, axis=-1, keepdims=True)
    if np.any(nn < 1e-12):
        raise DomainError("degenerate surface normal")
    frames = frenet_at(lambda q: curve_point(spec, q), grid,
                       deriv=lambda q: curve_velocity(spec, q))
    out = np.linalg.norm(np.cross(normal / nn, frames.n), axis=-1)
    return out if np.ndim(s) else float(out)


@dataclass
class ChenFit:
    """Least-squares line fit of torsion/curvature against arc length."""

    c1: float
    c2: float
    rms: float
    is_rectifying: bool
    note: str = ""


def chen_ratio_fit(frames: Frames) -> ChenFit:
    """Fit tau/kappa = c1*s + c2 over the rows of ``frames``.

    The rectifying-compatible verdict requires the fit to be tight
    (rms < CHEN_RMS_TOL) and genuinely nonconstant: the ratio changes by more
    than SLOPE_FLOOR over the frames, |c1| * (s_max - s_min) > SLOPE_FLOOR,
    so scaling s and positions alike keeps the verdict.  A ratio that is not
    finite, from a torsion the frames could not resolve, gives nan fields
    and the note "torsion is not finite".
    """
    if len(frames) < 3:
        raise FrameError("need at least 3 frames for a line fit")
    ratios = frames.tau / frames.kappa
    if not np.all(np.isfinite(ratios)):   # e.g. a grid step whose cube underflows
        return ChenFit(c1=np.nan, c2=np.nan, rms=np.nan, is_rectifying=False,
                       note="torsion is not finite")
    design = np.column_stack([frames.s, np.ones_like(frames.s)])
    coef, *_ = np.linalg.lstsq(design, ratios, rcond=None)
    resid = ratios - design @ coef
    rms = float(np.sqrt(np.mean(resid ** 2)))
    c1, c2 = float(coef[0]), float(coef[1])
    change = abs(c1) * np.ptp(frames.s)
    ok = rms < CHEN_RMS_TOL and change > SLOPE_FLOOR
    note = "" if ok else (
        "ratio is constant" if change <= SLOPE_FLOOR else "ratio is not linear")
    return ChenFit(c1=c1, c2=c2, rms=rms, is_rectifying=ok, note=note)


# -- continuous extensions --------------------------------------------------

def extended_point(spec: RectifyingSpec, s) -> np.ndarray:
    """Whole-line continuous extension of the curve (branch auto-selected).

    Off the seam it equals curve_point on the corresponding branch; at
    s = -b/a it takes the value (0, 0, 1/a).
    """
    h = _ratio(spec, s)
    out = np.empty(h.shape + (3,))
    seam = h == 0.0
    out[seam] = np.array([0.0, 0.0, 1.0 / spec.a])
    if np.any(~seam):
        out[~seam] = _omega(spec, h[~seam])
    return out


def extended_sphere_point(spec: RectifyingSpec, t) -> np.ndarray:
    """Extension of the sphere curve across t = -d on the open interval
    (-d - pi/2, -d + pi/2); the seam value is (0, 0, sign(a))."""
    t_arr = np.asarray(t, dtype=float)
    seam = 0.0 - spec.d_shift
    _check_open(t_arr, (seam - HALF_PI, seam + HALF_PI), "interval")
    out = np.empty(t_arr.shape + (3,))
    at_seam = t_arr == seam
    sa = 1.0 if spec.a > 0 else -1.0
    out[at_seam] = np.array([0.0, 0.0, sa])
    if np.any(~at_seam):
        out[~at_seam] = _sphere_formula(spec, t_arr[~at_seam])
    return out
