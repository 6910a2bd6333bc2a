"""Frenet-Serret apparatus of a parametric space curve, as :class:`Frames`.

:func:`frenet_at` frames a callable curve on a whole grid with one call of the
difference stencils in :mod:`whirlcurves.numerics` (or of an analytic first
derivative); :func:`trace_frames` frames a uniform trace.  Strict unit-speed
mode (the default of ``frenet_at``) refuses curves that are not arc-length
parametrized, since every closed form in this library assumes arc length.
"""

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import FrameError
from .numerics import derivative, sample
from .traceio import CurveTrace

Vec3 = np.ndarray

FRAME_TOL = 1e-9
KAPPA_FLOOR = 1e-9
UNIT_SPEED_TOL = 1e-6


def _dot(u, v):
    return np.einsum("ij,ij->i", u, v)


def _raise_first(s, checks):
    """Raise FrameError at the first row failing a (mask, message) check."""
    bad = np.array([mask for mask, _ in checks]).reshape(len(checks), len(s))
    rows = np.flatnonzero(np.any(bad, axis=0))
    if rows.size:
        i = rows[0]
        raise FrameError(f"{checks[int(np.argmax(bad[:, i]))][1]} at s={s[i]}")


@dataclass
class FrenetApparatus:
    """Frame and invariants at one arc-length value: one row of :class:`Frames`."""

    s: float
    t: Vec3
    n: Vec3
    b: Vec3
    kappa: float
    tau: float

    def __post_init__(self):
        self.t, self.n, self.b = (np.asarray(v, dtype=float) for v in (self.t, self.n, self.b))
        Frames([self.s], [self.t], [self.n], [self.b], [self.kappa], [self.tau])


@dataclass
class Frames:
    """Frenet frames at the nodes of a grid, one row per node.

    ``s``, ``kappa`` and ``tau`` have shape (n,), ``t``, ``n`` and ``b`` shape
    (n, 3).  Construction checks every row for t, n, b orthonormal with
    b = t x n (to FRAME_TOL) and kappa > 0, naming the ``s`` of the first bad
    row.  ``frames[i]`` is a :class:`FrenetApparatus`, a slice a ``Frames``.
    """

    s: np.ndarray
    t: np.ndarray
    n: np.ndarray
    b: np.ndarray
    kappa: np.ndarray
    tau: np.ndarray

    def __post_init__(self):
        self.s, self.t, self.n, self.b, self.kappa, self.tau = (
            np.asarray(v, dtype=float)
            for v in (self.s, self.t, self.n, self.b, self.kappa, self.tau))
        t, n, b = self.t, self.n, self.b
        checks = [(np.abs(np.linalg.norm(v, axis=1) - 1.0) > FRAME_TOL,
                   f"{name} is not a unit vector") for name, v in (("t", t), ("n", n), ("b", b))]
        off = [np.abs(_dot(u, v)) > FRAME_TOL for u, v in ((t, n), (t, b), (n, b))]
        _raise_first(self.s, checks + [
            (off[0] | off[1] | off[2], "frame is not orthogonal"),
            (np.linalg.norm(b - np.cross(t, n), axis=1) > FRAME_TOL, "b != t x n"),
            (~(self.kappa > 0), "kappa must be positive")])

    def __len__(self) -> int:
        return self.s.size

    def __getitem__(self, i):
        rows = (self.s[i], self.t[i], self.n[i], self.b[i], self.kappa[i], self.tau[i])
        return Frames(*rows) if np.ndim(rows[0]) else FrenetApparatus(*rows)


def _frames(s, d1, d2, d3) -> Frames:
    """Frames at ``s`` from rows of the first three derivatives of a curve.

    General-speed formulas: kappa = |d1 x d2|/|d1|^3, n along (d1 x d2) x d1
    and tau = (d1 x d2 . d3)/|d1 x d2|^2.
    """
    speed = np.linalg.norm(d1, axis=1)
    cr = np.cross(d1, d2)
    crn2 = _dot(cr, cr)
    with np.errstate(divide="ignore", invalid="ignore"):
        t = d1 / speed[:, None]
        kappa = np.sqrt(crn2) / speed ** 3
        n = np.cross(cr, d1)
        n = n / np.linalg.norm(n, axis=1)[:, None]
        # re-orthogonalize against t so the frame invariants hold exactly
        n = n - _dot(n, t)[:, None] * t
        n = n / np.linalg.norm(n, axis=1)[:, None]
        tau = _dot(cr, d3) / crn2
    _raise_first(s, [(speed == 0.0, "undefined frame: zero velocity"),
                     ((kappa < KAPPA_FLOOR) | (crn2 == 0.0),
                      "undefined frame: vanishing curvature")])
    return Frames(s, t, n, np.cross(t, n), kappa, tau)


def frenet_at(curve: Callable, s, deriv: Optional[Callable] = None,
              strict_unit_speed: bool = True):
    """Frenet frame, curvature and torsion of ``curve`` at arc length ``s``.

    A scalar ``s`` gives one :class:`FrenetApparatus`; a 1-d grid gives
    :class:`Frames`, with the stencils of the whole grid sampled in one call
    of the curve.  Curvature and torsion come from the general-speed
    formulas |a' x a''|/|a'|^3 and (a' x a'' . a''')/|a' x a''|^2.

    Parameters
    ----------
    curve : callable s -> (3,) position (and, ideally, (m,) -> (m, 3)).
    deriv : optional callable s -> (3,) analytic first derivative; when given,
        higher derivatives are taken from it instead of from positions.
    strict_unit_speed : reject curves with | |curve'| - 1 | > 1e-6.
    """
    grid = np.atleast_1d(np.asarray(s, dtype=float))
    if deriv is not None:
        d1, d2, d3 = sample(deriv, grid), derivative(deriv, grid, 1), derivative(deriv, grid, 2)
    else:
        d1, d2, d3 = (derivative(curve, grid, k) for k in (1, 2, 3))
    dev = np.abs(np.linalg.norm(d1, axis=1) - 1.0)
    if strict_unit_speed and np.any(dev > UNIT_SPEED_TOL):
        i = int(np.argmax(dev > UNIT_SPEED_TOL))
        raise FrameError("not arc-length parametrized: | |curve'| - 1 | = "
                         f"{dev[i]:.3e} at s={grid[i]}")
    frames = _frames(grid, d1, d2, d3)
    return frames if np.ndim(s) else frames[0]


def unit_speed_residual(curve: Callable, s_grid) -> float:
    """max over the grid of | |curve'(s)| - 1 |."""
    d1 = derivative(curve, np.atleast_1d(np.asarray(s_grid, dtype=float)), 1)
    return float(np.max(np.abs(np.linalg.norm(d1, axis=1) - 1.0)))


def trace(curve: Callable, s_lo: float, s_hi: float, n: int,
          meta: Optional[dict] = None) -> CurveTrace:
    """Sample ``curve`` on a uniform n-point grid inclusive of both endpoints."""
    if n < 2:
        raise ValueError("n must be at least 2")
    if not s_lo < s_hi:
        raise ValueError("need s_lo < s_hi")
    grid = np.linspace(s_lo, s_hi, n)
    return CurveTrace(grid, sample(curve, grid, ValueError), meta=dict(meta or {}))


def trace_frames(tr: CurveTrace) -> Frames:
    """Frenet frames at the interior nodes of a uniformly sampled trace.

    Uses fourth-order central stencils, so the three outermost samples on
    each side carry no frame.  Needs at least 8 samples.
    """
    s, f = tr.s, tr.points
    if len(tr) < 8:
        raise ValueError("insufficient samples: need at least 8 to frame a trace")
    dx = np.diff(s)
    if np.max(dx) - np.min(dx) > 1e-9 * np.max(dx):
        raise ValueError("trace_frames requires a uniform parameter grid")
    h = float(np.mean(dx))
    # fourth-order stencils on index i (3 <= i <= n-4)
    d1 = (f[1:-5] - 8 * f[2:-4] + 8 * f[4:-2] - f[5:-1]) / (12 * h)
    d2 = (-f[1:-5] + 16 * f[2:-4] - 30 * f[3:-3] + 16 * f[4:-2] - f[5:-1]) / (12 * h * h)
    d3 = (f[:-6] - 8 * f[1:-5] + 13 * f[2:-4] - 13 * f[4:-2] + 8 * f[5:-1] - f[6:]) / (8 * h ** 3)
    return _frames(s[3:-3], d1, d2, d3)
