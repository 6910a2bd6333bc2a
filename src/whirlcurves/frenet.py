"""Frenet-Serret apparatus of a parametric space curve, as :class:`Frames`.

``Frames`` is the one frame type: a grid of rows, or a single row at one
``s``.  :func:`frenet_at` frames a callable curve from one stencil per node
(:func:`whirlcurves.numerics.derivative`); :func:`trace_frames` frames a
uniform trace (:func:`whirlcurves.numerics.grid_derivatives`).  Both use
the general-speed formulas, so a curve need not be arc-length parametrized;
:func:`unit_speed_residual` measures how far it is from that.
"""

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import FrameError
from .numerics import derivative, grid_derivatives, sample
from .traceio import CurveTrace

FRAME_TOL = 1e-9
KAPPA_FLOOR = 1e-9
FRAME_MARGIN = 3   # trace_frames: samples skipped at each end of a trace


def _dot(u, v):
    return np.einsum("...i,...i->...", u, v)


def _norm(v):
    """Euclidean length of 3-vectors along the last axis: bit-identical to
    ``np.linalg.norm(v, axis=-1)``, which sums the same squares in the same
    order, without its general reduction."""
    sq = v * v
    return np.sqrt((sq[..., 0] + sq[..., 1]) + sq[..., 2])


def _raise_first(s, checks):
    """Raise FrameError at the first row failing a (mask, message) check."""
    s = np.atleast_1d(s)
    bad = np.array([mask for mask, _ in checks]).reshape(len(checks), s.size)
    rows = np.flatnonzero(np.any(bad, axis=0))
    if rows.size:
        i = rows[0]
        raise FrameError(f"{checks[int(np.argmax(bad[:, i]))][1]} at s={s[i]}")


@dataclass
class Frames:
    """Frenet frames at the nodes of a grid, one row per node, or at one node.

    ``s``, ``kappa`` and ``tau`` have shape (n,), ``t`` and ``n`` shape (n, 3);
    a single row holds numpy scalars and (3,) vectors.  The binormal ``b`` is
    t x n.  Construction checks every row for unit t and n, t orthogonal to n
    (to FRAME_TOL) and kappa > 0, naming the ``s`` of the first bad row.
    ``frames[i]`` is such a row, a slice a grid.
    """

    s: np.ndarray
    t: np.ndarray
    n: np.ndarray
    kappa: np.ndarray
    tau: np.ndarray

    def __post_init__(self):
        self.s, self.t, self.n, self.kappa, self.tau = (
            np.asarray(v, dtype=float)[()] for v in (self.s, self.t, self.n, self.kappa, self.tau))
        # each test fails on NaN: not (x <= tol)
        _raise_first(self.s, [
            (~(np.abs(_norm(self.t) - 1.0) <= FRAME_TOL), "t is not a unit vector"),
            (~(np.abs(_norm(self.n) - 1.0) <= FRAME_TOL), "n is not a unit vector"),
            (~(np.abs(_dot(self.t, self.n)) <= FRAME_TOL), "frame is not orthogonal"),
            (~(self.kappa > 0), "kappa must be positive")])

    @property
    def b(self) -> np.ndarray:
        """The binormal t x n, of the shape of ``t``."""
        return np.cross(self.t, self.n)

    def __len__(self) -> int:
        return self.s.size

    def __getitem__(self, i):
        return Frames(self.s[i], self.t[i], self.n[i], self.kappa[i], self.tau[i])


def _frames(s, d1, d2, d3) -> Frames:
    """Frames at ``s`` from rows of the first three derivatives of a curve.

    General-speed formulas: kappa = |d1 x d2|/|d1|^3, n along (d1 x d2) x d1
    and tau = (d1 x d2 . d3)/|d1 x d2|^2.  Every length is :func:`_norm`'s,
    bit for bit ``np.linalg.norm``'s.
    """
    with np.errstate(all="ignore"):   # a zero or overflowing derivative fails a check below
        speed = _norm(d1)
        cr = np.cross(d1, d2)
        crn2 = _dot(cr, cr)
        t = d1 / speed[:, None]
        kappa = np.sqrt(crn2) / speed ** 3
        n = np.cross(cr, d1)
        n = n / _norm(n)[:, None]
        # re-orthogonalize against t so the frame invariants hold exactly
        n = n - _dot(n, t)[:, None] * t
        n = n / _norm(n)[:, None]
        tau = _dot(cr, d3) / crn2
    _raise_first(s, [(~(np.isfinite(speed) & np.isfinite(crn2)),
                      "undefined frame: a derivative overflows"),
                     (speed == 0.0, "undefined frame: zero velocity"),
                     ((kappa < KAPPA_FLOOR) | (crn2 == 0.0),
                      "undefined frame: vanishing curvature")])
    return Frames(s, t, n, kappa, tau)


def frenet_at(curve: Callable, s, deriv: Optional[Callable] = None):
    """Frenet frame, curvature and torsion of ``curve`` at parameter ``s``.

    A scalar ``s`` gives one row of :class:`Frames`, a 1-d grid a whole
    ``Frames``.  ``curve`` maps s -> (3,), ideally (m,) -> (m, 3).  Each
    node takes its first three derivatives from one seven-point stencil of
    positions or, given the analytic first derivative ``deriv``, from one
    five-point stencil of ``deriv`` (its centre sample and two difference
    orders), and then ``curve`` is never evaluated; a grid is sampled in
    one call.
    Curvature and torsion come from the general-speed formulas
    |a' x a''|/|a'|^3 and (a' x a'' . a''')/|a' x a''|^2, at any speed.
    """
    grid = np.atleast_1d(np.asarray(s, dtype=float))
    if deriv is not None:
        d1, d2, d3 = derivative(deriv, grid, (0, 1, 2))
    else:
        d1, d2, d3 = derivative(curve, grid, (1, 2, 3))
    frames = _frames(grid, d1, d2, d3)
    return frames if np.ndim(s) else frames[0]


def unit_speed_residual(curve: Callable, s_grid) -> float:
    """max over the grid of | |curve'(s)| - 1 |; ValueError on an empty grid."""
    grid = np.atleast_1d(np.asarray(s_grid, dtype=float))
    if not grid.size:
        raise ValueError("empty grid")
    d1 = derivative(curve, grid, 1)
    return float(np.max(np.abs(_norm(d1) - 1.0)))


def trace(curve: Callable, s_lo: float, s_hi: float, n: int,
          meta: Optional[dict] = None) -> CurveTrace:
    """Sample ``curve`` on a uniform n-point grid inclusive of both endpoints;
    QuadratureError, a ValueError, names the first s with a non-finite position.
    An n finer than the float spacing of the range, which repeats an s, is
    refused before ``curve`` is sampled."""
    if n < 2:
        raise ValueError("n must be at least 2")
    if not s_lo < s_hi:
        raise ValueError("need s_lo < s_hi")
    grid = np.linspace(s_lo, s_hi, n)
    tied = np.flatnonzero(np.diff(grid) <= 0)
    if tied.size:
        raise ValueError(f"{n} samples are finer than the float spacing of [{float(s_lo)!r}, "
                         f"{float(s_hi)!r}]: s={float(grid[tied[0]])!r} repeats")
    return CurveTrace(grid, sample(curve, grid), meta=dict(meta or {}))


def trace_frames(tr: CurveTrace) -> Frames:
    """Frenet frames, from :func:`whirlcurves.numerics.grid_derivatives`, at
    all but the ``FRAME_MARGIN`` outermost samples on each side of a uniform
    trace of at least 8 samples; raises ValueError on a non-uniform grid."""
    if len(tr) < 8:
        raise ValueError("insufficient samples: need at least 8 to frame a trace")
    d1, d2, d3 = grid_derivatives(tr.s, tr.points)[:, FRAME_MARGIN:-FRAME_MARGIN]
    return _frames(tr.s[FRAME_MARGIN:-FRAME_MARGIN], d1, d2, d3)
