"""Frenet frame computation and trace sampling tests."""

import dataclasses

import numpy as np
import pytest

import whirlcurves as wc
from whirlcurves import frenet
from whirlcurves.errors import FrameError, QuadratureError
from conftest import random_rotation, unit_speed_helix


def unit_circle(s):
    s = np.asarray(s, dtype=float)
    return np.stack(np.broadcast_arrays(np.cos(s), np.sin(s), 0.0 * s), axis=-1)


def test_circle_frame():
    for s in (0.0, 0.8, 2.5):
        f = wc.frenet_at(unit_circle, s)
        assert abs(f.kappa - 1.0) <= 1e-6
        assert abs(f.tau) <= 1e-4


def test_helix_kappa_tau():
    # textbook values a/(a^2+b^2), b/(a^2+b^2) for the speed-normalized helix
    f = wc.frenet_at(unit_speed_helix(1.0, 1.0), 0.7)
    assert abs(f.kappa - 0.5) <= 1e-6
    assert abs(f.tau - 0.5) <= 1e-6


def test_rectifying_curve_ratio_value():
    # On the branch consistent with the parameters (sign(a*s+b) = sign(a*lam))
    # the torsion-to-curvature ratio equals a*s + b: +0.325 at s = 0.5 for
    # lam = +1.  The mirror curve lam = -1 carries the opposite ratio on this
    # branch (see decisions ledger).
    spec = wc.RectifyingSpec(a=0.65, b=0.0, lam=1.0)
    f = wc.frenet_at(lambda s: wc.curve_point(spec, s), 0.5,
                     deriv=lambda s: wc.curve_velocity(spec, s))
    assert abs(f.tau / f.kappa - 0.325) <= 1e-5
    mirror = wc.RectifyingSpec(a=0.65, b=0.0, lam=-1.0)
    f2 = wc.frenet_at(lambda s: wc.curve_point(mirror, s), 0.5,
                      deriv=lambda s: wc.curve_velocity(mirror, s))
    assert abs(f2.tau / f2.kappa + 0.325) <= 1e-5


def test_general_speed_fallback_matches_helix():
    # raw (not speed-normalized) helix handled by the general formulas
    raw = lambda u: np.array([np.cos(u), np.sin(u), u])
    f = wc.frenet_at(raw, 0.4)
    assert abs(f.kappa - 0.5) <= 1e-6
    assert abs(f.tau - 0.5) <= 1e-5


def test_vanishing_curvature_is_undefined():
    with pytest.raises(FrameError, match="curvature"):
        wc.frenet_at(lambda s: np.array([s, 0.0, 0.0]), 0.0)


def test_frame_invariants_on_random_curve(rng):
    def curve(s):
        return np.array([np.sin(s), np.cos(0.7 * s), 0.3 * np.sin(2.0 * s) + s])

    for s in rng.uniform(-2.0, 2.0, size=5):
        f = wc.frenet_at(curve, float(s))
        for v in (f.t, f.n, f.b):
            assert abs(np.linalg.norm(v) - 1.0) <= 1e-9
        assert abs(f.t @ f.n) <= 1e-9
        assert np.linalg.norm(f.b - np.cross(f.t, f.n)) <= 1e-9


def test_frenet_equations_hold_numerically():
    # outer step balances frame noise (~3e-8) against truncation
    curve = unit_speed_helix(1.0, 0.5)
    h = 5e-3

    def frame(s):
        return wc.frenet_at(curve, s)

    s = 0.9
    f0, fp, fm = frame(s), frame(s + h), frame(s - h)
    dt = (fp.t - fm.t) / (2 * h)
    dn = (fp.n - fm.n) / (2 * h)
    db = (fp.b - fm.b) / (2 * h)
    assert np.linalg.norm(dt - f0.kappa * f0.n) <= 1e-4
    assert np.linalg.norm(dn - (-f0.kappa * f0.t + f0.tau * f0.b)) <= 1e-4
    assert np.linalg.norm(db - (-f0.tau * f0.n)) <= 1e-4


def test_rigid_rotation_preserves_kappa_tau(rng):
    # exactly-representable rotation: stencil samples rotate bit-exactly,
    # so curvature and torsion agree to full precision
    curve = unit_speed_helix(1.3, 0.4)
    exact_rot = np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
    f1 = wc.frenet_at(curve, 0.6)
    f2 = wc.frenet_at(lambda s: exact_rot @ curve(s), 0.6)
    assert abs(f1.kappa - f2.kappa) <= 1e-9
    assert abs(f1.tau - f2.tau) <= 1e-9
    # a generic float rotation adds per-evaluation rounding that the
    # stencils amplify; invariance then holds at difference-noise level
    rot = random_rotation(rng)
    f3 = wc.frenet_at(lambda s: rot @ curve(s), 0.6)
    assert abs(f1.kappa - f3.kappa) <= 1e-6
    assert abs(f1.tau - f3.tau) <= 1e-6


def test_frenet_apparatus_validates():
    e = np.eye(3)
    with pytest.raises(FrameError):
        wc.Frames(0.0, 2.0 * e[0], e[1], 1.0, 1.0)
    with pytest.raises(FrameError):
        wc.Frames(0.0, e[0], e[1], -1.0, 1.0)   # kappa <= 0


@pytest.mark.parametrize("v", [
    np.random.default_rng(3).normal(size=(20000, 3))
    * 10.0 ** np.random.default_rng(4).uniform(-150, 150, size=(20000, 1)),
    np.random.default_rng(5).normal(size=(500, 3))
    * 10.0 ** np.random.default_rng(6).uniform(-150, 150, size=(500, 3)),
    np.zeros((4, 3)),
    np.array([[0.0, -0.0, 0.0], [5e-324, 0.0, 0.0], [3.0, 4.0, 12.0]]),
    np.array([1.0, -2.0, 2.0]),
], ids=["rows", "mixed magnitudes", "zeros", "edges", "one row"])
def test_norm_is_bit_identical_to_numpy(v):
    # the frames' lengths sum the squares as np.linalg.norm does; a platform
    # whose norm reduces in another order shows here
    got, want = frenet._norm(v), np.linalg.norm(v, axis=-1)
    assert np.shape(got) == np.shape(want)
    assert np.asarray(got).tobytes() == np.asarray(want).tobytes()


def test_unit_speed_residual_line():
    assert wc.unit_speed_residual(lambda s: np.array([s, 0.0, 0.0]),
                                  np.linspace(0, 1, 5)) <= 1e-10


def test_unit_speed_residual_speed_two():
    r = wc.unit_speed_residual(lambda s: np.array([2.0 * s, 0.0, 0.0]),
                               np.linspace(0, 1, 5))
    assert abs(r - 1.0) <= 1e-9


def test_unit_speed_residual_refuses_an_empty_grid():
    with pytest.raises(ValueError, match="^empty grid$"):
        wc.unit_speed_residual(lambda s: np.array([s, 0.0, 0.0]), [])


def test_unit_speed_residual_synthesized():
    spec = wc.WhirlSpec(kappa=wc.kappa_constant(1.0), lam=-1.0,
                        bound=wc.bound_from_ratio(1.0, -1.0))
    curve = wc.WhirlCurve(spec, origin=0.0, window=(-0.25, 1.25))
    assert wc.unit_speed_residual(curve.position, np.linspace(0.0, 1.0, 33)) < 1e-6


def test_trace_line_two_points():
    tr = wc.trace(lambda s: np.array([s, 0.0, 0.0]), 0.0, 1.0, 2)
    assert np.array_equal(tr.s, [0.0, 1.0])
    assert np.array_equal(tr.points, [[0, 0, 0], [1, 0, 0]])


@pytest.mark.parametrize("lo, hi", [(1.0, 1.0), (1.0, 0.0)])
def test_trace_needs_an_increasing_range(lo, hi):
    with pytest.raises(ValueError, match="^need s_lo < s_hi$"):
        wc.trace(lambda s: np.array([s, 0.0, 0.0]), lo, hi, 3)


def test_trace_refuses_a_grid_finer_than_the_float_spacing():
    calls = []

    def line(s):
        calls.append(s)
        return np.stack([s, 0 * s, 0 * s], -1)

    with pytest.raises(ValueError, match=r"^3 samples are finer than the float spacing of "
                       r"\[1\.0, 1\.0000000000000002\]: s=1\.0 repeats$"):
        wc.trace(line, 1.0, 1.0000000000000002, 3)
    assert calls == []
    assert len(wc.trace(line, 1.0, 1.0000000000000002, 2)) == 2


def test_trace_midpoint():
    tr = wc.trace(lambda s: np.array([s, 0.0, 0.0]), 0.0, 1.0, 3)
    assert tr.s[1] == 0.5


def test_trace_figure_grid_row_count():
    tr = wc.trace(unit_circle, -np.pi / 4, np.pi / 4, 513)
    assert len(tr) == 513
    assert tr.s[0] == -np.pi / 4 and tr.s[-1] == np.pi / 4


def test_trace_reports_failing_node():
    def curve(s):
        return np.array([s, 0.0, np.nan if s > 0.5 else 0.0])

    # the library's one refusal of a non-finite sample, a ValueError like the others
    with pytest.raises(QuadratureError, match="^non-finite sample at s=0.75$") as info:
        wc.trace(curve, 0.0, 1.0, 5)
    assert isinstance(info.value, ValueError)


def test_trace_frames_stencils_exact_on_polynomial():
    # position components are degree <= 4 polynomials: the least-squares
    # windows (degree 6 or more) must reproduce all three derivatives to roundoff
    s = np.linspace(-1.0, 1.0, 41)
    pts = np.column_stack([s, 0.5 * s ** 2 + 0.1 * s ** 4, s ** 3])
    tr = wc.CurveTrace(s, pts)
    frames = wc.trace_frames(tr)
    i = 10
    si = frames[i].s
    d1 = np.array([1.0, s[i + 3] + 0.4 * s[i + 3] ** 3, 3 * s[i + 3] ** 2])
    assert abs(si - s[i + 3]) == 0.0
    assert np.linalg.norm(frames[i].t - d1 / np.linalg.norm(d1)) <= 1e-10


def test_trace_frames_match_helix():
    curve = unit_speed_helix(1.0, 1.0)
    tr = wc.trace(curve, 0.0, 2.0, 201)
    frames = wc.trace_frames(tr)
    kap = np.array([f.kappa for f in frames])
    tau = np.array([f.tau for f in frames])
    assert np.max(np.abs(kap - 0.5)) <= 1e-7
    assert np.max(np.abs(tau - 0.5)) <= 1e-6


def test_trace_frames_insufficient_samples():
    tr = wc.CurveTrace([0.0, 1.0], [[0, 0, 0], [1, 0, 0]])
    with pytest.raises(ValueError, match="insufficient samples"):
        wc.trace_frames(tr)


def _rotated_helix(rng):
    # applies the rotation to one point at a time: at an array argument of
    # exactly 3 points R @ helix(s) is a (3, 3) matrix, not the curve's rows
    helix, rot = unit_speed_helix(1.0, 0.5), random_rotation(rng)
    return lambda s: rot @ helix(s)


def test_trace_at_three_points_matches_pointwise(rng):
    curve = _rotated_helix(rng)
    tr = wc.trace(curve, 0.0, 1.0, 3)
    assert np.array_equal(tr.points, [curve(s) for s in (0.0, 0.5, 1.0)])


def test_unit_speed_residual_at_three_points_matches_pointwise(rng):
    curve = _rotated_helix(rng)
    grid = np.array([0.1, 0.4, 0.9])
    r = wc.unit_speed_residual(curve, grid)
    assert r == max(wc.unit_speed_residual(curve, [s]) for s in grid)
    assert r < 1e-9


def test_frenet_at_three_points_matches_pointwise(rng):
    curve = _rotated_helix(rng)
    grid = np.array([0.1, 0.4, 0.9])
    frames = wc.frenet_at(curve, grid)
    assert len(frames) == 3
    for i, s in enumerate(grid):
        f = wc.frenet_at(curve, s)
        assert frames[i].s == s
        for name in ("t", "n", "b", "kappa", "tau"):
            assert np.max(np.abs(getattr(frames[i], name) - getattr(f, name))) <= 1e-12


def _assert_rows_match_pointwise(curve, grid, deriv=None):
    frames = wc.frenet_at(curve, grid, deriv=deriv)
    assert isinstance(frames, wc.Frames) and len(frames) == grid.size
    assert frames.t.shape == (grid.size, 3) and frames.kappa.shape == (grid.size,)
    for i, s in enumerate(grid):
        f = wc.frenet_at(curve, s, deriv=deriv)
        assert isinstance(f, wc.Frames) and f.t.shape == (3,) and np.ndim(f.kappa) == 0
        assert frames[i].s == f.s == s
        for name in ("t", "n", "b", "kappa", "tau"):
            assert np.max(np.abs(getattr(frames, name)[i] - getattr(f, name))) <= 1e-12


def test_batched_frames_match_pointwise_rectifying():
    spec = wc.RectifyingSpec(a=0.65, b=0.0, lam=-1.0)
    _assert_rows_match_pointwise(lambda s: wc.curve_point(spec, s),
                                 np.linspace(0.2, 1.2, 17),
                                 deriv=lambda s: wc.curve_velocity(spec, s))


def test_frenet_at_samples_deriv_five_times_per_node():
    # d1 is the centre sample of the five-point stencil that gives d2 and d3
    helix = unit_speed_helix(1.0, 0.5)
    sizes = []

    def velocity(s):
        sizes.append(np.size(s))
        return wc.derivative(helix, s, 1)

    grid = np.linspace(0.1, 0.9, 7)
    frames = wc.frenet_at(helix, grid, deriv=velocity)
    assert sizes == [5 * grid.size]
    assert np.array_equal(frames.t, velocity(grid) / np.linalg.norm(velocity(grid), axis=1)[:, None])


def test_batched_frames_match_pointwise_synthesized():
    spec = wc.WhirlSpec(kappa=wc.kappa_constant(1.0), lam=-1.0,
                        bound=wc.bound_from_ratio(1.0, -1.0))
    curve = wc.WhirlCurve(spec, window=(0.0, 1.0))
    _assert_rows_match_pointwise(curve.position, np.linspace(0.1, 0.9, 17))


def _frame_rows(n=5):
    e = np.eye(3)
    return dict(s=np.linspace(0.0, 1.0, n), t=np.tile(e[0], (n, 1)),
                n=np.tile(e[1], (n, 1)), kappa=np.ones(n), tau=np.full(n, 0.5))


@pytest.mark.parametrize("field, row, match", [
    ("t", [2.0, 0.0, 0.0], "t is not a unit vector"),
    ("n", [0.6, 0.8, 0.0], "not orthogonal"),
    ("kappa", 0.0, "kappa must be positive"),
    # every check fails on NaN
    ("t", [np.nan, 0.0, 0.0], "t is not a unit vector"),
    ("n", [0.0, np.nan, 0.0], "n is not a unit vector"),
    ("kappa", np.nan, "kappa must be positive"),
])
def test_frames_validator_names_first_bad_row(field, row, match):
    rows = _frame_rows()
    assert len(wc.Frames(**rows)) == 5
    rows[field][2] = row
    rows[field][4] = row
    with pytest.raises(FrameError, match=match + " at s=0.5$"):
        wc.Frames(**rows)


@pytest.mark.parametrize("field, row, match", [
    ("t", [2.0, 0.0, 0.0], "t is not a unit vector"),
    ("n", [0.6, 0.8, 0.0], "not orthogonal"),
    ("kappa", 0.0, "kappa must be positive"),
])
def test_a_single_row_is_validated_by_the_same_checks(field, row, match):
    fields = {name: value[2] for name, value in _frame_rows().items()}
    good = wc.Frames(**fields)
    assert np.ndim(good.s) == 0 and isinstance(good.s, np.floating)
    assert isinstance(good.kappa, np.floating) and isinstance(good.tau, np.floating)
    assert good.t.shape == good.n.shape == good.b.shape == (3,)
    fields[field] = row
    with pytest.raises(FrameError, match=match + " at s=0.5$"):
        wc.Frames(**fields)


def test_rows_of_frames_agree_with_the_grid():
    curve = unit_speed_helix(1.0, 0.7)
    grid = np.linspace(0.1, 2.0, 9)
    frames = wc.frenet_at(curve, grid)
    for i, s in enumerate(grid):
        row, at = frames[i], wc.frenet_at(curve, s)
        for name in ("s", "t", "n", "b", "kappa", "tau"):
            assert np.array_equal(getattr(row, name), getattr(frames, name)[i])
            assert np.shape(getattr(at, name)) == np.shape(getattr(row, name))
            assert np.max(np.abs(getattr(at, name) - getattr(frames, name)[i])) <= 1e-12
        assert wc.proportionality_residual(row, [0.0, 0.0, 1.0], 0.7) == pytest.approx(
            wc.proportionality_residual(frames, [0.0, 0.0, 1.0], 0.7)[i], abs=0)
        assert np.array_equal(wc.whirl_axis(row, 0.7), wc.whirl_axis(frames, 0.7)[i])


def test_removed_record_types_are_not_exported():
    for name in ("FrenetApparatus", "Vec3", "ConePoint", "SphericalTangent",
                 "integrate", "QuadratureResult", "ratio_derivative"):
        assert not hasattr(wc, name) and name not in wc.__all__


def test_frames_indexing():
    frames = wc.Frames(**_frame_rows())
    assert isinstance(frames[1], wc.Frames) and frames[1].t.shape == (3,) and frames[1].s == 0.25
    tail = frames[::2]
    assert isinstance(tail, wc.Frames) and np.array_equal(tail.s, [0.0, 0.5, 1.0])
    assert [f.s for f in frames] == list(frames.s)


def test_frames_hold_five_fields_and_derive_the_binormal():
    assert [f.name for f in dataclasses.fields(wc.Frames)] == ["s", "t", "n", "kappa", "tau"]
    rows = _frame_rows()
    with pytest.raises(TypeError):
        wc.Frames(**rows, b=np.tile([0.0, 0.0, 1.0], (5, 1)))
    with pytest.raises(AttributeError):
        wc.Frames(**rows).b = np.zeros((5, 3))


def test_binormal_is_t_cross_n_bit_for_bit_on_grids_rows_and_slices():
    spec = wc.RectifyingSpec(a=0.65, b=0.0, lam=-1.0)
    grid = np.linspace(0.2, 1.2, 64)
    frames = wc.trace_frames(wc.CurveTrace(grid, wc.curve_point(spec, grid)))
    assert frames.b.shape == frames.t.shape
    assert np.array_equal(frames.b, np.cross(frames.t, frames.n))
    for i in range(len(frames)):
        assert np.array_equal(frames[i].b, frames.b[i])
    for part in (frames[3:17], frames[::-5], frames[-1:]):
        assert np.array_equal(part.b, np.cross(part.t, part.n))


def test_construction_evaluates_four_conditions(monkeypatch):
    seen = []
    raise_first = frenet._raise_first
    monkeypatch.setattr(frenet, "_raise_first",
                        lambda s, checks: seen.append(checks) or raise_first(s, checks))
    wc.Frames(**_frame_rows())
    assert [message for _, message in seen[0]] == [
        "t is not a unit vector", "n is not a unit vector", "frame is not orthogonal",
        "kappa must be positive"]
