"""Whirl-property primitive tests: intrinsic equation, axis, verification, fit."""

import dataclasses
import inspect
import re

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import whirlcurves as wc
from whirlcurves import whirl
from whirlcurves.errors import FrameError
from conftest import (branch_grid, random_frame, random_rectifying_spec, random_rotation,
                      random_whirl_model, unit_speed_helix)
from reference import fit_lambda_bisect


def test_intrinsic_residual_helix_nonzero():
    # constant ratio kills the derivative side: residual = tau*lam*(1+lam^2+h^2)
    r = wc.intrinsic_residual(kappa=1.0, tau=1.0, ratio_prime=0.0, lam=1.0)
    assert r == pytest.approx(3.0, abs=1e-14)


def test_intrinsic_residual_linear_ratio_family_zero():
    # kappa from the linear-ratio family at a=1, b=0, lam=1, s=1:
    # kappa = 2/3, tau = h*kappa = 2/3, h' = 1
    r = wc.intrinsic_residual(kappa=2.0 / 3.0, tau=2.0 / 3.0, ratio_prime=1.0, lam=1.0)
    assert abs(r) <= 1e-14


def test_intrinsic_residual_odd_symmetries(rng):
    for _ in range(20):
        kappa = rng.uniform(0.1, 3.0)
        tau = rng.uniform(-3.0, 3.0)
        rp = rng.uniform(-2.0, 2.0)
        lam = rng.uniform(0.2, 5.0) * rng.choice([-1, 1])
        base = wc.intrinsic_residual(kappa, tau, rp, lam)
        # mirror curve: tau and the ratio derivative flip, same lam
        assert wc.intrinsic_residual(kappa, -tau, -rp, lam) == pytest.approx(-base, rel=1e-12)
        # lam flip with ratio-derivative flip negates as well
        assert wc.intrinsic_residual(kappa, tau, -rp, -lam) == pytest.approx(-base, rel=1e-12)


def test_intrinsic_residual_rejects_bad_kappa():
    with pytest.raises(ValueError):
        wc.intrinsic_residual(0.0, 1.0, 0.0, 1.0)


def test_whirl_axis_hand_value():
    e = np.eye(3)
    frame = wc.Frames(0.0, e[0], e[1], kappa=1.0, tau=1.0)
    d = wc.whirl_axis(frame, lam=1.0)
    assert np.allclose(d, np.array([1.0, 1.0, 2.0]) / np.sqrt(6.0), atol=1e-14)


def test_whirl_axis_is_unit(rng):
    for _ in range(20):
        frame = random_frame(rng)
        lam = rng.uniform(0.2, 4.0) * rng.choice([-1, 1])
        d = wc.whirl_axis(frame, lam)
        assert abs(np.linalg.norm(d) - 1.0) <= 1e-12
    with pytest.raises(TypeError):
        wc.whirl_axis(frame, lam, -1)


def test_whirl_axis_zero_torsion():
    e = np.eye(3)
    frame = wc.Frames(0.0, e[0], e[1], kappa=1.0, tau=0.0)
    with pytest.raises(FrameError, match="zero torsion"):
        wc.whirl_axis(frame, 1.0)


def test_the_fit_and_the_axis_refuse_a_torsion_that_is_not_finite():
    # a homothety by 1e-104 of a rect trace: h**3 underflows in grid_derivatives,
    # so every frame's torsion is nan; NaN fails the fit's |tau| < TAU_FLOOR test,
    # and the fit, which reads t and n alone, called it a whirl curve
    spec = wc.RectifyingSpec(a=0.65, b=0.1, lam=1.3)
    s = np.linspace(0.2, 2.2, 513)
    tiny = wc.trace_frames(wc.CurveTrace(s * 1e-104, wc.curve_point(spec, s) * 1e-104))
    assert np.isnan(tiny.tau).all()
    # so is one torsion that is not finite among finite ones
    helix = _exact_helix_frames()
    cases = [tiny, tiny[0]]
    for bad in (np.nan, np.inf):
        tau = helix.tau.copy()
        tau[7] = bad
        cases.append(wc.Frames(s=helix.s, t=helix.t, n=helix.n, kappa=helix.kappa, tau=tau))
    for frames in cases:
        with pytest.raises(FrameError, match="^axis undefined: torsion is not finite$"):
            wc.whirl_axis(frames, 1.3)
        if frames.tau.ndim:   # a fit needs a grid
            fit = wc.fit_lambda_axis(frames)
            assert (fit.is_whirl, fit.note) == (
                False, "not a whirl curve: torsion is not finite on the grid")


def test_proportionality_residual_cases(rng):
    e = np.eye(3)
    frame = wc.Frames(0.0, e[0], e[1], kappa=1.0, tau=0.5)
    # d orthogonal to span(t, n)
    assert wc.proportionality_residual(frame, e[2], lam=3.7) == 0.0
    # d = t
    assert wc.proportionality_residual(frame, e[0], lam=2.0) == pytest.approx(-2.0)
    # axis built from the same frame satisfies the proportionality identically
    for _ in range(20):
        f = random_frame(rng)
        lam = rng.uniform(0.2, 4.0) * rng.choice([-1, 1])
        d = wc.whirl_axis(f, lam)
        assert abs(wc.proportionality_residual(f, d, lam)) <= 1e-10


def test_proportionality_residual_requires_unit_d():
    e = np.eye(3)
    frame = wc.Frames(0.0, e[0], e[1], kappa=1.0, tau=0.5)
    with pytest.raises(ValueError):
        wc.proportionality_residual(frame, np.array([2.0, 0.0, 0.0]), 1.0)


def _synth_curve(lam=-1.0, h0=1.0, kappa=1.0):
    spec = wc.WhirlSpec(kappa=wc.kappa_constant(kappa), lam=lam,
                        bound=wc.bound_from_ratio(h0, lam))
    return spec, wc.WhirlCurve(spec, window=(0.0, 1.5))


def test_verify_whirl_synthesized():
    spec, curve = _synth_curve(lam=-1.0)
    grid = np.linspace(0.05, 0.95, 13)
    report = wc.verify_whirl(curve.position, grid, lam=spec.lam, deriv=curve.tangent)
    assert report.max_deviation < 1e-6
    assert report.max_residual < 1e-6
    assert report.passes(1e-6)
    # the construction pins the axis to the vertical direction
    assert np.allclose(report.d, [0.0, 0.0, 1.0], atol=1e-6)


def test_verify_whirl_helix_control():
    # a circular helix has constant ratio: residual is bounded below by
    # |tau*lam*(1+lam^2)| at every point
    curve = unit_speed_helix(1.0, 1.0)
    grid = np.linspace(0.0, 2.0, 9)
    lam = 0.7
    frames = [wc.frenet_at(curve, float(s)) for s in grid]
    kap = np.array([f.kappa for f in frames])
    tau = np.array([f.tau for f in frames])
    resid = wc.intrinsic_residual_grid(grid, kap, tau, lam)
    floor = np.abs(tau * lam * (1.0 + lam * lam))
    assert np.all(np.abs(resid) >= floor - 1e-6)
    assert np.all(floor > 0.1)


def test_verify_whirl_equivariant_under_rotation(rng):
    spec, curve = _synth_curve(lam=-0.8)
    grid = np.linspace(0.1, 0.9, 9)
    base = wc.verify_whirl(curve.position, grid, lam=spec.lam)
    # bit-exact rotation: identical deviation, rotated axis
    exact_rot = np.array([[0.0, 0.0, 1.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
    moved = wc.verify_whirl(lambda s: exact_rot @ curve.position(s), grid, lam=spec.lam)
    assert abs(base.max_deviation - moved.max_deviation) <= 1e-9
    assert np.linalg.norm(moved.d - exact_rot @ base.d) <= 1e-9
    # generic float rotation: invariance at difference-noise level
    rot = random_rotation(rng)
    moved2 = wc.verify_whirl(lambda s: rot @ curve.position(s), grid, lam=spec.lam)
    assert abs(base.max_deviation - moved2.max_deviation) <= 1e-6
    assert np.linalg.norm(moved2.d - rot @ base.d) <= 1e-6


def test_axis_report_sign_convention():
    # z_sign = -1 flips the tangent's vertical component; the reported axis
    # follows <t(s_0), d> > 0 and lands on (0, 0, -1)
    spec = wc.WhirlSpec(kappa=wc.kappa_constant(1.0), lam=-1.0,
                        bound=wc.bound_from_ratio(1.0, -1.0), z_sign=-1)
    curve = wc.WhirlCurve(spec, origin=0.0)
    grid = np.linspace(0.1, 0.9, 7)
    report = wc.verify_whirl(curve.position, grid, lam=spec.lam,
                             deriv=curve.tangent)
    assert np.allclose(report.d, [0.0, 0.0, -1.0], atol=1e-6)
    assert float(curve.tangent(grid[0]) @ report.d) > 0.0


def test_fit_round_trip_lambda():
    spec, curve = _synth_curve(lam=-0.5)
    grid = np.linspace(0.05, 1.4, 15)
    fit = wc.fit_lambda_axis(wc.frenet_at(curve.position, grid))
    assert fit.is_whirl
    assert abs(fit.lam - (-0.5)) <= 1e-4
    assert np.allclose(np.abs(fit.axis), [0.0, 0.0, 1.0], atol=1e-5)


def test_fit_passes_exactly_when_its_rms_is_below_fit_rms_tol(monkeypatch):
    # the threshold is the module constant, read at each call: no parameter
    assert list(inspect.signature(wc.fit_lambda_axis).parameters) == ["frames"]
    spec, curve = _synth_curve(lam=-0.5)
    frames = wc.frenet_at(curve.position, np.linspace(0.05, 1.4, 15))
    rms = wc.fit_lambda_axis(frames).rms
    monkeypatch.setattr(whirl, "FIT_RMS_TOL", np.nextafter(rms, np.inf))
    assert wc.fit_lambda_axis(frames).is_whirl
    monkeypatch.setattr(whirl, "FIT_RMS_TOL", rms)
    assert not wc.fit_lambda_axis(frames).is_whirl


@pytest.mark.parametrize("axis", [0, 1])
@pytest.mark.parametrize("angle", [1e-8, -1e-8])
def test_fit_axis_sign_ignores_tiny_tilts(axis, angle):
    # a (0, 0, 1) axis tilted by 1e-8 rad keeps z > 0 whatever the sign of
    # its (tiny) x and y components
    spec, curve = _synth_curve(lam=-0.5)
    c, s = np.cos(angle), np.sin(angle)
    rot = (np.array([[1, 0, 0], [0, c, -s], [0, s, c]]) if axis == 0
           else np.array([[c, 0, s], [0, 1, 0], [-s, 0, c]]))
    fit = wc.fit_lambda_axis(wc.frenet_at(lambda u: curve.position(u) @ rot.T,
                                          np.linspace(0.05, 1.4, 15),
                                          deriv=lambda u: curve.tangent(u) @ rot.T))
    assert fit.axis[2] > 0
    assert np.linalg.norm(fit.axis - [0.0, 0.0, 1.0]) <= 1e-6


@pytest.mark.parametrize("seed", range(12))
def test_fit_resolves_lambda_from_closed_form_frames(seed):
    # frames from the closed-form tangent on 507 nodes of a short window fit
    # lam and the axis (0, 0, 1) to 1e-8: near its minimum the eigenvalue is
    # flat to rounding, but its slope still resolves lam
    spec, lo, hi, _ = random_whirl_model(np.random.default_rng([seed, 9]))
    curve = wc.WhirlCurve(spec, origin=lo, window=(lo, hi))
    fit = wc.fit_lambda_axis(wc.frenet_at(curve.position, np.linspace(lo, hi, 513)[3:-3],
                                          deriv=curve.tangent))
    assert abs(fit.lam / spec.lam - 1.0) <= 1e-8
    assert np.linalg.norm(fit.axis - [0.0, 0.0, 1.0]) <= 1e-8


def test_fit_flags_planar_circle():
    circle = lambda s: np.array([np.cos(s), np.sin(s), 0.0])
    fit = wc.fit_lambda_axis(wc.frenet_at(circle, np.linspace(0.0, 3.0, 9)))
    assert not fit.is_whirl
    assert "torsion" in fit.note
    assert fit.rms < 1e-6   # the proportionality itself is satisfied trivially


def test_fit_survives_position_noise(rng):
    # uniform 1e-8 noise on trace samples; frames from the trace stencils
    spec, curve = _synth_curve(lam=-0.5)
    tr = wc.trace(curve.position, 0.05, 1.4, 201)
    noisy = wc.CurveTrace(tr.s, tr.points + rng.uniform(-1e-8, 1e-8, tr.points.shape))
    fit = wc.fit_lambda_axis(wc.trace_frames(noisy))
    assert abs(fit.lam - (-0.5)) <= 1e-3


def _dense_trace(kind, n):
    """A closed-form whirl trace of ``n`` samples and its lam: a const-kappa
    synth trace, or the rect trace a, b, lam = 0.8, 0.5, -1.3 on branch +1
    or -1 (lam negated off the consistent branch)."""
    if kind == "synth":
        spec = wc.WhirlSpec(kappa=wc.kappa_constant(1.0), lam=-1.0,
                            bound=wc.bound_from_ratio(1.0, -1.0))
        return wc.synthesize(spec, 0.0, 2.0, n), -1.0
    spec = wc.RectifyingSpec(a=0.8, b=0.5, lam=-1.3, branch=1 if kind == "rect+" else -1)
    grid = np.linspace(*sorted((spec.branch * np.array([0.3, 2.2]) - spec.b) / spec.a), n)
    lam = spec.lam if spec.branch == spec.consistent_branch() else -spec.lam
    return wc.CurveTrace(grid, wc.curve_point(spec, grid)), lam


@pytest.mark.parametrize("n", [4097, 20000])
@pytest.mark.parametrize("kind", ["synth", "rect+", "rect-"])
def test_fit_from_dense_trace_frames_recovers_lam(kind, n):
    # relative lam error: at most 2.8e-10 with the centred blocked product
    # of grid_derivatives, under OpenBLAS's SkylakeX, Haswell, Sandybridge
    # and Nehalem kernels; nine np.correlate calls gave 5.1e-10 to 1.7e-9 on
    # the 20000-sample rect traces
    tr, lam = _dense_trace(kind, n)
    fit = wc.fit_lambda_axis(wc.trace_frames(tr))
    assert fit.is_whirl
    assert abs(fit.lam - lam) <= 5e-10 * abs(lam)


def test_fit_rms_is_stable_under_one_ulp_perturbations():
    # the rms of <n_i, d> - lam <t_i, d> itself: the smallest eigenvalue of the
    # normal matrix is rounding noise here and printed exactly 0.000e+00
    spec = wc.WhirlSpec(kappa=wc.kappa_constant(1.0), lam=-1.0,
                        bound=wc.bound_from_ratio(1.0, -1.0))
    tr = wc.synthesize(spec, 0.0, 1.0, 513)
    rms = []
    for row in (None, 100, 256, 400):
        pts = tr.points.copy()
        if row is not None:
            pts[row, 0] = np.nextafter(pts[row, 0], np.inf)
        frames = wc.trace_frames(wc.CurveTrace(tr.s, pts))
        fit = wc.fit_lambda_axis(frames)
        direct = np.sqrt(np.mean(wc.proportionality_residual(frames, fit.axis, fit.lam) ** 2))
        assert fit.rms == pytest.approx(direct, rel=1e-12)
        rms.append(fit.rms)
    assert rms[0] > 0.0
    assert max(abs(r / rms[0] - 1.0) for r in rms) < 0.1


def test_fit_needs_four_frames():
    spec, curve = _synth_curve()
    with pytest.raises(FrameError, match="no stable fit"):
        wc.fit_lambda_axis(wc.frenet_at(curve.position, np.linspace(0.2, 0.6, 3)))


def _fit_input(kind, seed):
    """Frames of one kind of trace at 513 samples, drawn from ``seed``."""
    rng = np.random.default_rng(seed)
    if kind in ("whirl", "noisy"):
        spec, lo, hi, _ = random_whirl_model(rng)
        tr = wc.synthesize(spec, lo, hi, 513)
        if kind == "noisy":
            tr = wc.CurveTrace(tr.s, tr.points + rng.uniform(-1e-8, 1e-8, tr.points.shape))
    elif kind in ("rect+", "rect-"):
        spec = dataclasses.replace(random_rectifying_spec(rng),
                                   branch=1 if kind == "rect+" else -1)
        grid = branch_grid(spec, 513)
        tr = wc.CurveTrace(grid, wc.curve_point(spec, grid))
    elif kind == "circle":
        tr = wc.trace(lambda s: np.stack([np.cos(s), np.sin(s), 0.0 * s], axis=-1),
                      0.0, 3.0, 513)
    else:   # a helix whose pitch grows along it, 0.3 + 0.1 t
        t = np.linspace(0.0, 6.0, 513)
        tr = wc.CurveTrace(t, np.stack([np.cos(t), np.sin(t), (0.3 + 0.05 * t) * t], axis=-1))
    return wc.trace_frames(tr)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(kind=st.sampled_from(["whirl", "noisy", "rect+", "rect-"]),
       seed=st.integers(0, 2 ** 32 - 1))
@example(kind="circle", seed=0)
@example(kind="helix", seed=0)
def test_fit_agrees_with_the_bisection_oracle(kind, seed):
    # the closed-form scan and the regula falsi root against the eigensolver
    # scan and bisection of the slope: the same verdict and note, lam to
    # 1e-10 (worst seen over 320 traces: 4.0e-11) and the axis to 1e-9.
    # With 1e-8 noise (rms ~1e-3) the slope is rounding noise over a band of
    # lam about 1e-9 wide, and each method stops at its own point in it
    # (worst seen over 40 traces: 9.2e-10), so lam is held to 1e-8 there.
    # Minimizing the flat eigenvalue instead of finding the slope's root
    # moves lam by 1e-8 to 1e-6.
    frames = _fit_input(kind, seed)
    fit, ref = wc.fit_lambda_axis(frames), fit_lambda_bisect(frames)
    assert (fit.is_whirl, fit.note) == (ref.is_whirl, ref.note)
    assert abs(fit.lam / ref.lam - 1.0) <= (1e-8 if kind == "noisy" else 1e-10)
    assert np.linalg.norm(fit.axis - ref.axis) <= 1e-9


def test_fit_makes_a_few_dozen_single_3x3_solves(monkeypatch):
    # a 507-frame fit: the scan calls no eigensolver, and the slope's root
    # takes 14 solves here (at most 22 on the benchmark's traces); an
    # eigensolver scan makes one call over 1026 matrices and bisection about 53
    spec = wc.WhirlSpec(kappa=wc.kappa_constant(1.0), lam=-1.0,
                        bound=wc.bound_from_ratio(1.0, -1.0))
    frames = wc.trace_frames(wc.synthesize(spec, 0.0, 1.0, 513))
    shapes = []
    for name in ("eigh", "eigvalsh"):
        def counted(m, *args, _solve=getattr(np.linalg, name), **kwargs):
            shapes.append(np.shape(m))
            return _solve(m, *args, **kwargs)
        monkeypatch.setattr(np.linalg, name, counted)
    fit = wc.fit_lambda_axis(frames)
    assert len(frames) == 507 and fit.is_whirl
    assert set(shapes) == {(3, 3)}
    assert len(shapes) <= 24


def test_intrinsic_residual_grid_differences_a_polynomial_ratio():
    # kappa = 1, so tau is the ratio and the residual is tau*lam*(1+lam^2+tau^2)
    # - (1+lam^2)*tau'; the cubic ratio is differenced exactly in the interior
    s = np.linspace(0.0, 1.0, 21)
    tau = 0.3 * s ** 3 - s + 2.0
    lam = 0.5
    d = (tau * lam * (1.0 + lam * lam + tau * tau)
         - wc.intrinsic_residual_grid(s, np.ones_like(s), tau, lam)) / (1.0 + lam * lam)
    assert np.allclose(d[2:-2], 0.9 * s[2:-2] ** 2 - 1.0, atol=1e-12)
    assert np.allclose(d, 0.9 * s ** 2 - 1.0, atol=5e-3)


def test_intrinsic_residual_grid_needs_a_uniform_grid():
    s = np.linspace(1.0, 0.0, 11)            # uniform but decreasing: fine
    ones = np.ones_like(s)
    assert np.allclose(wc.intrinsic_residual_grid(s, ones, s ** 3, 1.0),
                       s ** 3 * (2.0 + s ** 6) - 2.0 * 3 * s ** 2, atol=1e-12)
    s = np.array([0.0, 0.1, 0.3, 0.4, 0.5])
    with pytest.raises(ValueError, match="uniform grid"):
        wc.intrinsic_residual_grid(s, np.ones_like(s), s ** 2, 1.0)


@settings(max_examples=20, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2 ** 32 - 1), motion=st.integers(0, 2 ** 32 - 1))
def test_trace_verification_is_invariant_under_rigid_motions(seed, motion):
    # a rotated and translated copy of a 513-sample synthesized trace has the
    # same frames turned by the rotation, fits and verdicts; the bounds are
    # 7-15 times the worst seen over 2300 random examples (kappa 6.7e-8, tau
    # 2.8e-5 relative; lam 2.8e-6 relative; axis 1.1e-7; c1 7.5e-6 relative,
    # c2 1.4e-6) and, for t, n and b, over 4000 (7.4e-11, 1.4e-7, 1.2e-7)
    spec, lo, hi, _ = random_whirl_model(np.random.default_rng(seed))
    rng = np.random.default_rng(motion)
    rot, shift = random_rotation(rng), rng.uniform(-1.0, 1.0, 3)
    tr = wc.synthesize(spec, lo, hi, 513)
    fa = wc.trace_frames(tr)
    fb = wc.trace_frames(wc.CurveTrace(tr.s, tr.points @ rot.T + shift))
    assert np.max(np.abs(fb.t - fa.t @ rot.T)) <= 1e-9
    assert np.max(np.abs(fb.n - fa.n @ rot.T)) <= 1e-6
    assert np.max(np.abs(fb.b - fa.b @ rot.T)) <= 1e-6
    assert np.max(np.abs(fb.kappa / fa.kappa - 1.0)) <= 1e-6
    assert np.max(np.abs(fb.tau / fa.tau - 1.0)) <= 2e-4
    wa, wb = wc.fit_lambda_axis(fa), wc.fit_lambda_axis(fb)
    assert abs(wb.lam / wa.lam - 1.0) <= 2e-5
    turned = rot @ wa.axis
    assert min(np.linalg.norm(wb.axis - turned), np.linalg.norm(wb.axis + turned)) <= 1e-6
    ca, cb = wc.chen_ratio_fit(fa), wc.chen_ratio_fit(fb)
    assert abs(cb.c1 - ca.c1) <= 1e-4 * abs(ca.c1)
    assert abs(cb.c2 - ca.c2) <= 1e-5
    assert (wb.is_whirl, cb.is_rectifying) == (wa.is_whirl, ca.is_rectifying)


def _exact_helix_frames():
    """Closed-form frames of a helix about z: n is orthogonal to the axis."""
    u = np.linspace(0.0, 3.0, 40)
    a, b = 1.0, 0.7
    c = np.hypot(a, b)
    t = np.column_stack([-a * np.sin(u), a * np.cos(u), np.full(u.size, b)]) / c
    n = np.column_stack([-np.cos(u), -np.sin(u), 0.0 * u])
    return wc.Frames(s=u * c, t=t, n=n, kappa=np.full(u.size, a / c ** 2),
                     tau=np.full(u.size, b / c ** 2))


@pytest.mark.parametrize("call, message", [
    (lambda: wc.intrinsic_residual(1.0, 1.0, 0.0, 0.0), "lam must be nonzero"),
    (lambda: wc.intrinsic_residual(1.0, 1.0, 0.0, np.nan), "lam must be finite, got nan"),
    (lambda: wc.intrinsic_residual(1.0, 1.0, 0.0, np.inf), "lam must be finite, got inf"),
    # finite, but 1 + lam^2 overflows
    (lambda: wc.intrinsic_residual(1.0, 1.0, 0.0, 1e200), "1 + lam^2 overflows at lam = 1e+200"),
    (lambda: wc.intrinsic_residual_grid([0.0, 1.0], [1.0, 1.0], [1.0, 2.0], 1.0),
     "need at least 3 grid points"),
    (lambda: wc.intrinsic_residual_grid([0.0, 1.0, 2.0], [1.0, 1.0], [1.0, 2.0], 1.0),
     "need at least 3 grid points"),
    (lambda: wc.whirl_axis(_exact_helix_frames()[0], 0.0), "lam must be nonzero"),
    (lambda: wc.whirl_axis(_exact_helix_frames()[0], np.nan), "lam must be finite, got nan"),
    (lambda: wc.whirl_axis(_exact_helix_frames(), -1e200), "1 + lam^2 overflows at lam = -1e+200"),
    (lambda: wc.verify_whirl(unit_speed_helix(1.0, 1.0), np.linspace(0.0, 2.0, 9), lam=np.inf),
     "lam must be finite, got inf"),
    (lambda: wc.verify_whirl(unit_speed_helix(1.0, 1.0), [], lam=1.0), "empty grid"),
])
def test_whirl_argument_checks(call, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()


_TAKES_LAM = {
    "WhirlSpec": lambda lam: wc.WhirlSpec(kappa=wc.kappa_constant(1.0), lam=lam, bound=1.0),
    "RectifyingSpec": lambda lam: wc.RectifyingSpec(a=0.65, b=0.1, lam=lam),
    "kappa_linear_ratio": lambda lam: wc.kappa_linear_ratio(lam, 1.0, 1.0, (0.0, 1.0)),
    "intrinsic_residual": lambda lam: wc.intrinsic_residual(1.0, 1.0, 0.0, lam),
    "whirl_axis": lambda lam: wc.whirl_axis(_exact_helix_frames()[0], lam),
}


@pytest.mark.parametrize("lam, message", [
    (np.nan, "lam must be finite, got nan"),
    (np.inf, "lam must be finite, got inf"),
    (-np.inf, "lam must be finite, got -inf"),
    (0.0, "lam must be nonzero"),
    (1e-13, "lam must be nonzero"),
    (-1e-13, "lam must be nonzero"),
    (1e200, "1 + lam^2 overflows at lam = 1e+200"),
    (-3.3e301, "1 + lam^2 overflows at lam = -3.3e+301"),
])
@pytest.mark.parametrize("take", _TAKES_LAM.values(), ids=_TAKES_LAM.keys())
def test_every_taker_of_lam_refuses_a_bad_one_alike(take, lam, message):
    # whirl.check_lam is the one rule for the whirl constant
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        take(lam)


def test_fit_of_a_lam_zero_helix_is_clamped_to_the_floor():
    # exact frames put the slope's root at lam = 0, inside the floor
    fit = wc.fit_lambda_axis(_exact_helix_frames())
    assert abs(fit.lam) == wc.whirl.LAMBDA_FLOOR
    assert not fit.is_whirl
    assert fit.note == "not a whirl curve: fitted constant is indistinguishable from zero"


def test_fit_of_identical_frames_is_degenerate():
    # every row alike: N - lam*T has rank 1 for every lam
    f = _exact_helix_frames()
    same = wc.Frames(s=f.s, t=np.tile(f.t[0], (len(f), 1)), n=np.tile(f.n[0], (len(f), 1)),
                     kappa=f.kappa, tau=f.tau)
    with pytest.raises(FrameError, match="^no stable fit: degenerate normal system$"):
        wc.fit_lambda_axis(same)


def test_illinois_root_stops_on_an_exact_zero():
    # the first secant step of a line lands on its root
    calls = []
    f = lambda x: calls.append(x) or x - 0.5
    assert wc.whirl._illinois_root(f, 0.0, 1.0, -0.5, 0.5) == 0.5
    assert calls == [0.5]


def test_verify_whirl_takes_lam_as_a_required_keyword():
    helix, grid = unit_speed_helix(1.0, 1.0), np.linspace(0.0, 2.0, 9)
    for call in (lambda: wc.verify_whirl(helix, grid), lambda: wc.verify_whirl(helix, grid, 1.0)):
        with pytest.raises(TypeError):
            call()
    assert not hasattr(wc.whirl, "ratio_derivative")
