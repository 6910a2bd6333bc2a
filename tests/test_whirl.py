"""Whirl-property primitive tests: intrinsic equation, axis, verification, fit."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import whirlcurves as wc
from whirlcurves.errors import FrameError
from conftest import random_frame, random_rotation, random_whirl_model, unit_speed_helix


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
    frame = wc.Frames(0.0, e[0], e[1], e[2], kappa=1.0, tau=1.0)
    d = wc.whirl_axis(frame, lam=1.0, sign=1)
    assert np.allclose(d, np.array([1.0, 1.0, 2.0]) / np.sqrt(6.0), atol=1e-14)


def test_whirl_axis_unit_and_sign(rng):
    for _ in range(20):
        frame = random_frame(rng)
        lam = rng.uniform(0.2, 4.0) * rng.choice([-1, 1])
        d = wc.whirl_axis(frame, lam, 1)
        assert abs(np.linalg.norm(d) - 1.0) <= 1e-12
        assert np.allclose(wc.whirl_axis(frame, lam, -1), -d, atol=0)


def test_whirl_axis_zero_torsion():
    e = np.eye(3)
    frame = wc.Frames(0.0, e[0], e[1], e[2], kappa=1.0, tau=0.0)
    with pytest.raises(FrameError, match="zero torsion"):
        wc.whirl_axis(frame, 1.0, 1)


def test_proportionality_residual_cases(rng):
    e = np.eye(3)
    frame = wc.Frames(0.0, e[0], e[1], e[2], kappa=1.0, tau=0.5)
    # d orthogonal to span(t, n)
    assert wc.proportionality_residual(frame, e[2], lam=3.7) == 0.0
    # d = t
    assert wc.proportionality_residual(frame, e[0], lam=2.0) == pytest.approx(-2.0)
    # axis built from the same frame satisfies the proportionality identically
    for _ in range(20):
        f = random_frame(rng)
        lam = rng.uniform(0.2, 4.0) * rng.choice([-1, 1])
        d = wc.whirl_axis(f, lam, 1)
        assert abs(wc.proportionality_residual(f, d, lam)) <= 1e-10


def test_proportionality_residual_requires_unit_d():
    e = np.eye(3)
    frame = wc.Frames(0.0, e[0], e[1], e[2], kappa=1.0, tau=0.5)
    with pytest.raises(ValueError):
        wc.proportionality_residual(frame, np.array([2.0, 0.0, 0.0]), 1.0)


def _synth_curve(lam=-1.0, h0=1.0, kappa=1.0):
    spec = wc.WhirlSpec(kappa=wc.kappa_constant(kappa), lam=lam,
                        bound=wc.bound_from_ratio(h0, lam))
    return spec, wc.WhirlCurve(spec, origin=0.0)


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


def test_verify_whirl_accepts_frames():
    spec, curve = _synth_curve(lam=-1.0)
    grid = np.linspace(0.1, 0.9, 7)
    frames = wc.frenet_at(curve.position, grid)
    report = wc.verify_whirl(frames, lam=spec.lam)
    assert report.max_deviation < 1e-6


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
    fit = wc.fit_lambda_axis(curve.position, grid)
    assert fit.is_whirl
    assert abs(fit.lam - (-0.5)) <= 1e-4
    assert np.allclose(np.abs(fit.axis), [0.0, 0.0, 1.0], atol=1e-5)


@pytest.mark.parametrize("axis", [0, 1])
@pytest.mark.parametrize("angle", [1e-8, -1e-8])
def test_fit_axis_sign_ignores_tiny_tilts(axis, angle):
    # a (0, 0, 1) axis tilted by 1e-8 rad keeps z > 0 whatever the sign of
    # its (tiny) x and y components
    spec, curve = _synth_curve(lam=-0.5)
    c, s = np.cos(angle), np.sin(angle)
    rot = (np.array([[1, 0, 0], [0, c, -s], [0, s, c]]) if axis == 0
           else np.array([[c, 0, s], [0, 1, 0], [-s, 0, c]]))
    fit = wc.fit_lambda_axis(lambda u: curve.position(u) @ rot.T,
                             np.linspace(0.05, 1.4, 15),
                             deriv=lambda u: curve.tangent(u) @ rot.T)
    assert fit.axis[2] > 0
    assert np.linalg.norm(fit.axis - [0.0, 0.0, 1.0]) <= 1e-6


@pytest.mark.parametrize("seed", range(12))
def test_fit_resolves_lambda_from_closed_form_frames(seed):
    # frames from the closed-form tangent on 507 nodes of a short window fit
    # lam and the axis (0, 0, 1) to 1e-8: near its minimum the eigenvalue is
    # flat to rounding, but its slope still resolves lam
    spec, lo, hi, _ = random_whirl_model(np.random.default_rng([seed, 9]))
    curve = wc.WhirlCurve(spec, origin=lo, window=(lo, hi))
    fit = wc.fit_lambda_axis(curve.position, np.linspace(lo, hi, 513)[3:-3],
                             deriv=curve.tangent)
    assert abs(fit.lam / spec.lam - 1.0) <= 1e-8
    assert np.linalg.norm(fit.axis - [0.0, 0.0, 1.0]) <= 1e-8


def test_fit_flags_planar_circle():
    circle = lambda s: np.array([np.cos(s), np.sin(s), 0.0])
    fit = wc.fit_lambda_axis(circle, np.linspace(0.0, 3.0, 9))
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
        wc.fit_lambda_axis(curve.position, np.linspace(0.2, 0.6, 3))


def test_ratio_derivative_matches_polynomial():
    s = np.linspace(0.0, 1.0, 21)
    vals = 0.3 * s ** 3 - s + 2.0
    d = wc.ratio_derivative(s, vals)
    assert np.allclose(d[2:-2], 0.9 * s[2:-2] ** 2 - 1.0, atol=1e-12)
    assert np.allclose(d, 0.9 * s ** 2 - 1.0, atol=5e-3)


def test_ratio_derivative_needs_a_uniform_grid():
    s = np.linspace(1.0, 0.0, 11)            # uniform but decreasing: fine
    assert np.allclose(wc.ratio_derivative(s, s ** 3), 3 * s ** 2, atol=1e-12)
    s = np.array([0.0, 0.1, 0.3, 0.4, 0.5])
    with pytest.raises(ValueError, match="uniform grid"):
        wc.ratio_derivative(s, s ** 2)


@settings(max_examples=20, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2 ** 32 - 1), motion=st.integers(0, 2 ** 32 - 1))
def test_trace_verification_is_invariant_under_rigid_motions(seed, motion):
    # a rotated and translated copy of a 513-sample synthesized trace has the
    # same frames, fits and verdicts; the bounds are 7-15 times the
    # worst seen over 2300 random examples (kappa 6.7e-8, tau 2.8e-5 relative;
    # lam 2.8e-6 relative; axis 1.1e-7; c1 7.5e-6 relative, c2 1.4e-6)
    spec, lo, hi, _ = random_whirl_model(np.random.default_rng(seed))
    rng = np.random.default_rng(motion)
    rot, shift = random_rotation(rng), rng.uniform(-1.0, 1.0, 3)
    tr = wc.synthesize(spec, lo, hi, 513)
    fa = wc.trace_frames(tr)
    fb = wc.trace_frames(wc.CurveTrace(tr.s, tr.points @ rot.T + shift))
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
