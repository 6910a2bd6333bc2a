"""Whirl-curve synthesis tests: scalar machinery, tangent/position, branches."""

import gc
import weakref

import numpy as np
import pytest

import whirlcurves as wc
from whirlcurves.errors import DomainError
from conftest import congruent_distances, random_whirl_model


def test_bound_hand_value():
    # lam = 1, h0 = sqrt(2): argument (sqrt2/sqrt2)/sqrt2 = 1/sqrt2
    assert wc.bound_from_ratio(np.sqrt(2.0), 1.0) == pytest.approx(np.log(np.sqrt(2.0)), abs=1e-14)


def test_bound_positive_and_vanishing_limit(rng):
    for _ in range(20):
        h0 = rng.uniform(0.05, 50.0) * rng.choice([-1, 1])
        lam = rng.uniform(0.2, 10.0) * rng.choice([-1, 1])
        assert wc.bound_from_ratio(h0, lam) > 0.0
    # |h0| -> infinity pushes the bound to 0+
    b = wc.bound_from_ratio(1e3, 1.0)
    assert 0.0 < b < 2e-6


def test_bound_rejects_zero_ratio():
    with pytest.raises(ValueError):
        wc.bound_from_ratio(0.0, 1.0)


def test_axis_bound_values(rng):
    assert wc.axis_bound(0.7, 0.0) == pytest.approx(0.7)
    assert wc.axis_bound(0.0, 1.0) == pytest.approx(0.5 * np.log(2.0), abs=1e-15)
    for _ in range(20):
        bound = rng.uniform(-2.0, 2.0)
        lam = rng.uniform(-5.0, 5.0)
        c = wc.axis_bound(bound, lam)
        assert (1.0 + lam * lam) * np.exp(-2.0 * c) == pytest.approx(
            np.exp(-2.0 * bound), rel=1e-14)


def test_exponent_at_base_point():
    spec = wc.WhirlSpec(kappa=wc.kappa_constant(2.0), lam=-1.0, bound=0.8, s0=0.3)
    assert wc.WhirlCurve(spec).exponent(0.3) == pytest.approx(-0.8, abs=1e-13)


def test_exponent_linear_case():
    spec = wc.WhirlSpec(kappa=wc.kappa_constant(1.0), lam=-1.0, bound=0.0, s0=0.0)
    assert wc.WhirlCurve(spec).exponent(1.0) == pytest.approx(-1.0, abs=1e-12)


def test_exponent_domain_guard():
    spec = wc.WhirlSpec(kappa=wc.kappa_constant(1.0), lam=1.0, bound=0.5, s0=0.0)
    with pytest.raises(DomainError, match="domain bound"):
        wc.WhirlCurve(spec).exponent(1.0)   # lam * int kappa = 1.0 > 0.5


def test_exponent_identity_for_linear_ratio_family(rng):
    # e^exponent equals (|h|/sqrt(1+lam^2)) / sqrt(1 + h^2/(1+lam^2)) when
    # kappa comes from the linear-ratio family anchored at h(s0)
    for _ in range(8):
        spec, lo, hi, fam = random_whirl_model(rng, family="linear-ratio")
        grid = np.linspace(lo, hi, 7)
        curve = wc.WhirlCurve(spec)
        q = np.exp(curve.exponent(grid))
        lam = spec.lam
        # reconstruct h(s) = a*s + b from the curvature family metadata
        h = curve.torsion(grid) / spec.kappa(grid) * spec.tau_sign
        rhs = (np.abs(h) / np.sqrt(1 + lam * lam)) / np.sqrt(1 + h * h / (1 + lam * lam))
        assert np.max(np.abs(q - rhs)) <= 1e-9


def test_torsion_collapses_at_base_point(rng):
    for _ in range(10):
        h0 = rng.uniform(0.3, 3.0) * rng.choice([-1, 1])
        lam = rng.uniform(0.3, 5.0) * rng.choice([-1, 1])
        kap0 = rng.uniform(0.2, 2.0)
        tau_sign = int(rng.choice([1, -1]))
        spec = wc.WhirlSpec(kappa=wc.kappa_constant(kap0), lam=lam,
                            bound=wc.bound_from_ratio(h0, lam), tau_sign=tau_sign)
        tau0 = wc.WhirlCurve(spec).torsion(0.0)
        assert tau0 == pytest.approx(tau_sign * abs(h0) * kap0, rel=1e-12)


def test_torsion_hand_value():
    # kappa = 1, lam = -1, bound = 0.5, s = s0 = 0:
    # tau = sqrt(2) e^{-1/2} / sqrt(1 - e^{-1}) = 1.0788667...
    spec = wc.WhirlSpec(kappa=wc.kappa_constant(1.0), lam=-1.0, bound=0.5)
    expected = np.sqrt(2.0) * np.exp(-0.5) / np.sqrt(-np.expm1(-1.0))
    assert wc.WhirlCurve(spec).torsion(0.0) == pytest.approx(expected, rel=1e-12)
    assert expected == pytest.approx(1.0788667265879752, abs=1e-12)


def test_torsion_satisfies_intrinsic_equation():
    spec = wc.WhirlSpec(kappa=wc.kappa_constant(1.0), lam=-1.0,
                        bound=wc.bound_from_ratio(1.0, -1.0))
    assert wc.intrinsic_residual_max(spec, 0.0, 1.0) <= 1e-7


def test_cos_polar_decays():
    spec = wc.WhirlSpec(kappa=wc.kappa_constant(1.0), lam=-1.0, bound=0.2)
    vals = np.abs(wc.WhirlCurve(spec).cos_polar(np.array([0.5, 2.0, 6.0, 12.0])))
    assert np.all(np.diff(vals) < 0)
    assert vals[-1] < 1e-5


def test_azimuth_series_cancellation():
    # tiny w: arctan(w) - arctanh(w) cancels to O(w^3)
    spec = wc.WhirlSpec(kappa=wc.kappa_constant(1.0), lam=1.0,
                        bound=wc.bound_from_ratio(1e3, 1.0), s0=0.0)
    assert abs(wc.WhirlCurve(spec).azimuth(0.0)) < 1e-8


def test_azimuth_closed_form_vs_quadrature(rng):
    for _ in range(5):
        spec, lo, hi, fam = random_whirl_model(rng)
        curve = wc.WhirlCurve(spec)
        got = curve.azimuth(hi) - curve.azimuth(lo)
        ref = wc.integrate(curve.azimuth_rate, lo, hi,
                           abs_tol=1e-11).value
        assert abs(got - ref) <= 1e-8


def test_axis_component_matches_cos_polar(rng):
    for _ in range(5):
        spec, lo, hi, fam = random_whirl_model(rng)
        grid = np.linspace(lo, hi, 9)
        curve = wc.WhirlCurve(spec)
        assert np.allclose(curve.axis_component(grid),
                           curve.cos_polar(grid), rtol=1e-12, atol=1e-15)


def test_axis_component_base_value_and_bound():
    lam = -1.0
    spec = wc.WhirlSpec(kappa=wc.kappa_constant(1.0), lam=lam, bound=0.4)
    curve = wc.WhirlCurve(spec)
    xi0 = curve.axis_component(0.0)
    assert xi0 == pytest.approx(np.exp(-0.4) / np.sqrt(2.0), rel=1e-13)
    grid = np.linspace(0.0, 3.0, 31)
    assert np.all(np.abs(curve.axis_component(grid)) < 1.0 / np.sqrt(1 + lam * lam))


def test_axis_component_linear_growth_law():
    # (1/kappa) d(xi)/ds = lam * xi
    spec = wc.WhirlSpec(kappa=wc.kappa_constant(0.7), lam=-0.9,
                        bound=wc.bound_from_ratio(1.2, -0.9))
    curve = wc.WhirlCurve(spec)
    for s in (0.2, 0.8, 1.5):
        lhs = wc.derivative(curve.axis_component, s, 1) / 0.7
        assert abs(float(lhs) - spec.lam * curve.axis_component(s)) <= 1e-7


def test_domain_guard_on_grid(rng):
    for _ in range(5):
        spec, lo, hi, fam = random_whirl_model(rng)
        grid = np.linspace(lo, hi, 33)
        assert np.all(np.exp(2.0 * np.asarray(wc.WhirlCurve(spec).exponent(grid))) < 1.0)


def test_synthesize_unit_speed_and_frenet_recovery():
    spec = wc.WhirlSpec(kappa=wc.kappa_constant(1.0), lam=-1.0,
                        bound=wc.bound_from_ratio(1.0, -1.0))
    tr = wc.synthesize(spec, 0.0, 1.0, 65)
    assert len(tr) == 65
    assert np.array_equal(tr.points[0], [0.0, 0.0, 0.0])
    curve = wc.WhirlCurve(spec, origin=0.0)
    assert wc.unit_speed_residual(curve.position, tr.s[1:-1]) < 1e-6
    for s in (0.25, 0.5, 0.75):
        f = wc.frenet_at(curve.position, s)
        assert abs(f.kappa - 1.0) <= 1e-5
        tau_ref = curve.torsion(s)
        assert abs(f.tau - tau_ref) <= 1e-4 * abs(tau_ref)


def test_synthesize_z_rate():
    spec = wc.WhirlSpec(kappa=wc.kappa_constant(1.0), lam=-1.0,
                        bound=wc.bound_from_ratio(1.0, -1.0), z_sign=-1)
    curve = wc.WhirlCurve(spec, origin=0.0)
    for s in (0.3, 0.9):
        zp = wc.derivative(curve.position, s, 1)[2]
        ref = -np.exp(curve.exponent(s)) / np.sqrt(2.0)
        assert abs(zp - ref) <= 1e-8


def test_synthesize_passes_whirl_verification(rng):
    spec, lo, hi, fam = random_whirl_model(rng)
    curve = wc.WhirlCurve(spec, origin=lo)
    pad = 0.05 * (hi - lo)
    grid = np.linspace(lo + pad, hi - pad, 9)
    report = wc.verify_whirl(curve.position, grid, lam=spec.lam, deriv=curve.tangent)
    assert report.max_deviation < 1e-6
    assert report.max_residual < 1e-6
    assert np.allclose(np.abs(report.d), [0, 0, 1], atol=1e-6)


def test_synthesize_rejects_bad_requests():
    spec = wc.WhirlSpec(kappa=wc.kappa_constant(1.0), lam=1.0, bound=0.5)
    with pytest.raises(DomainError, match="domain bound"):
        wc.synthesize(spec, 0.0, 1.0, 17)
    with pytest.raises(ValueError):
        wc.synthesize(spec, 0.0, 0.2, 1)
    with pytest.raises(ValueError):
        wc.synthesize(spec, 0.2, 0.0, 17)
    narrow = wc.WhirlSpec(kappa=wc.kappa_constant(1.0, domain=(0.0, 0.1)),
                          lam=-1.0, bound=0.5)
    with pytest.raises(ValueError, match="domain"):
        wc.synthesize(narrow, 0.0, 1.0, 17)


def test_synthesize_long_window():
    # 80k lattice panels: z saturates at e^-B / sqrt(1 + lam^2) as e^E -> 0
    spec = wc.WhirlSpec(kappa=wc.kappa_constant(1.0), lam=-1.0,
                        bound=wc.bound_from_ratio(1.0, -1.0))
    tr = wc.synthesize(spec, 0.0, 1e4, 5)
    assert np.all(np.isfinite(tr.points))
    assert abs(tr.points[-1, 2] - np.exp(-spec.bound) / np.sqrt(2.0)) <= 1e-12


def test_spec_is_released_after_synthesis():
    spec = wc.WhirlSpec(kappa=wc.kappa_constant(1.0), lam=-1.0,
                        bound=wc.bound_from_ratio(1.0, -1.0))
    wc.synthesize(spec, 0.0, 1.0, 17)
    wc.intrinsic_residual_max(spec, 0.0, 1.0, 17)
    ref = weakref.ref(spec)
    del spec
    gc.collect()
    assert ref() is None


def test_forms_produce_congruent_traces():
    spec = wc.WhirlSpec(kappa=wc.kappa_constant(1.0), lam=-1.0,
                        bound=wc.bound_from_ratio(1.0, -1.0))
    spherical_tr = wc.synthesize(spec, 0.0, 1.0, 33, form="spherical")
    combined_tr = wc.synthesize(spec, 0.0, 1.0, 33, form="combined")
    assert congruent_distances(spherical_tr.points, combined_tr.points, 1e-8)
    # lam > 0 case exercises the half-turn phase difference
    spec_pos = wc.WhirlSpec(kappa=wc.kappa_constant(1.0), lam=0.8,
                            bound=wc.bound_from_ratio(1.0, 0.8))
    spherical_tr2 = wc.synthesize(spec_pos, 0.0, 0.4, 33, form="spherical")
    combined_tr2 = wc.synthesize(spec_pos, 0.0, 0.4, 33, form="combined")
    assert congruent_distances(spherical_tr2.points, combined_tr2.points, 1e-8)


def test_tau_sign_flip_gives_mirror():
    kw = dict(kappa=wc.kappa_constant(1.0), lam=-1.0,
              bound=wc.bound_from_ratio(1.0, -1.0))
    plus = wc.synthesize(wc.WhirlSpec(tau_sign=1, **kw), 0.0, 1.0, 25)
    minus = wc.synthesize(wc.WhirlSpec(tau_sign=-1, **kw), 0.0, 1.0, 25)
    assert congruent_distances(plus.points, minus.points, 1e-10)
    assert not np.allclose(plus.points, minus.points, atol=1e-3)


def test_realized_torsion_sign_follows_tau_sign():
    kw = dict(kappa=wc.kappa_constant(1.0), lam=-1.0,
              bound=wc.bound_from_ratio(1.0, -1.0))
    for tau_sign in (1, -1):
        spec = wc.WhirlSpec(tau_sign=tau_sign, **kw)
        curve = wc.WhirlCurve(spec, origin=0.0)
        f = wc.frenet_at(curve.position, 0.5, deriv=curve.tangent)
        assert np.sign(f.tau) == tau_sign
        assert f.tau == pytest.approx(curve.torsion(0.5), rel=1e-6)


def _frenet_system_positions(kappas, taus, s_lo, s_hi, n_out):
    """RK4 on the frame system t'=k n, n'=-k t+tau b, b'=-tau n, p'=t.

    kappas/taus are sampled on the half-step grid (2*n_steps+1 values);
    starts from the identity frame at the origin, so the result matches any
    congruent curve only through rigid-motion invariants.
    """
    n_steps = (len(kappas) - 1) // 2
    h = (s_hi - s_lo) / n_steps

    def rhs(j, y):
        t, nv, b = y[0:3], y[3:6], y[6:9]
        k, ta = kappas[j], taus[j]
        return np.concatenate([k * nv, -k * t + ta * b, -ta * nv, t])

    y = np.concatenate([np.eye(3).ravel(), np.zeros(3)])
    out = [y[9:12].copy()]
    per = n_steps // (n_out - 1)
    for i in range(n_steps):
        j = 2 * i
        k1 = rhs(j, y)
        k2 = rhs(j + 1, y + 0.5 * h * k1)
        k3 = rhs(j + 1, y + 0.5 * h * k2)
        k4 = rhs(j + 2, y + h * k3)
        y = y + h / 6.0 * (k1 + 2 * k2 + 2 * k3 + k4)
        if (i + 1) % per == 0:
            out.append(y[9:12].copy())
    return np.array(out)


def test_positions_match_frenet_system_integration(rng):
    # independent oracle: integrating the frame equations with the module's
    # curvature/torsion must reproduce the quadrature positions up to a
    # rigid motion (fundamental theorem of space curves)
    n_out, n_steps = 17, 1600
    cases = []
    spec = wc.WhirlSpec(kappa=wc.kappa_constant(1.0), lam=-1.0,
                        bound=wc.bound_from_ratio(1.0, -1.0))
    cases.append((spec, 0.0, 1.6))
    spec2, lo2, hi2, _ = random_whirl_model(rng, family="linear-ratio")
    cases.append((spec2, lo2, hi2))
    for spec, lo, hi in cases:
        half_grid = np.linspace(lo, hi, 2 * n_steps + 1)
        kappas = np.broadcast_to(np.asarray(spec.kappa(half_grid), dtype=float),
                                 half_grid.shape)
        taus = np.asarray(wc.WhirlCurve(spec).torsion(half_grid), dtype=float)
        ode_pts = _frenet_system_positions(kappas, taus, lo, hi, n_out)
        tr = wc.synthesize(spec, lo, hi, n_out)
        assert congruent_distances(tr.points, ode_pts, 1e-8)


def test_spherical_tangent_matches_vector_form():
    spec = wc.WhirlSpec(kappa=wc.kappa_constant(1.0), lam=-1.0,
                        bound=wc.bound_from_ratio(1.0, -1.0), tau_sign=-1)
    curve = wc.WhirlCurve(spec, origin=0.0)
    for s in (0.2, 0.8):
        st = curve.spherical_tangent(s)
        assert 0.0 < st.phi < np.pi
        assert np.allclose(st.vector(), curve.tangent(s), atol=1e-14)
    with pytest.raises(ValueError):
        wc.SphericalTangent(phi=0.0, theta=1.0)


def test_kappa_family_validation():
    with pytest.raises(ValueError):
        wc.kappa_constant(-1.0)
    with pytest.raises(ValueError):
        wc.kappa_linear_ratio(-1.0, 1.0, 0.0, (0.25, 2.0))   # kappa < 0 there
    with pytest.raises(ValueError):
        wc.kappa_linear_ratio(-1.0, 1.0, 0.0, (-2.0, 2.0))   # crosses the pole
    with pytest.raises(ValueError):
        wc.kappa_polynomial([1.0, -2.0], (0.0, 1.0))          # hits zero
    fn = wc.kappa_polynomial([0.5, 0.0, 1.0], (-1.0, 1.0))
    assert fn(0.5) == pytest.approx(0.75)


def test_whirlspec_validation():
    with pytest.raises(ValueError):
        wc.WhirlSpec(kappa=wc.kappa_constant(1.0), lam=0.0, bound=1.0)
    with pytest.raises(ValueError):
        wc.WhirlSpec(kappa=wc.kappa_constant(1.0), lam=1.0, bound=1.0, z_sign=2)
