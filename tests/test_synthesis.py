"""Whirl-curve synthesis tests: scalar machinery, tangent/position, branches."""

import dataclasses
import gc
import math
import weakref

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import whirlcurves as wc
from whirlcurves.errors import DomainError
from reference import integrate
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
    assert wc.intrinsic_residual_max(wc.WhirlCurve(spec), 0.0, 1.0) <= 1e-7


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
        ref = integrate(curve.azimuth_rate, lo, hi,
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


def _counted_kappa(base, points):
    """``base`` as a ScalarFn with the same domain that counts its samples."""
    def counted(s):
        points[0] += np.size(s)
        return base(s)
    return wc.ScalarFn(counted, base.domain)


@pytest.mark.parametrize("window, exc, message", [
    ((0.2, 0.0), ValueError, "need s_lo < s_hi"),
    ((0.5, 0.5), ValueError, "need s_lo < s_hi"),
    ((0.0, 3.0), ValueError, "kappa domain (0.0, 1.0) does not cover [0.0, 3.0]"),
    ((0.0, 0.9), DomainError, "violated at s=0.9"),      # the upper end
    ((-0.9, 0.5), DomainError, "violated at s=-0.9"),    # the lower end
])
def test_windowed_curve_checks_its_window_before_sampling(window, exc, message, monkeypatch):
    # the windowed curve raises what synthesize raises for the same window:
    # a bad order or domain before any kappa sample, the exponent bound
    # before any tangent sample
    kappa, tangent = [0], [0]
    plain = wc.WhirlCurve.tangent

    def counted_tangent(self, s):
        tangent[0] += np.size(s)
        return plain(self, s)

    monkeypatch.setattr(wc.WhirlCurve, "tangent", counted_tangent)
    lam = -1.0 if window[0] < 0 else 1.0
    base = (wc.kappa_linear_ratio(-1.0, 1.0, -2.0, (0.0, 1.0)) if "domain" in message
            else wc.kappa_constant(1.0))
    spec = wc.WhirlSpec(kappa=_counted_kappa(base, kappa), lam=lam, bound=0.5)
    with pytest.raises(exc) as made:
        wc.WhirlCurve(spec, window=window)
    assert str(made.value).endswith(message)
    assert tangent[0] == 0
    if exc is ValueError:
        assert kappa[0] == 0
    with pytest.raises(exc) as synthesized:
        wc.synthesize(spec, *window, 17)
    assert str(synthesized.value) == str(made.value)


def test_windowed_curve_starts_at_its_window():
    spec = wc.WhirlSpec(kappa=wc.kappa_constant(1.0), lam=-1.0, bound=0.5)
    curve = wc.WhirlCurve(spec, window=(0.25, 1.0))
    assert curve.origin == 0.25
    assert np.array_equal(curve.position(0.25), [0.0, 0.0, 0.0])
    assert np.array_equal(wc.synthesize(spec, 0.25, 1.0, 9).points,
                          curve.position(np.linspace(0.25, 1.0, 9)))


def test_synthesize_long_window():
    # 80k lattice panels: z saturates at e^-B / sqrt(1 + lam^2) as e^E -> 0
    spec = wc.WhirlSpec(kappa=wc.kappa_constant(1.0), lam=-1.0,
                        bound=wc.bound_from_ratio(1.0, -1.0))
    tr = wc.synthesize(spec, 0.0, 1e4, 5)
    assert np.all(np.isfinite(tr.points))
    assert abs(tr.points[-1, 2] - np.exp(-spec.bound) / np.sqrt(2.0)) <= 1e-12


def _window_to_bound(coeffs, lam, bound, gap):
    """The s on the lam side of s0 = 0 where lam * int_0^s kappa = bound - gap,
    for the polynomial kappa with ``coeffs``."""
    roots = (lam * np.polynomial.Polynomial(coeffs).integ() - (bound - gap)).roots()
    real = roots[np.abs(roots.imag) < 1e-12].real
    real = real[np.sign(real) == np.sign(lam)]
    return float(real[np.argmin(np.abs(real))])


@pytest.mark.parametrize("coeffs", [[0.8], [0.8, 0.1, 0.03]])
@pytest.mark.parametrize("lam", [1.3, -0.6])
@pytest.mark.parametrize("form", ["spherical", "combined"])
def test_positions_near_the_exponent_bound_match_adaptive_quadrature(coeffs, lam, form):
    # windows ending where E = -1e-3: x and y carry w = sqrt(-expm1(2E)),
    # whose derivative grows like |E|^(-1/2) there; adaptive Simpson of the
    # tangent (through the plain kappa cumulative) is the independent oracle
    bound = wc.bound_from_ratio(1.2, lam)
    lo, hi = sorted((0.0, _window_to_bound(coeffs, lam, bound, 1e-3)))
    kappa = (wc.kappa_constant(coeffs[0]) if len(coeffs) == 1
             else wc.kappa_polynomial(coeffs, (lo - 1.0, hi + 1.0)))
    spec = wc.WhirlSpec(kappa=kappa, lam=lam, bound=bound)
    curve = wc.WhirlCurve(spec, origin=lo, form=form)
    assert np.max(curve.exponent(np.array([lo, hi]))) == pytest.approx(-1e-3, abs=1e-12)
    tr = wc.synthesize(spec, lo, hi, 65, form=form)
    for i in (32, 64):
        ref = [integrate(lambda u: curve.tangent(u)[c], lo, tr.s[i], abs_tol=1e-13).value
               for c in range(3)]
        assert np.max(np.abs(tr.points[i] - ref)) <= 1e-10


def test_synthesis_kappa_samples_stay_within_48_per_position():
    # positions are read off the window's series, so kappa is sampled by one
    # 24-node panel per tangent node of the window's panels, not per position;
    # a tangent panel per position would take 24 * 24 = 576 per position
    base = wc.kappa_polynomial([0.9, 0.05, -0.01], (-1.0, 4.0))
    points = [0]

    def counted(s):
        points[0] += np.size(s)
        return base(s)

    spec = wc.WhirlSpec(kappa=wc.ScalarFn(counted, base.domain), lam=-0.7,
                        bound=wc.bound_from_ratio(1.1, -0.7))
    n = 20001
    tr = wc.synthesize(spec, 0.0, 2.0, n)
    assert points[0] <= 48 * n
    assert np.array_equal(tr.points[0], [0.0, 0.0, 0.0])


def test_intrinsic_residual_max_evaluates_the_ratio_once():
    # each node makes five windowless kappa-cumulative queries (the ratio and
    # its four stencil probes), each one 24-node Gauss panel; evaluating the
    # ratio again beside ratio_rate would cost 24 kappa samples more per node
    base = wc.kappa_polynomial([0.9, 0.05, -0.01], (-1.0, 4.0))
    points = [0]

    def counted(s):
        points[0] += np.size(s)
        return base(s)

    spec = wc.WhirlSpec(kappa=wc.ScalarFn(counted, base.domain), lam=-0.7,
                        bound=wc.bound_from_ratio(1.1, -0.7))
    n = 65
    value = wc.intrinsic_residual_max(wc.WhirlCurve(spec), 0.0, 2.0, n)
    once, points[0] = points[0], 0
    grid = np.linspace(wc.synthesis.REACH, 2.0 - wc.synthesis.REACH, n)
    curve = wc.WhirlCurve(spec)
    kv = np.asarray(spec.kappa(grid), dtype=float)
    curve._ratio(grid)   # the ratio evaluated apart from ratio_rate
    rate = curve.ratio_rate(grid)
    assert points[0] - once == 24 * n
    # windowless queries do not depend on the batch: the same value, bit for bit
    resid = wc.intrinsic_residual(kv, curve.torsion(grid), rate, spec.lam)
    assert value == float(np.max(np.abs(resid)))


def _scalar_tangent(coeffs, lam, bound, form, c):
    """Component c of the closed-form tangent in plain floats, int kappa from
    the polynomial antiderivative: a fast integrand for adaptive Simpson."""
    prim = np.polynomial.Polynomial(coeffs).integ().coef.tolist()
    root = math.sqrt(1.0 + lam * lam)

    def t(u):
        e = lam * math.fsum(a * u ** k for k, a in enumerate(prim)) - bound
        q, w = math.exp(e), math.sqrt(-math.expm1(2.0 * e))
        if c == 2:
            return q / root
        if form == "spherical":
            theta = math.atan(w / lam) - (math.log1p(w) - e) / lam
            return math.sqrt(1.0 - q * q / (1.0 + lam * lam)) * (math.cos, math.sin)[c](theta)
        psi = (math.log1p(w) - e) / lam
        return ((lam * math.cos(psi) + w * math.sin(psi)) if c == 0
                else (w * math.cos(psi) - lam * math.sin(psi))) / root

    return t


@pytest.mark.parametrize("gap", [1e-3, 1e-6, 1e-11])
@pytest.mark.parametrize("coeffs", [[0.8], [0.8, 0.1, 0.03]])
@pytest.mark.parametrize("lam", [1.3, -0.6])
@pytest.mark.parametrize("form", ["spherical", "combined"])
def test_positions_at_every_node_near_the_bound_match_summed_adaptive_quadrature(
        gap, coeffs, lam, form):
    # windows ending where E = -gap: the series panels next to the end are
    # bisected until resolved; one fixed 24-node panel per position was off
    # by up to 5.3e-11 here
    bound = wc.bound_from_ratio(1.2, lam)
    lo, hi = sorted((0.0, _window_to_bound(coeffs, lam, bound, gap)))
    kappa = (wc.kappa_constant(coeffs[0]) if len(coeffs) == 1
             else wc.kappa_polynomial(coeffs, (lo - 1.0, hi + 1.0)))
    spec = wc.WhirlSpec(kappa=kappa, lam=lam, bound=bound)
    tr = wc.synthesize(spec, lo, hi, 65, form=form)
    ref = np.zeros((65, 3))
    for c in range(3):
        t = _scalar_tangent(coeffs, lam, bound, form, c)
        ref[1:, c] = np.cumsum([integrate(t, tr.s[i], tr.s[i + 1], abs_tol=1e-16).value
                                for i in range(64)])
    assert np.max(np.abs(tr.points - ref)) <= 1e-14


def test_synthesis_takes_at_most_one_tangent_evaluation_per_sample(monkeypatch):
    # the window's panels are sampled once; positions are read off their
    # series (one 24-node panel per position took 24 evaluations each)
    points = [0]
    tangent = wc.WhirlCurve.tangent

    def counted(self, s):
        points[0] += np.size(s)
        return tangent(self, s)

    monkeypatch.setattr(wc.WhirlCurve, "tangent", counted)
    spec = wc.WhirlSpec(kappa=wc.kappa_polynomial([0.9, 0.05, -0.01], (-1.0, 4.0)),
                        lam=-0.7, bound=wc.bound_from_ratio(1.1, -0.7))
    n = 20001
    wc.synthesize(spec, 0.0, 2.0, n)
    assert 0 < points[0] <= n


def test_long_window_stays_on_its_lattice():
    # far out cos(theta) has a rounding floor of about |theta| * EPS: the chop
    # rule must accept it rather than bisect without end
    spec = wc.WhirlSpec(kappa=wc.kappa_constant(1.0), lam=-1.0,
                        bound=wc.bound_from_ratio(1.0, -1.0))
    curve = wc.WhirlCurve(spec, origin=0.0, window=(0.0, 1e4))
    curve.position(1e4)
    assert curve._pos.panels <= 3 * round(1e4 / wc.numerics.PANEL)


def test_windowed_positions_do_not_depend_on_the_batch():
    spec = wc.WhirlSpec(kappa=wc.kappa_polynomial([0.9, 0.05, -0.01], (-1.0, 4.0)),
                        lam=-0.7, bound=wc.bound_from_ratio(1.1, -0.7))
    grid = np.linspace(0.0, 2.0, 41)
    batched = wc.WhirlCurve(spec, origin=0.0, window=(0.0, 2.0)).position(grid)
    single = wc.WhirlCurve(spec, origin=0.0, window=(0.0, 2.0))
    assert np.array_equal(np.array([single.position(s) for s in grid]), batched)
    assert np.array_equal(wc.synthesize(spec, 0.0, 2.0, 41).points, batched)
    windowless = wc.WhirlCurve(spec, origin=0.0).position(grid)
    assert np.max(np.abs(batched - windowless)) <= 1e-15
    with pytest.raises(DomainError, match="s=2.5"):
        single.position(2.5)


def test_spec_is_released_after_synthesis():
    spec = wc.WhirlSpec(kappa=wc.kappa_constant(1.0), lam=-1.0,
                        bound=wc.bound_from_ratio(1.0, -1.0))
    wc.synthesize(spec, 0.0, 1.0, 17)
    wc.intrinsic_residual_max(wc.WhirlCurve(spec), 0.0, 1.0, 17)
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


@settings(max_examples=20, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2 ** 32 - 1))
def test_tau_sign_flip_is_the_mirror_map(seed):
    # y -> -y flips signs only, and rounding is symmetric under negation, so
    # the trace, kappa and tau mirror exactly (measured worst: 0 on these
    # examples and on 200 more seeds); lam goes through LAPACK's eigh, whose
    # exactness under the mirror is not promised, so it gets 1e-12 relative
    spec, lo, hi, _ = random_whirl_model(np.random.default_rng(seed))
    mirror = dataclasses.replace(spec, tau_sign=-spec.tau_sign)
    tr, tr_m = (wc.synthesize(sp, lo, hi, 513) for sp in (spec, mirror))
    assert np.array_equal(tr_m.points, tr.points * [1.0, -1.0, 1.0])
    frames, frames_m = wc.trace_frames(tr), wc.trace_frames(tr_m)
    assert np.array_equal(frames_m.kappa, frames.kappa)
    assert np.array_equal(frames_m.tau, -frames.tau)
    fit, fit_m = wc.fit_lambda_axis(frames), wc.fit_lambda_axis(frames_m)
    assert abs(fit_m.lam - fit.lam) <= 1e-12 * abs(fit.lam)
    assert fit_m.is_whirl == fit.is_whirl
    chen, chen_m = wc.chen_ratio_fit(frames), wc.chen_ratio_fit(frames_m)
    assert chen_m.is_rectifying == chen.is_rectifying


def test_spherical_tangent_on_a_grid_matches_per_point_calls():
    spec = wc.WhirlSpec(kappa=wc.kappa_constant(0.8), lam=1.7,
                        bound=wc.bound_from_ratio(-1.2, 1.7), z_sign=-1)
    curve = wc.WhirlCurve(spec)
    grid = np.linspace(-0.3, 0.4, 8)
    phi, theta = curve.spherical_tangent(grid)
    assert phi.shape == theta.shape == grid.shape
    for i, s in enumerate(grid):
        assert curve.spherical_tangent(s) == (phi[i], theta[i])


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
        phi, theta = curve.spherical_tangent(s)
        assert 0.0 < phi < np.pi
        vector = [np.sin(phi) * np.cos(theta), np.sin(phi) * np.sin(theta), np.cos(phi)]
        assert np.allclose(vector, curve.tangent(s), atol=1e-14)


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


@pytest.mark.parametrize("field, value", [
    ("lam", np.nan), ("lam", np.inf), ("s0", np.nan), ("bound", np.inf)])
def test_whirlspec_rejects_non_finite_numbers(field, value):
    args = {"kappa": wc.kappa_constant(1.0), "lam": 1.0, "bound": 1.0, field: value}
    with pytest.raises(ValueError, match=f"{field} must be finite, got {value}"):
        wc.WhirlSpec(**args)


def test_kappa_families_reject_non_finite_numbers():
    with pytest.raises(ValueError, match="value must be positive and finite, got inf"):
        wc.kappa_constant(np.inf)
    with pytest.raises(ValueError, match="coeffs must be finite"):
        wc.kappa_polynomial([1.0, np.nan], (0.0, 1.0))


def _shifted(spec, c):
    """The same curve with arc length measured from c further along."""
    kappa = spec.kappa
    return wc.WhirlSpec(
        kappa=wc.ScalarFn(lambda s: kappa(np.asarray(s, dtype=float) - c),
                          (kappa.domain[0] + c, kappa.domain[1] + c)),
        lam=spec.lam, bound=spec.bound, s0=spec.s0 + c,
        z_sign=spec.z_sign, tau_sign=spec.tau_sign)


@settings(max_examples=20, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2 ** 32 - 1), c=st.floats(-1e3, 1e3))
def test_verification_is_shift_invariant(seed, c):
    # s -> s + c with s0 and the window moved along: frames, the unit-speed
    # residual and the intrinsic residual agree to the roundoff of s itself
    # (ulp(1e3) ~ 1e-13); difference steps that grew with |s| broke this
    spec, lo, hi, _ = random_whirl_model(np.random.default_rng(seed))
    moved = _shifted(spec, c)
    grid = np.linspace(lo + 0.1 * (hi - lo), hi - 0.1 * (hi - lo), 9)
    a, b = wc.WhirlCurve(spec, origin=lo), wc.WhirlCurve(moved, origin=lo + c)
    fa, fb = wc.frenet_at(a.position, grid), wc.frenet_at(b.position, grid + c)
    for name in ("t", "n", "b"):
        assert np.max(np.abs(getattr(fa, name) - getattr(fb, name))) <= 1e-8
    assert np.max(np.abs(fb.kappa / fa.kappa - 1.0)) <= 1e-7
    assert np.max(np.abs(fb.tau / fa.tau - 1.0)) <= 1e-5
    assert abs(wc.unit_speed_residual(a.position, grid)
               - wc.unit_speed_residual(b.position, grid + c)) <= 1e-8
    assert abs(wc.intrinsic_residual_max(a, lo, hi, 65)
               - wc.intrinsic_residual_max(b, lo + c, hi + c, 65)) <= 1e-7


def test_unit_speed_residual_far_along_the_curve():
    # 1e3 from the start of a const-kappa curve: 6.1e-6 when the step grew with |s|
    spec = wc.WhirlSpec(kappa=wc.kappa_constant(1.0), lam=-1.0,
                        bound=wc.bound_from_ratio(1.0, -1.0))
    assert wc.unit_speed_residual(wc.WhirlCurve(spec).position, [1000.0]) < 1e-6
