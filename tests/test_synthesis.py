"""Whirl-curve synthesis tests: scalar machinery, tangent/position, branches."""

import dataclasses
import decimal
import gc
import math
import re
import weakref
from decimal import Decimal

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import whirlcurves as wc
from whirlcurves.errors import DomainError
from whirlcurves.numerics import EPS
from reference import full_series_at, gauss_cumulative, integrate
from conftest import congruent_distances, random_whirl_model, stencil_window


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


def _bound_reference(h0, lam):
    """0.5*ln(1 + x), x = (1+lam^2)/h0^2, at 50 digits from the floats' exact
    values; below x = 1e-20, where 1 + x keeps too few of x's digits, from
    x - x^2/2, whose relative error is below x^2."""
    ctx = decimal.Context(prec=50)
    x = ctx.divide(ctx.add(1, ctx.power(Decimal(lam), 2)), ctx.power(Decimal(h0), 2))
    if x < Decimal("1e-20"):
        return ctx.divide(ctx.subtract(x, ctx.divide(ctx.power(x, 2), 2)), 2)
    return ctx.divide(ctx.ln(ctx.add(1, x)), 2)


def test_bound_matches_a_decimal_reference():
    # within 4 ulps over |h0| in [1e-300, 1e300] (worst seen over 20,010
    # values: 2.9 ulps), never negative; 0.5*ln(1+lam^2+h0^2) - ln|h0| loses
    # up to 1e16 ulps to cancellation for |h0| >= 1, is negative in places,
    # and overflows to inf for |h0| above about 1.4e154
    for lam in (0.05, -1.0, 7.5, 50.0):
        for h0 in np.geomspace(1e-300, 1e300, 241):
            for value in (float(h0), -float(h0)):
                got = wc.bound_from_ratio(value, lam)
                ref = _bound_reference(value, lam)
                assert got >= 0.0
                assert abs(Decimal(float(got)) - ref) <= 4 * Decimal(math.ulp(float(ref)))


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


@settings(max_examples=50, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2 ** 32 - 1))
def test_ratio_rate_matches_the_intrinsic_equation_solved_for_it(seed):
    # h' = h lam kappa (1 + lam^2 + h^2) / (1 + lam^2), h = tau/kappa: a test
    # oracle for the stencil only (in intrinsic_residual_max it would make the
    # check a tautology); worst seen over 4000 seeds 7.8e-12 relative
    spec, lo, hi, _ = random_whirl_model(np.random.default_rng(seed))
    curve = wc.WhirlCurve(spec)
    grid = np.linspace(lo + wc.synthesis.REACH, hi - wc.synthesis.REACH, 257)
    kappa = np.asarray(spec.kappa(grid), dtype=float)
    h, lam2 = curve.torsion(grid) / kappa, spec.lam ** 2
    oracle = h * spec.lam * kappa * (1.0 + lam2 + h * h) / (1.0 + lam2)
    assert np.max(np.abs(curve.ratio_rate(grid) / oracle - 1.0)) <= 1e-10


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


def test_cos_polar_matches_the_companion_constant_form(rng):
    # <t, d> = z_sign * e^(lam*int kappa - C), C = axis_bound(bound, lam)
    for _ in range(5):
        spec, lo, hi, fam = random_whirl_model(rng)
        grid = np.linspace(lo, hi, 9)
        companion = spec.z_sign * np.exp(spec.lam * spec.kappa.cumulative(spec.s0)(grid)
                                         - wc.axis_bound(spec.bound, spec.lam))
        assert np.allclose(wc.WhirlCurve(spec).cos_polar(grid), companion,
                           rtol=1e-12, atol=1e-15)


def test_cos_polar_base_value_and_bound():
    lam = -1.0
    spec = wc.WhirlSpec(kappa=wc.kappa_constant(1.0), lam=lam, bound=0.4)
    curve = wc.WhirlCurve(spec)
    xi0 = curve.cos_polar(0.0)
    assert xi0 == pytest.approx(np.exp(-0.4) / np.sqrt(2.0), rel=1e-13)
    grid = np.linspace(0.0, 3.0, 31)
    assert np.all(np.abs(curve.cos_polar(grid)) < 1.0 / np.sqrt(1 + lam * lam))
    # past the bound there is no curve: the companion form read 1.288 there
    with pytest.raises(DomainError, match=r"^domain bound lam\*int\(kappa\) < bound "
                                          r"violated at s=-1\.0$"):
        curve.cos_polar(-1.0)


def test_cos_polar_linear_growth_law():
    # (1/kappa) d(xi)/ds = lam * xi
    spec = wc.WhirlSpec(kappa=wc.kappa_constant(0.7), lam=-0.9,
                        bound=wc.bound_from_ratio(1.2, -0.9))
    curve = wc.WhirlCurve(spec)
    for s in (0.2, 0.8, 1.5):
        lhs = wc.derivative(curve.cos_polar, s, 1) / 0.7
        assert abs(float(lhs) - spec.lam * curve.cos_polar(s)) <= 1e-7


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
    curve = wc.WhirlCurve(spec, window=(0.0, 1.0))
    assert wc.unit_speed_residual(curve.position, tr.s[1:-1]) < 1e-6
    for s in (0.25, 0.5, 0.75):
        f = wc.frenet_at(curve.position, s)
        assert abs(f.kappa - 1.0) <= 1e-5
        tau_ref = curve.torsion(s)
        assert abs(f.tau - tau_ref) <= 1e-4 * abs(tau_ref)


def test_synthesize_z_rate():
    spec = wc.WhirlSpec(kappa=wc.kappa_constant(1.0), lam=-1.0,
                        bound=wc.bound_from_ratio(1.0, -1.0), z_sign=-1)
    curve = wc.WhirlCurve(spec, window=(0.0, 1.0))
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
    narrow = wc.WhirlSpec(kappa=dataclasses.replace(wc.kappa_constant(1.0), domain=(0.0, 0.1)),
                          lam=-1.0, bound=0.5)
    with pytest.raises(ValueError, match="domain"):
        wc.synthesize(narrow, 0.0, 1.0, 17)


def test_synthesize_refuses_a_grid_finer_than_the_float_spacing(monkeypatch):
    # refused by trace before any position panel is built, in the library's terms
    built, series = [], wc.SmoothCumulative._series

    def counted(self, lattice):
        built.append(lattice.size - 1)
        return series(self, lattice)

    monkeypatch.setattr(wc.SmoothCumulative, "_series", counted)
    spec = wc.WhirlSpec(kappa=wc.kappa_constant(1e-9), lam=-1.0,
                        bound=wc.bound_from_ratio(1.0, -1.0), s0=1e8)
    with pytest.raises(ValueError, match=r"^1000000 samples are finer than the float spacing "
                       r"of \[100000000\.0, 100000000\.004\]: s=100000000\.0 repeats$"):
        wc.synthesize(spec, 1e8, 1e8 + 0.004, 1_000_000)
    assert built == []


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


@pytest.mark.parametrize("s0, lo, hi", [(0.0, 0.25, 1.0), (1000.0, 1000.0, 1000.1)])
def test_windowed_curve_starts_at_its_window(s0, lo, hi):
    # far from 0 a window narrower than a panel is one panel whose series
    # must vanish at its left edge, not 4.6e-14 off as a centred x gave
    spec = wc.WhirlSpec(kappa=wc.kappa_constant(1.0), lam=-1.0, bound=0.5, s0=s0)
    curve = wc.WhirlCurve(spec, window=(lo, hi))
    assert curve.origin == lo
    assert np.array_equal(curve.position(lo), [0.0, 0.0, 0.0])
    assert np.array_equal(wc.synthesize(spec, lo, hi, 9).points,
                          curve.position(np.linspace(lo, hi, 9)))


_FAMILIES = {   # kappa on (0, 1.5), lam and h0; the last is past its pole at s = 2
    "const": (dataclasses.replace(wc.kappa_constant(1.0), domain=(0.0, 1.5)), -1.0, 1.0),
    "poly": (wc.kappa_polynomial([0.9, 0.05, -0.01], (0.0, 1.5)), -0.7, 1.1),
    "linear-ratio": (wc.kappa_linear_ratio(-0.7, -1.0, 2.0, (0.0, 1.5)), -0.7, 2.0),
}
_CLOSED_FORMS = ("exponent", "torsion", "cos_polar", "azimuth", "azimuth_rate", "tangent",
                 "spherical_tangent", "ratio_rate")


@pytest.mark.parametrize("method", _CLOSED_FORMS)
@pytest.mark.parametrize("window", [None, (0.0, 1.0)], ids=["windowless", "windowed"])
@pytest.mark.parametrize("family", sorted(_FAMILIES))
def test_every_query_is_checked_against_the_window(family, window, method):
    # a windowless curve's window is kappa's domain; torsion(3.0) of the
    # linear-ratio curve returned -0.85 past the pole, with no error
    kappa, lam, h0 = _FAMILIES[family]
    curve = wc.WhirlCurve(wc.WhirlSpec(kappa=kappa, lam=lam, bound=wc.bound_from_ratio(h0, lam)),
                          window=window)
    lo, hi = window or kappa.domain
    reach = wc.synthesis.REACH
    ask = getattr(curve, method)
    slack = 0.0 if method == "ratio_rate" else 0.5 * reach   # its stencil reaches REACH
    assert np.all(np.isfinite(ask(np.array([lo - slack, hi + slack]))))
    for bad in (lo - 2.0 * reach, hi + 2.0 * reach, 3.0, np.nan):
        with pytest.raises(DomainError, match=re.escape(f"s={bad!r} is not finite or lies")):
            ask(np.array([0.5, bad]))


@pytest.mark.parametrize("lo", [0.1, 1.0, 10.0, 1000.0, 1e5])
def test_stencils_are_answered_from_the_window_ends(lo):
    # rounded steps from an end overshoot REACH by about an ulp: on [1, 3],
    # frenet_at(position, [1.0], deriv=tangent) probed s = 0.9985198080405171
    spec = wc.WhirlSpec(kappa=wc.kappa_constant(1.0), lam=-1.0,
                        bound=wc.bound_from_ratio(1.0, -1.0), s0=lo)
    reach = wc.synthesis.REACH
    for width in (2.0, 0.01):
        curve = wc.WhirlCurve(spec, window=(lo, lo + width))
        ends = np.array([lo, lo + width])
        frames = wc.frenet_at(curve.position, ends, deriv=curve.tangent)
        assert np.max(np.abs(frames.kappa - 1.0)) <= 1e-11
        assert np.max(np.abs(frames.tau - curve.torsion(ends))) <= 1e-8
        assert np.all(np.isfinite(curve.ratio_rate(ends)))
        for bad in (lo - 2.0 * reach, lo + width + 2.0 * reach):
            with pytest.raises(DomainError, match=re.escape(f"s={bad!r} is not finite or lies")):
                curve.tangent(bad)


def test_a_curve_without_a_window_has_no_positions():
    spec = wc.WhirlSpec(kappa=wc.kappa_constant(1.0), lam=-1.0, bound=0.5)
    with pytest.raises(ValueError, match="positions need a window"):
        wc.WhirlCurve(spec).position(0.5)
    bare = dataclasses.replace(spec, kappa=wc.ScalarFn(spec.kappa.evaluator))
    with pytest.raises(ValueError, match="without a closed-form cumulative needs a window"):
        wc.WhirlCurve(bare)


@pytest.mark.parametrize("s0, lam", [(0.0, -0.7), (2.0, 0.7)])
def test_a_kappa_without_a_closed_form_is_sampled_only_on_its_domain(s0, lam):
    # the one path whose kappa is integrated by quadrature, run as synth runs
    # it: the domain is the window, and s0 sits at one of its ends
    closed = wc.kappa_polynomial([0.9, 0.05, -0.01], (0.0, 2.0))
    seen = []

    def recorded(s):
        seen.append(np.array(s, dtype=float).ravel())
        return closed(s)

    spec = wc.WhirlSpec(kappa=wc.ScalarFn(recorded, (0.0, 2.0)), lam=lam,
                        bound=wc.bound_from_ratio(1.1, lam), s0=s0)
    twin = dataclasses.replace(spec, kappa=closed)
    tr = wc.synthesize(spec, 0.0, 2.0, 65)
    assert np.max(np.abs(tr.points - wc.synthesize(twin, 0.0, 2.0, 65).points)) <= 1e-14
    curve = wc.WhirlCurve(spec, window=(0.0, 2.0))
    assert wc.intrinsic_residual_max(curve, 0.0, 2.0) <= 1e-9
    reach = wc.synthesis.REACH
    report = wc.verify_whirl(curve.position, np.linspace(reach, 2.0 - reach, 33), lam=lam,
                             deriv=curve.tangent)
    assert report.max_deviation < 1e-8 and report.max_residual < 1e-8
    s = np.concatenate(seen)
    assert 0.0 <= s.min() and s.max() <= 2.0


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
@pytest.mark.parametrize("lam", [1.3, -1.3, 0.6, -0.6])
def test_positions_near_the_exponent_bound_match_adaptive_quadrature(coeffs, lam):
    # windows ending where E = -1e-3: x and y carry w = sqrt(-expm1(2E)),
    # whose derivative grows like |E|^(-1/2) there; adaptive Simpson of the
    # tangent (through the plain kappa cumulative) is the independent oracle;
    # each |lam| is taken with both signs, and lam < 0 has the half turn
    bound = wc.bound_from_ratio(1.2, lam)
    lo, hi = sorted((0.0, _window_to_bound(coeffs, lam, bound, 1e-3)))
    kappa = (wc.kappa_constant(coeffs[0]) if len(coeffs) == 1
             else wc.kappa_polynomial(coeffs, (lo - 1.0, hi + 1.0)))
    spec = wc.WhirlSpec(kappa=kappa, lam=lam, bound=bound)
    curve = wc.WhirlCurve(spec, origin=lo)
    assert np.max(curve.exponent(np.array([lo, hi]))) == pytest.approx(-1e-3, abs=1e-12)
    tr = wc.synthesize(spec, lo, hi, 65)
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
    # the ratio and its four stencil probes are five batched queries of the
    # kappa table, each rebuilding the series of the blocks it falls in;
    # evaluating the ratio again beside ratio_rate would cost one more
    base = wc.kappa_polynomial([0.9, 0.05, -0.01], (-1.0, 4.0))
    points = [0]

    def counted(s):
        points[0] += np.size(s)
        return base(s)

    spec = wc.WhirlSpec(kappa=wc.ScalarFn(counted, base.domain), lam=-0.7,
                        bound=wc.bound_from_ratio(1.1, -0.7))
    n = wc.synthesis.INTRINSIC_NODES
    value = wc.intrinsic_residual_max(wc.WhirlCurve(spec, window=(0.0, 2.0)), 0.0, 2.0)
    once, points[0] = points[0], 0
    grid = np.linspace(wc.synthesis.REACH, 2.0 - wc.synthesis.REACH, n)
    curve = wc.WhirlCurve(spec, window=(0.0, 2.0))
    kv = np.asarray(spec.kappa(grid), dtype=float)
    curve._ratio(grid)   # the ratio evaluated apart from ratio_rate
    rate = curve.ratio_rate(grid)
    extra, points[0] = points[0] - once, 0
    curve._ratio(grid)
    assert extra == points[0] > 0
    # windowed queries do not depend on the batch: the same value, bit for bit
    resid = wc.intrinsic_residual(kv, curve.torsion(grid), rate, spec.lam)
    assert value == float(np.max(np.abs(resid)))


@st.composite
def _family_around_s0(draw):
    """(kappa, s0, lo, hi): a built-in curvature family on [lo, hi], which
    holds s0, with s0 near 0 or near +-1e3.  kappa's own evaluation stays
    free of cancellation, since the quadrature oracle samples it: the
    polynomial's terms share one sign near +-1e3 and its constant term leads
    near 0, and one term of a*s + b leads the other."""
    centre = draw(st.sampled_from([0.0, 1e3, -1e3]))
    s0 = centre + draw(st.floats(-1.0, 1.0))
    width = draw(st.floats(0.1, 4.0))
    lo = s0 - width * draw(st.floats(0.0, 1.0))
    hi = lo + width
    family = draw(st.sampled_from(["const", "poly", "linear-ratio"]))
    if family == "const":
        return wc.kappa_constant(draw(st.floats(0.1, 10.0))), s0, lo, hi
    if family == "poly":
        g = [draw(st.floats(0.1, 1.0))] + draw(st.lists(st.floats(0.0, 1.0), max_size=4))
        if centre == 0.0:   # |s| <= 5 on the domain
            g[0] += sum(gk * 5.0 ** k for k, gk in enumerate(g))
        return (wc.kappa_polynomial([gk * np.sign(centre or 1.0) ** k for k, gk in enumerate(g)],
                                    (lo, hi)), s0, lo, hi)
    if centre == 0.0:   # |a*s| <= |b|/2
        b = draw(st.sampled_from([-1.0, 1.0])) * draw(st.floats(1.0, 10.0))
        a = draw(st.sampled_from([-1.0, 1.0])) * draw(st.floats(0.01, abs(b) / 10.0))
    else:   # |b| <= |a*s|/10
        a = draw(st.sampled_from([-1.0, 1.0])) * draw(st.floats(0.1, 2.0))
        b = draw(st.floats(-9.0, 9.0))
    lam = np.sign(a * (a * s0 + b)) * draw(st.floats(0.2, 5.0))
    return wc.kappa_linear_ratio(lam, a, b, (lo, hi)), s0, lo, hi


@settings(max_examples=90, deadline=None, derandomize=True)
@given(case=_family_around_s0())
def test_closed_form_kappa_integrals_match_quadrature(case):
    # the Gauss panel sum of the bare evaluator is the oracle; the closed
    # form is 0 at s0 exactly and differentiates back to kappa
    kappa, s0, lo, hi = case
    integral = kappa.cumulative(s0)
    assert integral(s0) == 0.0
    assert np.array_equal(integral(np.array([s0, s0])), [0.0, 0.0])
    grid = np.linspace(lo, hi, 65)
    want = gauss_cumulative(kappa.evaluator, s0, grid)
    assert np.all(np.abs(integral(grid) - want) <= 4.0 * EPS * np.maximum(1.0, np.abs(want)))
    inner = grid[2:-2:4]
    assert np.max(np.abs(wc.derivative(integral, inner, 1) / kappa(inner) - 1.0)) <= 1e-9


def test_linear_ratio_integral_from_a_tiny_ratio_is_finite():
    # h0 = a*s0 + b = 1e-300: the log1p argument c (h^2 - h0^2) / (h0^2 (c + h^2))
    # overflows, so there the integral is ln|h/h0| - ln sqrt((c + h^2)/(c + h0^2));
    # at s = 1e-300 (h = 2 h0) the argument is 3 and log1p still answers
    integral = wc.kappa_linear_ratio(1.0, 1.0, 1e-300, (0.0, 1.0)).cumulative(0.0)
    assert integral(1.0) == pytest.approx(np.log(1e300) - 0.5 * np.log(1.5), rel=4.0 * EPS)
    grid = np.array([0.0, 1e-300, 0.5, 1.0])
    assert np.array_equal(integral(grid), [integral(s) for s in grid])
    assert integral(grid)[:2].tolist() == [0.0, np.log1p(3.0) / 2.0]


def _quadrature_twin(spec):
    """``spec`` with its kappa's closed-form integral dropped."""
    return dataclasses.replace(spec, kappa=wc.ScalarFn(spec.kappa.evaluator, spec.kappa.domain))


def _family_model(family, seed):
    """(spec, lo, hi): the random whirl model for const and linear-ratio
    kappa; for a quadratic kappa, a window from 0 holding s0, which is 0 or
    inside it."""
    rng = np.random.default_rng(seed)
    if family != "poly":
        return random_whirl_model(rng, family=family)[:3]
    lam = float(rng.choice([-1.0, 1.0]) * rng.uniform(0.3, 1.5))
    kappa = wc.kappa_polynomial([rng.uniform(0.6, 1.0), rng.uniform(-0.1, 0.1),
                                 rng.uniform(-0.02, 0.02)], (-1.0, 3.0))
    bound = wc.bound_from_ratio(1.1, lam)
    # kappa < 1.3 on the window, so |lam * int kappa| across it stays below bound / 2
    hi = min(2.0, 0.4 * bound / abs(lam))
    spec = wc.WhirlSpec(kappa=kappa, lam=lam, bound=bound,
                        s0=float(rng.choice([0.0, rng.uniform(0.0, hi)])))
    return spec, 0.0, hi


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("family", ["const", "poly", "linear-ratio"])
def test_closed_form_curve_matches_the_quadrature_curve(family, seed):
    spec, lo, hi = _family_model(family, seed)
    twin = _quadrature_twin(spec)
    assert spec.kappa.cumulative is not None and twin.kappa.cumulative is None
    closed, quad = (wc.synthesize(sp, lo, hi, 257) for sp in (spec, twin))
    assert np.max(np.abs(closed.points - quad.points)) <= 1e-15
    curves = [wc.WhirlCurve(sp, window=(lo, hi)) for sp in (spec, twin)]
    torsion = [curve.torsion(closed.s) for curve in curves]
    assert np.max(np.abs(torsion[0] / torsion[1] - 1.0)) <= 8.0 * EPS
    # the residual is the stencil's rounding noise, the few-ulp ratio errors
    # over a step of ~7e-4 / rate, times 1 + lam^2: at |lam| ~ 12 the two
    # differ by 1e-10 (25% of either, the worst of 120 models), far below
    # synth's 1e-6 tolerance
    closed_resid, quad_resid = (wc.intrinsic_residual_max(c, lo, hi) for c in curves)
    assert max(closed_resid, quad_resid) <= 1e-8
    assert abs(closed_resid - quad_resid) <= max(1e-12, 0.5 * max(closed_resid, quad_resid))


@pytest.mark.parametrize("base, lo, hi", [
    (wc.kappa_constant(0.8), 0.0, 2.0),
    (wc.kappa_polynomial([0.9, 0.05, -0.01], (-1.0, 4.0)), 0.0, 2.0),
    (wc.kappa_linear_ratio(-0.7, -1.0, 2.0, (0.0, 1.5)), 0.0, 1.5),
])
def test_closed_form_intrinsic_check_samples_kappa_twice_per_node(base, lo, hi):
    # kappa at each node, once for the residual and once for the stencil's
    # step; its integral comes from the closed form, not 24-node panels
    points = [0]
    kappa = dataclasses.replace(_counted_kappa(base, points), cumulative=base.cumulative)
    spec = wc.WhirlSpec(kappa=kappa, lam=-0.7, bound=wc.bound_from_ratio(1.1, -0.7))
    curve = wc.WhirlCurve(spec, window=(lo, hi))
    n = wc.synthesis.INTRINSIC_NODES
    points[0] = 0
    wc.intrinsic_residual_max(curve, lo, hi)
    assert 0 < points[0] <= 2 * n


def test_closed_form_kappa_integral_rejects_a_non_finite_s():
    curve = wc.WhirlCurve(wc.WhirlSpec(kappa=wc.kappa_constant(1.0), lam=-1.0, bound=0.5))
    for bad in (np.nan, np.inf):
        with pytest.raises(DomainError, match=f"^s={bad!r} is not finite or lies farther"):
            curve.exponent(np.array([0.5, bad]))


def _scalar_tangent(coeffs, lam, bound, c):
    """Component c of the tangent in plain floats, from its spherical angles,
    int kappa from the polynomial antiderivative: a fast integrand for
    adaptive Simpson."""
    prim = np.polynomial.Polynomial(coeffs).integ().coef.tolist()
    root = math.sqrt(1.0 + lam * lam)

    def t(u):
        e = lam * math.fsum(a * u ** k for k, a in enumerate(prim)) - bound
        q, w = math.exp(e), math.sqrt(-math.expm1(2.0 * e))
        if c == 2:
            return q / root
        theta = math.atan(w / lam) - (math.log1p(w) - e) / lam
        return math.sqrt(1.0 - q * q / (1.0 + lam * lam)) * (math.cos, math.sin)[c](theta)

    return t


@pytest.mark.parametrize("gap", [1e-3, 1e-6, 1e-11])
@pytest.mark.parametrize("coeffs", [[0.8], [0.8, 0.1, 0.03]])
@pytest.mark.parametrize("lam", [1.3, -1.3, 0.6, -0.6])
def test_positions_at_every_node_near_the_bound_match_summed_adaptive_quadrature(
        gap, coeffs, lam):
    # windows ending where E = -gap: the series panels next to the end are
    # bisected until resolved; one fixed 24-node panel per position was off
    # by up to 5.3e-11 here; each |lam| is taken with both signs
    bound = wc.bound_from_ratio(1.2, lam)
    lo, hi = sorted((0.0, _window_to_bound(coeffs, lam, bound, gap)))
    kappa = (wc.kappa_constant(coeffs[0]) if len(coeffs) == 1
             else wc.kappa_polynomial(coeffs, (lo - 1.0, hi + 1.0)))
    spec = wc.WhirlSpec(kappa=kappa, lam=lam, bound=bound)
    tr = wc.synthesize(spec, lo, hi, 65)
    ref = np.zeros((65, 3))
    for c in range(3):
        t = _scalar_tangent(coeffs, lam, bound, c)
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
    panel_sum = gauss_cumulative(single.tangent, 0.0, grid)
    assert np.max(np.abs(batched - panel_sum)) <= 1e-15
    with pytest.raises(DomainError, match="s=2.5"):
        single.position(2.5)


# positions read off each panel's series to its resolved length against the
# full 24-term series: the worst of 2300 random models was 3 ulps of the
# column's largest magnitude
SERIES_ULPS = 4


def _assert_matches_the_full_series(curve, s):
    got = curve.position(s)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(wc.numerics, "_series_at", full_series_at)
        ref = wc.WhirlCurve(curve.spec, origin=curve.origin, window=curve._pos.window).position(s)
    assert np.all(np.abs(got - ref) <= SERIES_ULPS * np.spacing(np.max(np.abs(ref), axis=0)))


@settings(max_examples=40, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2 ** 32 - 1))
def test_windowed_positions_match_the_full_series_oracle(seed):
    rng = np.random.default_rng(seed)
    spec, lo, hi, _ = random_whirl_model(rng)
    s = np.concatenate([np.linspace(lo, hi, 129), rng.uniform(lo, hi, 64)])
    _assert_matches_the_full_series(wc.WhirlCurve(spec, window=(lo, hi)), s)


def test_positions_match_the_full_series_over_blocks_and_split_panels():
    # a window of two blocks of lattice panels
    spec = wc.WhirlSpec(kappa=wc.kappa_constant(1.0), lam=-1.0,
                        bound=wc.bound_from_ratio(1.0, -1.0))
    curve = wc.WhirlCurve(spec, window=(0.0, 700.0))
    _assert_matches_the_full_series(curve, np.linspace(0.0, 700.0, 999))
    assert curve._pos.panels > wc.numerics.BLOCK
    # a kink in kappa's derivative: the tangent's panels next to it are split
    kink = wc.ScalarFn(lambda s: 0.6 + 0.3 * np.sqrt(np.abs(np.asarray(s, float) - 0.7)),
                       (-1.0, 3.0))
    spec = wc.WhirlSpec(kappa=kink, lam=-0.8, bound=wc.bound_from_ratio(1.2, -0.8))
    curve = wc.WhirlCurve(spec, window=(0.0, 2.0))
    _assert_matches_the_full_series(curve, np.linspace(0.0, 2.0, 301))
    assert curve._pos.panels > 2.0 / wc.numerics.PANEL


def test_spec_is_released_after_synthesis():
    spec = wc.WhirlSpec(kappa=wc.kappa_constant(1.0), lam=-1.0,
                        bound=wc.bound_from_ratio(1.0, -1.0))
    wc.synthesize(spec, 0.0, 1.0, 17)
    wc.intrinsic_residual_max(wc.WhirlCurve(spec), 0.0, 1.0)
    ref = weakref.ref(spec)
    del spec
    gc.collect()
    assert ref() is None


def test_the_tangent_has_one_arrangement():
    spec = wc.WhirlSpec(kappa=wc.kappa_constant(1.0), lam=-1.0,
                        bound=wc.bound_from_ratio(1.0, -1.0))
    with pytest.raises(TypeError):
        wc.WhirlCurve(spec, form="combined")
    with pytest.raises(TypeError):
        wc.synthesize(spec, 0.0, 1.0, 5, form="spherical")
    # older traces carry the key, so the metadata keeps it as a constant
    assert wc.trace_meta(wc.WhirlCurve(spec))["form"] == "spherical"


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


@settings(max_examples=20, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2 ** 32 - 1))
def test_reversal_negates_lam(seed):
    # s -> -s with the rows reversed turns t to -t and keeps n, kappa and tau,
    # so n.d = lam t.d holds with -lam; the bounds are 7-15 times the worst
    # seen over 4000 seeds (kappa 2.2e-10, tau 1.0e-7 relative; lam 1.1e-9
    # relative; axis 4.4e-10)
    spec, lo, hi, _ = random_whirl_model(np.random.default_rng(seed))
    tr = wc.synthesize(spec, lo, hi, 513)
    frames = wc.trace_frames(tr)
    rev = wc.trace_frames(wc.CurveTrace(-tr.s[::-1], tr.points[::-1]))
    assert np.array_equal(rev.s, -frames.s[::-1])
    assert np.max(np.abs(rev.kappa[::-1] / frames.kappa - 1.0)) <= 2e-9
    assert np.max(np.abs(rev.tau[::-1] / frames.tau - 1.0)) <= 1e-6
    fit, fit_r = wc.fit_lambda_axis(frames), wc.fit_lambda_axis(rev)
    assert abs(fit_r.lam / -fit.lam - 1.0) <= 1e-8
    assert min(np.linalg.norm(fit_r.axis - fit.axis),
               np.linalg.norm(fit_r.axis + fit.axis)) <= 5e-9
    chen, chen_r = wc.chen_ratio_fit(frames), wc.chen_ratio_fit(rev)
    assert (fit_r.is_whirl, chen_r.is_rectifying) == (fit.is_whirl, chen.is_rectifying)


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


def test_whirlspec_rejects_a_lam_whose_square_overflows():
    # 1 + lam^2 enters every closed form; Python's lam ** 2 would raise OverflowError
    with pytest.raises(ValueError, match=r"^1 \+ lam\^2 overflows at lam = -1e\+200$"):
        wc.WhirlSpec(kappa=wc.kappa_constant(1.0), lam=-1e200, bound=1.0)
    assert wc.WhirlSpec(kappa=wc.kappa_constant(1.0), lam=-1e150, bound=1.0).lam == -1e150


@pytest.mark.parametrize("make, domain", [
    (lambda d: wc.kappa_linear_ratio(1.0, 1e300, 1.0, d), (0.0, 1.0)),
    (lambda d: wc.kappa_linear_ratio(1.0, 1.0, 1e300, d), (0.0, 1.0)),
    (lambda d: wc.kappa_polynomial([1e308, 1e308], d), (-1.0, 3.0)),
    (lambda d: wc.kappa_polynomial([1.0, 0.0, 1e308], d), (-1.0, 3.0)),
])
def test_kappa_families_refuse_a_kappa_that_overflows(make, domain):
    # numpy's overflow warnings are errors under the suite's filter
    with pytest.raises(ValueError, match=re.escape(
            f"kappa overflows on the requested domain [{domain[0]!r}, {domain[1]!r}]")):
        make(domain)


def test_a_linear_ratio_curve_refuses_the_other_side_of_its_pole():
    # the pole at s = -1e-4 lies within REACH of the window: a stencil at s = 0
    # read the other branch, framing kappa 86 where it is 1e4, and verify_whirl
    # reported an axis deviation of 0.52 for this whirl curve
    kappa = wc.kappa_linear_ratio(1.0, 1.0, 1e-4, (0.0, 1.0))
    spec = wc.WhirlSpec(kappa=kappa, lam=1.0, bound=wc.bound_from_ratio(1e-4, 1.0))
    curve = wc.WhirlCurve(spec, window=(0.0, 1.0))
    # the seam rule of the closed forms, rectifying.branch_ratio, on the
    # branch a*s + b > 0 of the domain
    past = r"^s=-\S+ lies on or past the a\*s \+ b = 0 seam of branch \+1$"
    for call in (
            lambda: wc.frenet_at(curve.position, [0.0, 0.5], deriv=curve.tangent),
            lambda: wc.verify_whirl(curve.position, [0.0, 0.25, 0.5], lam=1.0,
                                    deriv=curve.tangent),
            lambda: curve.tangent(-2e-4), lambda: curve.exponent(-1e-4),
            lambda: curve.torsion(-2e-4), lambda: kappa(-1e-4), lambda: kappa([0.5, -2e-4]),
            lambda: kappa.cumulative(0.5)([0.5, -2e-4]), lambda: kappa.cumulative(-1e-4)):
        with pytest.raises(DomainError, match=past):
            call()
    # the window check speaks first for a query beyond REACH
    with pytest.raises(DomainError, match="outside the curve's window"):
        curve.torsion(-1.0)
    assert kappa(0.0) == pytest.approx(2.0 / (1e-4 * (2.0 + 1e-8)), rel=1e-12)
    assert curve.torsion(0.5) == pytest.approx(0.5001 * kappa(0.5), rel=1e-9)


def test_the_pole_check_survives_an_overflowing_end():
    # a*s + b overflows at s = 1e10 and is 0 at s = 0: the product of the two was nan
    with pytest.raises(ValueError, match=r"^domain crosses the a\*s \+ b = 0 pole$"):
        wc.kappa_linear_ratio(-1.0, 1e300, 0.0, (0.0, 1e10))


@pytest.mark.parametrize("kappa, lam, bound, s", [
    (wc.kappa_polynomial([1e308], (-1.0, 3.0)), -1.0, 1.0, 2.0),   # int kappa overflows
    (wc.kappa_constant(0.5), 1e-3, 9.99e306, 0.0),                   # E/lam overflows
])
def test_exponent_refuses_what_the_tangent_cannot_use(kappa, lam, bound, s):
    spec = wc.WhirlSpec(kappa=kappa, lam=lam, bound=bound)
    with pytest.raises(DomainError, match=re.escape(
            f"the exponent E = lam*int(kappa) - bound, over lam, overflows at s={s}")):
        wc.WhirlCurve(spec, window=(0.0, 2.0))


@pytest.mark.parametrize("field, value", [
    ("lam", np.nan), ("lam", np.inf), ("s0", np.nan), ("bound", np.inf)])
def test_whirlspec_rejects_non_finite_numbers(field, value):
    args = {"kappa": wc.kappa_constant(1.0), "lam": 1.0, "bound": 1.0, field: value}
    with pytest.raises(ValueError, match=f"{field} must be finite, got {value}"):
        wc.WhirlSpec(**args)


def test_whirlspec_wraps_a_bare_callable_kappa():
    f = lambda s: 2.0 + 0.0 * s
    kappa = wc.WhirlSpec(kappa=f, lam=-1.0, bound=0.5).kappa
    assert isinstance(kappa, wc.ScalarFn)
    assert kappa.evaluator is f and kappa.domain == (-np.inf, np.inf)
    assert kappa.cumulative is None
    closed = wc.kappa_constant(2.0)
    assert wc.WhirlSpec(kappa=closed, lam=-1.0, bound=0.5).kappa is closed


def test_kappa_families_reject_non_finite_numbers():
    with pytest.raises(ValueError, match="value must be positive and finite, got inf"):
        wc.kappa_constant(np.inf)
    with pytest.raises(ValueError, match="coeffs must be finite"):
        wc.kappa_polynomial([1.0, np.nan], (0.0, 1.0))


@pytest.mark.parametrize("field, value", [
    ("lam", np.nan), ("lam", -np.inf), ("a", np.inf), ("a", np.nan), ("b", np.nan), ("b", np.inf)])
def test_kappa_linear_ratio_rejects_non_finite_numbers(field, value):
    args = {"lam": -1.0, "a": 1.0, "b": -2.0, field: value}
    with pytest.raises(ValueError, match=f"^{field} must be finite, got {value}$"):
        _refused_alike(**args)


def _refused_alike(lam, a, b):
    """Re-raise kappa_linear_ratio's refusal of (lam, a, b) on (0, 1) once
    RectifyingSpec, the constants' one rule, refuses them with its message."""
    with pytest.raises(ValueError) as by_spec:
        wc.RectifyingSpec(a=a, b=b, lam=lam)
    with pytest.raises(ValueError) as by_kappa:
        wc.kappa_linear_ratio(lam, a, b, (0.0, 1.0))
    assert str(by_kappa.value) == str(by_spec.value)
    raise by_kappa.value


@pytest.mark.parametrize("make, domain", [
    (lambda d: wc.kappa_polynomial([1.0], d), (0.0, np.inf)),
    (lambda d: wc.kappa_polynomial([1.0], d), (np.nan, 1.0)),
    (lambda d: wc.kappa_linear_ratio(-1.0, 1.0, -2.0, d), (-np.inf, 1.0)),
    (lambda d: wc.kappa_linear_ratio(-1.0, 1.0, -2.0, d), (0.0, np.nan)),
])
def test_kappa_families_check_their_domain(make, domain):
    with pytest.raises(ValueError, match=rf"^domain ends must be finite, got \({domain[0]}, {domain[1]}\)$"):
        make(domain)


@pytest.mark.parametrize("make, message", [
    (lambda: _refused_alike(-1.0, 0.0, 1.0), "a must be nonzero"),
    (lambda: _refused_alike(1.0, -1e-13, 1.0), "a must be nonzero"),
    (lambda: _refused_alike(0.0, 1.0, 1.0), "lam must be nonzero"),
    (lambda: _refused_alike(1e300, 1.0, 1.0), "1 + lam^2 overflows at lam = 1e+300"),
    (lambda: wc.kappa_linear_ratio(-1.0, 1.0, -2.0, (1.0, 1.0)), "empty domain"),
    (lambda: wc.kappa_linear_ratio(-1.0, 1.0, -2.0, (1.0, 3.0)),
     "domain crosses the a*s + b = 0 pole"),
    (lambda: wc.kappa_polynomial([1.0], (2.0, 1.0)), "empty domain"),
    # numpy's "zero-size array to reduction operation maximum" leaked
    (lambda: wc.kappa_polynomial([], (0.0, 1.0)),
     "a polynomial curvature needs at least one coefficient"),
])
def test_kappa_families_check_their_parameters(make, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        make()


@pytest.mark.parametrize("lo, hi, c", [(0.0, 1.0, 0.1235), (0.0, 1.0, 0.9995),
                                      (-3.0, 7.0, 2.005)])
@pytest.mark.parametrize("eps", [1e-7, 1e-12])
def test_a_poly_dip_between_the_probes_is_refused(lo, hi, c, eps):
    # (s - c)^2 - eps dips below zero at c, half a step from the nearest of
    # the 1001 evenly spaced probes, each of which reads it positive;
    # (s - c)^2 + eps stays positive
    probes = np.linspace(lo, hi, 1001)
    assert np.min((probes - c) ** 2) - eps > 0
    with pytest.raises(ValueError, match=r"^polynomial curvature is not positive on the "
                                         rf"requested domain \[{lo}, {hi}\]: kappa\("):
        wc.kappa_polynomial([c * c - eps, -2.0 * c, 1.0], (lo, hi))
    assert wc.kappa_polynomial([c * c + eps, -2.0 * c, 1.0], (lo, hi))(c) > 0


def test_kappa_constant_keeps_the_whole_line():
    assert wc.kappa_constant(1.0).domain == (-np.inf, np.inf)


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
    window = stencil_window(spec, lo, hi)
    a = wc.WhirlCurve(spec, origin=lo, window=window)
    b = wc.WhirlCurve(moved, origin=lo + c, window=(window[0] + c, window[1] + c))
    fa, fb = wc.frenet_at(a.position, grid), wc.frenet_at(b.position, grid + c)
    for name in ("t", "n", "b"):
        assert np.max(np.abs(getattr(fa, name) - getattr(fb, name))) <= 1e-8
    assert np.max(np.abs(fb.kappa / fa.kappa - 1.0)) <= 1e-7
    assert np.max(np.abs(fb.tau / fa.tau - 1.0)) <= 1e-5
    assert abs(wc.unit_speed_residual(a.position, grid)
               - wc.unit_speed_residual(b.position, grid + c)) <= 1e-8
    assert abs(wc.intrinsic_residual_max(a, lo, hi)
               - wc.intrinsic_residual_max(b, lo + c, hi + c)) <= 1e-7


def test_unit_speed_residual_far_along_the_curve():
    # 1e3 from the start of a const-kappa curve: 6.1e-6 when the step grew with |s|
    spec = wc.WhirlSpec(kappa=wc.kappa_constant(1.0), lam=-1.0,
                        bound=wc.bound_from_ratio(1.0, -1.0))
    curve = wc.WhirlCurve(spec, window=(0.0, 1001.0))
    assert wc.unit_speed_residual(curve.position, [1000.0]) < 1e-6
