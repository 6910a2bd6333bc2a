"""Quadrature and difference-stencil unit tests."""

import re
import sys
import threading

import numpy as np
import pytest

import whirlcurves as wc
from whirlcurves.errors import DomainError, QuadratureError


def test_integrate_constant():
    r = wc.integrate(lambda s: np.ones_like(np.asarray(s, dtype=float)), 0.0, 2.0)
    assert abs(r.value - 2.0) <= 1e-12
    assert r.converged
    assert r.evaluations >= 1


def test_integrate_cosine_symmetry():
    r = wc.integrate(np.cos, 0.0, np.pi)
    assert abs(r.value) <= 1e-10


def test_integrate_vs_midpoint_oracle():
    # integrand 1/(s(2+s^2)): the reciprocal-cubic shape that drives the
    # linear-ratio curvature family
    def f(s):
        return 1.0 / (s * (2.0 + s * s))

    # brute-force midpoint oracle, 1e6 panels
    mids = np.linspace(0.5, 1.5, 2_000_001)[1::2]
    oracle = float(np.sum(f(mids))) * (1.0 / 1_000_000)
    r = wc.integrate(f, 0.5, 1.5)
    assert abs(r.value - oracle) <= 1e-8


def test_integrate_linearity(rng):
    pa = rng.normal(size=4)
    pb = rng.normal(size=4)
    alpha, beta = rng.normal(size=2)

    fa = lambda s: np.polyval(pa, s)
    fb = lambda s: np.polyval(pb, s)
    combo = lambda s: alpha * fa(s) + beta * fb(s)
    ia = wc.integrate(fa, -1.0, 2.0)
    ib = wc.integrate(fb, -1.0, 2.0)
    ic = wc.integrate(combo, -1.0, 2.0)
    tol = abs(alpha) * ia.error_estimate + abs(beta) * ib.error_estimate \
        + ic.error_estimate + 1e-10
    assert abs(ic.value - alpha * ia.value - beta * ib.value) <= tol


def test_integrate_error_contract(rng):
    # |value - truth| <= max(abs_tol, error_estimate)
    cases = [
        (np.sin, 0.0, 2.0, 1.0 - np.cos(2.0)),
        (lambda s: np.exp(-s), 0.0, 3.0, 1.0 - np.exp(-3.0)),
        (lambda s: s ** 5, -1.0, 2.0, (2.0 ** 6 - 1.0) / 6.0),
    ]
    for f, lo, hi, truth in cases:
        for tol in (1e-6, 1e-10, 1e-12):
            r = wc.integrate(f, lo, hi, abs_tol=tol)
            assert abs(r.value - truth) <= max(tol, r.error_estimate)


def test_integrate_antisymmetric_on_swap():
    fwd = wc.integrate(np.sin, 0.2, 1.7)
    bwd = wc.integrate(np.sin, 1.7, 0.2)
    assert fwd.value == -bwd.value


def test_integrate_rejects_bad_tol():
    with pytest.raises(ValueError):
        wc.integrate(np.sin, 0.0, 1.0, abs_tol=0.0)


def test_integrate_nonfinite_sample():
    with pytest.raises(QuadratureError):
        wc.integrate(lambda s: np.nan if abs(s - 0.5) < 0.3 else 1.0, 0.0, 1.0)


def test_integrate_nonconvergence_flag():
    r = wc.integrate(np.cos, 0.0, 3.0, abs_tol=1e-18, max_depth=2)
    assert not r.converged
    assert np.isfinite(r.value)


def test_derivative_order1_line():
    d = wc.derivative(lambda s: np.array([s, 0.0, 0.0]), 0.7, 1)
    assert np.allclose(d, [1.0, 0.0, 0.0], atol=1e-9)


def test_derivative_order1_affine_exact():
    d = wc.derivative(lambda s: np.array([2.0 * s - 1.0, -0.5 * s, 3.0]), 5.3, 1)
    assert np.allclose(d, [2.0, -0.5, 0.0], atol=1e-10)


def test_derivative_order2_parabola():
    d = wc.derivative(lambda s: np.array([s * s, 0.0, 0.0]), 0.3, 2)
    assert np.allclose(d, [2.0, 0.0, 0.0], atol=1e-6)


def test_derivative_order3_vs_symbolic():
    f = lambda s: np.array([np.sin(s), np.cos(s), s])
    d = wc.derivative(f, 0.3, 3)
    expected = np.array([-np.cos(0.3), np.sin(0.3), 0.0])
    assert np.allclose(d, expected, atol=1e-4)


def test_derivative_rejects_order():
    with pytest.raises(ValueError):
        wc.derivative(lambda s: np.zeros(3), 0.0, 4)


def test_derivative_nonfinite():
    with pytest.raises(QuadratureError):
        wc.derivative(lambda s: np.array([np.nan, 0.0, 0.0]), 1.0, 1)


def test_smooth_cumulative_matches_adaptive():
    f = lambda s: np.exp(-np.asarray(s, float) ** 2)
    F = wc.SmoothCumulative(f, anchor=0.0)
    for s in (-1.3, -0.2, 0.6, 2.7):
        ref = wc.integrate(f, 0.0, s, abs_tol=1e-13).value
        assert abs(F(s) - ref) <= 1e-12


def test_smooth_cumulative_stays_inside_evaluation_hull():
    # integrand with a pole just below the domain: panel bases must never
    # step outside the hull of (anchor, s), else samples hit the pole
    f = lambda s: 1.0 / np.asarray(s, dtype=float)
    F = wc.SmoothCumulative(f, anchor=0.5)
    for s in (0.02, 0.011, 0.17):
        ref = np.log(s / 0.5)
        assert abs(F(s) - ref) <= 1e-12


def test_smooth_cumulative_vector_valued():
    f = lambda s: np.stack([np.cos(np.asarray(s, float)),
                            np.sin(np.asarray(s, float)),
                            np.ones_like(np.asarray(s, float))], axis=-1)
    F = wc.SmoothCumulative(f, anchor=0.0)
    got = F(np.array([0.5, 2.0]))
    ref = np.array([[np.sin(0.5), 1.0 - np.cos(0.5), 0.5],
                    [np.sin(2.0), 1.0 - np.cos(2.0), 2.0]])
    assert np.allclose(got, ref, atol=1e-12)


def test_smooth_cumulative_blocks_match_per_point_calls():
    # more query points and more lattice panels than one block of intervals
    def f(s):
        s = np.asarray(s, float)
        return np.stack([np.cos(s), np.sin(3.0 * s), np.exp(-s * s)], axis=-1)

    grid = np.linspace(-600.0, 600.0, wc.numerics.BLOCK + 905)
    assert 2 * 600.0 / wc.numerics.PANEL > wc.numerics.BLOCK
    got = wc.SmoothCumulative(f, anchor=0.3)(grid)
    single = wc.SmoothCumulative(f, anchor=0.3)
    ref = np.array([single(s) for s in grid])
    assert got.shape == (grid.size, 3)
    assert np.max(np.abs(got - ref)) <= 1e-14


@pytest.mark.parametrize("bad", [np.nan, np.inf, -1e300,
                                 0.5 + 1.001 * wc.numerics.MAX_PANELS * wc.numerics.PANEL])
def test_smooth_cumulative_rejects_far_queries_before_growing(bad):
    calls = []

    def f(s):
        calls.append(np.size(s))
        return np.cos(s)

    F = wc.SmoothCumulative(f, anchor=0.5)
    before = F(np.array([-1.0, 2.0]))
    n_calls = len(calls)
    with pytest.raises(DomainError, match=re.escape(f"s={float(bad)!r}")):
        F(np.array([1.0, bad, 3.0]))
    assert len(calls) == n_calls
    assert np.array_equal(F(np.array([-1.0, 2.0])), before)


def test_smooth_cumulative_shared_across_threads():
    # six threads (more than cores) grow one table up and down at once; a
    # lost update would show as panels integrated twice
    def run(parallel):
        points = []

        def f(s):
            points.append(np.size(s))
            return np.exp(-np.asarray(s, float) ** 2 / 50.0)

        F = wc.SmoothCumulative(f, anchor=0.2)
        # thread i queries ever wider windows, alternately below and above
        grids = [[np.linspace(-(i % 2) * j, (1 - i % 2) * j + 0.1 * i, 65)
                  for j in range(1, 41)] for i in range(6)]
        if not parallel:
            return [[F(g) for g in gs] for gs in grids], sum(points)
        out = [None] * len(grids)

        def work(i):
            out[i] = [F(g) for g in grids[i]]

        threads = [threading.Thread(target=work, args=(i,)) for i in range(len(grids))]
        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(old)
        assert not any(t.is_alive() for t in threads)
        return out, sum(points)

    ref, ref_points = run(parallel=False)
    for _ in range(5):
        got, got_points = run(parallel=True)
        assert got_points == ref_points
        assert np.max(np.abs(np.array(got) - np.array(ref))) <= 1e-12
