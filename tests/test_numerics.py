"""Quadrature and differentiation unit tests."""

import re
import sys
import threading

import numpy as np
import pytest

import whirlcurves as wc
from reference import integrate
from whirlcurves.errors import DomainError, FrameError, QuadratureError


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


def _wave(s):
    s = np.asarray(s, dtype=float)
    return np.stack(np.broadcast_arrays(np.sin(s), np.cos(0.7 * s), 0.2 * s ** 3), axis=-1)


def _wave_derivative(s, k):
    c = 0.7 ** k
    poly = [0.6 * s ** 2, 1.2 * s, 1.2][k - 1]
    return np.array([np.sin(s + k * np.pi / 2), c * np.cos(0.7 * s + k * np.pi / 2), poly])


def test_diff_weights_exact_on_polynomials_at_every_position():
    # least squares of degree 5 on 9 nodes reproduces a quintic exactly,
    # centred or off-centre, and the interpolating weights do too
    x = np.arange(9.0)
    p = np.polynomial.Polynomial([0.3, -1.1, 0.7, 0.25, -0.05, 0.01])
    for degree in (5, 8):
        w = wc.diff_weights(9, degree, x)
        assert w.shape == (9, 3, 9)
        for k in (1, 2, 3):
            assert np.allclose(w[:, k - 1] @ p(x), p.deriv(k)(x), atol=1e-10)
    assert np.allclose(wc.diff_weights(5, 4)[0], [1 / 12, -2 / 3, 0.0, 2 / 3, -1 / 12])


def test_derivative_orders_share_one_stencil():
    sizes = []

    def f(s):
        sizes.append(np.size(s))
        return _wave(s)

    grid = np.array([0.2, 0.9])
    d = wc.derivative(f, grid, (1, 2, 3))
    assert d.shape == (3, 2, 3) and sizes == [14]   # 7 samples per node
    for k, tol in ((1, 1e-12), (2, 1e-10), (3, 1e-7)):
        for i, s in enumerate(grid):
            assert np.allclose(d[k - 1, i], _wave_derivative(s, k), atol=tol)
    sizes.clear()
    wc.derivative(f, grid, 1)                       # the centre has zero weight
    wc.derivative(f, grid, (1, 2))
    assert sizes == [4, 10]
    sizes.clear()
    d = wc.derivative(f, grid, (0, 1, 2))           # order 0 is the centre sample
    assert sizes == [10] and np.array_equal(d[0], _wave(grid))
    with pytest.raises(ValueError):
        wc.derivative(f, grid, 0)


def test_derivative_step_does_not_grow_with_s():
    # the same function 1e3 further out: every order keeps its accuracy
    shifted = lambda s: _wave(np.asarray(s, dtype=float) - 1000.0)
    for k, tol in ((1, 1e-9), (2, 1e-7), (3, 1e-5)):
        d = wc.derivative(shifted, 1000.4, k)
        assert np.allclose(d, _wave_derivative(1000.4 - 1000.0, k), atol=tol)


def test_grid_derivatives_exact_on_polynomial_at_every_node():
    # a degree-6 fit (the 7-node minimum window) is exact on sextics,
    # including the off-centre windows at both ends
    s = np.linspace(-1.0, 1.0, 41)
    p = [np.polynomial.Polynomial(c) for c in ([0, 1, 0.5, 0, 0.1], [1, 0, 0, 1],
                                                [0.2, -0.3, 0, 0, 0, 0.05, 0.01])]
    d = wc.grid_derivatives(s, np.column_stack([q(s) for q in p]))
    for k in (1, 2, 3):
        assert np.allclose(d[k - 1], np.column_stack([q.deriv(k)(s) for q in p]), atol=1e-9)


def test_grid_derivatives_dense_helix_third_derivative():
    # 20001 samples 1e-4 apart: a 7-node stencil leaves ~1e-3 roundoff in
    # d3; the wide least-squares window holds it below 1e-5 at every node
    s = np.linspace(0.0, 2.0, 20001)
    u = s / np.sqrt(2.0)
    pts = np.column_stack([np.cos(u), np.sin(u), u])
    d3 = wc.grid_derivatives(s, pts)[2]
    assert np.max(np.abs(d3 - np.column_stack([np.sin(u), -np.cos(u), 0 * u]) / 2 ** 1.5)) < 1e-5


def test_grid_derivatives_rejects_non_uniform_grid():
    with pytest.raises(ValueError, match="uniform grid"):
        wc.grid_derivatives([0.0, 0.1, 0.3, 0.4], np.zeros(4))


def test_smooth_cumulative_matches_adaptive():
    f = lambda s: np.exp(-np.asarray(s, float) ** 2)
    F = wc.SmoothCumulative(f, anchor=0.0)
    for s in (-1.3, -0.2, 0.6, 2.7):
        ref = integrate(f, 0.0, s, abs_tol=1e-13).value
        assert abs(F(s) - ref) <= 1e-12


def test_smooth_cumulative_stays_inside_evaluation_hull():
    # integrand with a pole just below the domain: panel bases must never
    # step outside the hull of (anchor, s), else samples hit the pole
    f = lambda s: 1.0 / np.asarray(s, dtype=float)
    F = wc.SmoothCumulative(f, anchor=0.5)
    for s in (0.02, 0.011, 0.17):
        ref = np.log(s / 0.5)
        assert abs(F(s) - ref) <= 1e-12


def test_smooth_cumulative_nested_stays_inside_the_hull():
    # F(s) = int_0.5^s cos(G) with G(u) = int_0.5^u 1/v, nested by plain
    # calls: g has a pole at 0, so every sample of g must stay inside the hull
    # of (anchor, s)
    seen = []

    def g(s):
        seen.append(np.asarray(s, dtype=float).copy())
        return 1.0 / np.asarray(s, dtype=float)

    def nested():
        inner = wc.SmoothCumulative(g, anchor=0.5)
        return wc.SmoothCumulative(lambda s: np.cos(inner(s)), anchor=0.5)

    grid = np.linspace(0.011, 1.7, 400)
    nested()(grid)
    pts = np.concatenate(seen)
    assert pts.min() >= grid[0] and pts.max() <= grid[-1]
    for s in (0.011, 1.7):
        oracle = integrate(lambda u: np.cos(np.log(u / 0.5)), 0.5, s, abs_tol=1e-13)
        assert abs(nested()(s) - oracle.value) <= 1e-12


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


def _nested_in_window(window, seen):
    """int_0.5^s cos(G), G(u) = int_0.5^u 1/v, on ``window``; ``seen``
    collects every point where either integrand is sampled."""
    def g(s):
        seen.append(np.asarray(s, dtype=float).copy())
        return 1.0 / np.asarray(s, dtype=float)

    inner = wc.SmoothCumulative(g, anchor=0.5)

    def f(s):
        seen.append(np.asarray(s, dtype=float).copy())
        k = inner(s)
        return np.stack([np.cos(k), np.sin(k)], axis=-1)

    return wc.SmoothCumulative(f, anchor=0.5, window=window)


def test_windowed_cumulative_samples_only_inside_its_window():
    # g has a pole at 0, below the window: every sample of either integrand
    # lies inside the window, and the values match the windowless nesting
    seen = []
    F = _nested_in_window((0.011, 1.7), seen)
    grid = np.linspace(0.011, 1.7, 400)
    got = F(grid)
    pts = np.concatenate(seen)
    assert pts.min() >= 0.011 and pts.max() <= 1.7
    assert F(0.5).tolist() == [0.0, 0.0]
    plain = _nested_in_window(None, [])
    assert np.max(np.abs(got - plain(grid))) <= 1e-14
    ends = F(np.array([0.011, 1.7]))
    for i, s in enumerate((0.011, 1.7)):
        for c, part in enumerate((np.cos, np.sin)):
            oracle = integrate(lambda u: part(np.log(u / 0.5)), 0.5, s, abs_tol=1e-13)
            assert abs(ends[i, c] - oracle.value) <= 1e-12
    n_seen = len(seen)
    for bad in (0.011 - 1e-9, 1.7 + 1e-9, np.nan):
        with pytest.raises(DomainError, match=re.escape(f"s={bad!r}")):
            F(np.array([0.6, bad]))
    assert len(seen) == n_seen


@pytest.mark.parametrize("window", [(0.0, 1.0), None])
def test_cumulative_rejects_a_non_finite_integrand_at_once(window):
    # a NaN panel never resolves, so it would be bisected MAX_SPLITS deep
    sizes = []

    def f(s):
        sizes.append(s.size)
        return np.where(s > 0.3, np.nan, 1.0)

    F = wc.SmoothCumulative(f, anchor=0.0, window=window)
    nodes = 0.3125 + 0.0625 * np.polynomial.legendre.leggauss(24)[0]   # panel [0.25, 0.375]
    with pytest.raises(QuadratureError, match=re.escape(f"s={float(nodes[nodes > 0.3][0])!r}")):
        F(0.5)
    assert len(sizes) == 1


def test_windowed_cumulative_checks_its_window_before_any_work():
    calls = []
    far = 0.5 + 1.001 * wc.numerics.MAX_PANELS * wc.numerics.PANEL
    with pytest.raises(DomainError, match=re.escape(f"s={far!r}")):
        wc.SmoothCumulative(calls.append, anchor=0.5, window=(0.5, far))
    with pytest.raises(ValueError, match="outside the window"):
        wc.SmoothCumulative(calls.append, anchor=0.5, window=(1.0, 2.0))
    assert calls == []


def test_windowed_cumulative_is_the_same_whatever_the_batch():
    # three blocks of lattice panels: the first call builds the table and
    # reads its queries off the series as it goes, later calls rebuild only
    # their blocks; every value depends on s and the window alone
    def f(s):
        s = np.asarray(s, float)
        return np.stack([np.cos(s), np.sin(3.0 * s), np.exp(-s * s)], axis=-1)

    window = (-600.0, 700.0)
    grid = np.linspace(*window, 97)
    assert (window[1] - window[0]) / wc.numerics.PANEL > 2 * wc.numerics.BLOCK
    batched = wc.SmoothCumulative(f, anchor=0.3, window=window)(grid)
    single = wc.SmoothCumulative(f, anchor=0.3, window=window)
    assert np.array_equal(np.array([single(s) for s in grid[::-4]]), batched[::-4])
    assert np.array_equal(single(grid[40:60]), batched[40:60])
    ref = wc.SmoothCumulative(f, anchor=0.3)(grid)
    assert np.max(np.abs(batched - ref)) <= 1e-12


def test_windowed_cumulative_shared_across_threads():
    # six threads (more than cores) make the first calls of one instance at
    # once; every value matches a single-threaded instance bit for bit
    def f(s):
        return np.exp(-np.asarray(s, float) ** 2 / 50.0)

    window = (-40.0, 600.0)
    grids = [np.linspace(-40.0 + 7 * i, 600.0 - 90 * i, 65) for i in range(6)]
    single = wc.SmoothCumulative(f, anchor=0.2, window=window)
    ref = [single(g) for g in grids]
    for _ in range(3):
        F = wc.SmoothCumulative(f, anchor=0.2, window=window)
        out = [None] * len(grids)

        def work(i):
            out[i] = F(grids[i])

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
        assert all(np.array_equal(o, r) for o, r in zip(out, ref))
        assert F.panels == single.panels


def test_windowed_cumulative_splits_only_unresolved_panels():
    # sqrt(1.5 - s) near its branch point: panels next to it are bisected,
    # the smooth rest stays on the lattice
    f = lambda s: np.sqrt(1.5 - np.asarray(s, float))
    F = wc.SmoothCumulative(f, anchor=0.0, window=(0.0, 1.5 - 1e-9))
    grid = np.linspace(0.0, 1.5 - 1e-9, 33)
    exact = (1.5 ** 1.5 - (1.5 - grid) ** 1.5) / 1.5
    assert np.max(np.abs(F(grid) - exact)) <= 1e-14
    assert 12 < F.panels <= 12 + 2 * wc.numerics.MAX_SPLITS
    smooth = wc.SmoothCumulative(np.cos, anchor=0.0, window=(0.0, 1.5))
    smooth(1.5)
    assert smooth.panels == 12


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


def test_sample_raises_the_library_errors_of_the_batched_call():
    # a DomainError is no sign of a scalar-only callable: retrying point by
    # point called the tangent 1003 times before raising the same error
    curve = wc.WhirlCurve(wc.WhirlSpec(wc.kappa_constant(1.0), lam=1.0, bound=1.0))
    calls = []

    def tangent(s):
        calls.append(np.size(s))
        return curve.tangent(s)

    with pytest.raises(DomainError, match=re.escape("s=1.0000205584157047")):
        wc.frenet_at(curve.position, np.linspace(0.0, 2.0, 2000), deriv=tangent)
    assert len(calls) == 1   # the one batched call of the whole stencil

    def frame_error(s):
        calls.append(np.size(s))
        raise FrameError("undefined frame")

    calls.clear()
    with pytest.raises(FrameError, match="undefined frame"):
        wc.numerics.sample(frame_error, np.linspace(0.0, 1.0, 5))
    assert calls == [5]

    # any other error of the batched call still means "scalars only"
    def scalar_only(s):
        calls.append(np.size(s))
        if np.ndim(s):
            raise ValueError("scalars only")
        return [s, 2.0 * s, 1.0]

    calls.clear()
    rows = wc.numerics.sample(scalar_only, np.linspace(0.0, 1.0, 5))
    assert calls == [5, 1, 1, 1, 1, 1]
    assert np.array_equal(rows[:, 1], np.linspace(0.0, 2.0, 5))
