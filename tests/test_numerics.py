"""Quadrature and differentiation unit tests."""

import re
import sys
import threading

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import whirlcurves as wc
from reference import full_series_at, gauss_cumulative, integrate, resolved_lengths, weight_sums
from whirlcurves.errors import DomainError, FrameError, QuadratureError
from whirlcurves.numerics import EPS


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


def test_derivative_refuses_a_step_that_rounds_to_zero():
    # at 1e15 the float spacing, 0.125, exceeds twice EPS**(1/3) ~ 6e-6
    with pytest.raises(DomainError, match=r"^s=1000000000000000\.0 is too large to difference: "
                                          r"the stencil step rounds to zero$"):
        wc.derivative(np.sin, 1e15, 1)
    with pytest.raises(DomainError, match=r"^s=2000000000000000\.0 is too large"):
        wc.derivative(np.sin, np.array([0.0, 1e10, 2e15, 3e15]), 1)
    assert np.isfinite(wc.derivative(np.sin, np.array([0.0, 1e10]), 1)).all()


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


@st.composite
def _grid_case(draw):
    """(width, n, columns, seed): an odd width of 7..201 and a node count
    from it to past several chunks of block rows, n - width + 1 often off a
    multiple of 32 nodes; or n = 8..12 nodes with the width rule asking for
    more, so that W = n, even widths among them.  ``columns`` is 0 for a 1-d
    y (as ``intrinsic_residual_grid`` passes it), else 3."""
    if draw(st.booleans()):
        width = n = draw(st.integers(8, 12))
    else:
        width = 2 * draw(st.integers(3, 100)) + 1
        n = width + draw(st.sampled_from([0, 1, 31, 32, 33, 63, 65]) | st.integers(0, 3000))
    return width, n, draw(st.sampled_from([0, 3])), draw(st.integers(0, 2 ** 32 - 1))


# |error| over the rounding scale EPS * sum|w| * max|y|: the worst over 300
# drawn examples and the 11 listed below was 1.8 for the blocked product
# and 0.79 for nine np.correlate calls
WEIGHT_SUM_BOUND = 3.0


@settings(max_examples=40, deadline=None, derandomize=True)
@given(case=_grid_case())
# W = n for n = 8..12; one block row of 32 nodes, and a single node; past
# the first chunk of block rows at W = 7 and 201, 1-d and in three columns
@example(case=(8, 8, 0, 1))
@example(case=(9, 9, 3, 2))
@example(case=(10, 10, 3, 3))
@example(case=(11, 11, 0, 4))
@example(case=(12, 12, 3, 5))
@example(case=(101, 132, 3, 6))
@example(case=(51, 51, 0, 7))
@example(case=(7, 2807, 0, 8))
@example(case=(7, 1007, 3, 9))
@example(case=(201, 1501, 0, 10))
@example(case=(201, 601, 3, 11))
def test_grid_derivatives_matches_long_double_weight_sums(case):
    width, n, columns, seed = case
    rng = np.random.default_rng(seed)
    u = np.arange(n) / n
    y = rng.uniform(-10.0, 10.0) + np.sin(rng.uniform(0.5, 20.0, 3) * u[:, None]
                                          + rng.uniform(0.0, 6.0, 3))
    y = y[:, 0] if columns == 0 else y
    # a step for which the rule's half-width r is (width - 1)/2 steps (a
    # whole n for W = n), kept to 24 bits so the grid and its mean step are
    # exact
    r = (EPS * np.max(np.abs(y))) ** (1.0 / 9.0)
    h = float(np.float32(r / (n if width == n else (width - 1) // 2)))
    d = wc.grid_derivatives(np.arange(n) * h, y)
    sums, scale = weight_sums(y, width)
    hk = np.longdouble(h) ** np.arange(1, 4)[:, None, None]
    err = np.abs(d.reshape(sums.shape) - sums / hk) * hk / scale
    assert float(np.max(err)) <= WEIGHT_SUM_BOUND


def test_grid_derivatives_rejects_non_uniform_grid():
    with pytest.raises(ValueError, match="uniform grid"):
        wc.grid_derivatives([0.0, 0.1, 0.3, 0.4], np.zeros(4))


@pytest.mark.parametrize("n", [0, 1])
def test_grid_derivatives_needs_at_least_2_samples(n):
    # numpy's "zero-size array to reduction operation" message leaked here
    with pytest.raises(ValueError, match=f"^derivatives of samples need at least 2 samples, "
                       f"got {n}$"):
        wc.grid_derivatives(np.arange(n, dtype=float), np.ones((n, 3)))


def test_grid_derivatives_takes_a_grid_printed_with_8_digits():
    # rounding to 8 digits spreads the spacing by 2.6e-5 of the step, 5e-8
    # of max |s|; moving one node by 1% of a step is no rounding
    s = np.linspace(0.0, 2.0, 513)
    y = np.column_stack([np.cos(s), np.sin(s), s])
    rounded = np.array([float("%.8g" % v) for v in s])
    assert np.allclose(wc.grid_derivatives(rounded, y), wc.grid_derivatives(s, y), atol=1e-7)
    moved = s.copy()
    moved[200] += 0.01 * (s[1] - s[0])
    with pytest.raises(ValueError, match="uniform grid: the spacing strays by 0.02 of the step"):
        wc.grid_derivatives(moved, y)


def test_smooth_cumulative_matches_adaptive():
    f = lambda s: np.exp(-np.asarray(s, float) ** 2)
    F = wc.SmoothCumulative(f, anchor=0.0, window=(-1.3, 2.7))
    for s in (-1.3, -0.2, 0.6, 2.7):
        ref = integrate(f, 0.0, s, abs_tol=1e-13).value
        assert abs(F(s) - ref) <= 1e-12


def test_smooth_cumulative_stays_inside_its_window():
    # integrand with a pole just below the window: panels must never step
    # outside it, else samples hit the pole
    f = lambda s: 1.0 / np.asarray(s, dtype=float)
    F = wc.SmoothCumulative(f, anchor=0.5, window=(0.011, 0.5))
    for s in (0.02, 0.011, 0.17):
        ref = np.log(s / 0.5)
        assert abs(F(s) - ref) <= 1e-12


def test_smooth_cumulative_vector_valued():
    f = lambda s: np.stack([np.cos(np.asarray(s, float)),
                            np.sin(np.asarray(s, float)),
                            np.ones_like(np.asarray(s, float))], axis=-1)
    F = wc.SmoothCumulative(f, anchor=0.0, window=(0.0, 2.0))
    got = F(np.array([0.5, 2.0]))
    ref = np.array([[np.sin(0.5), 1.0 - np.cos(0.5), 0.5],
                    [np.sin(2.0), 1.0 - np.cos(2.0), 2.0]])
    assert np.allclose(got, ref, atol=1e-12)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -1e300, -1.0 - 1e-12, 3.0 + 1e-12])
def test_smooth_cumulative_rejects_queries_outside_its_window_before_any_work(bad):
    calls = []

    def f(s):
        calls.append(np.size(s))
        return np.cos(s)

    F = wc.SmoothCumulative(f, anchor=0.5, window=(-1.0, 3.0))
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

    inner = wc.SmoothCumulative(g, anchor=0.5, window=window)

    def f(s):
        seen.append(np.asarray(s, dtype=float).copy())
        k = inner(s)
        return np.stack([np.cos(k), np.sin(k)], axis=-1)

    return wc.SmoothCumulative(f, anchor=0.5, window=window)


def test_windowed_cumulative_samples_only_inside_its_window():
    # g has a pole at 0, below the window: every sample of either integrand
    # lies inside the window, and the values match the panel-sum nesting
    seen = []
    F = _nested_in_window((0.011, 1.7), seen)
    grid = np.linspace(0.011, 1.7, 400)
    got = F(grid)
    pts = np.concatenate(seen)
    assert pts.min() >= 0.011 and pts.max() <= 1.7
    assert F(0.5).tolist() == [0.0, 0.0]
    inner = lambda s: gauss_cumulative(lambda u: 1.0 / u, 0.5, s)
    plain = gauss_cumulative(lambda s: np.stack([np.cos(inner(s)), np.sin(inner(s))], axis=-1),
                             0.5, grid)
    assert np.max(np.abs(got - plain)) <= 1e-14
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


def test_cumulative_rejects_a_non_finite_integrand_at_once():
    # a NaN panel never resolves, so it would be bisected MAX_SPLITS deep
    sizes = []

    def f(s):
        sizes.append(s.size)
        return np.where(s > 0.3, np.nan, 1.0)

    F = wc.SmoothCumulative(f, anchor=0.0, window=(0.0, 1.0))
    nodes = 0.3125 + 0.0625 * np.polynomial.legendre.leggauss(24)[0]   # panel [0.25, 0.375]
    with pytest.raises(QuadratureError, match=re.escape(f"s={float(nodes[nodes > 0.3][0])!r}")):
        F(0.5)
    assert len(sizes) == 1


def test_cumulative_samples_a_scalar_only_integrand_point_by_point():
    # float() of an array raises TypeError: sample() falls back to one call per
    # node, as derivative() and trace() do for a scalar-only curve
    calls = []

    def scalar(s):
        calls.append(s)
        return np.exp(-float(s) ** 2)

    vector = wc.SmoothCumulative(lambda s: np.exp(-s ** 2), anchor=0.0, window=(-1.0, 1.0))
    pointwise = wc.SmoothCumulative(scalar, anchor=0.0, window=(-1.0, 1.0))
    q = np.linspace(-1.0, 1.0, 9)
    assert np.allclose(pointwise(q), vector(q), rtol=0, atol=1e-15)
    assert len(calls) > 24 and all(np.ndim(s) == 0 for s in calls[1:])
    bad = wc.SmoothCumulative(lambda s: np.nan if float(s) > 0.3 else 1.0, anchor=0.0,
                              window=(0.0, 1.0))
    with pytest.raises(QuadratureError, match="^non-finite sample at s=0.30"):
        bad(0.5)


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
    ref = gauss_cumulative(f, 0.3, grid)
    assert np.max(np.abs(batched - ref)) <= 1e-12


def _bumps(s):
    s = np.asarray(s, float)
    return np.stack([np.cos(s), np.sin(3.0 * s), np.exp(-s * s)], axis=-1)


_THREE_BLOCKS = (-600.0, 700.0)


@pytest.mark.parametrize("f", [lambda s: np.exp(-np.asarray(s, float) ** 2 / 50.0), _bumps],
                         ids=["scalar", "vector"])
# the block edge: lattice edge BLOCK from the window's left end
@pytest.mark.parametrize("anchor", [-600.0, 0.3, 700.0, -600.0 + wc.numerics.BLOCK * wc.numerics.PANEL],
                         ids=["lo", "inside", "hi", "block edge"])
def test_windowed_cumulative_is_exactly_zero_at_its_anchor(f, anchor):
    # F = P(s) - P(anchor), P summed from the window's left end: a query at
    # the anchor reads P(anchor) itself, wherever the anchor lies
    window = _THREE_BLOCKS
    assert (window[1] - window[0]) / wc.numerics.PANEL > 2 * wc.numerics.BLOCK
    grid = np.union1d(np.linspace(*window, 97), [anchor])
    F = wc.SmoothCumulative(f, anchor=anchor, window=window)
    first = F(grid)
    assert not np.any(first[grid == anchor])
    assert not np.any(F(anchor)) and not np.any(F(np.array([anchor])))
    assert np.array_equal(np.array([F(s) for s in grid[::8]]), first[::8])
    assert np.max(np.abs(first - gauss_cumulative(f, anchor, grid))) <= 1e-12


@pytest.mark.parametrize("f, trailing", [(np.cos, ()), (_bumps, (3,))], ids=["scalar", "vector"])
def test_windowed_cumulative_answers_no_queries_in_its_shape(f, trailing):
    F = wc.SmoothCumulative(f, anchor=0.3, window=_THREE_BLOCKS)
    assert F(np.empty(0)).shape == (0,) + trailing
    assert F.panels > 0
    assert F(np.empty(0)).shape == (0,) + trailing


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


def test_a_chunk_of_panels_of_different_lengths_reads_each_query_alone(monkeypatch):
    # Runge's function needs more terms near 0 than near the window's ends;
    # every query of the batch lies in one chunk, which spans them all, and
    # a term past a panel's length would move some of the sums
    def f(s):
        s = np.asarray(s, float)
        return np.stack([1.0 / (1.0 + 25.0 * s * s), np.cos(3.0 * s)], axis=-1)

    grid = np.linspace(-1.0, 1.0, 1001)
    assert grid.size <= wc.numerics.BLOCK
    blocks = []

    def spy(a, z, anti, edge, s):
        blocks.append((a, anti))
        return series_at(a, z, anti, edge, s)

    series_at = wc.numerics._series_at
    monkeypatch.setattr(wc.numerics, "_series_at", spy)
    F = wc.SmoothCumulative(f, anchor=0.1, window=(-1.0, 1.0))
    batched = F(grid)
    (a, anti), = blocks
    lengths = resolved_lengths(anti)[np.unique(np.searchsorted(a, grid, side="right") - 1)]
    assert lengths.min() < lengths.max() < 24
    assert np.array_equal(np.array([F(s) for s in grid]), batched)
    shuffle = np.random.default_rng(5).permutation(grid.size)
    assert np.array_equal(F(grid[shuffle]), batched[shuffle])
    assert np.array_equal(F(grid[::-1]), batched[::-1])
    assert not np.any(F(0.1))
    monkeypatch.setattr(wc.numerics, "_series_at", full_series_at)
    full = wc.SmoothCumulative(f, anchor=0.1, window=(-1.0, 1.0))(grid)
    assert np.all(np.abs(batched - full) <= 4 * np.spacing(np.max(np.abs(full), axis=0)))


@pytest.mark.parametrize("window, n", [((-0.2, 0.3), 5000), ((-40.0, 60.0), 900)],
                         ids=["long runs", "one query per panel"])
def test_the_run_and_gather_contractions_agree_bit_for_bit(monkeypatch, window, n):
    # _series_at multiplies a long run of one panel's queries by its
    # coefficients and gathers them for short runs; either way gives the
    # same products, summed in the same order
    def f(s):
        s = np.asarray(s, float)
        return np.stack([np.cos(3.0 * s), np.exp(-s * s), 1.0 / (2.0 + np.sin(s))], axis=-1)

    grid = np.linspace(*window, n)
    values = []
    for long_run in (1, 2 * n):   # every chunk by runs; every chunk gathered
        monkeypatch.setattr(wc.numerics, "LONG_RUN", long_run)
        values.append(wc.SmoothCumulative(f, anchor=0.1, window=window)(grid))
    monkeypatch.undo()
    assert np.array_equal(values[0], values[1])
    assert np.array_equal(wc.SmoothCumulative(f, anchor=0.1, window=window)(grid), values[0])


def test_a_zero_integrand_keeps_no_terms():
    # every coefficient is zero, so every panel's resolved length is 0
    F = wc.SmoothCumulative(lambda s: np.zeros(np.shape(s)), anchor=0.3, window=(0.0, 1.0))
    assert np.array_equal(F(np.linspace(0.0, 1.0, 9)), np.zeros(9))
    assert F(0.7) == 0.0


@pytest.mark.parametrize("f, anchor, window", [
    (_bumps, 0.3, _THREE_BLOCKS),
    (lambda s: np.sqrt(1.5 - np.asarray(s, float)), 0.0, (0.0, 1.5 - 1e-9)),
], ids=["three blocks", "split panels"])
def test_windowed_cumulative_matches_the_full_series(monkeypatch, f, anchor, window):
    grid = np.linspace(*window, 2001)
    got = wc.SmoothCumulative(f, anchor=anchor, window=window)(grid)
    monkeypatch.setattr(wc.numerics, "_series_at", full_series_at)
    full = wc.SmoothCumulative(f, anchor=anchor, window=window)(grid)
    assert np.all(np.abs(got - full) <= 4 * np.spacing(np.max(np.abs(full), axis=0)))


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

    # a QuadratureError is a ValueError too: a position table whose integrand
    # turns non-finite is refused by its one batched call
    def refused(s):
        calls.append(np.size(s))
        wc.numerics.sample(lambda u: np.where(u > 0.5, np.nan, u), s)

    calls.clear()
    assert issubclass(QuadratureError, ValueError)
    with pytest.raises(QuadratureError, match="^non-finite sample at s=0.75$"):
        wc.numerics.sample(refused, np.linspace(0.0, 1.0, 5))
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
