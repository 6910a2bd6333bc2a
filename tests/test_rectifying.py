"""Closed-form whirl-rectifying family: geometry, cone, extensions."""

import inspect
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import whirlcurves as wc
from whirlcurves import rectifying
from whirlcurves.errors import DomainError
from whirlcurves.rectifying import branch_ratio
from conftest import branch_grid, random_rectifying_spec, random_rotation, unit_speed_helix

REF = wc.RectifyingSpec(a=0.65, b=0.0, lam=-1.0)           # reference parameters
REF_MINUS = wc.RectifyingSpec(a=0.65, b=0.0, lam=-1.0, branch=-1)


def test_curve_point_on_hyperboloid():
    p = wc.curve_point(REF, 0.25)
    assert abs(wc.hyperboloid_residual(p, REF.lam, REF.a)) < 1e-12


def test_curve_point_approaches_apex():
    # s -> -b/a from the right: position -> (0, 0, 1/a)
    apex = np.array([0.0, 0.0, 1.0 / 0.65])
    prev = np.inf
    for s in (1e-2, 1e-4, 1e-6):
        d = np.linalg.norm(wc.curve_point(REF, s) - apex)
        assert d < prev
        prev = d
    assert prev < 1e-5


SEAM = r"^s=\S+ lies on or past the a\*s \+ b = 0 seam of branch [+-]1$"


@pytest.mark.parametrize("spec, s, says", [
    (REF, 0.0, "s=0.0 lies on or past the a*s + b = 0 seam of branch +1"),
    (REF, [0.5, -0.5], "s=-0.5 lies on or past the a*s + b = 0 seam of branch +1"),
    (REF_MINUS, 0.0, "s=0.0 lies on or past the a*s + b = 0 seam of branch -1"),
    (REF_MINUS, 0.5, "s=0.5 lies on or past the a*s + b = 0 seam of branch -1")])
def test_curve_point_branch_errors(spec, s, says):
    # the one seam rule, branch_ratio, names the first s off the branch
    for call in (wc.curve_point, wc.curve_velocity, branch_ratio):
        with pytest.raises(DomainError, match=SEAM) as info:
            call(spec, s)
        assert str(info.value) == says


def test_curve_is_unit_speed(rng):
    for _ in range(5):
        spec = random_rectifying_spec(rng)
        grid = branch_grid(spec, n=9)
        assert wc.unit_speed_residual(lambda s: wc.curve_point(spec, s), grid) < 1e-6
        # analytic velocity is exactly unit
        v = wc.curve_velocity(spec, grid)
        assert np.max(np.abs(np.linalg.norm(v, axis=1) - 1.0)) < 1e-14


def test_curve_velocity_matches_difference(rng):
    spec = random_rectifying_spec(rng)
    for s in branch_grid(spec, n=5):
        fd = wc.derivative(lambda u: wc.curve_point(spec, u), float(s), 1)
        assert np.linalg.norm(fd - wc.curve_velocity(spec, float(s))) < 1e-8


def test_ratio_is_linear_on_consistent_branch():
    # on the branch with sign(a*s+b) = sign(a*lam), tau/kappa = a*s + b
    spec = REF_MINUS   # consistent for a > 0, lam < 0
    for s in (-0.5, -1.1):
        f = wc.frenet_at(lambda u: wc.curve_point(spec, u), s,
                         deriv=lambda u: wc.curve_velocity(spec, u))
        assert f.tau / f.kappa == pytest.approx(0.65 * s, abs=1e-5)


def test_chen_fit_recovers_line(rng):
    spec = REF_MINUS
    grid = branch_grid(spec, n=65)
    fit = wc.chen_ratio_fit(wc.frenet_at(lambda s: wc.curve_point(spec, s), grid,
                                         deriv=lambda s: wc.curve_velocity(spec, s)))
    assert fit.is_rectifying
    assert fit.c1 == pytest.approx(0.65, abs=1e-4)
    assert fit.c2 == pytest.approx(0.0, abs=1e-4)
    for _ in range(3):
        rspec = random_rectifying_spec(rng)
        grid = branch_grid(rspec, n=65)
        fit = wc.chen_ratio_fit(wc.frenet_at(lambda s: wc.curve_point(rspec, s), grid,
                                             deriv=lambda s: wc.curve_velocity(rspec, s)))
        assert fit.c1 == pytest.approx(rspec.a, abs=1e-4)
        assert fit.c2 == pytest.approx(rspec.b, abs=1e-4)


def test_chen_fit_passes_exactly_when_its_rms_is_below_chen_rms_tol(monkeypatch):
    # the threshold is the module constant, read at each call: no parameter
    assert list(inspect.signature(wc.chen_ratio_fit).parameters) == ["frames"]
    spec = REF_MINUS
    frames = wc.frenet_at(lambda s: wc.curve_point(spec, s), branch_grid(spec, n=65),
                          deriv=lambda s: wc.curve_velocity(spec, s))
    rms = wc.chen_ratio_fit(frames).rms
    monkeypatch.setattr(rectifying, "CHEN_RMS_TOL", np.nextafter(rms, np.inf))
    assert wc.chen_ratio_fit(frames).is_rectifying
    monkeypatch.setattr(rectifying, "CHEN_RMS_TOL", rms)
    fit = wc.chen_ratio_fit(frames)
    assert not fit.is_rectifying and fit.note == "ratio is not linear"


def test_chen_fit_rejects_helix():
    fit = wc.chen_ratio_fit(wc.frenet_at(unit_speed_helix(1.0, 1.0), np.linspace(0.0, 2.0, 33)))
    assert abs(fit.c1) <= 1e-6
    assert not fit.is_rectifying
    assert "constant" in fit.note


def test_chen_fit_rigid_motion_invariant(rng):
    spec = REF_MINUS
    grid = branch_grid(spec, n=33)
    rot = random_rotation(rng)
    shift = rng.normal(size=3)
    base = wc.chen_ratio_fit(wc.frenet_at(lambda s: wc.curve_point(spec, s), grid))
    moved = wc.chen_ratio_fit(wc.frenet_at(lambda s: rot @ wc.curve_point(spec, s) + shift, grid))
    assert moved.c1 == pytest.approx(base.c1, abs=1e-6)
    assert moved.c2 == pytest.approx(base.c2, abs=1e-6)


@pytest.mark.parametrize("scale", [1e-3, 1.0, 1e3])
def test_chen_verdict_is_free_of_the_unit_of_length(rng, scale):
    # s and positions scaled alike: c1 scales as 1/scale, and |c1| times
    # the frames' s-span, the ratio's change over the trace, does not
    grid = np.linspace(0.2, 1.2, 513)
    randoms = [random_rectifying_spec(rng) for _ in range(3)]
    cases = [(wc.RectifyingSpec(a=0.65, b=0.0, lam=-1.0), grid)] + [
        (spec, branch_grid(spec, n=513)) for spec in randoms]
    for spec, s in cases:
        tr = wc.CurveTrace(scale * s, scale * wc.curve_point(spec, s))
        frames = wc.trace_frames(tr)
        fit = wc.chen_ratio_fit(frames)
        assert fit.is_rectifying, (spec, fit)
        assert fit.change == pytest.approx(abs(spec.a) * np.ptp(frames.s) / scale, rel=1e-3)
    helix = wc.CurveTrace(scale * grid, scale * unit_speed_helix(1.0, 1.0)(grid))
    fit = wc.chen_ratio_fit(wc.trace_frames(helix))
    assert not fit.is_rectifying and fit.change <= rectifying.SLOPE_FLOOR
    assert fit.note == "ratio is constant"


def test_hyperboloid_residual_hand_cases(rng):
    # apex: exact zero when a*a is exactly representable
    assert wc.hyperboloid_residual(np.array([0.0, 0.0, 2.0]), -1.3, 0.5) == 0.0
    a, lam = 0.8, -1.3
    assert abs(wc.hyperboloid_residual(np.array([0.0, 0.0, 1.0 / a]), lam, a)) <= 1e-15
    p = np.array([lam / a, 0.0, np.sqrt(2.0) / a])
    assert abs(wc.hyperboloid_residual(p, lam, a)) <= 1e-14
    for _ in range(20):
        spec = random_rectifying_spec(rng)
        s = float(branch_grid(spec, n=1, h_lo=0.1, h_hi=3.0)[0])
        r = wc.hyperboloid_residual(wc.curve_point(spec, s), spec.lam, spec.a)
        assert abs(r) < 1e-10


def test_sphere_point_unit_norm(rng):
    for _ in range(20):
        spec = random_rectifying_spec(rng)
        lo, hi = (-spec.d_shift, -spec.d_shift + np.pi / 2) if spec.branch == 1 \
            else (-spec.d_shift - np.pi / 2, -spec.d_shift)
        t = float(rng.uniform(lo + 0.05, hi - 0.05))
        if abs(t + spec.d_shift) < 1e-3:
            continue
        w = wc.sphere_point(spec, t)
        assert abs(np.linalg.norm(w) - 1.0) <= 1e-10


def test_sphere_curve_unit_speed():
    spec = REF
    for t in (0.3, 0.8, 1.2):
        dw = wc.derivative(lambda q: wc.sphere_point(spec, q), t, 1)
        assert abs(np.linalg.norm(dw) - 1.0) <= 1e-5


def test_sphere_point_domain_errors():
    # t = -d, the seam, is an end of either branch's open interval
    # (REF's d is 0: the end prints as 0.0, not -0.0); each names the first refused t
    half = re.escape(repr(np.pi / 2))
    with pytest.raises(DomainError, match=rf"^t=0\.0 lies outside the open branch interval "
                                          rf"\(0\.0, {half}\)$"):
        wc.sphere_point(REF, 0.0)
    with pytest.raises(DomainError, match=rf"^t=0\.0 lies outside the open branch interval "
                                          rf"\(-{half}, 0\.0\)$"):
        wc.sphere_point(REF_MINUS, [-0.5, 0.0, 0.5])
    with pytest.raises(DomainError, match=r"^t=-0\.2 lies "):
        wc.sphere_point(REF, [0.1, -0.2, -0.3])   # wrong side for branch +1
    with pytest.raises(DomainError, match=rf"^t={half} lies "):
        wc.sphere_point(REF, np.pi / 2)     # interval end
    with pytest.raises(DomainError, match=r"^t=nan lies "):
        wc.sphere_point(REF, np.nan)
    with pytest.raises(DomainError, match=rf"^t=2\.0 lies outside the open interval "
                                          rf"\(-{half}, {half}\)$"):
        wc.extended_sphere_point(REF, [0.0, 2.0, -2.0])


def test_sphere_point_seam_limit():
    # t -> -d: w -> (0, 0, |a|/a)
    for t in (1e-3, 1e-6):
        w = wc.sphere_point(REF, t)
        assert np.linalg.norm(w - [0, 0, 1.0]) < 2e-3
    neg = wc.RectifyingSpec(a=-0.65, b=0.0, lam=-1.0)
    w = wc.sphere_point(neg, 1e-6)
    assert w[2] == pytest.approx(-1.0, abs=1e-6)


def test_cone_point_homogeneous():
    spec = REF
    w = wc.sphere_point(spec, 0.4)
    p1 = wc.cone_point(spec, 0.4, 1.0)
    p2 = wc.cone_point(spec, 0.4, 2.0)
    assert np.allclose(p1, w, atol=0)
    assert np.allclose(p2, 2.0 * p1, atol=0)


def test_cone_coords_hand_values():
    spec = wc.RectifyingSpec(a=1.0, b=0.0, lam=-1.0)
    t, u = wc.cone_coords(spec, 1.0)       # b + a*s = 1
    assert t == pytest.approx(np.pi / 4)
    assert u == pytest.approx(np.sqrt(2.0))
    t0, u0 = wc.cone_coords(spec, 0.0)     # the seam maps to (t, u) = (-d, 1/|a|)
    assert t0 == pytest.approx(-spec.d_shift)
    assert u0 == pytest.approx(1.0 / abs(spec.a))


def test_cone_coords_monotone():
    spec = wc.RectifyingSpec(a=2.0, b=0.3, lam=1.0)
    ts = [wc.cone_coords(spec, s)[0] for s in np.linspace(-1.0, 1.0, 9)]
    assert np.all(np.diff(ts) > 0)


def test_cone_factorization_matches_curve(rng):
    for _ in range(10):
        spec = random_rectifying_spec(rng)
        for s in branch_grid(spec, n=5, h_lo=0.2, h_hi=2.0):
            t, u = wc.cone_coords(spec, float(s))
            err = np.linalg.norm(wc.cone_point(spec, t, u) - wc.curve_point(spec, float(s)))
            assert err < 1e-9


def test_cone_helpers_on_a_grid_match_per_point_calls(rng):
    spec = random_rectifying_spec(rng)
    grid = branch_grid(spec, n=7, h_lo=0.2, h_hi=2.0)
    t, u = wc.cone_coords(spec, grid)
    assert t.shape == u.shape == grid.shape
    pts = wc.cone_point(spec, t, u)
    assert pts.shape == (grid.size, 3)
    for i, s in enumerate(grid):
        ti, ui = wc.cone_coords(spec, s)
        assert np.ndim(ti) == np.ndim(ui) == 0 and (ti, ui) == (t[i], u[i])
        assert np.array_equal(wc.cone_point(spec, ti, ui), pts[i])
    # t and u broadcast: one angle at several radii
    assert np.allclose(wc.cone_point(spec, t[3], u), u[:, None] * pts[3] / u[3], atol=1e-15)
    with pytest.raises(ValueError, match="u must be positive"):
        wc.cone_point(spec, t, np.where(np.arange(grid.size) == 4, -1.0, u))


def test_geodesic_residual_small_on_curve():
    assert wc.geodesic_residual(REF, 0.3) < 1e-6
    for s in (0.7, 1.4):
        assert wc.geodesic_residual(REF, s) < 1e-6


def test_geodesic_residual_grid_matches_points():
    grid = np.linspace(0.2, 1.4, 37)
    batch = wc.geodesic_residual(REF, grid)
    assert batch.shape == grid.shape
    assert np.array_equal(batch, [wc.geodesic_residual(REF, float(s)) for s in grid])
    assert isinstance(wc.geodesic_residual(REF, 0.3), float)


def test_geodesic_residual_flags_cone_circle():
    # control: a u = const circle on the same cone is not a geodesic
    spec = REF
    t0 = 0.45
    w = wc.sphere_point(spec, t0)
    wp = wc.derivative(lambda q: wc.sphere_point(spec, q), t0, 1)
    normal = np.cross(wp, w)
    normal /= np.linalg.norm(normal)
    circle = lambda q: 2.0 * wc.sphere_point(spec, q)
    frame = wc.frenet_at(circle, t0)
    assert np.linalg.norm(np.cross(normal, frame.n)) > 0.05


def test_geodesic_normal_scale_free():
    # the surface normal direction ignores radial rescaling of the patch
    spec = REF
    t0, u0 = 0.6, 1.7
    w = wc.sphere_point(spec, t0)
    wp = wc.derivative(lambda q: wc.sphere_point(spec, q), t0, 1)
    n1 = np.cross(u0 * wp, w)
    n2 = np.cross(3.0 * u0 * wp, 1.0 * w)   # u-scaled patch
    n1 /= np.linalg.norm(n1)
    n2 /= np.linalg.norm(n2)
    assert np.linalg.norm(n1 - n2) <= 1e-10


def test_extended_point_seam_and_continuity():
    apex = np.array([0.0, 0.0, 1.0 / 0.65])
    assert np.array_equal(wc.extended_point(REF, 0.0), apex)
    for h in (1e-8, -1e-8):
        assert np.linalg.norm(wc.extended_point(REF, h) - apex) < 1e-6
    # monotone approach over decades
    gaps = [np.linalg.norm(wc.extended_point(REF, 10.0 ** -k) - apex)
            for k in range(2, 9)]
    assert np.all(np.diff(gaps) < 0)


def test_closed_forms_hold_where_h_squared_underflows():
    # within ~1e-162 of the seam h*h is 0: the azimuth takes ln|h| itself
    for h in (1e-200, -1e-300):
        p = wc.extended_point(REF, np.array([h / REF.a]))[0]
        q = wc.extended_sphere_point(REF, np.array([h]))[0]
        assert np.all(np.abs([p[:2], q[:2]]) <= 2.0 * abs(h))
        assert p[2] == pytest.approx(1.0 / REF.a, rel=1e-15) and q[2] == pytest.approx(1.0)
    p = wc.curve_point(REF, 1e-250)
    assert np.all(np.abs(p[:2]) <= 1e-249) and p[2] == pytest.approx(1.0 / REF.a, rel=1e-15)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_extended_point_refuses_an_s_that_is_not_finite(bad):
    # as curve_point and extended_sphere_point do; a nan gave [nan, nan, nan]
    for s in (bad, [0.0, bad, 1.0]):
        with pytest.raises(DomainError, match=rf"^s={bad!r} is not finite$"):
            wc.extended_point(REF, s)


def test_extended_point_vectorized_matches_branches():
    grid = np.linspace(-1.0, 1.0, 21)   # includes the seam at 0
    pts = wc.extended_point(REF, grid)
    assert pts.shape == (21, 3)
    i = np.argmin(np.abs(grid))
    assert np.allclose(pts[i], [0, 0, 1 / 0.65])
    assert np.allclose(pts[-1], wc.curve_point(REF, grid[-1]), atol=0)
    assert np.allclose(pts[0], wc.curve_point(REF_MINUS, grid[0]), atol=0)


def test_extended_restrictions_are_whirl_rectifying():
    # each restriction passes the whirl fit and the ratio-line criterion
    for branch in (1, -1):
        spec = wc.RectifyingSpec(a=0.65, b=0.0, lam=-1.0, branch=branch)
        grid = branch_grid(spec, n=33)
        pos = lambda s: wc.curve_point(spec, s)
        vel = lambda s: wc.curve_velocity(spec, s)
        frames = wc.frenet_at(pos, grid, deriv=vel)
        fit = wc.fit_lambda_axis(frames)
        assert fit.is_whirl
        assert abs(fit.lam) == pytest.approx(1.0, abs=1e-5)
        report = wc.verify_whirl(pos, grid, lam=fit.lam, deriv=vel)
        assert report.max_deviation < 1e-6
        chen = wc.chen_ratio_fit(frames)
        assert chen.is_rectifying


def test_extended_sphere_point_seam_and_interval():
    assert np.array_equal(wc.extended_sphere_point(REF, 0.0), [0.0, 0.0, 1.0])
    grid = np.linspace(-np.pi / 4, np.pi / 4, 15)
    pts = wc.extended_sphere_point(REF, grid)
    assert np.max(np.abs(np.linalg.norm(pts, axis=1) - 1.0)) < 1e-10
    with pytest.raises(DomainError):
        wc.extended_sphere_point(REF, np.pi / 2)
    gaps = [np.linalg.norm(wc.extended_sphere_point(REF, 10.0 ** -k) - [0, 0, 1])
            for k in range(2, 9)]
    assert np.all(np.diff(gaps) < 0)
    assert gaps[-1] < 1e-6


def _magnitude(lo, hi):
    """A float of either sign whose magnitude is log-uniform over [10**lo, 10**hi]."""
    return st.builds(lambda sign, e: sign * 10.0 ** e, st.sampled_from([-1.0, 1.0]),
                     st.floats(lo, hi))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(a=_magnitude(-12, 300), b=st.one_of(st.just(0.0), _magnitude(-20, 300)),
       lam=_magnitude(-12, 154), d=st.floats(-3.0, 3.0), lo=st.floats(-5.0, 5.0),
       width=_magnitude(-6, 1).map(abs), n=st.integers(1, 600))
def test_the_extensions_refuse_a_grid_exactly_when_they_refuse_its_ends(a, b, lam, d, lo,
                                                                       width, n):
    # a refusal depends on the grid's ends alone: |a*s + b| and |tan(d + t)|
    # are largest at an end, and the sphere curve's domain is one open interval
    spec = wc.RectifyingSpec(a=a, b=b, lam=lam, d_shift=d)
    grid = np.linspace(lo, lo + width, n)
    for extension in (wc.extended_point, wc.extended_sphere_point):
        refused = []
        for points in (grid[[0, -1]], grid):
            try:
                extension(spec, points)
                refused.append(False)
            except DomainError:
                refused.append(True)
        assert refused[0] == refused[1]


def test_radial_projection_factorization(rng):
    # u(s) * sphere_extension(t(s)) = curve_extension(s) on both branches
    for _ in range(10):
        spec = random_rectifying_spec(rng)
        s = float(branch_grid(spec, n=1, h_lo=0.05, h_hi=2.5)[0])
        t, u = wc.cone_coords(spec, s)
        lhs = u * wc.extended_sphere_point(spec, t)
        rhs = wc.extended_point(spec, s)
        assert np.linalg.norm(lhs - rhs) < 1e-9


def _kabsch(p, q):
    """Align the points ``p`` with ``q``: the determinant of the orthogonal
    map that best takes centred p to centred q, and the largest distance
    left by the best proper rotation (Kabsch)."""
    p, q = p - p.mean(axis=0), q - q.mean(axis=0)
    u, _, vt = np.linalg.svd(p.T @ q)
    det = float(np.sign(np.linalg.det(u @ vt)))
    rotation = u @ np.diag([1.0, 1.0, det]) @ vt
    return det, float(np.max(np.linalg.norm(p @ rotation - q, axis=1)))


def test_closed_form_congruent_to_synthesized(rng):
    # curvature from the linear-ratio family reproduces the closed form up to a
    # rotation and a shift; a mirror image, tau_sign flipped, has the same
    # pairwise distances but no proper rotation onto the closed form
    for spec in [REF_MINUS] + [random_rectifying_spec(rng) for _ in range(24)]:
        grid = branch_grid(spec, 65)
        h0 = spec.a * grid[0] + spec.b
        kappa = wc.kappa_linear_ratio(spec.lam, spec.a, spec.b, (grid[0], grid[-1]))
        for tau_sign, det in ((np.sign(h0), 1.0), (-np.sign(h0), -1.0)):
            wspec = wc.WhirlSpec(kappa=kappa, lam=spec.lam, s0=grid[0], tau_sign=int(tau_sign),
                                 bound=wc.bound_from_ratio(h0, spec.lam))
            synth = wc.synthesize(wspec, grid[0], grid[-1], 65)
            turn, miss = _kabsch(synth.points, wc.curve_point(spec, synth.s))
            assert turn == det
            assert miss <= 1e-13 if det > 0 else miss > 1e-3


@pytest.mark.parametrize("field, value", [
    ("a", np.nan), ("b", np.nan), ("lam", np.inf), ("d_shift", np.nan)])
def test_rectifying_spec_rejects_non_finite_numbers(field, value):
    # a NaN a used to surface only later, as a branch mismatch
    args = {"a": 1.0, "b": 0.0, "lam": 1.0, field: value}
    with pytest.raises(ValueError, match=f"{field} must be finite, got {value}"):
        wc.RectifyingSpec(**args)


def test_rectifying_spec_validation():
    with pytest.raises(ValueError):
        wc.RectifyingSpec(a=0.0, b=0.0, lam=1.0)
    with pytest.raises(ValueError):
        wc.RectifyingSpec(a=1.0, b=0.0, lam=0.0)
    with pytest.raises(ValueError):
        wc.RectifyingSpec(a=1.0, b=0.0, lam=1.0, branch=0)
    with pytest.raises(ValueError, match="u must be positive"):
        wc.cone_point(wc.RectifyingSpec(a=1.0, b=0.0, lam=1.0), 0.4, 0.0)


def test_geodesic_residual_refuses_a_cone_point_at_the_apex():
    # u = sqrt(1 + h^2)/|a| >= 1/|a|, below 1e-12 only for |a| > 1e12
    with pytest.raises(DomainError, match=r"^degenerate surface normal: u -> 0$"):
        wc.geodesic_residual(wc.RectifyingSpec(a=1e13, b=0.5, lam=-1.0), 0.0)


def test_chen_fit_needs_three_frames():
    frames = wc.frenet_at(lambda s: wc.curve_point(REF, s), np.array([0.5, 0.6]))
    with pytest.raises(wc.FrameError, match="^need at least 3 frames for a line fit$"):
        wc.chen_ratio_fit(frames)
