"""Acceptance suite.

One test per criterion; each prints a single PASS/FAIL summary line (visible
with ``pytest tests/test_acceptance.py -v -s``) and then asserts.  All
tolerances are pinned here, not configurable.
"""

import time

import numpy as np
import pytest

import whirlcurves as wc
from whirlcurves import traceio
from whirlcurves.cli import FIGURE1_LAMBDAS, main as cli_main
from reference import integrate
from conftest import (branch_grid, random_rectifying_spec, random_whirl_model,
                      stencil_window, unit_speed_helix)

SEED = 715225


def _report(num, label, ok, detail):
    print(f"criterion {num} [{'PASS' if ok else 'FAIL'}] {label}: {detail}")
    assert ok, f"criterion {num} failed - {label}: {detail}"


@pytest.fixture(scope="module")
def models():
    """50 random synthesizable whirl models (fixed seed), with traces."""
    rng = np.random.default_rng(SEED)
    out = []
    for _ in range(50):
        spec, lo, hi, family = random_whirl_model(rng)
        tr = wc.synthesize(spec, lo, hi, 257)
        curve = wc.WhirlCurve(spec, origin=lo, window=stencil_window(spec, lo, hi))
        out.append((spec, lo, hi, family, tr, curve))
    return out


def test_criterion_1_figure1_reproduction(tmp_path):
    t0 = time.time()
    code = cli_main(["figure1", "--out", str(tmp_path)])
    elapsed = time.time() - t0
    files = sorted(p.name for p in tmp_path.iterdir())
    worst_h = worst_s = 0.0
    for lam in FIGURE1_LAMBDAS:
        om = traceio.read_csv(tmp_path / f"omega_lambda{lam:g}.csv")
        up = traceio.read_csv(tmp_path / f"upsilon_lambda{lam:g}.csv")
        assert len(om) == 513 and len(up) == 513
        worst_h = max(worst_h, float(np.max(np.abs(
            wc.hyperboloid_residual(om.points, lam, 0.65)))))
        worst_s = max(worst_s, float(np.max(np.abs(
            np.linalg.norm(up.points, axis=1) - 1.0))))
    ok = (code == 0 and len(files) == 12 and worst_h < 1e-8
          and worst_s < 1e-8 and elapsed < 5.0)
    _report(1, "figure-1 reproduction",
            ok, f"12 traces, hyperboloid {worst_h:.2e}, sphere {worst_s:.2e}, "
                f"{elapsed:.2f}s")


def test_criterion_2_synthesis_fidelity(models):
    worst_kap = worst_tau = worst_usr = 0.0
    for spec, lo, hi, family, tr, curve in models:
        for idx in (32, 96, 128, 160, 224):
            s = float(tr.s[idx])
            kap_ref = float(spec.kappa(s))
            tau_ref = float(curve.torsion(s))
            # position-only difference stencils
            f = wc.frenet_at(curve.position, s)
            worst_kap = max(worst_kap, abs(f.kappa - kap_ref) / kap_ref)
            worst_tau = max(worst_tau, abs(f.tau - tau_ref) / abs(tau_ref))
            # analytic-tangent path must agree as well
            fi = wc.frenet_at(curve.position, s, deriv=curve.tangent)
            worst_kap = max(worst_kap, abs(fi.kappa - kap_ref) / kap_ref)
            worst_tau = max(worst_tau, abs(fi.tau - tau_ref) / abs(tau_ref))
        worst_usr = max(worst_usr, wc.unit_speed_residual(curve.position,
                                                          tr.s[1:-1:16]))
    ok = worst_kap < 1e-5 and worst_tau < 1e-4 and worst_usr < 1e-6
    _report(2, "synthesis fidelity (50 specs)",
            ok, f"kappa rel {worst_kap:.2e} (<1e-5), tau rel {worst_tau:.2e} "
                f"(<1e-4), unit-speed {worst_usr:.2e} (<1e-6)")


def test_criterion_3_intrinsic_equation(models):
    worst = 0.0
    for spec, lo, hi, family, tr, curve in models:
        nodes = tr.s[1:-1]
        kv = np.asarray(spec.kappa(nodes), dtype=float)
        tv = np.asarray(curve.torsion(nodes), dtype=float)
        resid = wc.intrinsic_residual(kv, tv, curve.ratio_rate(nodes), spec.lam)
        worst = max(worst, float(np.max(np.abs(resid))))
    # control: a circular helix violates the equation by at least
    # |tau * lam * (1 + lam^2)| everywhere
    helix = unit_speed_helix(1.0, 1.0)
    grid = np.linspace(0.0, 2.0, 9)
    frames = [wc.frenet_at(helix, float(s)) for s in grid]
    kap = np.array([f.kappa for f in frames])
    tau = np.array([f.tau for f in frames])
    lam = 0.7
    resid = wc.intrinsic_residual_grid(grid, kap, tau, lam)
    floor = np.abs(tau * lam * (1.0 + lam * lam))
    control_ok = bool(np.all(np.abs(resid) >= floor - 1e-6) and np.all(floor > 0))
    ok = worst < 1e-6 and control_ok
    _report(3, "intrinsic-equation residual",
            ok, f"max interior residual {worst:.2e} (<1e-6), helix control "
                f"floor {float(np.min(floor)):.3f} > 0")


def test_criterion_4_axis_constancy(models):
    worst_dev = worst_prop = worst_dlam = 0.0
    for spec, lo, hi, family, tr, curve in models:
        sub = tr.s[32:-32:28]
        report = wc.verify_whirl(curve.position, sub, lam=spec.lam,
                                 deriv=curve.tangent)
        worst_dev = max(worst_dev, report.max_deviation)
        worst_prop = max(worst_prop, report.max_residual)
        fit = wc.fit_lambda_axis(wc.frenet_at(curve.position, tr.s[16:-16:24]))
        worst_dlam = max(worst_dlam, abs(fit.lam - spec.lam))
    ok = worst_dev < 1e-6 and worst_prop < 1e-6 and worst_dlam < 1e-3
    _report(4, "axis constancy + lambda round-trip",
            ok, f"axis dev {worst_dev:.2e} (<1e-6), proportionality "
                f"{worst_prop:.2e} (<1e-6), |dlambda| {worst_dlam:.2e} (<1e-3)")


def test_criterion_5_rectifying_criterion():
    rng = np.random.default_rng(SEED + 5)
    specs = [wc.RectifyingSpec(a=0.65, b=0.0, lam=lam) for lam in FIGURE1_LAMBDAS]
    specs += [random_rectifying_spec(rng) for _ in range(14)]
    worst = 0.0
    for base in specs:
        spec = wc.RectifyingSpec(a=base.a, b=base.b, lam=base.lam,
                                 branch=base.consistent_branch())
        grid = branch_grid(spec, n=65)
        fit = wc.chen_ratio_fit(wc.frenet_at(lambda s: wc.curve_point(spec, s), grid,
                                             deriv=lambda s: wc.curve_velocity(spec, s)))
        worst = max(worst, abs(fit.c1 - spec.a), abs(fit.c2 - spec.b))
        assert fit.is_rectifying
    ok = worst < 1e-4
    _report(5, "ratio-line recovery on 20 closed-form curves",
            ok, f"max |c - true| {worst:.2e} (<1e-4)")


def test_criterion_6_cone_geometry():
    rng = np.random.default_rng(SEED + 6)
    worst_geo = worst_fac = worst_speed = 0.0
    for _ in range(20):
        spec = random_rectifying_spec(rng)
        grid = branch_grid(spec, n=100, h_lo=0.15, h_hi=2.2)
        worst_geo = max(worst_geo, float(np.max(wc.geodesic_residual(spec, grid))))
        for s in grid[::11]:
            t, u = wc.cone_coords(spec, float(s))
            err = np.linalg.norm(u * wc.extended_sphere_point(spec, t)
                                 - wc.extended_point(spec, float(s)))
            worst_fac = max(worst_fac, float(err))
            dw = wc.derivative(lambda q: wc.extended_sphere_point(spec, q),
                               t, 1)
            worst_speed = max(worst_speed, abs(float(np.linalg.norm(dw)) - 1.0))
    ok = worst_geo < 1e-6 and worst_fac < 1e-9 and worst_speed < 1e-5
    _report(6, "cone geometry (geodesic, factorization, sphere speed)",
            ok, f"geodesic {worst_geo:.2e} (<1e-6), factorization "
                f"{worst_fac:.2e} (<1e-9), |dw/dt|-1 {worst_speed:.2e} (<1e-5)")


def test_criterion_7_seam_continuity():
    rng = np.random.default_rng(SEED + 7)
    specs = [wc.RectifyingSpec(a=0.65, b=0.0, lam=-1.0)]
    specs += [random_rectifying_spec(rng) for _ in range(4)]
    steps = [10.0 ** -k for k in range(2, 9)]
    ok = True
    worst_last = 0.0
    for spec in specs:
        seam_s = -spec.b / spec.a
        apex = np.array([0.0, 0.0, 1.0 / spec.a])
        pole = np.array([0.0, 0.0, 1.0 if spec.a > 0 else -1.0])
        for sgn in (1.0, -1.0):
            gaps = [np.linalg.norm(wc.extended_point(spec, seam_s + sgn * h) - apex)
                    for h in steps]
            sphere_gaps = [np.linalg.norm(
                wc.extended_sphere_point(spec, -spec.d_shift + sgn * h) - pole)
                for h in steps]
            ok = ok and bool(np.all(np.diff(gaps) < 0)) and gaps[-1] < 1e-6
            ok = ok and bool(np.all(np.diff(sphere_gaps) < 0)) and sphere_gaps[-1] < 1e-6
            worst_last = max(worst_last, gaps[-1], sphere_gaps[-1])
    _report(7, "seam continuity of both extensions",
            ok, f"monotone decay over h=1e-2..1e-8, final gap {worst_last:.2e} (<1e-6)")


def test_criterion_8_azimuth_closed_form():
    rng = np.random.default_rng(SEED + 8)
    worst = 0.0
    for _ in range(20):
        spec, lo, hi, family = random_whirl_model(rng)
        curve = wc.WhirlCurve(spec)
        got = curve.azimuth(hi) - curve.azimuth(lo)
        ref = integrate(curve.azimuth_rate, lo, hi,
                        abs_tol=1e-11).value
        worst = max(worst, abs(got - ref))
    ok = worst < 1e-8
    _report(8, "closed azimuth vs quadrature of its rate (20 specs)",
            ok, f"max deviation {worst:.2e} (<1e-8)")


def test_criterion_9_oracle_identities():
    rng = np.random.default_rng(SEED + 9)
    worst_exp = 0.0
    for _ in range(10):
        spec, lo, hi, family = random_whirl_model(rng, family="linear-ratio")
        grid = np.linspace(lo, hi, 9)
        curve = wc.WhirlCurve(spec)
        q = np.exp(np.asarray(curve.exponent(grid)))
        lam = spec.lam
        h = (np.asarray(curve.torsion(grid))
             / np.asarray(spec.kappa(grid)) * spec.tau_sign)
        rhs = (np.abs(h) / np.sqrt(1 + lam * lam)) / np.sqrt(1 + h * h / (1 + lam * lam))
        worst_exp = max(worst_exp, float(np.max(np.abs(q - rhs))))
    worst_c = 0.0
    for _ in range(50):
        bound = float(rng.uniform(-2.0, 3.0))
        lam = float(rng.uniform(-20.0, 20.0))
        c = wc.axis_bound(bound, lam)
        worst_c = max(worst_c, abs((1.0 + lam * lam) * np.exp(-2.0 * c)
                                   / np.exp(-2.0 * bound) - 1.0))
    ok = worst_exp < 1e-9 and worst_c < 1e-14
    _report(9, "exponent identity + companion-constant identity",
            ok, f"exponent {worst_exp:.2e} (<1e-9), constant rel {worst_c:.2e} (<1e-14)")
