"""Tests of the benchmark itself: generators, oracles, argv, statistics, tracing.

Run with ``PYTHONPATH=src python -m pytest perfbench``.
"""

import contextlib
import io
import os
import sys

import numpy as np
import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import whirlcurves as wc  # noqa: E402
from whirlcurves import cli  # noqa: E402

import bench_oracles as orc  # noqa: E402
import bench_report as rep  # noqa: E402
import run as bench_run  # noqa: E402
from bench_trace import Tracer, sites  # noqa: E402
from bench_workloads import (PaperSweep, branch_range, rect_model,  # noqa: E402
                             synth_op, whirl_model)

FAMILIES = ("const", "poly", "linear-ratio")


def library_spec(spec):
    """The library's WhirlSpec for a benchmark spec, built as the CLI does."""
    lo, hi, s0 = spec["lo"], spec["hi"], spec["s0"]
    if spec["family"] == "const":
        kappa = wc.kappa_constant(spec["k0"])
    elif spec["family"] == "poly":
        kappa = wc.kappa_polynomial(spec["coeffs"], (min(lo, s0) - 1.0, max(hi, s0) + 1.0))
    else:
        kappa = wc.kappa_linear_ratio(spec["lam"], spec["a"], spec["b"],
                                      (min(lo, s0), max(hi, s0)))
    return wc.WhirlSpec(kappa=kappa, lam=spec["lam"],
                        bound=float(wc.bound_from_ratio(spec["h0"], spec["lam"])),
                        s0=s0, z_sign=spec["z_sign"], tau_sign=spec["tau_sign"])


@pytest.mark.parametrize("family", FAMILIES)
def test_generator_stays_inside_exponent_window(family):
    for seed in range(25):
        spec = whirl_model(np.random.default_rng(seed), family)
        assert spec["lo"] < spec["hi"]
        grid = np.linspace(spec["lo"], spec["hi"], 401)
        margin = 0.2 * min(1.0, orc.bound_from_h0(spec["h0"], spec["lam"]))
        assert np.max(orc.exponent(spec, grid)) <= -margin + 1e-12
        # the CLI's own kappa constructors accept the spec (positivity, pole)
        library_spec(spec)


def test_oracles_match_library_closed_forms():
    rng = np.random.default_rng(7)
    for family in FAMILIES:
        spec = whirl_model(rng, family)
        lib = library_spec(spec)
        grid = np.linspace(spec["lo"], spec["hi"], 33)
        curve = wc.WhirlCurve(lib, origin=spec["lo"])
        assert np.allclose(orc.exponent(spec, grid), curve.exponent(grid), atol=1e-12)
        tr = wc.synthesize(lib, spec["lo"], spec["hi"], 33)
        assert np.max(np.abs(tr.points[:, 2] - orc.synth_z(spec, grid))) < 1e-12
    # the quadrature path agrees with the constant-kappa closed form
    spec = whirl_model(rng, "const")
    as_poly = dict(spec, family="poly", coeffs=[spec["k0"]])
    grid = np.linspace(spec["lo"], spec["hi"], 65)
    assert np.allclose(orc.synth_z(as_poly, grid), orc.synth_z(spec, grid), atol=1e-14)

    a, b, lam = rect_model(rng)
    for branch in (1, -1):
        lib = wc.RectifyingSpec(a=a, b=b, lam=lam, branch=branch)
        s = np.linspace(*branch_range(a, b, branch), 17)
        p = orc.rect_point(a, b, lam, s)
        assert np.allclose(p, wc.curve_point(lib, s), rtol=0, atol=1e-13)
        assert np.allclose(orc.hyperboloid_residual(p, lam, a),
                           wc.hyperboloid_residual(p, lam, a), atol=1e-13)
        assert orc.consistent_branch(a, lam) == lib.consistent_branch()
    assert orc.expected_fit(0.65, -1.0, 1) == (1.0, -0.65)
    assert orc.expected_fit(0.65, -1.0, -1) == (-1.0, 0.65)


def test_argv_formatting():
    assert orc.fmt(np.float64(0.1)) == "0.1"
    assert orc.fmt(np.float64(-3.5)) == "-3.5"
    parser = cli._build_parser()
    for op in PaperSweep(3, "inputs").round(0, "out"):
        assert not any("np." in a for a in op.argv)
        parser.parse_args(op.argv)


def test_tail_percentile_and_sample_count():
    assert rep.tail(list(range(100))) == (89, 90.0, 10, 100)
    assert rep.tail(list(range(21))) == (10, 100.0 * 11 / 21, 10, 21)
    # too few samples for 10 beyond: the upper median, never a lower rank
    assert rep.tail(list(range(20))) == (10, 55.0, 9, 20)
    assert rep.tail(list(range(11))) == (5, 100.0 * 6 / 11, 5, 11)
    assert rep.tail(list(range(12))) == (6, 100.0 * 7 / 12, 5, 12)
    assert rep.tail([5.0, 1.0, 3.0]) == (3.0, 100.0 * 2 / 3, 1, 3)
    assert rep.tail([2.0]) == (2.0, 100.0, 0, 1)


def test_round_time_is_scaled_by_host_speed(tmp_path, monkeypatch):
    assert 0.0 < rep.host_speed() < float("inf")
    monkeypatch.setattr(bench_run, "host_speed", lambda: 2.0)
    tally = bench_run.Tally()
    ops = PaperSweep(2, str(tmp_path / "inputs")).round(0, str(tmp_path / "out"))[:2]
    bench_run.run_round(cli, orc.check, ops, tally)
    assert tally.failed == 0
    assert tally.round_s[0] == pytest.approx(2.0 * tally.wall_round_s[0])


def run_op(op):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(op.argv)
    return code, buf.getvalue()


def test_check_flags_wrong_outputs(tmp_path):
    spec = whirl_model(np.random.default_rng(5), "const")
    op, path = synth_op(spec, 65, "csv", str(tmp_path))
    code, out = run_op(op)
    assert orc.check(op, code, out).ok
    assert not orc.check(op, 1, out).ok
    rows = orc.read_rows(path)
    rows[10, 3] += 1e-6
    np.savetxt(path, rows, delimiter=",", header="s,x,y,z", comments="")
    assert "synth_z_err" in orc.check(op, code, out).problems[0]


def test_traced_round_matches_untraced_and_restores(tmp_path):
    originals = {(o, a): vars(o)[a] for o, a, *_ in sites()}
    workload = PaperSweep(4, str(tmp_path / "inputs"))
    plain = bench_run.Tally()
    untraced = bench_run.run_round(cli, orc.check, workload.round(0, str(tmp_path / "a")), plain)
    counts = []
    for rep_dir in ("b", "c"):
        tracer = Tracer()
        tracer.install()
        try:
            traced = bench_run.run_round(cli, orc.check,
                                         workload.round(0, str(tmp_path / rep_dir)),
                                         bench_run.Tally(), tracer)
        finally:
            assert tracer.uninstall() == []
        counts.append(tracer.counts())
        assert [t.replace(str(tmp_path / "a"), str(tmp_path / rep_dir)) for t in untraced] == traced
        assert bench_run.same_tree(tmp_path / "a", tmp_path / rep_dir)
    assert counts[0] == counts[1]
    assert counts[0]["frenet.trace_frames.frames"] == 2 * (513 - 6)
    assert all(vars(o)[a] is f for (o, a), f in originals.items())
