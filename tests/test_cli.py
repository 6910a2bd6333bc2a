"""Command-line interface tests: files, formats, exit codes, determinism."""

import json
import time

import numpy as np
import pytest

import whirlcurves as wc
from whirlcurves import cli
from whirlcurves.cli import main
from whirlcurves import traceio
from conftest import unit_speed_helix


def run(args):
    return main([str(a) for a in args])


def test_synth_writes_trace_and_passes(tmp_path, capsys):
    code = run(["synth", "--lambda", -1, "--h0", 1, "--range", "0:1",
                "--samples", 101, "--out", tmp_path])
    out = capsys.readouterr().out
    assert code == 0
    tr = traceio.read_csv(tmp_path / "synth.csv")
    assert len(tr) == 101
    assert "verdict: PASS" in out
    for label in ("unit-speed", "intrinsic", "axis"):
        line = next(ln for ln in out.splitlines() if label in ln)
        assert float(line.split()[-3]) < 1e-6


def test_synth_builds_one_windowed_position_table(tmp_path, monkeypatch):
    # the written trace and the unit-speed, intrinsic and axis checks share
    # one curve: no second, windowless curve for the intrinsic check
    windows = []
    init = wc.WhirlCurve.__init__

    def counted(self, *args, **kwargs):
        windows.append(kwargs.get("window"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(wc.WhirlCurve, "__init__", counted)
    assert run(["synth", "--lambda", -1, "--h0", 1, "--range", "0:1",
                "--samples", 101, "--out", tmp_path]) == 0
    assert windows == [(0.0, 1.0)]


def test_synth_domain_violation_exit_2(tmp_path, capsys):
    code = run(["synth", "--lambda", 1, "--h0", 1, "--range", "0:9",
                "--out", tmp_path])
    err = capsys.readouterr().err
    assert code == 2
    assert "domain bound" in err


def test_synth_json_meta_echo(tmp_path):
    code = run(["synth", "--lambda", -1, "--h0", 1, "--range", "0:1",
                "--samples", 21, "--format", "json", "--out", tmp_path])
    assert code == 0
    doc = json.loads((tmp_path / "synth.json").read_text())
    assert doc["meta"]["command"] == "synth"
    assert doc["meta"]["lam"] == -1.0
    assert doc["meta"]["samples"] == 21
    assert doc["meta"]["range"] == [0.0, 1.0]
    assert len(doc["samples"]) == 21


def test_synth_linear_ratio_kappa(tmp_path):
    code = run(["synth", "--kappa", "linear-ratio", "--lambda", -1, "--a", 1, "--b", 0,
                "--s0", -1, "--h0", -1, "--range=-1.4:-0.4",
                "--sign-tau", -1, "--samples", 33, "--out", tmp_path])
    assert code == 0


def test_rect_and_extend(tmp_path, capsys):
    assert run(["rect", "--a", 0.65, "--lambda", -1, "--range", "0.2:1.2",
                "--out", tmp_path]) == 0
    assert (tmp_path / "rect.csv").exists()
    assert run(["extend", "--kind", "curve", "--a", 0.65, "--lambda", -1,
                "--range=-0.7853981633974483:0.7853981633974483",
                "--out", tmp_path]) == 0
    assert (tmp_path / "omega_lambda-1.csv").exists()
    assert run(["extend", "--kind", "sphere", "--a", 0.65, "--lambda", -1,
                "--range=-0.7853981633974483:0.7853981633974483",
                "--out", tmp_path]) == 0
    tr = traceio.read_csv(tmp_path / "upsilon_lambda-1.csv")
    assert tr.param == "t"


def test_rect_range_straddling_seam_exit_2(tmp_path, capsys):
    # the closed form is branch-only; a range across a*s+b = 0 is a domain
    # error and points the user at the extension
    code = run(["rect", "--a", 0.65, "--lambda", -1, "--range=-1:1",
                "--out", tmp_path])
    err = capsys.readouterr().err
    assert code == 2
    assert "branch" in err or "omega extension" in err


def test_extend_sphere_outside_interval_exit_2(tmp_path, capsys):
    code = run(["extend", "--kind", "sphere", "--a", 0.65, "--lambda", -1,
                "--range=-3:3", "--out", tmp_path])
    assert code == 2


def test_figure1_files_and_residuals(tmp_path, capsys):
    code = run(["figure1", "--out", tmp_path])
    out = capsys.readouterr().out
    assert code == 0
    for lam in ("-20", "-4", "-1.8", "-1", "-0.5", "-0.26"):
        assert (tmp_path / f"omega_lambda{lam}.csv").exists()
        assert (tmp_path / f"upsilon_lambda{lam}.csv").exists()
    assert len(list(tmp_path.iterdir())) == 12
    assert "verdict: PASS" in out
    # the lambda = -1 curve trace contains the seam point at s = 0
    tr = traceio.read_csv(tmp_path / "omega_lambda-1.csv")
    i = np.argmin(np.abs(tr.s))
    assert tr.s[i] == 0.0
    assert np.allclose(tr.points[i], [0.0, 0.0, 1.538462], atol=1e-6)
    # sphere traces stay on the unit sphere
    up = traceio.read_csv(tmp_path / "upsilon_lambda-0.5.csv")
    assert np.max(np.abs(np.linalg.norm(up.points, axis=1) - 1.0)) < 1e-8


def test_figure1_deterministic(tmp_path):
    d1, d2 = tmp_path / "r1", tmp_path / "r2"
    assert run(["figure1", "--out", d1]) == 0
    assert run(["figure1", "--out", d2]) == 0
    for p1 in sorted(d1.iterdir()):
        assert p1.read_bytes() == (d2 / p1.name).read_bytes()


def test_verify_round_trip(tmp_path, capsys):
    assert run(["synth", "--lambda", -0.5, "--h0", 1, "--range", "0:1.5",
                "--samples", 201, "--out", tmp_path]) == 0
    capsys.readouterr()
    code = run(["verify", "--in", tmp_path / "synth.csv"])
    out = capsys.readouterr().out
    assert code == 0
    assert "whirl verdict:        POSITIVE" in out
    lam_line = next(ln for ln in out.splitlines() if "fitted lambda" in ln)
    assert abs(float(lam_line.split()[-1]) - (-0.5)) < 1e-3


def test_verify_helix_negative(tmp_path, capsys):
    tr = wc.trace(unit_speed_helix(1.0, 1.0), 0.0, 12.0, 241)
    traceio.write_csv(tr, tmp_path / "helix.csv")
    code = run(["verify", "--in", tmp_path / "helix.csv"])
    out = capsys.readouterr().out
    assert code == 1
    assert "whirl verdict:        NEGATIVE" in out


def test_verify_insufficient_samples(tmp_path, capsys):
    tr = wc.CurveTrace([0.0, 1.0], [[0, 0, 0], [1, 0, 0]])
    traceio.write_csv(tr, tmp_path / "two.csv")
    code = run(["verify", "--in", tmp_path / "two.csv"])
    err = capsys.readouterr().err
    assert code == 3
    assert "insufficient samples" in err


def test_verify_missing_file_exit_3(tmp_path, capsys):
    assert run(["verify", "--in", tmp_path / "nope.csv"]) == 3


def test_verify_malformed_file_exit_3(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("s,x,y,z\n0,0,zero,0\n")
    assert run(["verify", "--in", bad]) == 3


def test_bad_arguments_exit_3(capsys):
    assert run(["synth", "--lambda", -1, "--h0", 1, "--range", "junk"]) == 3
    assert run(["frobnicate"]) == 3


def test_tol_override_can_fail_verdict(tmp_path, capsys):
    code = run(["synth", "--lambda", -1, "--h0", 1, "--range", "0:1",
                "--samples", 51, "--out", tmp_path, "--tol", "unit_speed=1e-15"])
    assert code == 1
    assert "verdict: FAIL" in capsys.readouterr().out


def test_consecutive_runs_do_not_share_tolerances(tmp_path, capsys):
    # one parser serves every call of main; a --tol must not outlive its run
    argv = ["rect", "--a", 0.65, "--lambda", -1, "--range", "0.2:1.2",
            "--samples", 33, "--out", tmp_path]
    assert run(argv + ["--tol", "unit_speed=1e-30"]) == 1
    assert "(tol 1e-30)" in capsys.readouterr().out
    assert run(argv) == 0
    out = capsys.readouterr().out
    assert "unit-speed residual" in out and "(tol 1e-06)" in out and "1e-30" not in out
    assert run(argv + ["--tol", "hyperboloid=1e-30"]) == 1
    assert "(tol 1e-06)" in capsys.readouterr().out


def test_infinite_range_exit_3(tmp_path, capsys):
    code = run(["synth", "--lambda", -1, "--h0", 1, "--range", "0:inf",
                "--out", tmp_path])
    err = capsys.readouterr().err
    assert code == 3
    assert "--range" in err and "finite" in err


@pytest.mark.parametrize("args, minimum", [
    (["synth", "--lambda", -1, "--h0", 1, "--range", "0:1"], 2),
    (["rect", "--a", 0.65, "--lambda", -1, "--range", "0.2:1.2"], 3),
    (["extend", "--kind", "curve", "--a", 0.65, "--lambda", -1, "--range=-0.7:0.7"], 1),
    (["figure1"], 1),
])
def test_samples_below_minimum_exit_3(tmp_path, capsys, args, minimum):
    code = run(args + ["--samples", minimum - 1, "--out", tmp_path])
    err = capsys.readouterr().err
    assert code == 3
    assert f"--samples: must be at least {minimum}" in err
    assert list(tmp_path.iterdir()) == []
    assert run(args + ["--samples", minimum, "--out", tmp_path]) == 0


@pytest.mark.parametrize("lam, h0", [(1, "1e300"), ("1e300", 1)])
def test_synth_non_finite_bound_fails_fast(tmp_path, capsys, lam, h0):
    # bound_from_ratio overflows to inf: the exponent would be -inf and every
    # tangent sample NaN, each NaN panel bisected down to MAX_SPLITS
    start = time.perf_counter()
    code = run(["synth", "--lambda", lam, "--h0", h0, "--range", "0:1", "--out", tmp_path])
    assert time.perf_counter() - start < 10.0
    assert code == 3
    assert capsys.readouterr().err == "error: exponent offset bound must be finite, got inf\n"
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("args, flag", [
    (["synth", "--lambda", 0, "--h0", 1, "--range", "0:1"], "--lambda"),
    (["rect", "--a", 0.65, "--lambda", 0, "--range", "0.2:1.2"], "--lambda"),
    (["extend", "--a", 0.65, "--lambda", 0, "--range=-0.7:0.7"], "--lambda"),
    (["rect", "--a", 0, "--lambda", -1, "--range", "0.2:1.2"], "--a"),
    (["extend", "--a", 0, "--lambda", -1, "--range=-0.7:0.7"], "--a"),
    (["figure1", "--a", 0], "--a"),
    (["figure1", "--lambdas=0,-1"], "--lambdas"),
    (["figure1", "--lambdas=-1,-4,0"], "--lambdas"),
])
def test_zero_lambda_or_a_exit_3(tmp_path, capsys, args, flag):
    code = run(args + ["--out", tmp_path])
    err = capsys.readouterr().err
    assert code == 3
    assert f"argument {flag}: must be finite and at least 1e-12 in magnitude" in err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("hi", ["1e300", "1e7"])
def test_synth_far_range_exit_2(tmp_path, capsys, hi):
    # rejected before any panel table grows, not after allocating it
    code = run(["synth", "--lambda", -1, "--h0", 1, "--range", f"0:{hi}",
                "--samples", 5, "--out", tmp_path])
    err = capsys.readouterr().err
    assert code == 2
    assert f"s={float(hi)!r}" in err


RECT = ["rect", "--a", 0.65, "--lambda", -1, "--range", "0.2:1.2"]
SYNTH = ["synth", "--lambda", -1, "--range", "0:1", "--samples", 5]


@pytest.mark.parametrize("args", [
    RECT + ["--tol", "foo"],
    RECT + ["--tol", "bogus=1"],
    RECT + ["--tol", "axis=abc"],
    RECT + ["--tol", "axis=nan"],
    RECT + ["--tol", "axis=0"],
    RECT + ["--tol", "axis=-1"],
    ["verify", "--in", "missing.csv", "--tol", "fit_rms=0"],
])
def test_bad_tol_exit_3(tmp_path, capsys, args):
    code = run(args + ([] if args[0] == "verify" else ["--out", tmp_path]))
    err = capsys.readouterr().err
    assert code == 3
    assert "argument --tol:" in err and "Traceback" not in err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("args, flag", [
    (SYNTH + ["--B", "nan"], "--B"),
    (SYNTH + ["--h0", "inf"], "--h0"),
    (SYNTH + ["--h0", 0], "--h0"),
    (SYNTH + ["--h0", 1, "--s0", "nan"], "--s0"),
    (SYNTH + ["--h0", 1, "--a", "nan"], "--a"),
    (SYNTH + ["--h0", 1, "--b=-inf"], "--b"),
    (RECT + ["--b", "nan"], "--b"),
    (RECT + ["--d", "inf"], "--d"),
    (["extend", "--a", 0.65, "--lambda", -1, "--range=-0.7:0.7", "--b", "nan"], "--b"),
    (["extend", "--a", 0.65, "--lambda", -1, "--range=-0.7:0.7", "--d", "nan"], "--d"),
    (["figure1", "--b", "nan"], "--b"),
    (["figure1", "--d", "nan"], "--d"),
])
def test_non_finite_flag_exit_3(tmp_path, capsys, args, flag):
    code = run(args + ["--out", tmp_path])
    err = capsys.readouterr().err
    assert code == 3
    assert f"argument {flag}: must be finite" in err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("kappa", [
    "poly:", "poly:1,", "poly:1,nan", "const:", "const:0", "const:-1",
    "const:nan", "const:inf", "const:1,2", "linear", "cubic:1",
])
def test_bad_kappa_exit_3(tmp_path, capsys, kappa):
    code = run(SYNTH + ["--h0", 1, "--kappa", kappa, "--out", tmp_path])
    err = capsys.readouterr().err
    assert code == 3
    assert "argument --kappa:" in err and "could not convert" not in err
    assert list(tmp_path.iterdir()) == []


# sizes the parser rejects before anything is allocated
@pytest.mark.parametrize("args, message", [
    (RECT + ["--samples", 1_000_001], "--samples: must be at most 1000000, got '1000001'"),
    (RECT + ["--samples", 10 ** 13], "--samples: must be at most 1000000"),
    (SYNTH + ["--h0", 1, "--samples", 10 ** 13], "--samples: must be at most 1000000"),
    (["figure1", "--samples", 10 ** 13], "--samples: must be at most 1000000"),
    (["figure1", "--lambdas=" + ",".join(["-1"] * 65)], "--lambdas: at most 64 values, got 65"),
    (SYNTH + ["--h0", 1, "--kappa", "poly:" + ",".join(["1"] * 65)],
     "--kappa: at most 64 poly: coefficients, got 65"),
])
def test_oversized_input_exit_3(tmp_path, capsys, args, message):
    code = run(args + ["--out", tmp_path])
    err = capsys.readouterr().err
    assert code == 3
    assert f"argument {message}" in err and "Traceback" not in err
    assert list(tmp_path.iterdir()) == []


def test_caps_admit_their_limits(tmp_path):
    assert cli._at_least(2)(str(cli.MAX_SAMPLES)) == 1_000_000   # parsed, not run
    assert run(["figure1", "--lambdas=" + ",".join(["-1"] * 64), "--samples", 2,
                "--out", tmp_path]) == 0
    assert run(SYNTH + ["--h0", 1, "--kappa", "poly:1" + ",0" * 63, "--out", tmp_path]) == 0


@pytest.mark.parametrize("start", [[], ["--B", 1, "--h0", 1]])
def test_synth_needs_exactly_one_of_b_and_h0(tmp_path, capsys, start):
    code = run(SYNTH + start + ["--out", tmp_path])
    err = capsys.readouterr().err
    assert code == 3
    assert "--B" in err and "--h0" in err
    assert list(tmp_path.iterdir()) == []


def test_synth_zero_torsion_fails_verification(tmp_path, capsys):
    # far out on [0, 1e4] the torsion underflows to zero: the trace is
    # written, and the axis check reports why it could not run
    code = run(["synth", "--lambda", -1, "--h0", 1, "--range", "0:1e4",
                "--samples", 5, "--out", tmp_path])
    out = capsys.readouterr().out
    assert code == 1
    assert (tmp_path / "synth.csv").exists()
    assert "axis max deviation    nan  (tol 1e-06)" in out
    assert out.endswith("axis check failed: axis undefined: zero torsion\nverdict: FAIL\n")


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_figure1_and_extend_write_the_same_traces(tmp_path, fmt):
    common = ["--a", 0.8, "--b", 0.1, "--d", 0.05, "--range=-0.6:0.7",
              "--samples", 41, "--format", fmt]
    assert run(["figure1", "--lambdas=-1.5"] + common + ["--out", tmp_path / "f"]) == 0
    for kind in ("curve", "sphere"):
        assert run(["extend", "--kind", kind, "--lambda", -1.5] + common
                   + ["--out", tmp_path / "e"]) == 0
    names = sorted(p.name for p in (tmp_path / "f").iterdir())
    assert names == sorted(p.name for p in (tmp_path / "e").iterdir())
    assert len(names) == 2
    for name in names:
        f, e = (tmp_path / "f" / name).read_text(), (tmp_path / "e" / name).read_text()
        if fmt == "json":   # the meta names the command that wrote the file
            f, e = json.loads(f), json.loads(e)
            assert f["meta"].pop("command") == "figure1"
            assert e["meta"].pop("command") == "extend"
        assert f == e


def test_synth_far_from_zero_passes(tmp_path, capsys):
    # the same curve as on --s0 0 --range 0:1; difference steps that grew
    # with |s| probed past the exponent bound here and exited 2
    code = run(["synth", "--lambda", -1, "--h0", 1, "--s0", 1000, "--range", "1000:1001",
                "--samples", 33, "--out", tmp_path])
    assert code == 0
    assert "verdict: PASS" in capsys.readouterr().out


def test_synth_range_too_narrow_for_the_stencils_exit_3(tmp_path, capsys):
    code = run(["synth", "--lambda", -1, "--h0", 1, "--range", "0:0.002",
                "--out", tmp_path])
    err = capsys.readouterr().err
    assert code == 3
    assert "argument --range: range needs finite LO < HI, more than 0.00296 apart" in err
    assert list(tmp_path.iterdir()) == []


def _verify_line(out, label):
    return next(ln for ln in out.splitlines() if ln.startswith(label))


@pytest.mark.parametrize("branch", [1, -1])
def test_verify_dense_rectifying_trace_positive(tmp_path, capsys, branch):
    # 20000 samples 1e-4 apart: third differences on a 7-node stencil made
    # the chen fit rms ~1e-2 (NEGATIVE); the wide least-squares window fits
    a, b, lam = 0.8, 0.5, -1.3
    spec = wc.RectifyingSpec(a=a, b=b, lam=lam, branch=branch)
    h = branch * np.array([0.3, 2.2])
    grid = np.linspace(*sorted((h - b) / a), 20000)
    traceio.write_csv(wc.CurveTrace(grid, wc.curve_point(spec, grid)), tmp_path / "rect.csv")
    assert run(["verify", "--in", tmp_path / "rect.csv"]) == 0
    out = capsys.readouterr().out
    assert _verify_line(out, "rectifying verdict:").split()[2] == "POSITIVE"
    c1 = float(_verify_line(out, "chen fit").split()[2].partition("=")[2])
    expected = a if branch == spec.consistent_branch() else -a
    assert abs(c1 - expected) < 1e-3


def test_verify_dense_constant_kappa_trace_negative(tmp_path, capsys):
    assert run(["synth", "--lambda", -0.5, "--h0", 1, "--range", "0:1.5",
                "--samples", 20000, "--out", tmp_path]) == 0
    capsys.readouterr()
    assert run(["verify", "--in", tmp_path / "synth.csv"]) == 0
    out = capsys.readouterr().out
    assert "whirl verdict:        POSITIVE" in out
    assert _verify_line(out, "rectifying verdict:").split()[2] == "NEGATIVE"
