"""Command-line interface tests: files, formats, exit codes, determinism."""

import json

import numpy as np
import pytest

import whirlcurves as wc
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
