"""Command-line interface tests: files, formats, exit codes, determinism."""

import argparse
import json
import re
import time

import numpy as np
import pytest

import whirlcurves as wc
from whirlcurves import cli, rectifying, whirl
from whirlcurves.cli import main
from whirlcurves import traceio
from conftest import TOLERANCES_READ, unit_speed_helix


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


@pytest.mark.parametrize("args, says", [
    (["--range", "0:3"],
     "t=1.875 lies outside the open interval (-1.5707963267948966, 1.5707963267948966)"),
    (["--range=-0.5:1.5", "--d", 0.5],
     "t=1.25 lies outside the open interval (-2.0707963267948966, 1.0707963267948966)"),
])
def test_extend_outside_the_sphere_interval_writes_nothing(tmp_path, capsys, args, says):
    # the sphere curve lives on (-d - pi/2, -d + pi/2): a range past it names
    # the first grid t outside and writes no trace
    code = run(["extend", "--kind", "sphere", "--a", 0.65, "--lambda", -1, "--samples", 9]
               + args + ["--out", tmp_path])
    err = capsys.readouterr().err
    assert code == 2
    assert err == f"domain error: {says}\n"
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("args, code, says", [
    # the ratio-rate check needs the closed forms only: no position panel is
    # built (it built 339,460 for 5 s, then wrote synth.csv)
    (["synth", "--kappa=const:1.7e290", "--lambda=-2", "--B=-3.3e-308",
      "--range=3.0:9990.0", "--samples=9"], 2,
     "domain error: tau/kappa changes too fast to difference at s=3.001480191959483"),
    (["rect", "--a=1e-12", "--b=0.5", "--lambda=1", "--range=1e12:1.1e12", "--samples", 9], 2,
     "domain error: s=1000000000000.0 is too large to difference"),
    # 1 + lambda^2 overflows: the spec is refused before any file or table
    (["extend", "--kind", "curve", "--a", 0.65, "--lambda=1e300", "--range=0.2:1.2"], 3,
     "error: 1 + lam^2 overflows at lam = 1e+300"),
    # --samples finer than the float spacing of --range: a grid that repeats an s
    (["synth", "--lambda", -1, "--h0", 1, "--s0", 1e8, "--range=1e8:100000000.004",
      "--samples", 1_000_000], 3, "error: --samples 1000000 is finer than the float spacing of "
     "--range 100000000.0:100000000.004: s=100000000.0 repeats"),
    (["rect", "--a", 1, "--lambda", 1, "--range=1:1.0000000000000002", "--samples", 3], 3,
     "error: --samples 3 is finer than the float spacing of --range 1.0:1.0000000000000002: "
     "s=1.0 repeats"),
    (["extend", "--kind", "sphere", "--a", 1, "--lambda", 1, "--range=0.5:0.5000000000001",
      "--samples", 10_000], 3, "error: --samples 10000 is finer than the float spacing of "
     "--range 0.5:0.5000000000001: s=0.5 repeats"),
])
def test_a_refused_command_writes_no_file(tmp_path, capsys, monkeypatch, args, code, says):
    built, series = [], wc.SmoothCumulative._series

    def counted(self, lattice):
        built.append(lattice.size - 1)
        return series(self, lattice)

    monkeypatch.setattr(wc.SmoothCumulative, "_series", counted)
    assert run(args + ["--out", tmp_path]) == code
    out, err = capsys.readouterr()
    assert (out, err.count("\n")) == ("", 1) and err.startswith(says)
    assert list(tmp_path.iterdir()) == [] and built == []


@pytest.mark.parametrize("lo, hi, n, refused", [
    (1.0, 1.0000000000000004, 3, False), (1.0, 1.0000000000000004, 4, True),
    (-1.0000000000000004, -1.0, 3, False), (-1.0000000000000004, -1.0, 4, True),
    (1e8, 100000000.004, 1000, False), (1e8, 100000000.004, 1_000_000, True),
])
def test_trace_and_the_command_grid_refuse_the_same_grids(lo, hi, n, refused):
    # frenet.trace and cli._grid each refuse a repeated s, in their own terms
    args = argparse.Namespace(srange=(lo, hi), samples=n)

    def line(s):
        return np.stack([s, 0 * s, 0 * s], -1)

    if not refused:
        assert np.array_equal(wc.trace(line, lo, hi, n).s, cli._grid(args))
        return
    with pytest.raises(ValueError, match=f"^{n} samples are finer than the float spacing of "
                       r"\[") as library:
        wc.trace(line, lo, hi, n)
    with pytest.raises(ValueError, match=f"^--samples {n} is finer than the float spacing of "
                       "--range ") as command:
        cli._grid(args)
    assert str(library.value).rsplit(": ", 1)[1] == str(command.value).rsplit(": ", 1)[1]


def test_synth_has_no_form_flag(tmp_path, capsys):
    code = run(["synth", "--lambda", -1, "--h0", 1, "--range", "0:1", "--form", "spherical",
                "--out", tmp_path])
    assert code == 3
    assert "unrecognized arguments: --form spherical" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


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


def test_verify_finds_a_straight_trace_negative(tmp_path, capsys):
    # no Frenet frame where the curvature vanishes: a failed verification
    # (exit 1), not an I/O error, with the frame error as the reason
    s = np.linspace(0.0, 1.0, 50)
    traceio.write_csv(wc.CurveTrace(s, np.column_stack([s, 0 * s, 0 * s])),
                      tmp_path / "line.csv")
    code = run(["verify", "--in", tmp_path / "line.csv"])
    captured = capsys.readouterr()
    assert code == 1 and captured.err == ""
    why = f"(undefined frame: vanishing curvature at s={s[cli.FRAME_MARGIN]})"
    assert captured.out == (f"samples               50\n"
                            f"whirl verdict:        NEGATIVE  {why}\n"
                            f"rectifying verdict:   NEGATIVE  {why}\n")


def test_verify_insufficient_samples(tmp_path, capsys):
    tr = wc.CurveTrace([0.0, 1.0], [[0, 0, 0], [1, 0, 0]])
    traceio.write_csv(tr, tmp_path / "two.csv")
    code = run(["verify", "--in", tmp_path / "two.csv"])
    err = capsys.readouterr().err
    assert code == 3
    assert "insufficient samples" in err


@pytest.mark.parametrize("n", [7, 8, 9])
def test_verify_names_the_file_of_a_trace_too_short_to_fit(tmp_path, capsys, n):
    # 8 samples frame a trace, but the fit needs 4 frames, 3 samples in from each end
    assert run(["synth", "--kappa", "const:0.5", "--lambda", 1, "--h0", 1, "--range", "0:1",
                "--samples", n, "--out", tmp_path]) == 0
    capsys.readouterr()
    path = tmp_path / "synth.csv"
    assert run(["verify", "--in", path]) == 3
    assert capsys.readouterr().err == ("error: insufficient samples: need at least 10 "
                                       f"samples, got {n} in {path}\n")
    assert run(["synth", "--kappa", "const:0.5", "--lambda", 1, "--h0", 1, "--range", "0:1",
                "--samples", 10, "--out", tmp_path]) == 0
    assert run(["verify", "--in", path]) == 0


def test_verify_missing_file_exit_3(tmp_path, capsys):
    assert run(["verify", "--in", tmp_path / "nope.csv"]) == 3


def test_verify_malformed_file_exit_3(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("s,x,y,z\n0,0,zero,0\n")
    assert run(["verify", "--in", bad]) == 3


def test_bad_arguments_exit_3(capsys):
    assert run(["synth", "--lambda", -1, "--h0", 1, "--range", "junk"]) == 3
    assert run(["frobnicate"]) == 3


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


@pytest.mark.parametrize("lam, h0, code, err", [
    (1, "1e300", 2, "domain error: domain bound lam*int(kappa) < bound violated at s=0.0\n"),
    (-1, "1e160", 2, "domain error: domain bound lam*int(kappa) < bound violated at s=0.0\n"),
    ("1e300", 1, 3, "error: 1 + lam^2 overflows at lam = 1e+300\n"),
])
def test_synth_non_finite_bound_fails_fast(tmp_path, capsys, lam, h0, code, err):
    # a huge h0 gives a bound below 1e-300, which the exponent ceiling refuses
    # at once (exit 2); a huge lam, whose 1 + lam^2 overflows the bound to inf,
    # is refused by the spec (exit 3), where an exponent of -inf would make
    # every tangent sample NaN, each NaN panel bisected down to MAX_SPLITS
    start = time.perf_counter()
    assert run(["synth", "--lambda", lam, "--h0", h0, "--range", "0:1", "--out", tmp_path]) == code
    assert time.perf_counter() - start < 10.0
    assert capsys.readouterr().err == err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("args, flag", [
    (["synth", "--lambda", 0, "--h0", 1, "--range", "0:1"], "--lambda"),
    (["rect", "--a", 0.65, "--lambda", 0, "--range", "0.2:1.2"], "--lambda"),
    (["extend", "--a", 0.65, "--lambda", 0, "--range=-0.7:0.7"], "--lambda"),
    (["rect", "--a", 0, "--lambda", -1, "--range", "0.2:1.2"], "--a"),
    (["extend", "--a", 0, "--lambda", -1, "--range=-0.7:0.7"], "--a"),
])
def test_zero_lambda_or_a_exit_3(tmp_path, capsys, args, flag):
    code = run(args + ["--out", tmp_path])
    err = capsys.readouterr().err
    assert code == 3
    assert f"argument {flag}: must be finite and at least 1e-12 in magnitude" in err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("lam", ["1e200", "-3.3e301"])
@pytest.mark.parametrize("args", [
    ["synth", "--h0=1", "--range=0:1"],
    ["synth", "--kappa=linear-ratio", "--a=1", "--b=1", "--h0=1", "--range=0:1"],
    ["rect", "--a=0.65", "--range=0.2:1.2"],
    ["extend", "--kind=curve", "--a=0.65", "--range=-0.7:0.7"],
    ["extend", "--kind=sphere", "--a=0.65", "--range=-0.7:0.7"],
], ids=["synth-const", "synth-linear-ratio", "rect", "extend-curve", "extend-sphere"])
def test_an_overflowing_lambda_is_refused_alike_by_every_command(tmp_path, capsys, args, lam):
    assert run(args + [f"--lambda={lam}", "--out", tmp_path]) == 3
    out, err = capsys.readouterr()
    assert (out, err) == ("", f"error: 1 + lam^2 overflows at lam = {float(lam)}\n")
    assert list(tmp_path.iterdir()) == []


def test_synth_refuses_a_linear_ratio_slope_below_the_floor(tmp_path, capsys):
    # the floor of RectifyingSpec and --a of rect: it wrote synth.csv and then
    # failed on vanishing curvature
    assert run(["synth", "--kappa=linear-ratio", "--a=1e-13", "--b=1", "--lambda=1", "--h0=1",
                "--range=0:1", "--out", tmp_path]) == 3
    assert capsys.readouterr() == ("", "error: a must be nonzero\n")
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


# a command line each subcommand runs
RUNS = {"synth": SYNTH + ["--h0", 1], "rect": RECT + ["--samples", 33],
        "extend": ["extend", "--a", 0.65, "--lambda", -1, "--range=-0.7:0.7", "--samples", 9],
        "verify": ["verify", "--in"], "figure1": ["figure1", "--samples", 9]}


def _command_line(command, tmp_path):
    """A command line for ``command`` that writes into, or reads from, ``tmp_path``."""
    if command == "verify":
        return RUNS[command] + [tmp_path / "rect.csv"]
    return RUNS[command] + ["--out", tmp_path]


@pytest.mark.parametrize("command", RUNS)
def test_no_subcommand_takes_a_tolerance(tmp_path, capsys, command):
    # every tolerance is a constant of the module that decides the verdict
    assert run([command, "-h"]) == 0
    assert "--tol" not in capsys.readouterr().out
    assert run(_command_line(command, tmp_path) + ["--tol", "unit_speed=1"]) == 3
    assert capsys.readouterr() == (
        "", "whirlcurves: error: unrecognized arguments: --tol unit_speed=1\n")
    assert list(tmp_path.iterdir()) == []


# the fits' tolerances, by the names TOLERANCES_READ gives them
FIT_TOLERANCES = {"fit_rms": (whirl, "FIT_RMS_TOL"), "chen_rms": (rectifying, "CHEN_RMS_TOL")}


@pytest.mark.parametrize("command, name, extra", [
    (c, n, []) for c, reads in TOLERANCES_READ.items() if c != "extend" for n in reads] + [
    ("extend", "hyperboloid", ["--kind", "curve"]), ("extend", "sphere", ["--kind", "sphere"])])
def test_every_tolerance_a_subcommand_takes_changes_its_output(tmp_path, capsys, monkeypatch,
                                                               command, name, extra):
    if command == "verify":   # a rectifying trace, whose chen fit passes by default
        assert run(RECT + ["--out", tmp_path]) == 0
    argv = _command_line(command, tmp_path) + extra
    assert run(argv) == 0
    default = capsys.readouterr().out
    if command != "verify":
        for path in tmp_path.iterdir():
            path.unlink()
    if name in FIT_TOLERANCES:
        monkeypatch.setattr(*FIT_TOLERANCES[name], 1e-300)
    else:
        monkeypatch.setitem(cli.TOLERANCES, name, 1e-300)
    code = run(argv)
    out = capsys.readouterr().out
    assert out != default
    if command != "verify":   # a finite residual fails, and the trace is still written
        assert code == 1 and out.endswith("verdict: FAIL\n")
        assert list(tmp_path.iterdir()) != []


def test_every_tolerance_is_one_a_subcommand_reads():
    # with the test above, no entry of TOLERANCES goes unread by every verdict
    read = {name for names in TOLERANCES_READ.values() for name in names}
    assert read == set(cli.TOLERANCES) | set(FIT_TOLERANCES)


def test_consecutive_runs_do_not_share_tolerances(tmp_path, capsys):
    # one parser and one TOLERANCES table serve every call of main; a run
    # leaves both as it found them, so a second round prints what the first did
    before = dict(cli.TOLERANCES), whirl.FIT_RMS_TOL, rectifying.CHEN_RMS_TOL
    rounds = []
    for _ in range(2):
        codes = [run(_command_line(command, tmp_path)) for command in RUNS]
        rounds.append((codes, capsys.readouterr()))
    assert rounds[0] == rounds[1] and rounds[0][0] == [0] * len(RUNS)
    assert (dict(cli.TOLERANCES), whirl.FIT_RMS_TOL, rectifying.CHEN_RMS_TOL) == before


# the check rows each command prints, in order, with the constant each is compared against
CHECK_ROWS = {
    "synth": [("unit-speed residual", cli.TOLERANCES["unit_speed"]),
              ("intrinsic residual", cli.TOLERANCES["intrinsic"]),
              ("axis max deviation", cli.TOLERANCES["axis"]),
              ("proportionality max", cli.TOLERANCES["axis"])],
    "rect": [("unit-speed residual", cli.TOLERANCES["unit_speed"]),
             ("hyperboloid residual", cli.TOLERANCES["hyperboloid"]),
             ("chen fit rms", rectifying.CHEN_RMS_TOL)],
    "extend": [("hyperboloid residual", cli.TOLERANCES["hyperboloid"])],
    "extend-sphere": [("sphere residual", cli.TOLERANCES["sphere"])],
    "figure1": [("worst hyperboloid residual", cli.TOLERANCES["hyperboloid"]),
                ("worst sphere residual", cli.TOLERANCES["sphere"])],
}


@pytest.mark.parametrize("name", CHECK_ROWS)
def test_every_residual_line_names_its_tolerance(tmp_path, capsys, name):
    # figure1 printed both residuals on one line without their tolerances,
    # and rect printed the chen fit's rms on its note line without one
    command, _, kind = name.partition("-")
    argv = _command_line(command, tmp_path) + (["--kind", kind] if kind else [])
    assert run(argv) == 0
    out = capsys.readouterr().out
    rows = [line for line in out.splitlines() if not line.startswith("wrote ")   # a path
            and re.search("residual|rms|deviation|proportionality", line)]
    assert len(rows) == len(CHECK_ROWS[name]), out
    for line, (label, tol) in zip(rows, CHECK_ROWS[name]):
        pattern = rf"{re.escape(label)} +\d\.\d{{3}}e[+-]\d\d  \(tol {re.escape(f'{tol:g}')}\)"
        assert re.fullmatch(pattern, line), line


def test_rect_says_why_a_tight_chen_fit_fails(tmp_path, capsys):
    # the fit is tight, but over this range the ratio changes by |c1| * span
    # ~ 6.5e-5, below SLOPE_FLOOR: every number printed looked fine
    code = run(["rect", "--a", 0.65, "--b", 0.1, "--lambda", 1.3, "--range", "0.2:0.2001",
                "--samples", 9, "--out", tmp_path])
    out = capsys.readouterr().out
    assert code == 1 and out.endswith("\nverdict: FAIL\n")
    assert re.search(r"^chen fit rms +\d\.\d{3}e-\d\d  \(tol 0\.001\)$", out, re.M)
    assert ("\nchen fit              c1=0.650000 c2=0.100000 change=6.500e-05  (floor 0.001) "
            "(not rectifying: ratio is constant)\n") in out


@pytest.mark.parametrize("args, flag", [
    (SYNTH + ["--B", "nan"], "--B"),
    (SYNTH + ["--h0", "inf"], "--h0"),
    (SYNTH + ["--h0", 0], "--h0"),
    (SYNTH + ["--h0", 1, "--s0", "nan"], "--s0"),
    (SYNTH + ["--h0", 1, "--a", "nan"], "--a"),
    (SYNTH + ["--h0", 1, "--b=-inf"], "--b"),
    (RECT + ["--b", "nan"], "--b"),
    (["extend", "--a", 0.65, "--lambda", -1, "--range=-0.7:0.7", "--b", "nan"], "--b"),
    (["extend", "--a", 0.65, "--lambda", -1, "--range=-0.7:0.7", "--d", "nan"], "--d"),
])
def test_non_finite_flag_exit_3(tmp_path, capsys, args, flag):
    code = run(args + ["--out", tmp_path])
    err = capsys.readouterr().err
    assert code == 3
    assert f"argument {flag}: must be finite" in err
    assert list(tmp_path.iterdir()) == []


def test_rect_takes_no_angular_offset(tmp_path, capsys):
    # --d moves only the sphere curve, which rect does not draw
    assert run(RECT + ["--d", 0.3, "--out", tmp_path]) == 3
    err = capsys.readouterr().err
    assert err == "whirlcurves: error: unrecognized arguments: --d 0.3\n"
    assert list(tmp_path.iterdir()) == []
    assert run(["rect", "--help"]) == 0
    assert "--d" not in capsys.readouterr().out


@pytest.mark.parametrize("coeffs, srange", [("0.1,1", "0:1"), ("1,-1.5", "0:0.5")])
def test_a_poly_kappa_positive_on_the_range_passes(tmp_path, capsys, coeffs, srange):
    # kappa is checked where the curve lives, the hull of --range and --s0;
    # both are negative within 1 of the range, which was refused
    code = run(["synth", "--kappa", f"poly:{coeffs}", "--lambda", -1, "--h0", 1,
                "--range", srange, "--out", tmp_path])
    assert code == 0
    assert capsys.readouterr().out.endswith("verdict: PASS\n")


@pytest.mark.parametrize("coeffs, srange, where", [
    ("1,-3", "0:0.5", "[0.0, 0.5]: kappa(0.5) = -0.5"),
    # a dip below zero between two of the 1001 evenly spaced probes
    ("2.4e-7,-0.001,1", "0:1", "[0.0, 1.0]: kappa(0.0005) = -1e-08"),
], ids=["at-the-end", "between-probes"])
def test_a_poly_kappa_negative_inside_the_range_exits_3(tmp_path, capsys, coeffs, srange, where):
    code = run(["synth", "--kappa", f"poly:{coeffs}", "--lambda", -1, "--h0", 1,
                "--range", srange, "--out", tmp_path])
    assert code == 3
    assert capsys.readouterr().err == (
        f"error: polynomial curvature is not positive on the requested domain {where}\n")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("samples", [3, 513])
def test_rect_prints_a_zero_intercept_without_a_sign(tmp_path, capsys, samples):
    # at 3 samples the fitted c2 is a tiny negative, which printed -0.000000
    assert run(["rect", "--a", 0.65, "--lambda", -1, "--range", "0.2:1.2",
                "--samples", samples, "--out", tmp_path]) == 0
    assert " c2=0.000000 " in capsys.readouterr().out


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
    # every figure1 trace is one that extend writes, so a sweep at other
    # parameters is one extend per lambda and kind
    common = ["--samples", 41, "--format", fmt]
    assert run(["figure1"] + common + ["--out", tmp_path / "f"]) == 0
    for lam in cli.FIGURE1_LAMBDAS:
        for kind in ("curve", "sphere"):
            assert run(["extend", "--kind", kind, "--a", 0.65, "--lambda", lam,
                        "--range=-0.7853981633974483:0.7853981633974483"] + common
                       + ["--out", tmp_path / "e"]) == 0
    names = sorted(p.name for p in (tmp_path / "f").iterdir())
    assert names == sorted(p.name for p in (tmp_path / "e").iterdir())
    assert len(names) == 2 * len(cli.FIGURE1_LAMBDAS)
    for name in names:
        f, e = (tmp_path / "f" / name).read_text(), (tmp_path / "e" / name).read_text()
        if fmt == "json":   # the meta names the command that wrote the file
            f, e = json.loads(f), json.loads(e)
            assert f["meta"].pop("command") == "figure1"
            assert e["meta"].pop("command") == "extend"
        assert f == e


@pytest.mark.parametrize("flag", [["--a", 1], ["--b", 0], ["--d", 0], ["--lambdas=-1"],
                                  ["--range=-0.5:0.5"]])
def test_figure1_takes_no_curve_parameters(tmp_path, capsys, flag):
    # figure1 draws the paper's fixed sweep; extend draws any other trace
    assert run(["figure1"] + flag + ["--out", tmp_path]) == 3
    says = " ".join(map(str, flag))
    assert capsys.readouterr() == ("", f"whirlcurves: error: unrecognized arguments: {says}\n")
    assert list(tmp_path.iterdir()) == []


# one command line per subcommand that sets every flag it takes (synth's --B
# excludes --h0); --kappa linear-ratio makes synth read --a and --b
EVERY_FLAG = {
    "synth": ["--kappa", "linear-ratio", "--a", 0.5, "--b", 1, "--lambda", 1, "--h0", 1,
              "--s0", 0, "--sign-z", -1, "--sign-tau", -1, "--range", "0:1"],
    "rect": ["--branch", "plus", "--a", 0.65, "--b", 0.1, "--lambda", -1, "--range", "0.2:1.2"],
    "extend": ["--kind", "sphere", "--a", 0.65, "--b", 0.1, "--lambda", -1, "--d", 0.2,
               "--range=-0.7:0.7"],
    "figure1": [],
}


@pytest.mark.parametrize("command", RUNS)
def test_every_flag_a_subcommand_takes_is_read(tmp_path, capsys, command):
    # a flag that nothing reads is an option without an effect
    if command == "verify":
        assert run(RECT + ["--out", tmp_path]) == 0
        argv = ["verify", "--in", tmp_path / "rect.csv"]
    else:
        argv = [command] + EVERY_FLAG[command] + ["--samples", 9, "--format", "json",
                                                  "--out", tmp_path]
    reads = set()

    class Recorded(argparse.Namespace):
        def __getattribute__(self, name):
            reads.add(name)
            return super().__getattribute__(name)

    parser = cli._build_parser()
    args = parser.parse_args([str(a) for a in argv], namespace=Recorded())
    reads.clear()   # argparse reads the namespace as it fills it
    assert args.func(args) == 0
    sub = next(a for a in parser._actions if a.dest == "command").choices[command]
    assert {a.dest for a in sub._actions} - {"help"} - reads == set()


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


@pytest.mark.parametrize("args, rule", [
    (["synth", "--lambda", -1, "--h0", 1], "range needs finite LO < HI, more than 0.00296 apart"),
    (["rect", "--a", 0.65, "--lambda", -1], "range needs finite LO < HI"),
    (["extend", "--a", 0.65, "--lambda", -1], "range needs finite LO < HI"),
])
def test_reversed_range_names_the_minimum_width_only_where_there_is_one(tmp_path, capsys,
                                                                         args, rule):
    code = run(args + ["--range", "1:0", "--out", tmp_path])
    err = capsys.readouterr().err
    assert code == 3
    assert err.endswith(f"error: argument --range: {rule}\n")
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


def test_verify_prints_an_axis_component_that_rounds_to_zero_unsigned(tmp_path, capsys):
    # rotating the trace by +-1e-9 rad about x flips the sign of the fitted
    # axis's y component, which prints as 0.: the line must not show -0.
    spec = wc.WhirlSpec(kappa=wc.kappa_constant(1.0), lam=-1.0,
                        bound=wc.bound_from_ratio(1.0, -1.0))
    tr = wc.synthesize(spec, 0.0, 1.0, 129)
    lines = []
    for angle in (1e-9, -1e-9):
        c, s = np.cos(angle), np.sin(angle)
        rot = np.array([[1.0, 0.0, 0.0], [0.0, c, -s], [0.0, s, c]])
        path = tmp_path / f"rotated{angle:+g}.csv"
        traceio.write_csv(wc.CurveTrace(tr.s, tr.points @ rot.T), path)
        assert run(["verify", "--in", path]) == 0
        lines.append(_verify_line(capsys.readouterr().out, "fitted axis"))
    assert lines[0] == lines[1]
    assert "-0." not in lines[0]


@pytest.mark.parametrize("lam, code, verdict", [
    (2e4, 1, "NEGATIVE  (not a whirl curve: fitted constant lies beyond the scan bound 10000)"),
    (-2e4, 1, "NEGATIVE  (not a whirl curve: fitted constant lies beyond the scan bound 10000)"),
    (5e3, 0, "POSITIVE"),
])
def test_verify_flags_a_lambda_beyond_the_scan_bound(tmp_path, capsys, lam, code, verdict):
    # a nearly straight trace fits any lam to rms ~1e-7: a lam past +-1e4 is
    # clamped to the scan's end, which is no fit of it, while 5e3 is resolved
    run(["synth", "--kappa", "const:2e-5", f"--lambda={lam:g}", "--h0", 1, "--range", "0:1",
         "--samples", 513, "--format", "csv", "--out", tmp_path])
    capsys.readouterr()
    assert run(["verify", "--in", tmp_path / "synth.csv"]) == code
    out = capsys.readouterr().out
    assert float(_verify_line(out, "fitted lambda").split()[-1]) == np.clip(lam, -1e4, 1e4)
    assert _verify_line(out, "whirl verdict:").split(None, 2)[2] == verdict


@pytest.mark.parametrize("args, code, says", [
    (["synth", "--kappa", "linear-ratio", "--a=1", "--b=0", "--lambda=1", "--h0=1",
      "--range=0:1", "--samples", 9], 3, "error: domain crosses the a*s + b = 0 pole"),
    (["synth", "--kappa", "linear-ratio", "--a=1", "--b=1", "--lambda=1", "--h0=1",
      "--range=-1:0", "--samples", 9], 3, "error: domain crosses the a*s + b = 0 pole"),
    (["synth", "--kappa", "const:1e300", "--lambda=-1", "--h0=1", "--range=0:2"], 2,
     "domain error: tau/kappa changes too fast to difference at s="),
    (["rect", "--a=1e300", "--lambda=-1", "--range=0.2:1.2"], 2,
     "domain error: 1 + h^2 + lambda^2 overflows at tau/kappa = h = 2e+299"),
    # an overflowing lambda is refused by the spec (whirl.check_lam), in every command alike
    (["rect", "--a=0.65", "--lambda=1e300", "--range=0.2:1.2"], 3,
     "error: 1 + lam^2 overflows at lam = 1e+300"),
    (["extend", "--kind", "curve", "--a=1e300", "--lambda=-1", "--range=0.2:1.2"], 2,
     "domain error: 1 + h^2 + lambda^2 overflows at tau/kappa = h = 2e+299"),
    # tau/kappa ~ 1e-300: the axis formula's kappa/tau term overflows its norm;
    # ~1e-310, a subnormal torsion, overflows kappa/tau itself
    (["synth", "--kappa", "const:1", "--lambda=-1", "--h0=1e-300", "--range=0:2"], 1,
     "axis check failed: axis undefined: torsion too small against curvature"),
    (["synth", "--kappa", "const:1", "--lambda=-1", "--h0=1e-310", "--range=0:2"], 1,
     "axis check failed: axis undefined: torsion too small against curvature, kappa/tau = inf"),
    # far from 0 the float spacing exceeds twice the stencil step of numerics.derivative
    (["rect", "--a=1e-12", "--b=0.5", "--lambda=1", "--range=1e12:1.1e12", "--samples", 9], 2,
     "domain error: s=1000000000000.0 is too large to difference: the stencil step rounds"),
    (["synth", "--kappa", "poly:1,1e-3", "--lambda=-1", "--h0", 1,
      "--range=1e15:1.0000000001e15", "--samples", 9], 2,
     "domain error: s=1000000000000000.0 is too large to difference"),
    (["synth", "--kappa", "const:1e-12", "--lambda=-1", "--h0", 1, "--s0=1e12",
      "--range=1e12:1.00000001e12", "--samples", 9], 2,
     "domain error: s=1000000000000.0015 is too large to difference"),
    # the curvature families: a step of kappa that overflows on the domain
    (["synth", "--kappa", "linear-ratio", "--a=1e300", "--b=1", "--lambda=1", "--h0=1",
      "--range=0:1"], 3, "error: kappa overflows on the requested domain [0.0, 1.0]"),
    (["synth", "--kappa", "linear-ratio", "--a=1", "--b=1", "--lambda=1e300", "--h0=1",
      "--range=0:1"], 3, "error: 1 + lam^2 overflows at lam = 1e+300"),
    (["synth", "--kappa", "linear-ratio", "--a=1", "--b=1e300", "--lambda=1", "--h0=1",
      "--range=0:1"], 3, "error: kappa overflows on the requested domain [0.0, 1.0]"),
    (["synth", "--kappa", "poly:1e308,1e308", "--lambda=-1", "--h0=1", "--range=0:2"], 3,
     "error: kappa overflows on the requested domain [0.0, 2.0]"),
    (["synth", "--kappa", "poly:1,0,1e308", "--lambda=-1", "--h0=1", "--range=0:2"], 3,
     "error: kappa overflows on the requested domain [0.0, 2.0]"),
    # found by the fuzzed command line (test_cli_fuzz.py)
    (["synth", "--kappa", "poly:1e308", "--lambda=-1", "--h0=1", "--range=0:2"], 2,
     "domain error: the exponent E = lam*int(kappa) - bound, over lam, overflows at s=2.0"),
    (["synth", "--kappa", "const:0.5", "--lambda=1e-3", "--B=9.99e306", "--range=0:10"], 2,
     "domain error: the exponent E = lam*int(kappa) - bound, over lam, overflows at s=0.0"),
    (["synth", "--kappa", "const:1e300", "--lambda=-1e10", "--h0=1", "--range=0:0.004"], 2,
     "domain error: tau/kappa changes too fast to difference at s="),
    (["synth", "--lambda=-3.3e301", "--B=1", "--range=0:1"], 3,
     "error: 1 + lam^2 overflows at lam = -3.3e+301"),
    (["synth", "--kappa", "linear-ratio", "--a=1e300", "--lambda=-1", "--B=17",
      "--range=1:1e10"], 3, "error: domain crosses the a*s + b = 0 pole"),
    (["extend", "--kind", "curve", "--a=1e300", "--lambda=-1", "--range=1e10:1e11"], 2,
     "domain error: 1 + h^2 + lambda^2 overflows at tau/kappa = h = inf"),
])
def test_overflowing_inputs_exit_with_one_line_and_no_warning(tmp_path, capsys, args, code,
                                                               says):
    # a numpy RuntimeWarning is an error under the suite's warning filter
    assert run(args + ["--out", tmp_path]) == code
    out, err = capsys.readouterr()
    if code == 1:   # the trace is written; the axis lines read nan and say why
        assert err == ""
        assert "axis max deviation    nan  (tol 1e-06)" in out
        assert says in out
    else:
        assert err.startswith(says)
        assert err.count("\n") == 1


@pytest.mark.parametrize("flag", ["--a", "--range", "--samples"])
def test_a_flag_given_as_its_own_end_marker_exit_3(tmp_path, capsys, flag):
    # argparse drops the "--" of --a=-- and would hand the command an empty list
    assert run(RECT + [f"{flag}=--", "--out", tmp_path]) == 3
    assert capsys.readouterr().err == (f"whirlcurves rect: error: argument {flag}: "
                                       f"expected one argument\n")
    assert list(tmp_path.iterdir()) == []


def test_verify_of_a_trace_whose_derivatives_overflow_is_negative(tmp_path, capsys):
    assert run(RECT + ["--samples", 24, "--out", tmp_path]) == 0
    tr = traceio.read_csv(tmp_path / "rect.csv")
    tr.points[5, 1] = -1e308
    traceio.write_csv(tr, tmp_path / "huge.csv")
    capsys.readouterr()
    assert run(["verify", "--in", tmp_path / "huge.csv"]) == 1
    out = capsys.readouterr().out
    assert "whirl verdict:        NEGATIVE  (undefined frame: a derivative overflows at s=" in out


@pytest.mark.parametrize("scale", [1e-104, 1e-110])
def test_verify_of_a_trace_with_a_tiny_step_notes_a_torsion_that_is_not_finite(
        tmp_path, capsys, scale):
    # a homothety of a rect trace: h**3 underflows at 1e-110, which warned from
    # grid_derivatives, and the chen fit read nan but blamed a ratio "not linear";
    # the lambda fit, which reads only t and n, called it a whirl curve (exit 0)
    spec = wc.RectifyingSpec(a=0.65, b=0.1, lam=1.3)
    s = np.linspace(0.2, 2.2, 513)
    tr = wc.CurveTrace(s * scale, wc.curve_point(spec, s) * scale)
    traceio.write_csv(tr, tmp_path / "tiny.csv")
    assert run(["verify", "--in", tmp_path / "tiny.csv"]) == 1
    out, err = capsys.readouterr()
    assert err == ""
    assert _verify_line(out, "whirl verdict:") == (
        "whirl verdict:        NEGATIVE  (not a whirl curve: torsion is not finite on the grid)")
    assert _verify_line(out, "rectifying verdict:") == (
        "rectifying verdict:   NEGATIVE  (torsion is not finite)")


@pytest.mark.parametrize("digits, code", [(8, 0), (7, 3)])
def test_verify_takes_an_s_column_rounded_to_8_digits(tmp_path, capsys, digits, code):
    assert run(["synth", "--kappa", "const:1", "--lambda=-1", "--h0", 1, "--range", "0:2",
                "--samples", 513, "--out", tmp_path]) == 0
    tr = traceio.read_csv(tmp_path / "synth.csv")
    s = np.array([float(f"{v:.{digits}g}") for v in tr.s])
    traceio.write_csv(wc.CurveTrace(s, tr.points), tmp_path / "rounded.csv")
    capsys.readouterr()
    assert run(["verify", "--in", tmp_path / "rounded.csv"]) == code
    out, err = capsys.readouterr()
    if code == 0:
        assert "whirl verdict:        POSITIVE" in out
        assert float(_verify_line(out, "fitted lambda").split()[-1]) == -1.0
    else:   # 7 digits leave 5e-7 of max |s|, more than rounding to 8 does
        assert err == ("error: derivatives of samples need a uniform grid: "
                       "the spacing strays by 0.00026 of the step\n")
