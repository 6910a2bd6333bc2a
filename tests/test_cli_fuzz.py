"""Fuzzed command-line boundary: ``main`` is called in-process (no process is
spawned) on argv built from the documented flags, junk tokens and numbers near
1e+-300 and 1e12-1e15, and ``verify`` reads mutated trace files.  Whatever the
input, the exit code is 0-3, an exit of 2 or 3 prints exactly one stderr line
and writes no file into ``--out``, and no traceback or RuntimeWarning escapes."""

import contextlib
import io
import shutil
import warnings

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from whirlcurves.cli import _build_parser, main

JUNK = ("", "junk", "=", ":", "--", "-", "--tol", "--samp", "1:2:3", "nan:1", "\x00", "é")


def mostly(valid, invalid):
    """``valid`` four times in five, else ``invalid``, so that most command
    lines get past the parser and still every flag sees bad values."""
    return st.one_of(valid, valid, valid, valid, invalid)


mantissas = st.sampled_from(["1", "-1", "1.7", "-3.3", "9.99", "0.65"])
plain = st.one_of(
    st.sampled_from(["1", "-1", "0.5", "-0.5", "2", "-20", "0.65"]),
    st.builds("{}e{}".format, mantissas, st.integers(-3, 3) | st.integers(12, 15)))
# two in three plain, else zero, near 1e+-300 or not a finite number
numbers = st.one_of(
    plain, plain, plain, plain,
    st.sampled_from(["0", "-0"]) | st.builds("{}e{}".format, mantissas,
                                              st.integers(-310, -290) | st.integers(290, 310)),
    st.sampled_from(["nan", "inf", "-inf", "1e400", "4e-324", "junk", ""]))
# for the flags that must be at least 1e-12 in magnitude
nonzero = st.one_of(plain, plain, plain, numbers)


@st.composite
def ranges(draw):
    """LO:HI: mostly a number and a slightly larger one, else two numbers."""
    lo = draw(numbers)
    if draw(mostly(st.just(False), st.just(True))):
        return f"{lo}:{draw(numbers)}"
    try:
        start = float(lo)
    except ValueError:
        return f"{lo}:1"
    gap = draw(st.sampled_from([1e-3, 0.01, 0.5, 1.0, 2.0, 100.0]))
    scale = draw(st.sampled_from([0.0, 1e-12, 1e-9, 1e-6, 0.1]))
    return f"{start!r}:{start + gap + abs(start) * scale!r}"


kappas = mostly(
    st.one_of(st.builds("const:{}".format, numbers), st.just("linear-ratio"),
              st.builds(lambda cs: "poly:" + ",".join(cs), st.lists(numbers, min_size=1,
                                                                      max_size=4))),
    st.sampled_from(["const", "poly", "poly:", "cubic:1"]))


# the flags each subcommand documents, with a strategy for each one's value;
# --samples stays small so every example runs in milliseconds, or is so
# large that the parser refuses it before anything is allocated
COMMON = {"--samples": mostly(st.integers(2, 40).map(str),
                              st.sampled_from(["-1", "0", "1", "10000000000000", "x"])),
          "--format": mostly(st.sampled_from(["csv", "json"]), st.just("xml"))}
FLAGS = {
    "synth": {**COMMON, "--kappa": kappas, "--lambda": nonzero, "--B": numbers,
              "--h0": nonzero, "--s0": numbers, "--a": numbers, "--b": numbers,
              "--sign-z": mostly(st.sampled_from(["1", "-1"]), st.just("0")),
              "--sign-tau": mostly(st.sampled_from(["1", "-1"]), st.just("2")),
              "--range": ranges()},
    "rect": {**COMMON, "--branch": mostly(st.sampled_from(["plus", "minus", "auto"]),
                                          st.just("up")),
             "--a": nonzero, "--b": numbers, "--lambda": nonzero, "--range": ranges()},
    "extend": {**COMMON, "--kind": mostly(st.sampled_from(["curve", "sphere"]), st.just("plane")),
               "--a": nonzero, "--b": numbers, "--lambda": nonzero, "--d": numbers,
               "--range": ranges()},
    "verify": {},
    "figure1": COMMON,
}
SUBCOMMANDS = tuple(FLAGS)
# the flags a run needs to get past the parser, given nine times in ten
REQUIRED = {"synth": ("--lambda", "--h0", "--range"), "rect": ("--a", "--lambda", "--range"),
            "extend": ("--a", "--lambda", "--range"), "verify": (), "figure1": ()}


@pytest.mark.parametrize("command", SUBCOMMANDS)
def test_the_fuzzed_flags_are_the_flags_each_subcommand_takes(command):
    # --out and --in are given their paths
    sub = next(a for a in _build_parser()._actions if a.dest == "command").choices[command]
    flags = {f for f in sub._option_string_actions if f.startswith("--")}
    assert flags - {"--out", "--in", "--help"} == set(FLAGS[command])


@st.composite
def command_lines(draw, trace_path):
    command = draw(st.sampled_from(SUBCOMMANDS))
    flags = FLAGS[command]
    chosen = [f for f in REQUIRED[command] if draw(st.integers(0, 9)) < 9]
    chosen += draw(st.lists(st.sampled_from(sorted(flags)), max_size=3)) if flags else []
    argv = [command] + [f"{flag}={draw(flags[flag])}" for flag in chosen]
    if command == "verify":
        argv.append(f"--in={trace_path}")
    if draw(st.integers(0, 9)) == 9:
        argv.insert(draw(st.integers(1, len(argv))), draw(st.sampled_from(JUNK)))
    return argv


MUTATIONS = {
    "truncate": lambda data, k: data[:k],
    "invalid UTF-8": lambda data, k: data[:k] + b"\xff" + data[k:],
    "BOM": lambda data, k: b"\xef\xbb\xbf" + data,
    "CRLF": lambda data, k: data.replace(b"\n", b"\r\n"),
    "ragged row": lambda data, k: data[:k] + data[k:].replace(b",", b"", 1),
    "swapped rows": lambda data, k: _swap_lines(data, k),
}
TOKENS = (b"nan", b"-0", b"-0.0", b"1e400", b"-1e308", b"inf", b"4e-324", b"", b"true", b'"1"')


def _swap_lines(data, k):
    lines = data.split(b"\n")
    i = 1 + k % max(1, len(lines) - 2)
    lines[i - 1:i + 1] = lines[i:i + 1] + lines[i - 1:i]
    return b"\n".join(lines)


def _replace_token(data, k, token):
    """``data`` with the number ending nearest after byte k replaced by ``token``."""
    start = max(data.rfind(b",", 0, k), data.rfind(b"[", 0, k), data.rfind(b"\n", 0, k)) + 1
    ends = [e for e in (data.find(c, k) for c in b",]\n") if e >= 0]
    return data[:start] + token + data[min(ends, default=len(data)):]


@pytest.fixture(scope="module")
def traces(tmp_path_factory):
    """Valid traces to mutate, by file name: a synthesized whirl curve and a
    rectifying curve, each as CSV and JSON, 24 samples."""
    root = tmp_path_factory.mktemp("fuzz-traces")
    found = {}
    for argv in (["synth", "--lambda=-1", "--h0=1", "--range=0:1"],
                 ["rect", "--a=0.65", "--lambda=-1", "--range=0.2:1.2"]):
        for fmt in ("csv", "json"):
            with contextlib.redirect_stdout(io.StringIO()):
                assert main(argv + ["--samples=24", f"--format={fmt}", f"--out={root}"]) == 0
            path = root / f"{argv[0]}.{fmt}"
            found[path.name] = path.read_bytes()
    return found


@st.composite
def mutated(draw, traces):
    name = draw(st.sampled_from(sorted(traces)))
    data = traces[name]
    for _ in range(draw(mostly(st.just(0), st.integers(1, 2)))):
        k = draw(st.integers(0, len(data)))
        how = draw(st.sampled_from(sorted(MUTATIONS) + ["token"]))
        data = (_replace_token(data, k, draw(st.sampled_from(TOKENS))) if how == "token"
                else MUTATIONS[how](data, k))
    return data, name


def run_in_process(argv):
    """(exit code, stdout, stderr, RuntimeWarnings) of one ``main`` call."""
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught, \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        warnings.simplefilter("always")
        code = main(argv)
    return code, out.getvalue(), err.getvalue(), [w for w in caught
                                                  if issubclass(w.category, RuntimeWarning)]


@settings(max_examples=150, deadline=2000, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
@given(data=st.data())
def test_any_command_line_exits_0_to_3_with_one_error_line(traces, tmp_path_factory, data):
    trace_bytes, name = data.draw(mutated(traces))
    work = tmp_path_factory.mktemp("fuzz-run", numbered=True)
    (work / name).write_bytes(trace_bytes)
    argv = data.draw(command_lines(work / name))
    out = work / "out"
    argv += [] if argv[0] == "verify" else [f"--out={out}"]
    try:
        code, _, err, caught = run_in_process(argv)
        written = sorted(p.name for p in out.iterdir()) if out.exists() else []
    finally:
        shutil.rmtree(work)
    assert code in (0, 1, 2, 3), argv
    assert "Traceback" not in err, argv
    assert not caught, (argv, [str(w.message) for w in caught])
    if code in (2, 3):
        assert err.count("\n") == 1 and err.endswith("\n"), (argv, err)
        assert written == [], (argv, err, written)
