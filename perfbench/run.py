"""Benchmark of the whirlcurves command line, end to end and layer by layer.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload paper_sweep --seed 1 --seconds 20 --trace 0

One process, one caller: ``whirlcurves.cli.main(argv)`` runs in-process in a
closed loop, each command starting when the previous one has been checked.
Every command's exit code, printed verdict and written files are judged
against closed forms (see bench_oracles.py).  Times are scaled to a
reference host speed measured between commands (bench_report.host_speed),
because the shared machine's speed drifts by up to 2x.  ``--trace 0`` reports the
end-to-end metrics; ``--trace 1`` runs each round untraced and then traced,
compares the two, and reports per-layer metrics.  The last line of standard
output is a JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``; the lines before it describe the run.
"""

import argparse
import contextlib
import io
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

from bench_report import BLAS_VARS, host_speed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
IMPORT_REPS = 7     # a fresh interpreter's import takes ~0.15 s and varies by ~25%
BUILD_REPS = 3
# Probes print their wall time and the host speed (bench_report.host_speed).
IMPORT_PROBE = ("import time; t = time.perf_counter(); import whirlcurves; "
                "t = time.perf_counter() - t; from bench_report import host_speed; "
                "print(t, host_speed())")
# builds the inputs in a child so this process's ru_maxrss covers only the rounds
BUILD_PROBE = ("import sys, time; from bench_report import host_speed; "
               "from bench_workloads import WORKLOADS; "
               "w = WORKLOADS[sys.argv[1]](int(sys.argv[2]), sys.argv[3]); "
               "f = host_speed(); t = time.perf_counter(); w.setup(); "
               "t = time.perf_counter() - t; print(t, 0.5 * (f + host_speed()))")
COMMANDS = ("synth", "rect", "extend", "verify", "figure1")
ACCURACY = {"synth_z_err": "abs", "lam_err": "rel", "ratio_slope_err": "rel",
            "axis_err": "abs", "membership_err": "abs"}


class Tally:
    """Outcomes of the commands of one phase (untraced or traced)."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.errors = dict.fromkeys(ACCURACY, 0.0)
        self.verdicts = 0
        self.misses = 0
        self.samples = 0
        self.cmd_s = {c: [] for c in COMMANDS}
        self.round_s = []
        self.wall_round_s = []

    def op_s(self):
        return [t for ts in self.cmd_s.values() for t in ts]

    def add(self, op, outcome, seconds):
        self.attempted += 1
        self.cmd_s[op.cmd].append(seconds)
        self.samples += outcome.samples
        for name, value in outcome.errors.items():
            self.errors[name] = max(self.errors[name], value)
        if outcome.verdict_miss is not None:
            self.verdicts += 1
            self.misses += outcome.verdict_miss
        if not outcome.ok:
            self.fail(f"{' '.join(op.argv)}: {'; '.join(outcome.problems)}")

    def fail(self, problem):
        self.failed += 1
        self.problems.append(problem)


def run_round(cli, check, ops, tally, tracer=None):
    """Run and check one round's commands; return their stdout texts.

    Each command's wall time is scaled to the reference host by the mean of
    the host speeds measured just before and just after it.
    """
    outs = []
    busy = wall = 0.0
    speed = host_speed()
    for op in ops:
        buf = io.StringIO()
        crash = None
        with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
            t0 = time.perf_counter()
            try:
                if tracer is None:
                    code = cli.main(op.argv)
                else:
                    code = tracer.span("cli", cli.main, op.argv)
            except Exception:   # a crash is a failed op, not a dead benchmark
                crash = traceback.format_exc(limit=3)
            seconds = time.perf_counter() - t0
        wall += seconds
        speed_before, speed = speed, host_speed()
        seconds *= 0.5 * (speed_before + speed)
        busy += seconds
        outs.append(buf.getvalue())
        if crash is None:
            try:
                outcome = check(op, code, outs[-1])
            except Exception:   # output the oracle cannot read is a failed op
                crash = traceback.format_exc(limit=3)
        if crash is None:
            tally.add(op, outcome, seconds)
        else:
            tally.attempted += 1
            tally.fail(f"{' '.join(op.argv)}: {crash}")
    tally.round_s.append(busy)
    tally.wall_round_s.append(wall)
    return outs


def same_tree(a, b):
    """True when directories a and b hold the same files with the same bytes."""
    files_a = sorted(p.relative_to(a) for p in Path(a).rglob("*") if p.is_file())
    files_b = sorted(p.relative_to(b) for p in Path(b).rglob("*") if p.is_file())
    return files_a == files_b and all(
        (Path(a) / f).read_bytes() == (Path(b) / f).read_bytes() for f in files_a)


def measure_setup(name, seed, inputs):
    """Median fresh-interpreter import time plus median input build time.

    Each probe runs in a fresh interpreter and its time is scaled to the
    reference host; the last build is the one the rounds read.  Returns the
    scaled and the wall set-up time.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), str(HERE),
                                                      env.get("PYTHONPATH")]))

    def probe(*args):
        proc = subprocess.run([sys.executable, "-c", *args], env=env,
                              capture_output=True, text=True, timeout=120, check=True)
        return [float(x) for x in proc.stdout.split()]

    imports = [probe(IMPORT_PROBE) for _ in range(IMPORT_REPS)]
    builds = []
    for rep in range(BUILD_REPS):
        shutil.rmtree(inputs, ignore_errors=True)
        os.mkdir(inputs)
        builds.append(probe(BUILD_PROBE, name, str(seed), inputs))
    scaled = sum(statistics.median(t * f for t, f in ts) for ts in (imports, builds))
    wall = sum(statistics.median(t for t, _ in ts) for ts in (imports, builds))
    return scaled, wall


def untraced_metrics(tally, setup, report):
    import resource
    setup_s, setup_wall = setup
    op_ms = [1e3 * t for t in tally.op_s()]
    value, pct, beyond, n = report.tail(op_ms)
    busy = sum(tally.round_s)
    print("# times are scaled to the reference host; wall times follow")
    print(f"# setup_s: {setup_s:.4f} scaled, {setup_wall:.4f} wall")
    print(f"# round_ms: median over {len(tally.round_s)} rounds: "
          + " ".join(f"{1e3 * t:.1f}" for t in tally.round_s))
    print("# round_ms wall: " + " ".join(f"{1e3 * t:.1f}" for t in tally.wall_round_s))
    print(f"# op_ms_tail: p{pct:.1f} of {n} commands ({beyond} beyond it)")
    for cmd, ts in tally.cmd_s.items():
        if ts:
            print(f"# {cmd}_ms: median {1e3 * statistics.median(ts):.3f} over {len(ts)} commands")
    return {
        "setup_s": (setup_s, "s"),
        "round_ms": (1e3 * statistics.median(tally.round_s), "ms"),
        "op_ms_tail": (value, "ms"),
        "samples_per_s": (tally.samples / busy, "1/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def accuracy_metrics(tallies):
    from bench_oracles import BOUNDS
    metrics = {}
    for name, unit in ACCURACY.items():
        metrics[name] = (max(t.errors[name] for t in tallies), unit)
        print(f"# {name}: worst {metrics[name][0]:.3e} (bound {BOUNDS[name]:g})")
    verdicts = sum(t.verdicts for t in tallies)
    misses = sum(t.misses for t in tallies)
    print(f"# verdict_miss_frac: {misses} of {verdicts} rectifying verdicts wrong")
    metrics["verdict_miss_frac"] = (misses / verdicts if verdicts else 0.0, "frac")
    return metrics


def traced_metrics(plain, traced, tracer, first_counts, overheads, report):
    from bench_trace import sites
    rounds = len(traced.round_s)
    metrics = {f"{cmd}_ms": (1e3 * statistics.median(ts) if ts else 0.0, "ms")
               for cmd, ts in plain.cmd_s.items()}
    metrics["cli.self_ms"] = (tracer.stats["cli"].self_ns / rounds / 1e6, "ms")
    for _, _, layer, counts, worst in sites():
        metrics[f"{layer}.ms"] = (tracer.stats[layer].self_ns / rounds / 1e6, "ms")
        metrics[f"{layer}.calls"] = (first_counts.get(f"{layer}.calls", 0), "count")
        for key in counts:
            metrics[f"{layer}.{key}"] = (first_counts.get(f"{layer}.{key}", 0),
                                         "B" if key == "bytes" else "count")
        for key in worst:
            metrics[f"{layer}.{key}"] = (tracer.stats[layer].worst[key], "abs")
    for module, lines in report.src_lines(SRC).items():
        metrics[f"{module}.lines"] = (lines, "count")
    metrics["trace.overhead_ms"] = (1e3 * statistics.median(overheads), "ms")
    print(f"# per-layer .ms: self time per round over {rounds} traced rounds; "
          "counts from round 0")
    return metrics


def run(workload_name, seed, seconds, trace):
    import bench_report as report
    from bench_oracles import check
    from bench_trace import Tracer
    from bench_workloads import WORKLOADS
    from whirlcurves import cli

    print("# env " + json.dumps(report.provenance(ROOT, SRC), sort_keys=True))
    work = tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT)
    try:
        inputs = os.path.join(work, "inputs")
        setup = measure_setup(workload_name, seed, inputs)
        workload = WORKLOADS[workload_name](seed, inputs)
        plain, traced = Tally(), Tally()
        tracer, first_counts, overheads = Tracer(), None, []
        deadline = time.perf_counter() + seconds
        i = 0
        while i == 0 or time.perf_counter() < deadline:
            out_a = os.path.join(work, f"round{i}")
            outs_a = run_round(cli, check, workload.round(i, out_a), plain)
            if trace:
                out_b = out_a + "-traced"
                tracer.install()
                try:
                    outs_b = run_round(cli, check, workload.round(i, out_b), traced, tracer)
                finally:
                    leftover = tracer.uninstall()
                if leftover:
                    traced.fail(f"wrappers left installed: {leftover}")
                if first_counts is None:
                    first_counts = tracer.counts()
                overheads.append(traced.round_s[-1] - plain.round_s[-1])
                same = [a.replace(out_a, out_b) == b for a, b in zip(outs_a, outs_b)]
                if not all(same) or not same_tree(out_a, out_b):
                    traced.fail(f"round {i}: traced output differs from untraced")
                shutil.rmtree(out_b, ignore_errors=True)
            shutil.rmtree(out_a, ignore_errors=True)
            i += 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    tallies = (plain, traced) if trace else (plain,)
    print(f"# {workload_name} seed={seed} seconds={seconds} trace={trace}: "
          f"{i} rounds, {plain.attempted} untraced + {traced.attempted} traced commands")
    accuracy = accuracy_metrics(tallies)
    if trace:
        metrics = traced_metrics(plain, traced, tracer, first_counts, overheads, report)
        metrics.update(accuracy)
    else:
        metrics = untraced_metrics(plain, setup, report)
    for t in tallies:
        for problem in t.problems[:20]:
            print("# FAILED " + problem.replace("\n", " | "))
    attempted = sum(t.attempted for t in tallies)
    failed = sum(t.failed for t in tallies)
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}


def main(argv=None):
    from bench_workloads import WORKLOADS
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    result = run(args.workload, args.seed, args.seconds, args.trace)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    if not (SRC / "whirlcurves" / "cli.py").is_file():
        print(f"error: no whirlcurves sources under {SRC}; run from a full checkout",
              file=sys.stderr)
        sys.exit(2)
    # exit through the finally blocks on SIGTERM so the work directory goes too
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    # pin BLAS to one thread before numpy is first imported
    for var in BLAS_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))
    sys.exit(main())
