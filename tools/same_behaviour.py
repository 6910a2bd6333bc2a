"""Run the benchmark's commands on two checkouts and compare what they did.

Usage (from the root of a checkout; BASE and HEAD are checkout directories):

    python3 tools/same_behaviour.py BASE HEAD

HEAD's ``perfbench/bench_workloads.py`` generates the commands for both trees:
``paper_sweep`` seeds 1, 7 and 23 at rounds 0-5, and ``large_synth`` and
``large_verify`` seed 1 at rounds 0-1, 190 commands.  Each tree runs all of
them in one subprocess, through ``whirlcurves.cli.main`` from its own ``src/``,
with BLAS pinned to one thread.  ``large_verify``'s input traces are built by
each tree's own library, and their digests are compared too.

For each command this prints the exit code, the verdict lines, a digest of
stdout and of stderr with the work directory's path replaced by ``<work>``,
and a digest of each file the command wrote.  A line that differs between the
trees is printed for both, marked ``base!`` and ``head!``; when the stdout
digests differ, so are up to ``SHOWN_LINES`` of each tree's stdout lines that
the other tree did not print, after ``|``.  The exit status is
1 when an exit code, a verdict line or a file written by ``rect``, ``extend``
or ``figure1`` differs (those files come from closed forms and must stay
byte-identical), 2 when a tree could not run the commands, and 0 otherwise:
other output that differs only in its digests, a ``synth`` file among it, is
printed and counted, not failed.
"""

import argparse
import contextlib
import hashlib
import io
import json
import os
import shutil
import subprocess
import sys
import tempfile
import traceback

# the commands whose written files must be byte-identical
EXACT_FILES = {"rect", "extend", "figure1"}

# the most differing stdout lines printed per command and tree
SHOWN_LINES = 4

# (workload, seed, rounds): the commands compared
PLAN = ([("paper_sweep", seed, range(6)) for seed in (1, 7, 23)]
        + [("large_synth", 1, range(2)), ("large_verify", 1, range(2))])


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


def _tree_digests(root, work):
    """{path relative to ``work``: digest} of every file under ``root``."""
    found = {}
    for top, _, names in os.walk(root):
        for name in names:
            path = os.path.join(top, name)
            with open(path, "rb") as fh:
                found[os.path.relpath(path, work)] = _digest(fh.read())
    return found


def run_tree(tree, perfbench):
    """Print one JSON record per set-up and per command, run on ``tree``'s
    library with the commands of ``perfbench``'s workloads."""
    src = os.path.join(tree, "src")
    sys.path[:0] = [src, perfbench]
    from bench_workloads import WORKLOADS
    from whirlcurves import cli
    if not os.path.abspath(cli.__file__).startswith(os.path.abspath(src) + os.sep):
        sys.exit(f"error: whirlcurves was imported from {cli.__file__}, not from {src}")
    work = tempfile.mkdtemp(prefix="same-behaviour-")
    try:
        for name, seed, rounds in PLAN:
            inputs = os.path.join(work, f"{name}-{seed}-inputs")
            os.mkdir(inputs)
            workload = WORKLOADS[name](seed, inputs)
            workload.setup()
            setup_files = _tree_digests(inputs, work)
            if setup_files:
                print(json.dumps({"key": f"{name} seed={seed} set-up", "files": setup_files}))
            for i in rounds:
                outdir = os.path.join(work, f"{name}-{seed}", f"round{i}")
                os.makedirs(outdir)
                before = {}
                for k, op in enumerate(workload.round(i, outdir)):
                    out, err = io.StringIO(), io.StringIO()
                    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                        try:
                            code = cli.main(op.argv)
                        except Exception:   # a crash is a result to compare
                            code = "crash"
                            traceback.print_exc()
                    after = _tree_digests(outdir, work)
                    out, err = (text.getvalue().replace(work, "<work>") for text in (out, err))
                    print(json.dumps({
                        "key": f"{name} seed={seed} round={i} op={k} {op.cmd}",
                        "exit": code,
                        "verdicts": [ln for ln in out.splitlines() if "verdict" in ln],
                        "stdout": _digest(out.encode()), "stderr": _digest(err.encode()),
                        "out": out.splitlines(),
                        "files": {p: d for p, d in after.items() if before.get(p) != d}}))
                    before = after
                shutil.rmtree(outdir)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _lines(record):
    """The printed lines of one record: (line, whether a difference in it fails).
    A record's key ends with its command's name."""
    lines, exact = [], record["key"].rsplit(" ", 1)[-1] in EXACT_FILES
    if "exit" in record:
        lines.append((f"exit {record['exit']}", True))
        lines += [(f"  {v}", True) for v in record["verdicts"]]
        lines += [(f"  stdout {record['stdout']}", False), (f"  stderr {record['stderr']}", False)]
    lines += [(f"  {path} {d}", exact) for path, d in sorted(record["files"].items())]
    return lines


def _records(tree, perfbench):
    sys.path.insert(0, perfbench)
    from bench_report import BLAS_VARS
    env = dict(os.environ, **dict.fromkeys(BLAS_VARS, "1"))
    proc = subprocess.run([sys.executable, os.path.abspath(__file__), "--run", tree, perfbench],
                          env=env, stdout=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        print(f"error: the commands did not run on {tree} (exit {proc.returncode})")
        sys.exit(2)
    records = [json.loads(line) for line in proc.stdout.splitlines()]
    return {r["key"]: r for r in records}, [r["key"] for r in records]


def compare(base, head):
    perfbench = os.path.join(head, "perfbench")
    (old, _), (new, keys) = _records(base, perfbench), _records(head, perfbench)
    failed = set(old) != set(new)
    commands = identical = 0
    for key in sorted(set(old) - set(new)):
        print(f"base! {key}: missing at head")
    for key in keys:
        print(key)
        if key not in old:
            print("head!   missing at base")
            continue
        a, b = _lines(old[key]), _lines(new[key])
        commands += "exit" in new[key]
        identical += "exit" in new[key] and a == b
        for line, fatal in b:
            if (line, fatal) in a:
                print(f"      {line}")
            else:
                print(f"head! {line}")
                failed |= fatal
        for line, fatal in a:
            if (line, fatal) not in b:
                print(f"base! {line}")
                failed |= fatal
        base_out, head_out = old[key].get("out", []), new[key].get("out", [])
        for tag, mine, theirs in (("base!", base_out, head_out), ("head!", head_out, base_out)):
            for line in [ln for ln in mine if ln not in theirs][:SHOWN_LINES]:
                print(f"{tag}   | {line}")
    print(f"{identical} of {commands} commands byte-identical; "
          + ("an exit code, verdict or exact file differs" if failed
             else "exit codes, verdicts and exact files agree"))
    return 1 if failed else 0


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("base", help="checkout directory of the base commit")
    p.add_argument("head", help="checkout directory of the commit to compare with it")
    p.add_argument("--run", action="store_true",
                   help="run the commands on BASE with HEAD as the perfbench directory "
                        "and print one JSON record per line (used by the comparison)")
    args = p.parse_args(argv)
    base, head = os.path.abspath(args.base), os.path.abspath(args.head)
    if args.run:
        run_tree(base, head)
        return 0
    for tree in (base, head):
        if not os.path.isfile(os.path.join(tree, "src", "whirlcurves", "cli.py")):
            p.error(f"no whirlcurves sources under {tree}")
    return compare(base, head)


if __name__ == "__main__":
    sys.exit(main())
