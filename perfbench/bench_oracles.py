"""Closed-form oracles, CLI argv formatting and per-command output checks.

Every expected value here is computed from the paper's closed forms with
plain numpy; nothing is taken from the library under test, so a change that
makes the library fast but wrong fails these checks.
"""

import json
import os
import re

import numpy as np

# Accuracy bounds.  The CLI prints lambda and the ratio slope with %.6g and the
# axis with 6 decimals, so the text-parsed bounds sit well above 1e-5.
BOUNDS = {
    "synth_z_err": 1e-10,       # max |z column - closed form|, absolute
    "lam_err": 1e-4,            # relative error of the fitted lambda
    # relative error of the fitted ratio slope c1; third-difference noise on
    # 20k-sample traces already moves it by up to ~1e-4
    "ratio_slope_err": 1e-3,
    "axis_err": 1e-4,           # distance of the fitted axis from (0, 0, +-1)
    "membership_err": 1e-10,    # hyperboloid or unit-sphere residual, absolute
}

_GL_NODES = 8


def fmt(x) -> str:
    """Format a number for argv so argparse's ``float`` accepts it.

    ``repr(np.float64(x))`` reads ``np.float64(...)`` under numpy 2, which the
    CLI rejects with exit 3, so go through a Python float.
    """
    return repr(float(x))


# -- synthesized whirl curves ---------------------------------------------------

def bound_from_h0(h0, lam):
    """Exponent offset B with tau/kappa = h0 at s0 (paper's anchoring)."""
    return 0.5 * np.log(1.0 + lam * lam + h0 * h0) - np.log(abs(h0))


def lam_int_kappa(spec, s):
    """lam * int_{s0}^{s} kappa in closed form for the three kappa families."""
    s = np.asarray(s, dtype=float)
    lam, s0 = spec["lam"], spec["s0"]
    fam = spec["family"]
    if fam == "const":
        return lam * spec["k0"] * (s - s0)
    if fam == "poly":
        anti = np.polynomial.polynomial.polyint(spec["coeffs"])
        return lam * (np.polynomial.polynomial.polyval(s, anti)
                      - np.polynomial.polynomial.polyval(s0, anti))
    if fam == "linear-ratio":
        def prim(x):
            h = spec["a"] * x + spec["b"]
            return np.log(np.abs(h)) - 0.5 * np.log(1.0 + lam * lam + h * h)
        return prim(s) - prim(s0)
    raise ValueError(f"unknown kappa family {fam!r}")


def exponent(spec, s):
    """E(s) = lam * int_{s0}^{s} kappa - B; the construction needs E < 0."""
    return lam_int_kappa(spec, s) - bound_from_h0(spec["h0"], spec["lam"])


def _tangent_z(spec, s):
    return spec["z_sign"] * np.exp(exponent(spec, s)) / np.sqrt(1.0 + spec["lam"] ** 2)


def synth_z(spec, grid):
    """z(s) of the synthesized trace, which starts at the origin at grid[0].

    Constant kappa has z = z_sign (e^E(s) - e^E(lo)) / (lam k sqrt(1+lam^2));
    the other families integrate the closed-form tangent z component with a
    composite Gauss-Legendre rule over the grid intervals.
    """
    grid = np.asarray(grid, dtype=float)
    if spec["family"] == "const":
        lam, k = spec["lam"], spec["k0"]
        e = np.exp(exponent(spec, grid))
        return spec["z_sign"] * (e - e[0]) / (lam * k * np.sqrt(1.0 + lam * lam))
    x, w = np.polynomial.legendre.leggauss(_GL_NODES)
    mid = 0.5 * (grid[1:] + grid[:-1])
    half = 0.5 * np.diff(grid)
    nodes = mid[:, None] + half[:, None] * x[None, :]
    panels = half * (_tangent_z(spec, nodes) @ w)
    return np.concatenate([[0.0], np.cumsum(panels)])


# -- closed-form whirl-rectifying curves -----------------------------------------

def rect_point(a, b, lam, s):
    """Closed-form whirl-rectifying position (branch set by the sign of a*s+b)."""
    h = a * np.asarray(s, dtype=float) + b
    root = np.sqrt(1.0 + lam * lam)
    g = 1.0 + h * h + lam * lam
    x = np.sqrt((1.0 + lam * lam) / g)
    arc = (np.log1p(x) + 0.5 * np.log(g) - 0.5 * np.log(h * h)) / lam
    return np.stack([(h / a) * (lam / root) * np.cos(arc),
                     -(h / a) * (lam / root) * np.sin(arc),
                     np.sqrt(g) / (a * root)], axis=-1)


def hyperboloid_residual(p, lam, a):
    """z^2 - (x^2 + y^2)/lam^2 - 1/a^2, zero on the curve's hyperboloid sheet."""
    p = np.asarray(p, dtype=float)
    return p[:, 2] ** 2 - (p[:, 0] ** 2 + p[:, 1] ** 2) / (lam * lam) - 1.0 / (a * a)


def sphere_residual(p):
    return np.linalg.norm(np.asarray(p, dtype=float), axis=1) - 1.0


def consistent_branch(a, lam):
    """Branch whose torsion/curvature ratio is exactly a*s+b and constant lam."""
    return 1 if a * lam > 0 else -1


def expected_fit(a, lam, branch):
    """(lambda, c1) that ``verify`` must recover from a rectifying trace.

    On the branch opposite the consistent one the curve is the mirror image,
    so the fit reports -lambda and slope -a.
    """
    sign = 1.0 if branch == consistent_branch(a, lam) else -1.0
    return sign * lam, sign * a


# -- trace files and CLI output -------------------------------------------------

def read_rows(path):
    """(n, 4) rows of a trace file written by the CLI (CSV or JSON)."""
    if path.endswith(".json"):
        with open(path) as fh:
            return np.asarray(json.load(fh)["samples"], dtype=float)
    return np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)


def _field(out, label):
    for line in out.splitlines():
        if line.startswith(label):
            return line[len(label):].strip()
    raise ValueError(f"no {label!r} line in command output")


def parse_verify(out):
    """Fitted values and verdicts from the text ``verify`` prints."""
    axis = [float(v) for v in _field(out, "fitted axis").strip("[]").split()]
    chen = dict(kv.split("=") for kv in _field(out, "chen fit").split())
    frames = re.search(r"frames at (\d+) interior", _field(out, "samples"))
    return {
        "lam": float(_field(out, "fitted lambda")),
        "axis": np.array(axis),
        "c1": float(chen["c1"]),
        "whirl": _field(out, "whirl verdict:").split()[0],
        "rectifying": _field(out, "rectifying verdict:").split()[0],
        "frames": int(frames.group(1)),
    }


def axis_distance(axis):
    axis = np.asarray(axis, dtype=float)
    return float(min(np.linalg.norm(axis - [0.0, 0.0, 1.0]),
                     np.linalg.norm(axis + [0.0, 0.0, 1.0])))


def rel_err(got, want):
    return abs(got - want) / abs(want)


class Outcome:
    """Result of checking one command: problems make it a failed op."""

    def __init__(self):
        self.problems = []
        self.errors = {}        # accuracy metric -> worst value in this op
        self.samples = 0        # trace samples written (synth) or framed (verify)
        self.verdict_miss = None

    def record(self, name, value):
        self.errors[name] = max(self.errors.get(name, 0.0), float(value))
        if not value <= BOUNDS[name]:
            self.problems.append(f"{name} {value:.3e} above bound {BOUNDS[name]:g}")

    @property
    def ok(self):
        return not self.problems


def _check_trace(outcome, path, n, membership):
    if not os.path.exists(path):
        outcome.problems.append(f"missing output {path}")
        return None
    rows = read_rows(path)
    if rows.shape != (n, 4):
        outcome.problems.append(f"{path} has shape {rows.shape}, expected ({n}, 4)")
        return None
    if membership is not None:
        outcome.record("membership_err", float(np.max(np.abs(membership(rows[:, 1:])))))
    return rows


def check(op, code, out):
    """Judge one command's exit code, printed verdict and written files."""
    outcome = Outcome()
    if code != 0:
        outcome.problems.append(f"exit code {code}, expected 0")
        return outcome
    exp = op.expect
    if op.cmd == "verify":
        got = parse_verify(out)
        outcome.samples = got["frames"]
        if got["whirl"] != "POSITIVE":
            outcome.problems.append(f"whirl verdict {got['whirl']}, expected POSITIVE")
        outcome.record("lam_err", rel_err(got["lam"], exp["lam"]))
        outcome.record("axis_err", axis_distance(got["axis"]))
        if "c1" in exp:
            outcome.record("ratio_slope_err", rel_err(got["c1"], exp["c1"]))
        outcome.verdict_miss = got["rectifying"] != exp["rectifying"]
        return outcome
    if "verdict: PASS" not in out:
        outcome.problems.append("command did not print verdict: PASS")
    for path, kind in exp["files"]:
        if kind == "synth":
            rows = _check_trace(outcome, path, exp["n"], None)
            if rows is not None:
                outcome.samples += exp["n"]
                want = synth_z(exp["spec"], rows[:, 0])
                outcome.record("synth_z_err", float(np.max(np.abs(rows[:, 3] - want))))
        elif kind == "sphere":
            _check_trace(outcome, path, exp["n"], sphere_residual)
        else:
            lam, a = kind
            _check_trace(outcome, path, exp["n"],
                         lambda p, lam=lam, a=a: hyperboloid_residual(p, lam, a))
    return outcome
