"""Seeded workloads: each is a sequence of rounds of CLI commands.

Round ``i`` of a workload depends only on ``(seed, i)``, so a traced rerun
of a round sees exactly the inputs of the untraced one, and the rounds a run
gets through do not depend on how fast the earlier ones went.
"""

import functools
import os
from dataclasses import dataclass

import numpy as np

from bench_oracles import bound_from_h0, expected_fit, fmt, rect_point

HALF_PI = 0.5 * np.pi


@dataclass
class Op:
    cmd: str
    argv: list
    expect: dict


# -- input generators --------------------------------------------------------

def whirl_model(rng, family):
    """Random synthesizable whirl spec with a well-conditioned window.

    Same window as the test suite's random model: kappa in
    [0.3, min(1.5, C/|lam|)] and an exponent swing below 0.8*min(1, B), so
    difference-stencil verification resolves every tolerance; near the
    exponent bound a ``synth`` FAIL would be legitimate, so it is avoided.
    """
    lam = float(rng.choice([-1.0, 1.0]) * np.exp(rng.uniform(np.log(0.2), np.log(20.0))))
    h0 = float(rng.uniform(0.8, 1.5))
    # cap |lam|*kappa: difference-stencil truncation grows with its cube
    cap = {"const": 5.0, "poly": 3.0, "linear-ratio": 2.3}[family]
    k_hi = min(1.5, cap / abs(lam))
    k_lo = min(0.3, 0.75 * k_hi)
    k0 = float(rng.uniform(k_lo, k_hi))
    spec = {"family": family, "lam": lam, "s0": 0.0,
            "z_sign": int(rng.choice([1, -1]))}
    swing = 0.8 * min(1.0, bound_from_h0(h0, lam))
    if family == "const":
        spec.update(k0=k0, h0=h0, tau_sign=int(rng.choice([1, -1])),
                    lo=0.0, hi=min(4.0, swing / (abs(lam) * k0)))
        return spec
    if family == "poly":
        # on the CLI's kappa hull [lo-1, hi+1] within [-1, 5] both correction
        # terms stay below k0/4, so kappa lies in [k0/2, 3*k0/2]
        coeffs = [k0, k0 * float(rng.uniform(-0.05, 0.05)),
                  k0 * float(rng.uniform(-0.01, 0.01))]
        spec.update(coeffs=coeffs, h0=h0, tau_sign=int(rng.choice([1, -1])),
                    lo=0.0, hi=min(4.0, swing / (abs(lam) * 1.5 * k0)))
        return spec
    # linear-ratio: the torsion/curvature ratio is a*s + b, anchored at h0 at
    # s0 = 0 and shrinking in magnitude along the window, so E <= -B there
    h0 *= float(rng.choice([1.0, -1.0]))
    a = k0 * lam * h0 * (1.0 + lam * lam + h0 * h0) / (1.0 + lam * lam)
    s_end = (h0 * float(rng.uniform(0.45, 0.75)) - h0) / a
    s_end = float(np.clip(s_end, -4.0, 4.0))
    spec.update(a=a, b=h0, h0=h0, tau_sign=1 if h0 > 0 else -1,
                lo=min(0.0, s_end), hi=max(0.0, s_end))
    return spec


def rect_model(rng):
    a = float(rng.uniform(0.4, 2.0) * rng.choice([-1.0, 1.0]))
    b = float(rng.uniform(-1.5, 1.5))
    lam = float(rng.uniform(0.3, 5.0) * rng.choice([-1.0, 1.0]))
    return a, b, lam


def branch_range(a, b, branch, h_lo=0.3, h_hi=2.2):
    """s-range on one branch with |a*s+b| spanning [h_lo, h_hi]."""
    s = sorted(((branch * h_lo - b) / a, (branch * h_hi - b) / a))
    return s[0], s[1]


# -- command lines -----------------------------------------------------------------

def _range(lo, hi):
    return f"--range={fmt(lo)}:{fmt(hi)}"


def synth_op(spec, n, fmt_, out):
    fam = spec["family"]
    if fam == "const":
        kappa = ["--kappa", f"const:{fmt(spec['k0'])}"]
    elif fam == "poly":
        kappa = ["--kappa", "poly:" + ",".join(fmt(c) for c in spec["coeffs"])]
    else:
        kappa = ["--kappa", "linear-ratio", f"--a={fmt(spec['a'])}", f"--b={fmt(spec['b'])}"]
    argv = (["synth"] + kappa
            + [f"--lambda={fmt(spec['lam'])}", f"--h0={fmt(spec['h0'])}",
               f"--s0={fmt(spec['s0'])}", f"--sign-z={spec['z_sign']}",
               f"--sign-tau={spec['tau_sign']}", _range(spec["lo"], spec["hi"]),
               "--samples", str(n), "--format", fmt_, "--out", out])
    path = os.path.join(out, f"synth.{fmt_}")
    return Op("synth", argv, {"n": n, "spec": spec, "files": [(path, "synth")]}), path


def rect_op(a, b, lam, branch, n, fmt_, out):
    lo, hi = branch_range(a, b, branch)
    argv = ["rect", f"--a={fmt(a)}", f"--b={fmt(b)}", f"--lambda={fmt(lam)}",
            "--branch", "plus" if branch > 0 else "minus", _range(lo, hi),
            "--samples", str(n), "--format", fmt_, "--out", out]
    path = os.path.join(out, f"rect.{fmt_}")
    return Op("rect", argv, {"n": n, "files": [(path, (lam, a))]}), path


def verify_op(path, lam, rectifying, c1=None):
    expect = {"lam": lam, "rectifying": rectifying}
    if c1 is not None:
        expect["c1"] = c1
    return Op("verify", ["verify", "--in", path], expect)


def verify_rect_op(path, a, lam, branch):
    lam_fit, c1 = expected_fit(a, lam, branch)
    return verify_op(path, lam_fit, "POSITIVE", c1)


# -- workloads -----------------------------------------------------------------

class Workload:
    """A named sequence of rounds reading the inputs ``setup`` writes.

    ``inputs`` is the directory that ``setup`` fills and the rounds read;
    ``setup`` may run in another process than the rounds.
    """

    name = ""
    why = ""

    def __init__(self, seed, inputs):
        self.seed = seed
        self.inputs = inputs

    def rng(self, *key):
        return np.random.default_rng([self.seed, *key])

    def setup(self):
        """Write the inputs shared by every round (none by default)."""

    def round(self, i, outdir):
        raise NotImplementedError


class PaperSweep(Workload):
    name = "paper_sweep"
    why = ("what a user reproducing the paper runs: every subcommand at 513 "
           "samples; dominated by per-point frenet_at frame extraction")
    samples = 513

    def round(self, i, outdir):
        rng = self.rng(0, i)
        n = self.samples
        ops = []
        const = whirl_model(rng, "const")
        op, const_path = synth_op(const, n, "json", os.path.join(outdir, "synth-const"))
        ops.append(op)
        ops.append(synth_op(whirl_model(rng, "poly"), n, "csv",
                            os.path.join(outdir, "synth-poly"))[0])
        ops.append(synth_op(whirl_model(rng, "linear-ratio"), n, "csv",
                            os.path.join(outdir, "synth-lr"))[0])
        a, b, lam = rect_model(rng)
        rect_paths = {}
        for branch, fmt_ in ((1, "csv"), (-1, "json")):
            op, rect_paths[branch] = rect_op(a, b, lam, branch, n, fmt_,
                                             os.path.join(outdir, f"rect{branch:+d}"))
            ops.append(op)
        ops.extend(self._extend_ops(rng, n, os.path.join(outdir, "extend")))
        ops.append(verify_op(const_path, const["lam"], "NEGATIVE"))
        branch = 1 if i % 2 == 0 else -1
        ops.append(verify_rect_op(rect_paths[branch], a, lam, branch))
        ops.append(self._figure1_op(n, os.path.join(outdir, "figure1")))
        return ops

    @staticmethod
    def _extend_ops(rng, n, out):
        a, b, lam = rect_model(rng)
        lo, hi = sorted(((-2.2 - b) / a, (2.2 - b) / a))
        curve = Op("extend", ["extend", "--kind", "curve", f"--a={fmt(a)}",
                              f"--b={fmt(b)}", f"--lambda={fmt(lam)}", _range(lo, hi),
                              "--samples", str(n), "--out", out],
                   {"n": n, "files": [(os.path.join(out, f"omega_lambda{lam:g}.csv"),
                                       (lam, a))]})
        a, b, lam = rect_model(rng)
        d = float(rng.uniform(-0.5, 0.5))
        lo, hi = -d - HALF_PI + 0.15, -d + HALF_PI - 0.15
        sphere = Op("extend", ["extend", "--kind", "sphere", f"--a={fmt(a)}",
                               f"--b={fmt(b)}", f"--lambda={fmt(lam)}", f"--d={fmt(d)}",
                               _range(lo, hi), "--samples", str(n), "--out", out],
                    {"n": n, "files": [(os.path.join(out, f"upsilon_lambda{lam:g}.csv"),
                                        "sphere")]})
        return [curve, sphere]

    @staticmethod
    def _figure1_op(n, out):
        # the paper's fixed sweep: a = 0.65, b = d = 0, six lambdas
        files = []
        for lam in (-20.0, -4.0, -1.8, -1.0, -0.5, -0.26):
            files.append((os.path.join(out, f"omega_lambda{lam:g}.csv"), (lam, 0.65)))
            files.append((os.path.join(out, f"upsilon_lambda{lam:g}.csv"), "sphere"))
        return Op("figure1", ["figure1", "--samples", str(n), "--out", out],
                  {"n": n, "files": files})


class LargeSynth(Workload):
    name = "large_synth"
    why = ("synth at 50k samples over const, poly and linear-ratio kappa: the "
           "nested SmoothCumulative quadrature on a dense sorted grid plus CSV writing")
    samples = 50_000

    def round(self, i, outdir):
        rng = self.rng(0, i)
        return [synth_op(whirl_model(rng, fam), self.samples, "csv",
                         os.path.join(outdir, fam))[0]
                for fam in ("const", "poly", "linear-ratio")]


class LargeVerify(Workload):
    name = "large_verify"
    why = ("verify on 20k-sample synthesized and closed-form rectifying traces "
           "built in set-up: the per-row trace_frames loop and trace reading")
    samples = 20_000

    def __init__(self, seed, inputs):
        super().__init__(seed, inputs)
        self.pool = self._pool()

    def _pool(self):
        """(verify op, trace builder) for two synthesized and two rectifying traces.

        Round i verifies pool[2*(i%2)] and pool[2*(i%2)+1]: one synthesized
        and one rectifying trace, one CSV and one JSON, so every round does
        the same amount of reading.  The specs are cheap to draw; only
        ``setup`` builds the traces.
        """
        rng = self.rng(1)
        n = self.samples
        a, b, lam = rect_model(rng)
        pool = []
        for k, (synth_fmt, rect_fmt, branch) in enumerate((("csv", "json", 1),
                                                           ("json", "csv", -1))):
            spec = whirl_model(rng, "const")
            path = os.path.join(self.inputs, f"synth{k}.{synth_fmt}")
            pool.append((verify_op(path, spec["lam"], "NEGATIVE"),
                         functools.partial(_synth_trace, spec, n)))
            grid = np.linspace(*branch_range(a, b, branch), n)
            path = os.path.join(self.inputs, f"rect{branch:+d}.{rect_fmt}")
            pool.append((verify_rect_op(path, a, lam, branch),
                         functools.partial(_rect_trace, a, b, lam, grid)))
        return pool

    def setup(self):
        import whirlcurves as wc
        for op, build in self.pool:
            path = op.argv[-1]
            (wc.write_json if path.endswith(".json") else wc.write_csv)(build(), path)

    def round(self, i, outdir):
        return [op for op, _ in self.pool[2 * (i % 2): 2 * (i % 2) + 2]]


def _synth_trace(spec, n):
    import whirlcurves as wc
    ws = wc.WhirlSpec(kappa=wc.kappa_constant(spec["k0"]), lam=spec["lam"],
                      bound=float(bound_from_h0(spec["h0"], spec["lam"])),
                      s0=spec["s0"], z_sign=spec["z_sign"], tau_sign=spec["tau_sign"])
    return wc.synthesize(ws, spec["lo"], spec["hi"], n)


def _rect_trace(a, b, lam, grid):
    import whirlcurves as wc
    return wc.CurveTrace(grid, rect_point(a, b, lam, grid))


WORKLOADS = {w.name: w for w in (PaperSweep, LargeSynth, LargeVerify)}
