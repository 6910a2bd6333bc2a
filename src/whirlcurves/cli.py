"""Command-line front end: synthesize, sample, extend, verify and export
curve traces.

Exit codes: 0 all requested verifications pass, 1 a verification failed,
2 DomainError (the exponent bound, a branch or an interval), 3 any other
ValueError, I/O or parse error.  The parser checks every flag, so a bad
value exits 3 with one stderr line naming it.  Every check runs before the
first file is written, so a command that exits 2 or 3 writes no file.
"""

import argparse
import os
import sys

import numpy as np

from . import rectifying, synthesis, traceio, whirl
from .errors import DomainError, FrameError
from .frenet import FRAME_MARGIN, frenet_at, trace_frames, unit_speed_residual
from .numerics import derivative, sample
from .synthesis import REACH, WhirlCurve, WhirlSpec, bound_from_ratio

# the paper's Figure 1: a = 0.65, b = d = 0, these lambdas, s and t over FIGURE1_RANGE
FIGURE1_LAMBDAS = (-20.0, -4.0, -1.8, -1.0, -0.5, -0.26)
FIGURE1_RANGE = (-np.pi / 4, np.pi / 4)

MAX_SAMPLES, MAX_ENTRIES = 1_000_000, 64   # caps: --samples; poly: entries
# verify: frames skip FRAME_MARGIN samples at each end, and the fit needs MIN_FIT_FRAMES
VERIFY_MIN_SAMPLES = 2 * FRAME_MARGIN + whirl.MIN_FIT_FRAMES

# what the commands compare their residuals against; the fits compare theirs
# against whirl.FIT_RMS_TOL and rectifying.CHEN_RMS_TOL
TOLERANCES = {"unit_speed": 1e-6, "intrinsic": 1e-6, "axis": 1e-6,
              "hyperboloid": 1e-8, "sphere": 1e-8}


def _number(test, want, convert=float):
    """argparse type: a ``convert``-ed number for which ``test`` holds;
    ``want`` says what it must be."""
    def parse(text):
        try:
            val = convert(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"bad number {text!r}") from None
        if not test(val):
            raise argparse.ArgumentTypeError(f"must be {want}, got {text!r}")
        return val
    return parse


_finite = _number(np.isfinite, "finite")
_nonzero_h0 = _number(lambda v: np.isfinite(v) and v != 0.0, "finite and nonzero")
# --lambda and --a: nonzero as the library's specs require
_nonzero = _number(lambda v: np.isfinite(v) and abs(v) >= whirl.LAMBDA_FLOOR,
                   f"finite and at least {whirl.LAMBDA_FLOOR:g} in magnitude")


def _at_least(minimum):
    """argparse type for --samples: an int from ``minimum`` to MAX_SAMPLES."""
    low = _number(lambda n: n >= minimum, f"at least {minimum}", int)
    return _number(lambda n: n <= MAX_SAMPLES, f"at most {MAX_SAMPLES}", low)


def _parse_range(text, inset=0.0):
    try:
        lo, hi = (float(p) for p in text.split(":"))
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad range {text!r}, expected LO:HI")
    if not (np.isfinite(lo) and np.isfinite(hi) and lo + inset < hi - inset):
        apart = f", more than {2 * inset:.3g} apart" if inset else ""
        raise argparse.ArgumentTypeError(f"range needs finite LO < HI{apart}")
    return lo, hi


def _parse_kappa(text):
    """--kappa -> (text, kind, values): const:V with V finite and > 0,
    poly:c0,c1,... with finite coefficients (MAX_ENTRIES at most), or linear-ratio."""
    kind, _, rest = text.partition(":")
    items = rest.split(",")
    if kind == "poly" and len(items) > MAX_ENTRIES:
        raise argparse.ArgumentTypeError(f"at most {MAX_ENTRIES} poly: coefficients, "
                                         f"got {len(items)}")
    try:
        values = tuple(float(c) for c in items)
    except ValueError:
        values = ()
    if (text == "linear-ratio" or kind == "poly" and values and np.all(np.isfinite(values))
            or kind == "const" and len(values) == 1 and 0 < values[0] < np.inf):
        return text, kind, values
    raise argparse.ArgumentTypeError(
        f"expected const:V (V > 0), poly:c0,c1,... or linear-ratio, got {text!r}")


class _Parser(argparse.ArgumentParser):
    """argparse, with a one-line error for every bad command line."""

    def error(self, message):
        """A bad command line: one stderr line, without the usage text."""
        self.exit(2, f"{self.prog}: error: {message}\n")

    def _get_values(self, action, arg_strings):
        # argparse drops the "--" of --flag=-- and would hand on an empty list
        if action.option_strings and arg_strings == ["--"]:
            self.error(f"argument {action.option_strings[0]}: expected one argument")
        return super()._get_values(action, arg_strings)


def _build_parser():
    """The command-line parser; it holds no state between parses."""
    p = _Parser(
        prog="whirlcurves",
        description="Synthesize, verify and export whirl and whirl-rectifying curves.")
    sub = p.add_subparsers(dest="command", required=True)

    def command(name, func, about, min_samples=None):
        """A subcommand run by ``func``; one that writes a trace takes
        --samples (at least ``min_samples``), --format and --out."""
        sp = sub.add_parser(name, help=about, allow_abbrev=False)
        sp.set_defaults(func=func)
        if min_samples is not None:
            sp.add_argument("--samples", type=_at_least(min_samples), default=513,
                            help=f"grid size, {min_samples} to {MAX_SAMPLES} (default 513)")
            sp.add_argument("--format", choices=("csv", "json"), default="csv")
            sp.add_argument("--out", default=".", help="output directory")
        return sp

    sp = command("synth", _cmd_synth, "synthesize a whirl curve from a curvature function", 2)
    sp.add_argument("--kappa", type=_parse_kappa, default="const:1.0",
                    help="const:VALUE | linear-ratio (ratio a*s+b, uses --a/--b) | poly:c0,c1,...")
    sp.add_argument("--lambda", dest="lam", type=_nonzero, required=True)
    start = sp.add_mutually_exclusive_group(required=True)
    start.add_argument("--B", dest="bound", type=_finite, help="exponent offset")
    start.add_argument("--h0", type=_nonzero_h0,
                       help="initial torsion/curvature ratio at s0")
    sp.add_argument("--s0", type=_finite, default=0.0)
    sp.add_argument("--a", type=_finite, default=1.0, help="slope of the linear-ratio family")
    sp.add_argument("--b", type=_finite, default=0.0,
                    help="intercept of the linear-ratio family")
    sp.add_argument("--sign-z", dest="z_sign", type=int, choices=(1, -1), default=1)
    sp.add_argument("--sign-tau", dest="tau_sign", type=int, choices=(1, -1), default=1)
    # the verification stencils need REACH on both sides of their nodes
    sp.add_argument("--range", dest="srange", type=lambda t: _parse_range(t, REACH), required=True)

    rect = command("rect", _cmd_rect, "sample a closed-form whirl-rectifying curve", 3)
    rect.add_argument("--branch", choices=("plus", "minus", "auto"), default="auto")
    extend = command("extend", _cmd_extend, "sample a continuous extension", 1)
    extend.add_argument("--kind", choices=("curve", "sphere"), default="curve",
                        help="curve: whole-line extension; sphere: radial projection")
    for sp in (rect, extend):
        sp.add_argument("--a", type=_nonzero, required=True)
        sp.add_argument("--b", type=_finite, default=0.0)
        sp.add_argument("--lambda", dest="lam", type=_nonzero, required=True)
        sp.add_argument("--range", dest="srange", type=_parse_range, required=True)
    extend.add_argument("--d", dest="d_shift", type=_finite, default=0.0,
                        help="angular offset; it moves only the sphere curve (upsilon)")

    sp = command("verify", _cmd_verify, "verify the whirl/rectifying properties of a trace file")
    sp.add_argument("--in", dest="infile", required=True)

    command("figure1", _cmd_figure1, "draw the paper's Figure 1 sweep (12 traces)",
            1).set_defaults(srange=FIGURE1_RANGE)
    return p


def _write(tr, out_dir, stem, fmt):
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, f"{stem}.{fmt}")
    getattr(traceio, f"write_{fmt}")(tr, path)
    return path


def _verdict(checks, notes=(), ok=True) -> int:
    """Print the (label, value, tol) checks, the ``notes`` lines and the verdict;
    return the exit code, 0 when ``ok`` and every value < tol (a nan fails)."""
    for label, value, tol in checks:
        print(f"{label:<21} {value:.3e}  (tol {tol:g})")
    for line in notes:
        print(line)
    ok = ok and all(value < tol for _, value, tol in checks)
    print("verdict: PASS" if ok else "verdict: FAIL")
    return 0 if ok else 1


def _unsigned(x):
    """``x``, or 0.0 where 6 decimals print it as zero, with a sign that rounding decides."""
    return x if float(np.format_float_positional(x, precision=6)) else 0.0


def _grid(args):
    """The --samples grid over --range, refused where two samples are equal:
    --samples finer than the float spacing of the range."""
    (lo, hi), n = args.srange, args.samples
    grid = np.linspace(lo, hi, n)
    tied = np.flatnonzero(np.diff(grid) <= 0)
    if tied.size:
        raise ValueError(f"--samples {n} is finer than the float spacing of --range "
                         f"{lo!r}:{hi!r}: s={float(grid[tied[0]])!r} repeats")
    return grid


def _make_kappa(args, lo, hi):
    _, kind, values = args.kappa
    lo, hi = min(lo, args.s0), max(hi, args.s0)
    if kind == "const":
        return synthesis.kappa_constant(values[0])
    if kind == "poly":
        return synthesis.kappa_polynomial(values, (lo, hi))
    return synthesis.kappa_linear_ratio(args.lam, args.a, args.b, (lo, hi))


def _cmd_synth(args) -> int:
    lo, hi = args.srange
    # the unit-speed check's end nodes: where its step rounds to zero, refused
    # before any panel is built or file written
    derivative(lambda s: s, np.array([lo + REACH, hi - REACH]), 1)
    bound = args.bound if args.bound is not None else bound_from_ratio(args.h0, args.lam)
    spec = WhirlSpec(kappa=_make_kappa(args, lo, hi), lam=args.lam, bound=float(bound),
                     s0=args.s0, z_sign=args.z_sign, tau_sign=args.tau_sign)
    grid = _grid(args)
    # one curve: the checks read the written positions off its windowed table
    curve = WhirlCurve(spec, window=(lo, hi))
    # from the closed forms alone, so a ratio it cannot difference is refused
    # before any panel is built
    ires = synthesis.intrinsic_residual_max(curve, lo, hi)
    tr = traceio.CurveTrace(grid, sample(curve.position, grid), meta={
        **synthesis.trace_meta(curve), "command": "synth", "kappa": args.kappa[0],
        "samples": args.samples, "range": [lo, hi]})
    # nodes REACH inside the window: tangent and ratio probes reach REACH, or
    # an ulp past the window for a rounded step, which the curve answers
    usr = unit_speed_residual(curve.position, np.linspace(lo + REACH, hi - REACH,
                                                          min(args.samples, 65)))
    inner = np.linspace(lo + REACH, hi - REACH, min(args.samples, 33))
    try:
        report = whirl.verify_whirl(curve.position, inner, lam=spec.lam,
                                    deriv=curve.tangent)
        axis, why = (report.max_deviation, report.max_residual), []
    except FrameError as exc:  # e.g. the torsion underflows to zero far out
        axis, why = (np.nan, np.nan), [f"axis check failed: {exc}"]
    path = _write(tr, args.out, "synth", args.format)
    print(f"wrote {path} ({len(tr)} samples)")
    return _verdict([("unit-speed residual", usr, TOLERANCES["unit_speed"]),
                     ("intrinsic residual", ires, TOLERANCES["intrinsic"]),
                     ("axis max deviation", axis[0], TOLERANCES["axis"]),
                     ("proportionality max", axis[1], TOLERANCES["axis"])], why)


def _cmd_rect(args) -> int:
    lo, hi = args.srange
    mid_h = args.a * 0.5 * (lo + hi) + args.b   # auto: the branch at the range's middle
    branch = {"plus": 1, "minus": -1}.get(args.branch, 1 if mid_h > 0 else -1)
    spec = rectifying.RectifyingSpec(a=args.a, b=args.b, lam=args.lam, branch=branch)
    grid = _grid(args)
    pts = rectifying.curve_point(spec, grid)
    tr = traceio.CurveTrace(grid, pts, meta={
        "param": "s", "command": "rect", "a": args.a, "b": args.b,
        "lam": args.lam, "d": spec.d_shift, "branch": branch,
        "samples": args.samples, "range": [lo, hi]})
    usr = unit_speed_residual(lambda s: rectifying.curve_point(spec, s), grid)
    hres = float(np.max(np.abs(rectifying.hyperboloid_residual(pts, spec.lam, spec.a))))
    frames = frenet_at(lambda s: rectifying.curve_point(spec, s), grid,
                       deriv=lambda s: rectifying.curve_velocity(spec, s))
    chen = rectifying.chen_ratio_fit(frames)
    path = _write(tr, args.out, "rect", args.format)
    print(f"wrote {path} ({len(tr)} samples)")
    return _verdict(
        [("unit-speed residual", usr, TOLERANCES["unit_speed"]),
         ("hyperboloid residual", hres, TOLERANCES["hyperboloid"]),
         ("chen fit rms", chen.rms, rectifying.CHEN_RMS_TOL)],
        notes=[f"chen fit              c1={chen.c1:.6f} c2={_unsigned(chen.c2):.6f} "
               f"change={chen.change:.3e}  (floor {rectifying.SLOPE_FLOOR:g}) "
               f"({'rectifying' if chen.is_rectifying else 'not rectifying: ' + chen.note})"],
        ok=chen.is_rectifying)


def _extension(args, spec, kind, grid):
    """Sample, write and score one continuous extension: (path, max residual).
    The "curve" kind is scored on the hyperboloid, the "sphere" kind on |p| = 1."""
    if kind == "curve":
        pts = rectifying.extended_point(spec, grid)
        stem, param = "omega", "s"
        resid = rectifying.hyperboloid_residual(pts, spec.lam, spec.a)
    else:
        pts = rectifying.extended_sphere_point(spec, grid)
        stem, param = "upsilon", "t"
        resid = np.linalg.norm(pts, axis=1) - 1.0
    tr = traceio.CurveTrace(grid, pts, meta={
        "param": param, "command": args.command, "kind": kind, "a": spec.a,
        "b": spec.b, "lam": spec.lam, "d": spec.d_shift,
        "samples": args.samples, "range": list(args.srange)})
    path = _write(tr, args.out, f"{stem}_lambda{spec.lam:g}", args.format)
    return path, float(np.max(np.abs(resid)))


def _cmd_extend(args) -> int:
    spec = rectifying.RectifyingSpec(a=args.a, b=args.b, lam=args.lam, d_shift=args.d_shift)
    grid = _grid(args)
    path, resid = _extension(args, spec, args.kind, grid)
    name = "hyperboloid" if args.kind == "curve" else "sphere"
    print(f"wrote {path} ({len(grid)} samples)")
    return _verdict([(f"{name} residual", resid, TOLERANCES[name])])


def _cmd_verify(args) -> int:
    tr = traceio.read_trace(args.infile)
    if len(tr) < VERIFY_MIN_SAMPLES:
        raise ValueError(f"insufficient samples: need at least {VERIFY_MIN_SAMPLES} samples, "
                         f"got {len(tr)} in {args.infile}")
    try:
        frames = trace_frames(tr)
        fit = whirl.fit_lambda_axis(frames)
    except FrameError as exc:   # e.g. a straight stretch: no frame, so neither kind of curve
        print(f"samples               {len(tr)}")
        print(f"whirl verdict:        NEGATIVE  ({exc})")
        print(f"rectifying verdict:   NEGATIVE  ({exc})")
        return 1
    chen = rectifying.chen_ratio_fit(frames)
    ax = np.array2string(np.vectorize(_unsigned)(fit.axis), precision=6, suppress_small=True)
    print(f"samples               {len(tr)} (frames at {len(frames)} interior nodes)")
    print(f"fitted lambda         {fit.lam:.6g}")
    print(f"fitted axis           {ax}")
    print(f"fit rms residual      {fit.rms:.3e}  (tol {whirl.FIT_RMS_TOL:g})")
    print(f"chen fit              c1={chen.c1:.6g} c2={chen.c2:.6g} rms={chen.rms:.3e}")
    print(f"whirl verdict:        {'POSITIVE' if fit.is_whirl else 'NEGATIVE'}"
          + (f"  ({fit.note})" if fit.note else ""))
    print(f"rectifying verdict:   {'POSITIVE' if chen.is_rectifying else 'NEGATIVE'}"
          + (f"  ({chen.note})" if chen.note else ""))
    return 0 if fit.is_whirl else 1


def _cmd_figure1(args) -> int:
    grid = _grid(args)
    worst_h = worst_s = 0.0
    for lam in FIGURE1_LAMBDAS:
        spec = rectifying.RectifyingSpec(a=0.65, b=0.0, lam=lam)
        path, hres = _extension(args, spec, "curve", grid)
        spath, sres = _extension(args, spec, "sphere", grid)
        worst_h, worst_s = max(worst_h, hres), max(worst_s, sres)
        print(f"lambda={spec.lam:<6g} {os.path.basename(path)} (hyperboloid {hres:.2e})  "
              f"{os.path.basename(spath)} (sphere {sres:.2e})")
    return _verdict([("worst hyperboloid residual", worst_h, TOLERANCES["hyperboloid"]),
                     ("worst sphere residual", worst_s, TOLERANCES["sphere"])])


_PARSER = _build_parser()   # built once per process, at import


def main(argv=None) -> int:
    try:
        args = _PARSER.parse_args(argv)
    except SystemExit as exc:
        return 3 if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except DomainError as exc:
        print(f"domain error: {exc}", file=sys.stderr)
        return 2
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
