"""Command-line front end: synthesize, sample, extend, verify and export
curve traces.

Exit codes: 0 all requested verifications pass, 1 a verification failed,
2 domain error (the exponent bound or a branch/interval constraint), 3 I/O
or parse error.
"""

import argparse
import os
import sys

import numpy as np

from . import rectifying, synthesis, traceio, whirl
from .errors import DomainError, FrameError, QuadratureError
from .frenet import trace_frames, unit_speed_residual
from .synthesis import WhirlSpec, WhirlCurve, bound_from_ratio

FIGURE1_LAMBDAS = (-20.0, -4.0, -1.8, -1.0, -0.5, -0.26)
MIN_SAMPLES = {"synth": 2, "rect": 3, "extend": 1, "figure1": 1}

DEFAULT_TOLS = {
    "unit_speed": 1e-6,
    "intrinsic": 1e-6,
    "axis": 1e-6,
    "hyperboloid": 1e-8,
    "sphere": 1e-8,
    "fit_rms": 1e-3,
    "chen_rms": 1e-3,
}


def _parse_range(text):
    try:
        lo, hi = (float(p) for p in text.split(":"))
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad range {text!r}, expected LO:HI")
    if not lo < hi:
        raise argparse.ArgumentTypeError("range needs LO < HI")
    if not (np.isfinite(lo) and np.isfinite(hi)):
        raise argparse.ArgumentTypeError("range must be finite")
    return lo, hi


def _nonzero(text):
    """--lambda and --a: finite, and nonzero as the library's specs require."""
    try:
        val = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad number {text!r}")
    if not (np.isfinite(val) and abs(val) >= whirl.LAMBDA_FLOOR):
        raise argparse.ArgumentTypeError(
            f"must be finite and at least {whirl.LAMBDA_FLOOR:g} in magnitude, got {text!r}")
    return val


def _parse_lambdas(text):
    return tuple(_nonzero(x) for x in text.split(","))


def _parse_tol(items):
    tols = dict(DEFAULT_TOLS)
    for item in items or ():
        if "=" not in item:
            raise argparse.ArgumentTypeError(f"bad --tol {item!r}, expected NAME=VAL")
        name, val = item.split("=", 1)
        if name not in tols:
            raise argparse.ArgumentTypeError(
                f"unknown tolerance {name!r}; known: {sorted(tols)}")
        tols[name] = float(val)
    return tols


def _build_parser():
    p = argparse.ArgumentParser(
        prog="whirlcurves",
        description="Synthesize, verify and export whirl and whirl-rectifying curves.")
    sub = p.add_subparsers(dest="command", required=True)

    def add_common(sp):
        sp.add_argument("--samples", type=int, default=513,
                        help="grid size (default 513)")
        sp.add_argument("--format", choices=("csv", "json"), default="csv")
        sp.add_argument("--out", default=".", help="output directory")
        sp.add_argument("--tol", action="append", metavar="NAME=VAL",
                        help="override a verification tolerance")

    sp = sub.add_parser("synth", help="synthesize a whirl curve from a curvature function")
    sp.add_argument("--kappa", default="const:1.0",
                    help="const:VALUE | linear-ratio (ratio a*s+b, uses --a/--b) | poly:c0,c1,...")
    sp.add_argument("--lambda", dest="lam", type=_nonzero, required=True)
    sp.add_argument("--B", dest="bound", type=float, default=None,
                    help="exponent offset; exclusive with --h0")
    sp.add_argument("--h0", type=float, default=None,
                    help="initial torsion/curvature ratio at s0")
    sp.add_argument("--s0", type=float, default=0.0)
    sp.add_argument("--a", type=float, default=1.0, help="slope of the linear-ratio family")
    sp.add_argument("--b", type=float, default=0.0, help="intercept of the linear-ratio family")
    sp.add_argument("--sign-z", dest="z_sign", type=int, choices=(1, -1), default=1)
    sp.add_argument("--sign-tau", dest="tau_sign", type=int, choices=(1, -1), default=1)
    sp.add_argument("--form", choices=("spherical", "combined"), default="spherical")
    sp.add_argument("--range", dest="srange", type=_parse_range, required=True)
    add_common(sp)

    sp = sub.add_parser("rect", help="sample a closed-form whirl-rectifying curve")
    sp.add_argument("--a", type=_nonzero, required=True)
    sp.add_argument("--b", type=float, default=0.0)
    sp.add_argument("--lambda", dest="lam", type=_nonzero, required=True)
    sp.add_argument("--d", dest="d_shift", type=float, default=0.0)
    sp.add_argument("--branch", choices=("plus", "minus", "auto"), default="auto")
    sp.add_argument("--range", dest="srange", type=_parse_range, required=True)
    add_common(sp)

    sp = sub.add_parser("extend", help="sample a continuous extension")
    sp.add_argument("--kind", choices=("curve", "sphere"), default="curve",
                    help="curve: whole-line extension; sphere: radial projection")
    sp.add_argument("--a", type=_nonzero, required=True)
    sp.add_argument("--b", type=float, default=0.0)
    sp.add_argument("--lambda", dest="lam", type=_nonzero, required=True)
    sp.add_argument("--d", dest="d_shift", type=float, default=0.0)
    sp.add_argument("--range", dest="srange", type=_parse_range, required=True)
    add_common(sp)

    sp = sub.add_parser("verify", help="verify the whirl/rectifying properties of a trace file")
    sp.add_argument("--in", dest="infile", required=True)
    sp.add_argument("--tol", action="append", metavar="NAME=VAL")

    sp = sub.add_parser("figure1", help="reproduce the reference parameter sweep (12 traces)")
    sp.add_argument("--a", type=_nonzero, default=0.65)
    sp.add_argument("--b", type=float, default=0.0)
    sp.add_argument("--d", dest="d_shift", type=float, default=0.0)
    sp.add_argument("--lambdas", type=_parse_lambdas, default=FIGURE1_LAMBDAS,
                    help="comma-separated overrides for the lambda sweep")
    sp.add_argument("--range", dest="srange", type=_parse_range,
                    default=(-np.pi / 4, np.pi / 4))
    add_common(sp)
    return p


def _write(tr, out_dir, stem, fmt):
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, f"{stem}.{fmt}")
    if fmt == "json":
        traceio.write_json(tr, path)
    else:
        traceio.write_csv(tr, path)
    return path


def _make_kappa(args, lo, hi):
    spec = args.kappa
    hull = (min(lo, args.s0) - 1.0, max(hi, args.s0) + 1.0)
    if spec.startswith("const:"):
        return synthesis.kappa_constant(float(spec.split(":", 1)[1]))
    if spec == "linear-ratio":
        return synthesis.kappa_linear_ratio(args.lam, args.a, args.b,
                                            (min(lo, args.s0), max(hi, args.s0)))
    if spec.startswith("poly:"):
        coeffs = [float(c) for c in spec.split(":", 1)[1].split(",")]
        return synthesis.kappa_polynomial(coeffs, hull)
    raise ValueError(f"bad --kappa {spec!r}")


def _cmd_synth(args) -> int:
    tols = _parse_tol(args.tol)
    lo, hi = args.srange
    kappa = _make_kappa(args, lo, hi)
    if (args.bound is None) == (args.h0 is None):
        print("error: exactly one of --B / --h0 is required", file=sys.stderr)
        return 3
    bound = args.bound if args.bound is not None else bound_from_ratio(args.h0, args.lam)
    spec = WhirlSpec(kappa=kappa, lam=args.lam, bound=float(bound), s0=args.s0,
                     z_sign=args.z_sign, tau_sign=args.tau_sign)
    tr = synthesis.synthesize(spec, lo, hi, args.samples, form=args.form)
    tr.meta.update({"command": "synth", "kappa": args.kappa,
                    "samples": args.samples, "range": [lo, hi]})
    path = _write(tr, args.out, "synth", args.format)

    curve = WhirlCurve(spec, origin=lo, form=args.form)
    # inset so the difference probes cannot step over the validated window
    pad = 0.02 * (hi - lo)
    sub = np.linspace(lo + pad, hi - pad, min(args.samples, 65))
    usr = unit_speed_residual(curve.position, sub)
    ires = synthesis.intrinsic_residual_max(spec, lo + pad, hi - pad)
    inner = np.linspace(lo + pad, hi - pad, min(args.samples, 33))
    report = whirl.verify_whirl(curve.position, inner, lam=spec.lam,
                                deriv=curve.tangent)
    print(f"wrote {path} ({len(tr)} samples)")
    print(f"unit-speed residual   {usr:.3e}  (tol {tols['unit_speed']:g})")
    print(f"intrinsic residual    {ires:.3e}  (tol {tols['intrinsic']:g})")
    print(f"axis max deviation    {report.max_deviation:.3e}  (tol {tols['axis']:g})")
    print(f"proportionality max   {report.max_residual:.3e}  (tol {tols['axis']:g})")
    ok = (usr < tols["unit_speed"] and ires < tols["intrinsic"]
          and report.passes(tols["axis"]))
    print("verdict: PASS" if ok else "verdict: FAIL")
    return 0 if ok else 1


def _cmd_rect(args) -> int:
    tols = _parse_tol(args.tol)
    lo, hi = args.srange
    branch = {"plus": 1, "minus": -1}.get(args.branch)
    if branch is None:
        mid_h = args.a * 0.5 * (lo + hi) + args.b
        branch = 1 if mid_h > 0 else -1
    spec = rectifying.RectifyingSpec(a=args.a, b=args.b, lam=args.lam,
                                     d_shift=args.d_shift, branch=branch)
    grid = np.linspace(lo, hi, args.samples)
    pts = rectifying.curve_point(spec, grid)
    tr = traceio.CurveTrace(grid, pts, meta={
        "param": "s", "command": "rect", "a": args.a, "b": args.b,
        "lam": args.lam, "d": args.d_shift, "branch": branch,
        "samples": args.samples, "range": [lo, hi]})
    path = _write(tr, args.out, "rect", args.format)
    usr = unit_speed_residual(lambda s: rectifying.curve_point(spec, s), grid)
    hres = float(np.max(np.abs(rectifying.hyperboloid_residual(pts, spec.lam, spec.a))))
    chen = rectifying.chen_ratio_fit(
        lambda s: rectifying.curve_point(spec, s), grid,
        deriv=lambda s: rectifying.curve_velocity(spec, s),
        rms_tol=tols["chen_rms"])
    print(f"wrote {path} ({len(tr)} samples)")
    print(f"unit-speed residual   {usr:.3e}  (tol {tols['unit_speed']:g})")
    print(f"hyperboloid residual  {hres:.3e}  (tol {tols['hyperboloid']:g})")
    print(f"chen fit              c1={chen.c1:.6f} c2={chen.c2:.6f} rms={chen.rms:.3e} "
          f"({'rectifying' if chen.is_rectifying else 'not rectifying'})")
    ok = usr < tols["unit_speed"] and hres < tols["hyperboloid"] and chen.is_rectifying
    print("verdict: PASS" if ok else "verdict: FAIL")
    return 0 if ok else 1


def _cmd_extend(args) -> int:
    tols = _parse_tol(args.tol)
    lo, hi = args.srange
    spec = rectifying.RectifyingSpec(a=args.a, b=args.b, lam=args.lam,
                                     d_shift=args.d_shift)
    grid = np.linspace(lo, hi, args.samples)
    if args.kind == "curve":
        pts = rectifying.extended_point(spec, grid)
        stem, param = f"omega_lambda{args.lam:g}", "s"
        resid = float(np.max(np.abs(
            rectifying.hyperboloid_residual(pts, spec.lam, spec.a))))
        label, tol = "hyperboloid residual", tols["hyperboloid"]
    else:
        pts = rectifying.extended_sphere_point(spec, grid)
        stem, param = f"upsilon_lambda{args.lam:g}", "t"
        resid = float(np.max(np.abs(np.linalg.norm(pts, axis=1) - 1.0)))
        label, tol = "sphere residual", tols["sphere"]
    tr = traceio.CurveTrace(grid, pts, meta={
        "param": param, "command": "extend", "kind": args.kind, "a": args.a,
        "b": args.b, "lam": args.lam, "d": args.d_shift,
        "samples": args.samples, "range": [lo, hi]})
    path = _write(tr, args.out, stem, args.format)
    print(f"wrote {path} ({len(tr)} samples)")
    print(f"{label:<21} {resid:.3e}  (tol {tol:g})")
    ok = resid < tol
    print("verdict: PASS" if ok else "verdict: FAIL")
    return 0 if ok else 1


def _cmd_verify(args) -> int:
    tols = _parse_tol(args.tol)
    tr = traceio.read_trace(args.infile)
    frames = trace_frames(tr)
    fit = whirl.fit_lambda_axis(frames, rms_tol=tols["fit_rms"])
    chen = rectifying.chen_ratio_fit(frames, rms_tol=tols["chen_rms"])
    ax = np.array2string(fit.axis, precision=6, suppress_small=True)
    print(f"samples               {len(tr)} (frames at {len(frames)} interior nodes)")
    print(f"fitted lambda         {fit.lam:.6g}")
    print(f"fitted axis           {ax}")
    print(f"fit rms residual      {fit.rms:.3e}  (tol {tols['fit_rms']:g})")
    print(f"chen fit              c1={chen.c1:.6g} c2={chen.c2:.6g} rms={chen.rms:.3e}")
    print(f"whirl verdict:        {'POSITIVE' if fit.is_whirl else 'NEGATIVE'}"
          + (f"  ({fit.note})" if fit.note else ""))
    print(f"rectifying verdict:   {'POSITIVE' if chen.is_rectifying else 'NEGATIVE'}"
          + (f"  ({chen.note})" if chen.note else ""))
    return 0 if fit.is_whirl else 1


def _cmd_figure1(args) -> int:
    tols = _parse_tol(args.tol)
    lo, hi = args.srange
    grid = np.linspace(lo, hi, args.samples)
    worst_h = worst_s = 0.0
    for lam in args.lambdas:
        spec = rectifying.RectifyingSpec(a=args.a, b=args.b, lam=lam,
                                         d_shift=args.d_shift)
        pts = rectifying.extended_point(spec, grid)
        tr = traceio.CurveTrace(grid, pts, meta={
            "param": "s", "command": "figure1", "kind": "curve", "a": args.a,
            "b": args.b, "lam": lam, "d": args.d_shift,
            "samples": args.samples, "range": [lo, hi]})
        path = _write(tr, args.out, f"omega_lambda{lam:g}", args.format)
        hres = float(np.max(np.abs(rectifying.hyperboloid_residual(pts, lam, args.a))))
        worst_h = max(worst_h, hres)

        spts = rectifying.extended_sphere_point(spec, grid)
        tr = traceio.CurveTrace(grid, spts, meta={
            "param": "t", "command": "figure1", "kind": "sphere", "a": args.a,
            "b": args.b, "lam": lam, "d": args.d_shift,
            "samples": args.samples, "range": [lo, hi]})
        spath = _write(tr, args.out, f"upsilon_lambda{lam:g}", args.format)
        sres = float(np.max(np.abs(np.linalg.norm(spts, axis=1) - 1.0)))
        worst_s = max(worst_s, sres)
        print(f"lambda={lam:<6g} {os.path.basename(path)} (hyperboloid {hres:.2e})  "
              f"{os.path.basename(spath)} (sphere {sres:.2e})")
    ok = worst_h < tols["hyperboloid"] and worst_s < tols["sphere"]
    print(f"worst hyperboloid residual {worst_h:.3e}, worst sphere residual {worst_s:.3e}")
    print("verdict: PASS" if ok else "verdict: FAIL")
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if getattr(args, "samples", 0) < MIN_SAMPLES.get(args.command, 0):
            parser.error(f"argument --samples: must be at least {MIN_SAMPLES[args.command]}")
    except SystemExit as exc:
        return 3 if exc.code not in (0, None) else 0
    handlers = {
        "synth": _cmd_synth,
        "rect": _cmd_rect,
        "extend": _cmd_extend,
        "verify": _cmd_verify,
        "figure1": _cmd_figure1,
    }
    try:
        return handlers[args.command](args)
    except DomainError as exc:
        print(f"domain error: {exc}", file=sys.stderr)
        return 2
    except (OSError, ValueError, FrameError, QuadratureError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
