"""Per-layer tracing by wrapping the library's public functions in place.

Each wrapper is installed where its caller looks the function up (a module
attribute such as ``whirl.frenet_at`` or a class attribute such as
``SmoothCumulative.__call__``), so no file of the library changes.  Spans
nest: a span's self time is its duration minus the time of the spans it
encloses.  ``uninstall`` puts every original object back.
"""

import os
import time
from collections import defaultdict

import numpy as np


def _size(args, out):
    return int(np.size(args[1]))


def _frames(args, out):
    return len(out)


def _bytes(args, out):
    return os.path.getsize(args[1] if len(args) > 1 else args[0])


def _value(args, out):
    return float(out)


def _max_abs(args, out):
    return float(np.max(np.abs(out)))


def _axis_resid(args, out):
    return max(out.max_deviation, out.max_residual)


def _rms(args, out):
    return out.rms


def sites():
    """(owner, attribute, layer, counts, worst) for every wrapped function.

    ``counts`` maps a count name to fn(args, result), summed over calls;
    ``worst`` maps a residual name to fn(args, result), maximized.
    """
    from whirlcurves import cli, frenet, numerics, rectifying, synthesis, traceio, whirl
    points = {"points": _size}
    nbytes = {"bytes": _bytes}
    return [
        (cli, "trace_frames", "frenet.trace_frames", {"frames": _frames}, {}),
        (cli, "unit_speed_residual", "frenet.unit_speed_residual", {}, {"resid": _value}),
        (whirl, "frenet_at", "frenet.frenet_at", {}, {}),
        (rectifying, "frenet_at", "frenet.frenet_at", {}, {}),
        (frenet, "derivative", "numerics.derivative", {}, {}),
        (rectifying, "derivative", "numerics.derivative", {}, {}),
        (numerics.SmoothCumulative, "__call__", "numerics.smooth_cumulative", points, {}),
        (numerics.ScalarFn, "__call__", "synthesis.kappa", points, {}),
        (synthesis.WhirlCurve, "tangent", "synthesis.tangent", points, {}),
        (synthesis, "synthesize", "synthesis.synthesize", {}, {}),
        (synthesis, "intrinsic_residual_max", "synthesis.intrinsic_residual_max",
         {}, {"resid": _value}),
        (whirl, "verify_whirl", "whirl.verify_whirl", {}, {"resid": _axis_resid}),
        (whirl, "fit_lambda_axis", "whirl.fit_lambda_axis", {}, {"rms": _rms}),
        (rectifying, "chen_ratio_fit", "rectifying.chen_ratio_fit", {}, {"rms": _rms}),
        (rectifying, "curve_point", "rectifying.curve_point", {}, {}),
        (rectifying, "extended_point", "rectifying.extended_point", {}, {}),
        (rectifying, "extended_sphere_point", "rectifying.extended_sphere_point", {}, {}),
        (rectifying, "hyperboloid_residual", "rectifying.hyperboloid_residual",
         {}, {"resid": _max_abs}),
        (traceio, "write_csv", "traceio.write_csv", nbytes, {}),
        (traceio, "write_json", "traceio.write_json", nbytes, {}),
        (traceio, "read_csv", "traceio.read_csv", nbytes, {}),
        (traceio, "read_json", "traceio.read_json", nbytes, {}),
    ]


class LayerStats:
    def __init__(self):
        self.calls = 0
        self.self_ns = 0
        self.counts = defaultdict(int)
        self.worst = defaultdict(float)


class Tracer:
    """Wraps the library's layers and aggregates spans in memory."""

    def __init__(self):
        self.stats = defaultdict(LayerStats)
        self._open = []          # child time accumulated by each open span
        self._saved = []         # (owner, attribute, original) for uninstall

    def span(self, name, fn, *args, **kwargs):
        """Call ``fn`` as a span named ``name`` and return its result."""
        self._open.append(0)
        t0 = time.perf_counter_ns()
        try:
            out = fn(*args, **kwargs)
        finally:
            dt = time.perf_counter_ns() - t0
            child = self._open.pop()
            st = self.stats[name]
            st.calls += 1
            st.self_ns += dt - child
            if self._open:
                self._open[-1] += dt
        return out

    def _wrap(self, fn, name, counts, worst):
        def wrapper(*args, **kwargs):
            out = self.span(name, fn, *args, **kwargs)
            st = self.stats[name]
            for key, count in counts.items():
                st.counts[key] += count(args, out)
            for key, value in worst.items():
                st.worst[key] = max(st.worst[key], value(args, out))
            return out
        wrapper.__wrapped__ = fn
        wrapper.bench_layer = name
        return wrapper

    def install(self):
        if self._saved:
            raise RuntimeError("tracer already installed")
        for owner, attr, name, counts, worst in sites():
            original = vars(owner)[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, name, counts, worst))

    def uninstall(self):
        """Restore every wrapped attribute; return the sites still wrapped."""
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)
        return [f"{owner.__name__}.{attr}" for owner, attr, *_ in sites()
                if hasattr(vars(owner)[attr], "bench_layer")]

    def counts(self):
        """Snapshot of every count and call count, keyed ``layer.count``."""
        out = {f"{name}.calls": st.calls for name, st in self.stats.items()}
        out.update({f"{name}.{k}": v for name, st in self.stats.items()
                    for k, v in st.counts.items()})
        return out
