"""Order statistics and run provenance for the benchmark report."""

import gc
import hashlib
import os
import platform
import subprocess
import time
from pathlib import Path

MODULES = ("cli", "synthesis", "numerics", "frenet", "whirl", "rectifying", "traceio")
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
TAIL_BEYOND = 10
# median best-of-3 time of reference_kernel on the 2-core VM the bounds were
# set on (Python 3.11, numpy 2.4); it only fixes the scale of the reported times
REF_KERNEL_S = 0.0022


def tail(values):
    """Highest percentile with at least TAIL_BEYOND samples above it.

    Never below the median: with fewer than 2 * TAIL_BEYOND + 1 samples the
    upper median stands in.  Returns (value, nearest-rank percentile, samples
    beyond, sample count).
    """
    v = sorted(values)
    n = len(v)
    k = max(n - 1 - TAIL_BEYOND, n // 2)
    return v[k], 100.0 * (k + 1) / n, n - 1 - k, n


def reference_kernel():
    """A fixed computation that uses nothing from the library under test.

    It mixes small numpy calls made from a Python loop, as frame extraction
    does, with one vectorised pass over a 20 000-point array.
    """
    import numpy as np
    v = np.arange(3.0)
    acc = 0.0
    for i in range(50):
        w = np.cross(v, v + i)
        acc += float(np.dot(w, w)) ** 0.5
    return acc + float(np.cumsum(np.sin(np.linspace(0.0, 1.0, 20_000)))[-1])


def host_speed():
    """How fast this host runs now, relative to the reference: REF_KERNEL_S / kernel time.

    Other tenants of a shared machine slow it by up to 2x for minutes at a
    time, and the library slows with it.  Multiplying a wall time measured
    next to this call by its result gives the time on the reference host.
    Best of 3 with the garbage collector off, so that no collection of the
    measured commands' garbage lands in the kernel.
    """
    best = float("inf")
    gc.disable()
    try:
        for _ in range(3):
            t0 = time.perf_counter()
            reference_kernel()
            best = min(best, time.perf_counter() - t0)
    finally:
        gc.enable()
    return REF_KERNEL_S / best


def src_lines(src):
    return {m: len((Path(src) / "whirlcurves" / f"{m}.py").read_text().splitlines())
            for m in MODULES}


def provenance(root, src):
    """Commit, interpreter, numpy, core count and BLAS pinning of this run."""
    import numpy as np
    commit = "unknown (not a git checkout)"
    if (Path(root) / ".git").exists():
        proc = subprocess.run(["git", "-C", str(root), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
        if proc.returncode == 0:
            commit = proc.stdout.strip()
    digest = hashlib.sha256()
    for path in sorted((Path(src) / "whirlcurves").glob("*.py")):
        digest.update(path.name.encode())
        digest.update(path.read_bytes())
    return {
        "commit": commit,
        "src_sha256": digest.hexdigest()[:16],
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "blas_threads": {var: os.environ.get(var) for var in BLAS_VARS},
    }
