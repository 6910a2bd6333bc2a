"""Sampled-curve container and its CSV/JSON serialization.

CSV schema: header ``s,x,y,z`` (or ``t,x,y,z`` for sphere-curve traces),
ASCII, '.' decimal separator, LF line endings, shortest round-trip decimal
representation for every number.  JSON schema:
``{"meta": {...}, "samples": [[s, x, y, z], ...]}``.
"""

import json
from dataclasses import dataclass, field
from typing import Any, Dict

import numpy as np


@dataclass
class CurveTrace:
    """Ordered (parameter, point) samples plus free-form metadata.

    The parameter column is strictly increasing and every point is finite.
    The name of the parameter column ("s" unless stated otherwise) lives in
    ``meta["param"]``.
    """

    s: np.ndarray
    points: np.ndarray
    meta: Dict[str, Any] = field(default_factory=dict)

    def __post_init__(self):
        self.s = np.asarray(self.s, dtype=float)
        self.points = np.asarray(self.points, dtype=float)
        if self.s.ndim != 1:
            raise ValueError("parameter column must be 1-d")
        if self.points.shape != (self.s.size, 3):
            raise ValueError("points must have shape (n, 3)")
        if not np.all(np.isfinite(self.s)) or not np.all(np.isfinite(self.points)):
            raise ValueError("trace contains non-finite samples")
        if np.any(np.diff(self.s) <= 0):
            raise ValueError("parameter column must be strictly increasing")

    def __len__(self) -> int:
        return self.s.size

    @property
    def param(self) -> str:
        return self.meta.get("param", "s")

    def rows(self) -> np.ndarray:
        """(n, 4) array [param, x, y, z]."""
        return np.column_stack([self.s, self.points])


def to_csv_text(trace: CurveTrace) -> str:
    # 4096 rows per format call: few float objects are alive at any time
    rows = trace.rows()
    text = [("%r,%r,%r,%r\n" * len(b)) % tuple(b.ravel().tolist())
            for b in np.split(rows, range(4096, len(rows), 4096))]
    return f"{trace.param},x,y,z\n" + "".join(text)


def write_csv(trace: CurveTrace, path) -> None:
    with open(path, "w", newline="\n") as fh:
        fh.write(to_csv_text(trace))


def read_csv(path) -> CurveTrace:
    with open(path, "r") as fh:
        lines = [ln for ln in fh if ln.strip()]
    if len(lines) < 2:
        raise ValueError(f"no samples in trace file: {path}")
    header = [c.strip() for c in lines[0].split(",")]
    if len(header) != 4 or header[1:] != ["x", "y", "z"]:
        raise ValueError(f"bad CSV header {lines[0].strip()!r} in {path}")
    try:
        data = np.loadtxt(lines[1:], delimiter=",", ndmin=2)
    except ValueError as exc:
        raise ValueError(f"malformed CSV row in {path}: {exc}") from None
    if data.shape[1] != 4:
        raise ValueError(f"malformed CSV body in {path}")
    return CurveTrace(data[:, 0], data[:, 1:], meta={"param": header[0]})


def to_json_obj(trace: CurveTrace) -> dict:
    meta = dict(trace.meta)
    meta.setdefault("param", "s")
    return {"meta": meta, "samples": trace.rows().tolist()}


def write_json(trace: CurveTrace, path) -> None:
    # json.dumps runs the C encoder; json.dump streams through the Python one
    with open(path, "w", newline="\n") as fh:
        fh.write(json.dumps(to_json_obj(trace)))
        fh.write("\n")


def read_json(path) -> CurveTrace:
    with open(path, "r") as fh:
        obj = json.load(fh)
    if not isinstance(obj, dict) or "samples" not in obj:
        raise ValueError(f"malformed JSON trace in {path}")
    data = np.asarray(obj["samples"], dtype=float)
    if data.ndim != 2 or data.shape[1] != 4:
        raise ValueError(f"malformed JSON samples in {path}")
    return CurveTrace(data[:, 0], data[:, 1:], meta=dict(obj.get("meta", {})))


def read_trace(path) -> CurveTrace:
    """Dispatch on extension (.json vs anything else = CSV)."""
    if str(path).lower().endswith(".json"):
        return read_json(path)
    return read_csv(path)
