"""Sampled-curve container and its CSV/JSON serialization.

CSV schema: header ``s,x,y,z`` (or ``t,x,y,z`` for sphere-curve traces),
ASCII, '.' decimal separator, LF line endings.  JSON schema:
``{"meta": {...}, "samples": [[s, x, y, z], ...]}``, every sample a JSON
number (not a string or a bool) and ``meta``, if present, an object.  Every sample is
written as its shortest round-trip decimal in the layout of ``repr``:
orjson's Ryu formatter prints 4096 rows at a time as one flat list, and
``_repr_chunks`` turns every fourth comma into a newline.  One rule picks
each number's text: orjson's token where orjson and ``repr`` print a float
alike (0, and 1e-4 <= |v| < 1e16), ``repr`` itself for every other value.
orjson parses JSON traces, with the cyclic collector paused while it builds
one list per row: those lists hold only numbers, so no cycle is missed, and
a 20k-row read otherwise ran about 28 collections, a full one in about one
read in five.  orjson also parses a CSV body that holds only
``0123456789.eE+-,`` and LFs, 3 commas a row, as one flat list;
``np.loadtxt`` reads every other CSV body (``+1``, ``.5``, ``1.``, ``01``,
``-0``, ``nan``, spaces, CRs, blank lines, ...) and words every CSV error.
"""

import gc
import json
from dataclasses import dataclass, field
from typing import Any, Dict

import numpy as np
import orjson


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


_CHUNK = 4096   # rows per orjson call: few buffers are alive at any time
_CSV_BYTES = b"0123456789.eE+-,\n"   # the only bytes of a CSV body orjson parses


def _repr_chunks(trace: CurveTrace):
    """The rows of ``trace`` in ``repr``'s CSV layout, one ``uint8`` buffer per 4096:
    orjson's tokens, but ``repr``'s wherever the two differ, 0 < |v| < 1e-4 or |v| >= 1e16."""
    rows = trace.rows()
    for i in range(0, len(rows), _CHUNK):
        flat = rows[i:i + _CHUNK].ravel()
        text = orjson.dumps(flat, option=orjson.OPT_SERIALIZE_NUMPY)
        mag = np.abs(flat)
        apart = np.flatnonzero((mag > 0.0) & (mag < 1e-4) | (mag >= 1e16))
        if apart.size:
            tokens = text[1:-1].split(b",")
            for k in apart.tolist():
                tokens[k] = b"%r" % flat.item(k)
            text = b"[%b]" % b",".join(tokens)
            del tokens   # 16k small objects, freed before the copy below: ~0.6 MB of peak RSS
        buf = np.frombuffer(text, dtype=np.uint8)[1:].copy()   # drop the "["
        buf[np.flatnonzero(buf == ord(","))[3::4]] = ord("\n")
        buf[-1] = ord("\n")                                   # the closing "]"
        yield buf


def _validated(data, meta, path) -> CurveTrace:
    """CurveTrace of the (n, 4) ``data`` read from ``path``, errors naming it."""
    try:
        return CurveTrace(data[:, 0], data[:, 1:], meta=meta)
    except ValueError as exc:
        raise ValueError(f"{exc} in {path}") from None


def write_csv(trace: CurveTrace, path) -> None:
    with open(path, "wb") as fh:
        fh.write(f"{trace.param},x,y,z\n".encode())
        fh.writelines(_repr_chunks(trace))


def _csv_param(line: str):
    """The parameter name of a valid CSV header line, else None."""
    header = [c.strip() for c in line.split(",")]
    if len(header) != 4 or header[1:] != ["x", "y", "z"]:
        return None
    return header[0]


def _flat_csv(raw: bytes):
    """(param, (n, 4) rows) of a CSV trace whose rows are 4 JSON numbers each, else None.

    The body is parsed as one flat orjson list, only when it holds nothing but
    ``0123456789.eE+-,`` and LFs, with 3 commas a row; JSON's grammar rejects
    ``+1``, ``.5``, ``1.``, ``01`` and ``1e400``, and ``-0``, which orjson reads
    as the integer 0, is left to ``np.loadtxt`` too.
    """
    head, _, body = raw.partition(b"\n")
    body = body.rstrip(b"\n")
    if not body or not head.isascii() or b"\r" in head or body.translate(None, _CSV_BYTES):
        return None
    param = _csv_param(head.decode())
    buf = np.frombuffer(body, dtype=np.uint8)
    commas, ends = np.flatnonzero(buf == ord(",")), np.flatnonzero(buf == ord("\n"))
    # row k's third comma comes before its end, row k+1's first after it
    if (param is None or commas.size != 3 * (ends.size + 1)
            or np.any(commas[2:-1:3] > ends) or np.any(ends > commas[3::3])):
        return None
    if body.endswith(b"-0") or any(np.any((buf[p - 1] == ord("0")) & (buf[p - 2] == ord("-")))
                                   for p in (commas, ends)):
        return None   # a token ending in "-0": orjson reads the integer -0 as 0
    try:
        flat = orjson.loads(b"[" + body.replace(b"\n", b",") + b"]")
    except orjson.JSONDecodeError:
        return None
    return param, np.fromiter(flat, dtype=float, count=len(flat)).reshape(-1, 4)


def _loadtxt_csv(path):
    """(param, (n, 4) rows) of any CSV trace, through ``np.loadtxt`` in text mode."""
    try:
        with open(path, "r") as fh:
            lines = [ln for ln in fh if ln.strip()]
    except UnicodeDecodeError as exc:   # a ValueError that would not name the file
        raise ValueError(f"malformed CSV trace in {path}: {exc}") from None
    if len(lines) < 2:
        raise ValueError(f"no samples in trace file: {path}")
    param = _csv_param(lines[0])
    if param is None:
        raise ValueError(f"bad CSV header {lines[0].strip()!r} in {path}")
    try:
        data = np.loadtxt(lines[1:], delimiter=",", ndmin=2)
    except ValueError as exc:
        raise ValueError(f"malformed CSV row in {path}: {exc}") from None
    if data.shape[1] != 4:
        raise ValueError(f"malformed CSV body in {path}")
    return param, data


def read_csv(path) -> CurveTrace:
    with open(path, "rb") as fh:
        raw = fh.read()
    param, data = _flat_csv(raw) or _loadtxt_csv(path)
    return _validated(data, {"param": param}, path)


def write_json(trace: CurveTrace, path) -> None:
    meta = dict(trace.meta)
    meta.setdefault("param", "s")
    with open(path, "wb") as fh:
        fh.write(b'{"meta": ' + json.dumps(meta).encode() + b', "samples": [')
        text = b"["
        for buf in _repr_chunks(trace):
            fh.write(text)
            text = buf.tobytes().replace(b",", b", ").replace(b"\n", b"], [")
        fh.write(text[:-3] + b"]}\n")   # the last row's "], [" ends at "]"


def read_json(path) -> CurveTrace:
    with open(path, "rb") as fh:
        text = fh.read()
    collecting = gc.isenabled()
    gc.disable()   # the parsed rows: one list each, numbers only, no cycle to find
    try:
        try:   # orjson.JSONDecodeError is a ValueError
            obj = orjson.loads(text)
        except ValueError as exc:
            raise ValueError(f"malformed JSON trace in {path}: {exc}") from None
        if not isinstance(obj, dict):
            raise ValueError(f"malformed JSON trace in {path}: "
                             f"the top level is a {type(obj).__name__}, not an object")
        try:
            data = np.asarray(obj.get("samples"))
        except ValueError:   # ragged rows, or a list nested in a row
            raise ValueError(f"malformed JSON samples in {path}") from None
        meta = obj.get("meta", {})
        if not isinstance(meta, dict):
            raise ValueError(f"malformed JSON trace in {path}: "
                             f"meta is a {type(meta).__name__}, not an object")
        # numpy reads a number and a string as strings, and a bool among numbers
        # as 0 or 1; only a file holding "true" or "false" can hold a bool
        if (data.dtype.kind not in "fiu" or data.ndim != 2 or data.shape[1] != 4
                or (_holds(text, b"true") or _holds(text, b"false"))
                and any(type(v) is bool for row in obj["samples"] for v in row)):
            raise ValueError(f"malformed JSON samples in {path}")
    finally:
        obj = None   # the rows are freed before the collector counts again
        if collecting:
            gc.enable()
    return _validated(data.astype(float, copy=False), meta, path)


def _holds(text: bytes, word: bytes) -> bool:
    """Whether ``text`` holds ``word``, found by its second byte: a one-byte
    find is memchr-fast where a word search is not, and "r" and "a" occur in
    no number (0.1 against 2.3 ms for "true" and "false" in 20k rows)."""
    i = text.find(word[1:2])
    while i >= 0 and text[i - 1:i - 1 + len(word)] != word:
        i = text.find(word[1:2], i + 1)
    return i >= 0


def read_trace(path) -> CurveTrace:
    """Dispatch on extension (.json vs anything else = CSV)."""
    if str(path).lower().endswith(".json"):
        return read_json(path)
    return read_csv(path)
