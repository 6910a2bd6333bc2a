"""Sampled-curve container and its CSV/JSON serialization.

CSV schema: header ``s,x,y,z`` (or ``t,x,y,z`` for sphere-curve traces),
ASCII, '.' decimal separator, LF line endings.  JSON schema:
``{"meta": {...}, "samples": [[s, x, y, z], ...]}``, every sample a JSON
number (not a string or a bool) and ``meta``, if present, an object.  Every sample is
written as its shortest round-trip decimal in the layout of ``repr``:
orjson's Ryu formatter prints 4096 rows at a time as one flat list, and
``_repr_chunks`` turns every fourth comma into a newline.  orjson's digits
are repr's everywhere; only the layout differs, in three ways that byte rules
undo: ``0.0000D...`` is ``D.D...e-05`` on [1e-5, 1e-4), ``e-D`` is ``e-0D``
on [1e-9, 1e-5) and ``eDD`` is ``e+DD`` from 1e16.  A chunk with few such
values takes ``repr``'s own token for each of them instead.
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
    ``meta["param"]``, a string that a CSV header carries back unchanged: no
    comma, CR or LF, and no leading or trailing whitespace.
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
        param = self.param
        if not isinstance(param, str) or param != param.strip() or any(
                c in param for c in ",\r\n"):
            raise ValueError(f"parameter name {param!r} must be a string without commas, "
                             "line breaks or surrounding whitespace")

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
# A chunk is relaid by the byte rules, one pass over all its bytes, when at
# least one value in ``_RELAY`` is one that orjson and repr print apart; with
# fewer, repr's tokens are spliced in at about 1 us a value.  Measured on a
# shared 2-core machine (medians of 60-200 writes), splicing wins up to about
# one such value in 22 on 4096- and 2048-row chunks and one in 18 on 513 rows.
# Over seeds 1-5 (rounds 0-5 and 0-9), 1 of paper_sweep's 570 chunks is
# relaid (115 such values in 2052) and 189 spliced; 54 of large_synth's 1950
# (824 to 4484 in 16384) and 142 spliced (at most 769).
_RELAY = 20


def _repr_chunks(trace: CurveTrace):
    """The rows of ``trace`` in ``repr``'s CSV layout, one buffer per 4096:
    orjson's tokens, in repr's layout where the two print a value apart,
    1e-9 <= |v| < 1e-4 or |v| >= 1e16."""
    rows = trace.rows()
    for i in range(0, len(rows), _CHUNK):
        flat = rows[i:i + _CHUNK].ravel()
        text = orjson.dumps(flat, option=orjson.OPT_SERIALIZE_NUMPY)
        buf = np.frombuffer(text, dtype=np.uint8)[1:].copy()   # drop the "["
        buf[-1] = ord(",")   # the closing "]": every token ends at a comma
        ends = np.flatnonzero(buf == ord(","))
        buf[ends[3::4]] = ord("\n")
        mag = np.abs(flat)
        apart = np.flatnonzero((mag >= 1e-9) & (mag < 1e-4) | (mag >= 1e16))
        if apart.size * _RELAY >= flat.size:
            buf = _relaid(buf, ends, flat, mag)
        elif apart.size:
            buf = _spliced(buf, ends, flat, apart)
        yield buf


def _spliced(buf, ends, flat, apart) -> bytes:
    """``buf`` with ``repr``'s token for each value at ``apart``."""
    view = memoryview(buf)
    cuts = zip(np.append(0, ends[apart]).tolist(),
               np.append(np.where(apart > 0, ends[apart - 1] + 1, 0), buf.size).tolist())
    pieces = [None] * (2 * apart.size + 1)
    pieces[::2] = [view[a:b] for a, b in cuts]   # orjson's bytes around those tokens
    pieces[1::2] = [b"%r" % v for v in flat[apart].tolist()]
    return b"".join(pieces)


def _relaid(buf, ends, flat, mag) -> np.ndarray:
    """``buf`` in ``repr``'s layout by orjson's three byte rules: ``0.0000D...``
    becomes ``D.D...e-05`` on [1e-5, 1e-4), ``e-D`` becomes ``e-0D`` on
    [1e-9, 1e-5), ``eDD`` becomes ``e+DD`` from 1e16.  Each byte is repeated
    ``count`` times (0 drops it, 2 makes room for one more) and the new bytes
    are written after."""
    count = np.ones(buf.size, dtype=np.intp)
    grow = np.zeros(flat.size, dtype=np.intp)   # each token's change in length
    lead = np.flatnonzero((mag >= 1e-5) & (mag < 1e-4))
    tiny = np.flatnonzero((mag >= 1e-9) & (mag < 1e-5))   # a one-digit exponent
    huge = np.flatnonzero(mag >= 1e16)
    # "0.0000D" -> "D" (delete 6), "0.0000DD..." -> "D.D..." (delete 5, move D);
    # then "e-05" before the separator
    start = np.where(lead > 0, ends[lead - 1] + 1, 0) + (flat[lead] < 0)
    single = ends[lead] - start == 7
    buf[start + 5] = buf[start + 6]
    buf[start + 6] = ord(".")
    count[start[:, None] + np.arange(5)] = 0
    count[start[single] + 6] = 0
    count[ends[lead]] = 5
    grow[lead] = -1 - single
    count[ends[tiny] - 1] = 2   # the exponent's digit, after a "0"
    grow[tiny] = 1
    big = (mag[huge] >= 1e100).astype(np.intp)   # a three-digit exponent
    count[ends[huge] - 3 - big] = 2   # the "e", before a "+"
    grow[huge] = 1
    out = np.repeat(buf, count)
    sep = ends + np.cumsum(grow)   # each token's separator in ``out``
    out[sep[lead, None] + np.arange(-4, 0)] = np.frombuffer(b"e-05", dtype=np.uint8)
    out[sep[tiny] - 2] = ord("0")
    out[sep[huge] - 3 - big] = ord("+")
    return out


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
        with open(path, "r", encoding="utf-8") as fh:   # as write_csv encodes
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
            text = bytes(buf).replace(b",", b", ").replace(b"\n", b"], [")
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
                             f"the top level is {_json_kind(obj)}, not an object")
        try:
            data = np.asarray(obj.get("samples"))
        except ValueError:   # ragged rows, or a list nested in a row
            raise ValueError(f"malformed JSON samples in {path}") from None
        meta = obj.get("meta", {})
        if not isinstance(meta, dict):
            raise ValueError(f"malformed JSON trace in {path}: "
                             f"meta is {_json_kind(meta)}, not an object")
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


def _json_kind(value) -> str:
    """JSON's name for the kind of a parsed value that is not an object."""
    if value is None or isinstance(value, bool):
        return json.dumps(value)   # null, true or false
    return {list: "an array", str: "a string"}.get(type(value), "a number")


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
