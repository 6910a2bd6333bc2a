"""CurveTrace container and CSV/JSON wire-format tests."""

import contextlib
import gc
import os
import re
import tempfile

import numpy as np
import orjson
import pytest
from hypothesis import example, given, settings, strategies as st

import reference
import whirlcurves as wc
from whirlcurves import traceio
from whirlcurves.cli import main


def _sample_trace():
    s = np.array([0.0, 0.1, 0.25, 1.0 / 3.0])
    pts = np.column_stack([s, np.sin(s), np.cos(s)])
    return wc.CurveTrace(s, pts, meta={"param": "s", "lam": -1.0, "note": "unit"})


def test_trace_validation():
    with pytest.raises(ValueError):
        wc.CurveTrace([0.0, 0.0], np.zeros((2, 3)))     # not strictly increasing
    with pytest.raises(ValueError):
        wc.CurveTrace([0.0, 1.0], np.zeros((3, 3)))     # shape mismatch
    with pytest.raises(ValueError):
        wc.CurveTrace([0.0, 1.0], [[0, 0, 0], [np.nan, 0, 0]])


def test_trace_parameter_column_must_be_1d():
    with pytest.raises(ValueError, match="^parameter column must be 1-d$"):
        wc.CurveTrace([[0.0, 1.0]], np.zeros((2, 3)))


def test_csv_round_trip_byte_identical(tmp_path):
    tr = _sample_trace()
    p1 = tmp_path / "a.csv"
    p2 = tmp_path / "b.csv"
    traceio.write_csv(tr, p1)
    back = traceio.read_csv(p1)
    traceio.write_csv(back, p2)
    assert p1.read_bytes() == p2.read_bytes()
    assert np.array_equal(back.s, tr.s)
    assert np.array_equal(back.points, tr.points)


def test_csv_header_carries_param_name(tmp_path):
    s = np.linspace(-0.5, 0.5, 5)
    tr = wc.CurveTrace(s, np.zeros((5, 3)) + [[0, 0, 1]], meta={"param": "t"})
    path = tmp_path / "w.csv"
    traceio.write_csv(tr, path)
    assert path.read_text().splitlines()[0] == "t,x,y,z"
    assert traceio.read_csv(path).param == "t"


@pytest.mark.parametrize("param", ['"a,b"', '"t\\n"', '"t\\r"', '" s"', '5', 'null'])
def test_a_parameter_name_a_csv_header_cannot_carry_is_refused(tmp_path, capsys, param):
    # each was read from JSON and written as CSV, which read_csv then refused or
    # read back as another name: "a,b" and "t\n" refused, " s" read as "s", 5 as "5"
    value = orjson.loads(param)
    with pytest.raises(ValueError, match=re.escape(f"parameter name {value!r} must be a string")):
        wc.CurveTrace([0.0, 1.0], np.zeros((2, 3)), meta={"param": value})
    rows = ", ".join(f"[{i / 11!r}, {i}, 0, 0]" for i in range(12))
    bad = tmp_path / "bad.json"
    bad.write_text(f'{{"meta": {{"param": {param}}}, "samples": [{rows}]}}')
    with pytest.raises(ValueError, match=re.escape(f"parameter name {value!r}")) as exc:
        traceio.read_json(bad)
    assert str(exc.value).endswith(f" in {bad}")
    assert main(["verify", "--in", str(bad)]) == 3
    assert capsys.readouterr().err == f"error: {exc.value}\n"


@pytest.mark.parametrize("param", ["", "θ", "arc length", "a\tb", "#s", '"s"'])
@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_a_parameter_name_a_csv_header_can_carry_round_trips(tmp_path, param, fmt):
    # what the rule above lets through is written, read back and written
    # again unchanged; a non-ASCII header takes read_csv's text parse
    write, read = getattr(traceio, f"write_{fmt}"), getattr(traceio, f"read_{fmt}")
    tr = wc.CurveTrace([0.0, 0.5, 1.0], np.zeros((3, 3)), meta={"param": param})
    first, again = tmp_path / f"a.{fmt}", tmp_path / f"b.{fmt}"
    write(tr, first)
    back = read(first)
    write(back, again)
    assert back.param == param
    assert first.read_bytes() == again.read_bytes()


def test_csv_uses_shortest_roundtrip_decimals(tmp_path):
    tr = wc.CurveTrace([0.1, 0.2], [[0.1, 0.0, 0.0], [1e-17, -3.5, 2.0]])
    path = tmp_path / "w.csv"
    traceio.write_csv(tr, path)
    body = path.read_text()
    assert "0.1,0.1,0.0,0.0" in body
    assert "1e-17" in body
    assert body.endswith("\n") and "\r" not in body


def test_json_round_trip_byte_identical(tmp_path):
    tr = _sample_trace()
    p1 = tmp_path / "a.json"
    p2 = tmp_path / "b.json"
    traceio.write_json(tr, p1)
    back = traceio.read_json(p1)
    traceio.write_json(back, p2)
    assert p1.read_bytes() == p2.read_bytes()
    assert back.meta["lam"] == -1.0
    assert np.array_equal(back.points, tr.points)


def test_read_trace_dispatches(tmp_path):
    tr = _sample_trace()
    traceio.write_json(tr, tmp_path / "x.json")
    traceio.write_csv(tr, tmp_path / "x.csv")
    assert len(traceio.read_trace(tmp_path / "x.json")) == len(tr)
    assert len(traceio.read_trace(tmp_path / "x.csv")) == len(tr)


def test_read_csv_rejects_garbage(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("s,x,y,z\n1,2,3\n")
    with pytest.raises(ValueError):
        traceio.read_csv(bad)
    bad.write_text("a,b\n")
    with pytest.raises(ValueError):
        traceio.read_csv(bad)
    bad.write_text("")
    with pytest.raises(ValueError):
        traceio.read_csv(bad)


_finite = st.floats(allow_nan=False, allow_infinity=False)


_rows = st.lists(st.tuples(_finite, _finite, _finite, _finite), min_size=1, max_size=12,
                 unique_by=lambda row: row[0])
_extremes = [(-1.7976931348623157e308, -0.0, 5e-324, 1.7976931348623157e308),
             (0.0, 0.1, -5e-324, -0.0)]


@settings(max_examples=60, deadline=None, derandomize=True)
@given(rows=_rows)
@example(rows=_extremes)
def test_csv_round_trip_arbitrary_finite_floats(rows):
    _assert_round_trip(rows, "csv")


@settings(max_examples=60, deadline=None, derandomize=True)
@given(rows=_rows)
@example(rows=_extremes)
def test_json_round_trip_arbitrary_finite_floats(rows):
    _assert_round_trip(rows, "json")


def _assert_round_trip(rows, fmt):
    # every finite double survives write + read bit for bit
    data = np.array(sorted(rows))
    tr = wc.CurveTrace(data[:, 0], data[:, 1:])
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, f"t.{fmt}")
        getattr(traceio, f"write_{fmt}")(tr, path)
        back = getattr(traceio, f"read_{fmt}")(path)
    assert back.s.tobytes() == tr.s.tobytes()
    assert back.points.tobytes() == tr.points.tobytes()


# where orjson's layout differs from repr's (1e-06, 1e+16, 1.5e-05) or nearly does
_LAYOUT_EDGES = (1e-5, -1.5e-5, 9.999999999999999e-05, 1e-4, 10.00001, 100.00001,
                 9999999999999998.0, 1e16, -1e16, 1e22, 1e-100, 1.5e300)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(rows=st.lists(st.tuples(_finite, _finite, _finite, _finite), max_size=12,
                     unique_by=lambda row: row[0]))
@example(rows=_extremes)
@example(rows=[(v, v, v, v) for v in _LAYOUT_EDGES])
def test_writers_print_every_float_as_its_repr(rows):
    _assert_written_as_repr(np.array(sorted(rows)).reshape(-1, 4))


# orjson's layout that the writer's byte rules assume, by rule: an orjson
# release that changes one fails here, by name, before any writer test does
_ORJSON_LAYOUT = [
    ("0.0000D... on [1e-5, 1e-4)", 1e-5, b"0.00001"),
    ("0.0000D... on [1e-5, 1e-4)", 1.5e-5, b"0.000015"),
    ("0.0000D... on [1e-5, 1e-4)", 9.999999999999999e-05, b"0.00009999999999999999"),
    ("as repr from 1e-4", 1e-4, b"0.0001"),
    ("e-D on [1e-9, 1e-5)", 9.999999999999999e-06, b"9.999999999999999e-6"),
    ("e-D on [1e-9, 1e-5)", 1.5e-6, b"1.5e-6"),
    ("e-D on [1e-9, 1e-5)", 1e-9, b"1e-9"),
    ("as repr below 1e-9", 9.999999999999999e-10, b"9.999999999999999e-10"),
    ("as repr below 1e-9", 5e-324, b"5e-324"),
    ("as repr below 1e16", 9999999999999998.0, b"9999999999999998.0"),
    ("eDD from 1e16", 1e16, b"1e16"),
    ("eDD from 1e16", 9.999999999999998e+99, b"9.999999999999998e99"),
    ("eDDD from 1e100", 1e100, b"1e100"),
    ("eDDD from 1e100", 1.5e300, b"1.5e300"),
]


@pytest.mark.parametrize("sign", [b"", b"-"])
@pytest.mark.parametrize("rule, value, token", _ORJSON_LAYOUT, ids=lambda v: repr(v)[:24])
def test_orjson_prints_the_layout_the_writer_relays(rule, value, sign, token):
    value = -value if sign else value
    got = orjson.dumps(np.array([value]), option=orjson.OPT_SERIALIZE_NUMPY)
    assert got == b"[" + sign + token + b"]", f"orjson's layout rule {rule!r} broke for {value!r}"


def test_writers_print_every_float_as_its_repr_across_chunks():
    # more rows than one formatting chunk, with the extremes and the decade
    # [1e-5, 1e-4), which orjson prints positionally, at its seams
    data = np.random.default_rng(5).normal(size=(9001, 4)) * 10.0 ** np.arange(-3, 5, 2)
    data[:, 0] = np.linspace(-1.0, 1.0, 9001)
    data[4094:4098, 1:] = [[-0.0, 5e-324, 1.7976931348623157e308],
                           [1e-5, -1.5e-5, 9.999999999999999e-05],
                           [-9.5e-05, 1.25e-05, 3e-05],
                           [-0.0, 5e-324, 1.7976931348623157e308]]
    data[8191:8193, 1:] = [[1e-5, -1e16, 1e22]] * 2
    _assert_written_as_repr(data)


# the ends of the ranges where orjson's layout needs a rewrite: exponent form
# below 1e-5 and from 1e16, positional in [1e-5, 1e-4); each chunk is
# rewritten only when its own values fall in these ranges
_GATE_EDGES = (1e-5, float(np.nextafter(1e-5, 0.0)), float(np.nextafter(1e-4, 0.0)), 1e-4,
               float(np.nextafter(1e16, 0.0)), 1e16, 1e22, 1.5e-6, 5e-324, -0.0)


@pytest.mark.parametrize("value", _GATE_EDGES, ids=repr)
@pytest.mark.parametrize("row, rows", [(0, 1), (0, 4100), (4095, 4100), (4096, 4100)])
def test_writers_gate_each_chunk_on_its_own_values(value, row, rows):
    # value is the only one of its chunk that orjson and repr print apart;
    # it sits first in its row (after the row separator) or last (before it)
    chunk = traceio._CHUNK
    for col in (0, 3):
        data = np.empty((rows, 4))
        data[:, 1:] = [0.5, -2.0, 3.0]
        s = np.arange(rows, dtype=float) - row   # ..., -1, value, 1, 2, ...
        v = value
        if col == 0 and abs(v) >= 1.0:
            # s increases, so a huge value goes last in its chunk, or first as
            # -value, with the rows beyond it in the neighbouring chunk
            if row % chunk == chunk - 1:
                s[row + 1:] = v * (1.0 + s[row + 1:])
            else:
                v = -v
                s[:row] = v * (1.0 - s[:row])
        data[:, 0] = s
        data[row, col] = v
        _assert_written_as_repr(data)


def _sig_digits(rng, size, lo, hi):
    """``size`` values of either sign, |v| log-uniform on [lo, hi), each
    rounded to 1 to 17 significant digits."""
    mag = 10.0 ** rng.uniform(np.log10(lo), np.log10(hi), size)
    mag = [float(f"{v:.{d}e}") for v, d in zip(mag.tolist(), rng.integers(0, 17, size).tolist())]
    return np.clip(mag, lo, np.nextafter(hi, 0.0)) * rng.choice([-1.0, 1.0], size)


def _relaid_case(name):
    """(s, points) of one 4096-row chunk whose every value is in the layout class ``name``."""
    rng = np.random.default_rng(11)
    if name == "[1e-5, 1e-4)":
        s = np.linspace(1e-5, 9e-5, 4096)
        points = [[1e-5, -1.5e-5, 9.999999999999999e-05, 3e-5, -1.2345678901234567e-05],
                  _sig_digits(rng, 12288, 1e-5, 1e-4)]
    elif name == "below 1e-5":
        s = np.geomspace(1e-300, 9e-6, 4096)
        points = [[9.999999999999999e-06, 1.5e-6, -1e-9, 9.999999999999999e-10, 1e-99, 1e-100,
                   5e-324, -2.2250738585072014e-308],
                  _sig_digits(rng, 4096, 1e-9, 1e-5),      # one-digit exponents
                  _sig_digits(rng, 2048, 1e-99, 1e-9),     # two-digit exponents
                  _sig_digits(rng, 2048, 1e-300, 1e-99),   # three-digit exponents
                  rng.uniform(-1.0, 1.0, 4096) * 2.2250738585072014e-308]   # subnormals
    else:
        s = np.geomspace(1e16, 1e300, 4096)
        points = [[1e16, -1e16, 1e22, 9.999999999999998e+99, 1e100, -1.7976931348623157e308],
                  _sig_digits(rng, 8192, 1e16, 1e100), _sig_digits(rng, 4096, 1e100, 1e308)]
    return s, np.concatenate(points)[:3 * s.size].reshape(-1, 3)


@pytest.mark.parametrize("name", ["[1e-5, 1e-4)", "below 1e-5", "from 1e16"])
def test_writers_relay_chunks_full_of_values_printed_apart(monkeypatch, name):
    s, points = _relaid_case(name)
    paths = _paths(monkeypatch)
    _assert_written_as_repr(np.column_stack([s, points]))
    assert paths == ["_relaid"] * 2   # the CSV writer's chunk, then the JSON writer's


@pytest.mark.parametrize("fewer, path", [(0, "_relaid"), (1, "_spliced")])
def test_writers_relay_a_chunk_from_its_count_of_values_printed_apart(monkeypatch, fewer, path):
    # the first chunk holds exactly the relaying count of such values, or one
    # fewer; the second, 100 rows, holds 3 of them and takes the splice
    rng = np.random.default_rng(12)
    count = -(-4 * traceio._CHUNK // traceio._RELAY) - fewer
    data = rng.uniform(0.5, 2.0, size=(traceio._CHUNK + 100, 4))
    data[:, 0] = np.arange(data.shape[0])
    cells = np.arange(4 * traceio._CHUNK).reshape(-1, 4)[:, 1:].ravel()
    data.ravel()[rng.choice(cells, count, replace=False)] = _sig_digits(rng, count, 1e-9, 1e-4)
    data[-2, 1:] = [1e-5, -1e16, 1.5e-6]
    paths = _paths(monkeypatch)
    _assert_written_as_repr(data)
    assert paths == [path, "_spliced"] * 2   # the CSV writer's chunks, then the JSON writer's


def _paths(monkeypatch):
    """The names of the rewrites that the writers' chunks take, in order."""
    calls = []
    for name in ("_relaid", "_spliced"):
        monkeypatch.setattr(traceio, name, lambda *a, name=name, f=getattr(traceio, name):
                            calls.append(name) or f(*a))
    return calls


def _assert_written_as_repr(data):
    # the reference is built one float at a time, as the shortest round-trip text
    tr = wc.CurveTrace(data[:, 0], data[:, 1:], meta={"param": "s", "lam": 0.5})
    cells = [[repr(float(v)) for v in row] for row in data]
    csv_ref = "s,x,y,z\n" + "".join(",".join(row) + "\n" for row in cells)
    json_ref = ('{"meta": {"param": "s", "lam": 0.5}, "samples": ['
                + ", ".join("[" + ", ".join(row) + "]" for row in cells) + "]}\n")
    with tempfile.TemporaryDirectory() as tmp:
        traceio.write_csv(tr, os.path.join(tmp, "t.csv"))
        traceio.write_json(tr, os.path.join(tmp, "t.json"))
        with open(os.path.join(tmp, "t.csv"), "rb") as fh:
            assert fh.read() == csv_ref.encode("ascii")
        with open(os.path.join(tmp, "t.json"), "rb") as fh:
            assert fh.read() == json_ref.encode("ascii")


@pytest.mark.parametrize("body, message", [
    ("s,x,y,z\n0,1,2,3\n0.5,1,two,3\n",     # malformed row
     "malformed CSV row in {}: could not convert string 'two' to float64 at row 1, column 3."),
    ("s,x,y,z\n0,1,2,3\n0.5,1,2\n",         # ragged body
     "malformed CSV row in {}: the number of columns changed from 4 to 3 at row 2; "
     "use `usecols` to select a subset and avoid this error"),
    ("s,x,y,z\n0,1,2\n0.5,1,2\n",           # too few columns
     "malformed CSV body in {}"),
    ("s,x,y,z\n",                           # header only
     "no samples in trace file: {}"),
    (b"s,x,y,z\n0,1,2,3\n0.5,1,\xff,3\n",    # invalid UTF-8
     "malformed CSV trace in {}: 'utf-8' codec can't decode byte 0xff in position 22: "
     "invalid start byte"),
])
def test_read_csv_errors_name_the_file(tmp_path, capsys, body, message):
    bad = tmp_path / "bad.csv"
    bad.write_bytes(body if isinstance(body, bytes) else body.encode())
    with pytest.raises(ValueError) as exc:
        traceio.read_csv(bad)
    assert str(exc.value) == message.format(bad)
    assert main(["verify", "--in", str(bad)]) == 3
    assert "bad.csv" in capsys.readouterr().err


def _assert_reads_as_reference(path):
    # the same rows bit for bit and the same parameter name, or the same message
    try:
        want = reference.read_csv(path)
    except ValueError as exc:
        with pytest.raises(ValueError) as got:
            traceio.read_csv(path)
        assert str(got.value) == str(exc)
        return
    got = traceio.read_csv(path)
    assert got.rows().tobytes() == want.rows().tobytes()
    assert got.meta == want.meta


_ROWS = b"0,1,2,3\n0.5,-1.5,2e-3,3E+2\n"


@pytest.mark.parametrize("raw", [
    b"s,x,y,z\n0,+1,2,3\n",                  # a plus sign
    b"s,x,y,z\n0,.5,2,3\n",                  # no digit before the point
    b"s,x,y,z\n0,1.,2,3\n",                  # no digit after it
    b"s,x,y,z\n0,01,2,3\n",                  # a leading zero
    b"s,x,y,z\n0,nan,2,3\n",
    b"s,x,y,z\n0,1,inf,3\n",
    b"s,x,y,z\n0,1,2,1e400\n",               # overflows
    b"s,x,y,z\n0,1,2,3\n\n0.5,1,2,3\n",      # a blank line mid-body
    b"s,x,y,z\r\n0,1,2,3\r\n0.5,1,2,3\r\n",   # CRLF
    b"s,x,y,z\n0,1,2,3\r0.5,1,2,3\n",        # a lone CR
    b"s\r,x,y,z\n0,1,2,3\n",                 # a CR in the header
    b"s,x,y,z\n 0,1,2,3 \n0.5, 1,2 ,3\n",     # leading and trailing spaces
    b"s,x,y,z\n0,1,\t2,3\n",                 # a tab
    b"\xef\xbb\xbfs,x,y,z\n" + _ROWS,          # a BOM before the header
    b"\n\ns,x,y,z\n" + _ROWS,                  # blank lines before the header
    b"s,x,y,z\n0,1,2,3\n0.5,1,2\n",          # a ragged row
    b"s,x,y,z\n0,1,2,3,4\n0.5,1,2\n",        # ragged rows with 3 commas a row on average
    b"s,x,y,z\n0,1,2\n0.5,1,2,3,4\n",        # ... the other way round
    b"s,x,y,z\n0,1,2,3,4\n0.5,1,2,3,4\n",     # 5 columns
    b"s,x,y,z\n0,1,2,3,\n",                  # a trailing comma
    b"s,x,y,z\n0,1,,3\n",                    # an empty field
    b"s,x,y,z\n,0,1,2\n",                    # an empty first field
    b"s,x,y,z\n0,-,2,3\n",                   # a lone minus sign
    b"s,x,y,z\n0,1e,2,3\n",                  # no exponent digits
    b"s,x,y,z\n0,-0,2,3\n",                  # the integer -0, which orjson reads as 0
    b"s,x,y,z\n-1,1,2,3\n0,1,2,-0",           # ... last in the file
    b"s,x,y,z\n-1,1,2,3\n-0,1,2,3\n",         # ... first in a row
    b"s,x,y,z\n0,1,2,3\n0.5,1,\xff,3\n",      # invalid UTF-8
    b"\xcf\x83,x,y,z\n" + _ROWS,              # a non-ASCII parameter name
    b"s,x,y\n0,1,2\n",                       # a bad header
    b"s,x,y,z\n",                            # no rows
    b"s,x,y,z",                               # no line end at all
], ids=repr)
def test_read_csv_leaves_what_json_does_not_parse_alike_to_loadtxt(tmp_path, raw):
    assert traceio._flat_csv(raw) is None
    path = tmp_path / "t.csv"
    path.write_bytes(raw)
    _assert_reads_as_reference(path)


@pytest.mark.parametrize("raw", [
    b"s,x,y,z\n" + _ROWS,
    b" t ,x , y,z \n" + _ROWS,                # spaces in the header
    b"s,x,y,z\n0,1,2,3\n0.5,1,2,3",           # no final line end
    b"s,x,y,z\n" + _ROWS + b"\n\n\n",          # trailing blank lines
    b"s,x,y,z\n0,-0.0,-0e0,-0E+0\n",          # negative zeros orjson keeps
    b"s,x,y,z\n0,1e-400,-1e-400,5e-324\n",    # underflows
    b"s,x,y,z\n0,9007199254740993,18446744073709551616,"
    b"-123456789012345678901234567890\n",     # integers past 2**53 and 2**64
    b"s,x,y,z\n1,2,3,4\n0,1,2,3\n",          # s decreasing: CurveTrace's message
    b"s,x,y,z\n0,1,2,3\n0,1,2,3\n",
], ids=repr)
def test_read_csv_parses_plain_bodies_as_loadtxt_does(tmp_path, raw):
    assert traceio._flat_csv(raw) is not None
    path = tmp_path / "t.csv"
    path.write_bytes(raw)
    _assert_reads_as_reference(path)


def test_written_csv_traces_take_the_flat_parse(tmp_path):
    data = np.random.default_rng(2).normal(size=(5000, 4)) * 10.0 ** np.arange(-6, 18, 6)
    data[:, 0] = np.linspace(-1.0, 1.0, 5000)
    data[7, 1:] = [-0.0, 5e-324, -1.7976931348623157e308]
    path = tmp_path / "t.csv"
    traceio.write_csv(wc.CurveTrace(data[:, 0], data[:, 1:]), path)
    assert traceio._flat_csv(path.read_bytes())[1].tobytes() == data.tobytes()
    _assert_reads_as_reference(path)


_FORMATS = (repr, "%.17g".__mod__, "%.25e".__mod__, "%.3f".__mod__)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(points=st.lists(st.tuples(_finite, _finite, _finite), min_size=1, max_size=12),
       fmt=st.sampled_from(_FORMATS))
@example(points=[(-0.0, 5e-324, -1.7976931348623157e308), (1e-5, 1e16, 0.1)], fmt=_FORMATS[1])
def test_read_csv_parses_each_token_as_float_does(points, fmt):
    # any float formatting, on the flat parse or not, reads back as float(token)
    cells = [[fmt(float(s))] + [fmt(v) for v in row] for s, row in enumerate(points)]
    text = "s,x,y,z\n" + "".join(",".join(row) + "\n" for row in cells)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "t.csv")
        with open(path, "w") as fh:
            fh.write(text)
        back = traceio.read_csv(path)
    want = np.array([[float(c) for c in row] for row in cells])
    assert back.rows().tobytes() == want.tobytes()


@pytest.mark.parametrize("body", [
    b'{"meta": {"param": "s"}, "samples": [[0, 1, 2, 3], [0.5, 1',   # truncated
    b'{"samples": [[0, 1, 2, 3], [0.5, NaN, 2, 3]]}',                 # not JSON
    b'{"samples": [[0, 1, 2, 3], [0.5, Infinity, 2, 3]]}',
    b'{"samples": [[0, 1, 2, 3], [0.5, 1e400, 2, 3]]}',                # overflows
    b'[[0, 1, 2, 3], [0.5, 1, 2, 3]]',                                 # not an object
    b'{"meta": {"note": "\xff"}, "samples": [[0, 1, 2, 3]]}',          # invalid UTF-8
    b'{"samples": [[0, 1, 2, 3], [0.5, 1, 2]]}',                       # ragged
    b'{"samples": [[0, 1, 2, 3], [0.5, 1, {"y": 2}, 3]]}',             # an object sample
    b'{"samples": [[0, 1, 2, 3], [0.5, 1, "two", 3]]}',                # a word sample
    b'{"samples": [[0, 1, 2, 3], [0, 1, 2, 3]]}',                      # s not increasing
])
def test_read_json_errors_name_the_file(tmp_path, capsys, body):
    bad = tmp_path / "bad.json"
    bad.write_bytes(body)
    with pytest.raises(ValueError, match="bad.json"):
        traceio.read_json(bad)
    assert main(["verify", "--in", str(bad)]) == 3
    assert "bad.json" in capsys.readouterr().err


@pytest.mark.parametrize("row", [
    b'[0.5, "1", 2, 3]',       # a number as a string: np.asarray(..., float) read it
    b'[0.5, true, 2, 3]',      # a bool among numbers: numpy reads it as 1.0
    b'[true, false, true, false]',
    b'["0.5", "1", "2", "3"]',
    b'[0.5, 1, 2]',            # a ragged row: numpy's "inhomogeneous shape" message
    b'[0.5, 1, 2, [3]]',       # a list nested in a row
])
def test_read_json_rejects_samples_that_are_not_numbers(tmp_path, capsys, row):
    bad = tmp_path / "bad.json"
    bad.write_bytes(b'{"meta": {"param": "s"}, "samples": [[0, 1, 2, 3], ' + row + b']}')
    with pytest.raises(ValueError, match=re.escape(f"malformed JSON samples in {bad}")):
        traceio.read_json(bad)
    assert main(["verify", "--in", str(bad)]) == 3
    assert "malformed JSON samples" in capsys.readouterr().err


@pytest.mark.parametrize("meta, kind", [
    (b'"param"', "a string"),   # dict() of a string: "dictionary update sequence element #0 ..."
    (b'[["param", "s"]]', "an array"),   # dict() of pairs: accepted
    (b'null', "null"),
    (b'5', "a number"),
    (b'-0.5e3', "a number"),
    (b'false', "false"),
])
def test_read_json_rejects_a_meta_that_is_not_an_object(tmp_path, capsys, meta, kind):
    bad = tmp_path / "bad.json"
    bad.write_bytes(b'{"meta": ' + meta + b', "samples": [[0, 1, 2, 3], [0.5, 1, 2, 3]]}')
    with pytest.raises(ValueError) as exc:
        traceio.read_json(bad)
    assert str(exc.value) == f"malformed JSON trace in {bad}: meta is {kind}, not an object"
    assert main(["verify", "--in", str(bad)]) == 3
    assert f"meta is {kind}, not an object" in capsys.readouterr().err


@pytest.mark.parametrize("body, kind", [
    (b'null', "null"),
    (b'5', "a number"),
    (b'[]', "an array"),
    (b'[[0, 1, 2, 3], [0.5, 1, 2, 3]]', "an array"),
    (b'"samples"', "a string"),
    (b'true', "true"),
])
def test_read_json_rejects_a_top_level_that_is_not_an_object(tmp_path, capsys, body, kind):
    bad = tmp_path / "bad.json"
    bad.write_bytes(body)
    with pytest.raises(ValueError) as exc:
        traceio.read_json(bad)
    reason = f"the top level is {kind}, not an object"
    assert str(exc.value) == f"malformed JSON trace in {bad}: {reason}"
    assert main(["verify", "--in", str(bad)]) == 3
    assert reason in capsys.readouterr().err


@contextlib.contextmanager
def _collections():
    """The generations of the collections that start inside the block,
    counted from a fresh young generation."""
    started = []

    def note(phase, info):
        if phase == "start":
            started.append(info["generation"])

    gc.collect()
    gc.callbacks.append(note)
    try:
        yield started
    finally:
        gc.callbacks.remove(note)


def _large_trace():
    data = np.random.default_rng(3).normal(size=(20000, 4))
    data[:, 0] = np.linspace(0.0, 1.0, 20000)
    return wc.CurveTrace(data[:, 0], data[:, 1:], meta={"param": "s", "lam": 0.5})


@pytest.mark.parametrize("collecting", [True, False])
def test_read_json_runs_no_collection(tmp_path, collecting):
    # orjson builds one list per row: with the collector on, a 20k-row read
    # ran about 28 collections, some of them full ones
    tr = _large_trace()
    traceio.write_json(tr, tmp_path / "t.json")
    traceio.write_csv(tr, tmp_path / "t.csv")
    was = gc.isenabled()
    (gc.enable if collecting else gc.disable)()
    try:
        with _collections() as started:
            back = traceio.read_json(tmp_path / "t.json")
        assert gc.isenabled() is collecting
    finally:
        (gc.enable if was else gc.disable)()
    assert started == []
    assert back.rows().tobytes() == traceio.read_csv(tmp_path / "t.csv").rows().tobytes()
    assert back.meta == tr.meta


@pytest.mark.parametrize("body", [
    b'{"samples": [[0, 1, 2, 3], [0.5, 1',                   # a parse error
    b'[[0, 1, 2, 3], [0.5, 1, 2, 3]]',                       # not an object
    b'{"samples": [[0, 1, 2, 3], [0.5, 1, 2]]}',             # ragged
    b'{"meta": "s", "samples": [[0, 1, 2, 3]]}',             # meta not an object
    b'{"samples": [[0, 1, 2, 3], [0.5, true, 2, 3]]}',       # a bool sample
    b'{"samples": [[0, 1, 2, 3], [0, 1, 2, 3]]}',            # s not increasing
])
def test_read_json_restores_the_collector_when_it_refuses(tmp_path, body):
    bad = tmp_path / "bad.json"
    bad.write_bytes(body)
    assert gc.isenabled()
    with pytest.raises(ValueError, match="bad.json"):
        traceio.read_json(bad)
    assert gc.isenabled()
