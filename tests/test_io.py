"""Frame interchange format: round trips, schema validation, optional imaginary part, and the orjson reader against json."""

import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import orjson
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import gframes
from gframes import io as frame_io
from gframes.cli import main
from gframes.errors import FrameFormatError
from gframes.io import frame_from_dict, frame_to_dict, load_frame, save_frame, write_frame
from gframes.generators import nearly_parseval_gframe, random_gframe
from gframes.model import GFrame


def test_round_trip_exact(tmp_path):
    f = random_gframe(3, (2, 1, 2), seed=42)
    path = tmp_path / "frame.json"
    save_frame(f, path)
    g = load_frame(path)
    assert g.dim_h == f.dim_h
    assert g.counts == f.counts
    for a, b in zip(f.operators, g.operators):
        assert np.array_equal(a, b)  # repr-exact decimal round trip


def test_im_omitted_for_real_frames(tmp_path):
    f = GFrame([np.array([[1.0, 0.0], [0.0, 1.0]])])
    doc = frame_to_dict(f)
    assert "im" not in doc["operators"][0]
    g = frame_from_dict(doc)
    assert np.array_equal(g.operators[0], f.operators[0])


def test_im_present_for_complex_frames():
    f = GFrame([np.array([[1.0 + 2.0j, 0.0]])])
    doc = frame_to_dict(f)
    assert doc["operators"][0]["im"] == [[2.0, 0.0]]


def test_schema_shapes():
    doc = {"dim_h": 2, "operators": [{"rows": 1, "re": [[0.5, 0.5]]}]}
    f = frame_from_dict(doc)
    assert f.counts == (1,)


@pytest.mark.parametrize(
    "doc",
    [
        [],
        {},
        {"dim_h": 0, "operators": [{"rows": 1, "re": [[1.0]]}]},
        {"dim_h": 2, "operators": []},
        {"dim_h": 2, "operators": [{"rows": 2, "re": [[1.0, 0.0]]}]},  # rows mismatch
        {"dim_h": 2, "operators": [{"rows": 1, "re": [[1.0]]}]},  # column mismatch
        {"dim_h": 2, "operators": [{"rows": 1, "re": [["x", 0.0]]}]},
        {"dim_h": 2, "operators": [{"rows": 1, "re": [[1.0, 0.0]], "im": [[0.0]]}]},
        {"dim_h": True, "operators": [{"rows": 1, "re": [[1.0]]}]},
    ],
)
def test_rejects_malformed(doc):
    with pytest.raises(FrameFormatError):
        frame_from_dict(doc)


def test_load_rejects_invalid_json(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    with pytest.raises(FrameFormatError):
        load_frame(path)


def test_save_is_deterministic(tmp_path):
    f = random_gframe(2, (1, 1, 1), seed=7)
    p1 = tmp_path / "a.json"
    p2 = tmp_path / "b.json"
    save_frame(f, p1)
    save_frame(f, p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_document_is_plain_json(tmp_path):
    f = random_gframe(2, (2,), seed=3)
    path = tmp_path / "f.json"
    save_frame(f, path)
    doc = json.loads(path.read_text())
    assert set(doc) == {"dim_h", "operators"}
    assert doc["operators"][0]["rows"] == 2


def two_column_doc(*operators):
    return {"dim_h": 2, "operators": list(operators)}


@pytest.mark.parametrize(
    "doc, message",
    [
        ([], "frame document must be a JSON object"),
        ({"dim_h": True, "operators": []}, "dim_h must be a positive integer"),
        ({"dim_h": 2, "operators": {}}, "operators must be a non-empty list"),
        (two_column_doc({"rows": 1, "re": [[1.0, 0.0]]}, [[0.0, 1.0]]), "operators[1] must be an object"),
        (two_column_doc({"rows": 0, "re": []}), "operators[0].rows must be a positive integer"),
        (two_column_doc({"rows": True, "re": [[1.0, 0.0]]}), "operators[0].rows must be a positive integer"),
        (two_column_doc({"rows": "1", "re": [[1.0, 0.0]]}), "operators[0].rows must be a positive integer"),
        (two_column_doc({"rows": 1, "re": [[1.0, 0.0], 3]}), "operators[0].re must be a list of 1 rows"),
        (two_column_doc({"rows": 1, "re": [[1.0, True]]}), "operators[0].re[0][1] is not a number"),
        (
            two_column_doc({"rows": 1, "re": [[1.0, 0.0]], "im": None}),
            "operators[0].im must be a list of 1 rows",
        ),
        (
            two_column_doc({"rows": 1, "re": [[1.0, 0.0]], "im": [[0.0, float("nan")]]}),
            "operators[0].im[0][1] is not finite",
        ),
        # The first bad entry in document order wins, across parts and operators.
        (two_column_doc({"rows": 1, "re": [[float("inf"), "x"]]}), "operators[0].re[0][0] is not finite"),
        (two_column_doc({"rows": 1, "re": [["x", 10**400]]}), "operators[0].re[0][0] is not a number"),
        (
            two_column_doc({"rows": 1, "re": [[1.0, 0.0]], "im": [["y", 0]]}, {"rows": 1, "re": [[1.0]]}),
            "operators[0].im[0][0] is not a number",
        ),
        (
            two_column_doc({"rows": 1, "re": [[1.0]]}, {"rows": 1, "re": [["x", 0.0]]}),
            "operators[0].re row 0 must be a list of 2 numbers",
        ),
    ],
)
def test_rejects_malformed_with_message(doc, message):
    with pytest.raises(FrameFormatError) as exc:
        frame_from_dict(doc)
    assert str(exc.value) == message


def test_entry_beyond_double_range_is_not_finite():
    doc = json.loads('{"dim_h": 2, "operators": [{"rows": 1, "re": [[1.0, 1e999]]}]}')
    with pytest.raises(FrameFormatError, match=r"^operators\[0\]\.re\[0\]\[1\] is not finite$"):
        frame_from_dict(doc)


def test_integer_entries_load_as_float():
    f = frame_from_dict(two_column_doc({"rows": 1, "re": [[2**70, -3]], "im": [[0, 5]]}))
    assert f.stacked.dtype == np.complex128
    assert f.stacked[0, 0] == complex(float(2**70), 0.0)
    assert f.stacked[0, 1] == complex(-3.0, 5.0)


# Finite doubles, with the cases repr and json could format differently made likely, and the
# bounds of the ranges where orjson's spelling differs from repr's (exponent forms, and plain
# decimals in [1e-5, 1e-4)).
ENTRIES = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -2.5e-310, 1e300, -1.7976931348623157e308, 1.0]),
    st.sampled_from([1e-05, 9.999999999999999e-05, 0.0001, -1.5e-07, 1e16, 9999999999999998.0,
                     1e15, 123456789012345680.0, 2.2250738585072014e-308]),
    st.floats(allow_nan=False, allow_infinity=False),
)


@st.composite
def frames(draw, max_operators=300, elements=ENTRIES):
    """Frames mixing one-row and multi-row operators, each either real or complex, with entries drawn from elements."""
    n = draw(st.integers(min_value=1, max_value=4))
    size = draw(st.integers(min_value=1, max_value=max_operators))
    counts = draw(st.lists(st.sampled_from([1, 1, 2, 3]), min_size=size, max_size=size))
    shape = (sum(counts), n)
    t = draw(arrays(np.float64, shape, elements=elements)).astype(np.complex128)
    t.imag = draw(arrays(np.float64, shape, elements=elements))
    row = 0
    for k in counts:
        if draw(st.booleans()):
            t.imag[row : row + k] = 0.0
        row += k
    return GFrame.from_stacked(t, counts)


@settings(deadline=None, max_examples=30)
@given(f=frames())
def test_write_frame_is_json_dump_text(f):
    doc = frame_to_dict(f)
    # "im" is written unless every imaginary entry is +0.0.
    assert ["im" in entry for entry in doc["operators"]] == [
        bool(np.any(op.imag) or np.any(np.signbit(op.imag))) for op in f.operators]
    buf = io.StringIO()
    write_frame(f, buf)
    got = buf.getvalue().split("\n")
    want = (orjson.dumps(doc, option=orjson.OPT_INDENT_2) + b"\n").decode().split("\n")
    # Line by line: pytest's diff of two long strings takes minutes per shrink step.
    for number, (a, b) in enumerate(zip(got, want)):
        assert a == b, f"line {number}"
    assert len(got) == len(want)
    # json reads orjson's spelling back to the same doubles, bit for bit.
    back = frame_from_dict(json.loads(buf.getvalue()))
    assert np.array_equal(back.stacked.view(np.uint64), f.stacked.view(np.uint64))


@settings(deadline=None, max_examples=60)
@given(
    f=frames(max_operators=12),
    zeros=st.lists(st.sampled_from([0.0, -0.0]), min_size=1, max_size=64),
)
def test_signed_zeros_survive_the_round_trip(f, zeros):
    # Imaginary blocks made of +0.0 and -0.0 only: the sign bits must come back.
    t = f.stacked.copy()
    t.imag = np.resize(zeros, t.shape)
    f = GFrame.from_stacked(t, f.counts)
    buf = io.StringIO()
    write_frame(f, buf)
    g = frame_from_dict(json.loads(buf.getvalue()))
    assert np.array_equal(np.signbit(g.stacked.imag), np.signbit(f.stacked.imag))
    assert np.array_equal(g.stacked.view(np.uint64), f.stacked.view(np.uint64))


BAD_ENTRIES = [
    ("x", "is not a number"),
    (True, "is not a number"),
    (None, "is not a number"),
    (math.nan, "is not finite"),
    (math.inf, "is not finite"),
    (10**400, "is too large for a double"),
]


@settings(deadline=None, max_examples=80)
@given(f=frames(max_operators=8), data=st.data())
def test_first_bad_entry_is_named(f, data):
    doc = frame_to_dict(f)
    idx = data.draw(st.integers(min_value=0, max_value=len(f) - 1))
    entry = doc["operators"][idx]
    part = data.draw(st.sampled_from([p for p in ("re", "im") if p in entry]))
    r = data.draw(st.integers(min_value=0, max_value=entry["rows"] - 1))
    c = data.draw(st.integers(min_value=0, max_value=doc["dim_h"] - 1))
    bad, complaint = data.draw(st.sampled_from(BAD_ENTRIES))
    entry[part][r][c] = bad
    with pytest.raises(FrameFormatError) as exc:
        frame_from_dict(doc)
    assert str(exc.value) == f"operators[{idx}].{part}[{r}][{c}] {complaint}"


def reference_stacked(doc):
    """T read from a document entry by entry, each entry as float(x)."""
    rows = []
    for entry in doc["operators"]:
        im = entry.get("im", [[0.0] * doc["dim_h"]] * entry["rows"])
        for re_row, im_row in zip(entry["re"], im):
            rows.append([complex(float(a), float(b)) for a, b in zip(re_row, im_row)])
    return np.array(rows)


@settings(deadline=None, max_examples=40)
@given(f=frames(max_operators=8), data=st.data())
def test_int_and_float64_entries_load_exactly(f, data):
    # np.float64 is a float subclass and int is not a float, so rows holding
    # either are checked entry by entry and must still load their values.
    doc = frame_to_dict(f)
    as_int = st.integers(min_value=-(2**70), max_value=2**70)
    for entry in doc["operators"]:
        for part in ("re", "im"):
            for row in entry.get(part, []):
                for c, x in enumerate(row):
                    row[c] = data.draw(st.one_of(st.just(x), st.just(np.float64(x)), as_int))
    assert np.array_equal(frame_from_dict(doc).stacked, reference_stacked(doc))


NUMBER_FAULTS = {"bool": True, "string": "0.5", "nan": math.nan, "infinity": math.inf, "huge": 10**400}
STRUCTURE_FAULTS = ("short row", "missing re")


def corrupt(doc, idx, kind, data) -> str:
    """Put one fault of this kind into operator idx; returns the path of the entry or part it hit."""
    entry = doc["operators"][idx]
    if kind == "missing re":
        del entry["re"]
        return f"operators[{idx}].re"
    part = data.draw(st.sampled_from([p for p in ("re", "im") if p in entry]))
    r = data.draw(st.integers(min_value=0, max_value=entry["rows"] - 1))
    if kind == "short row":
        entry[part][r].pop()
        return f"operators[{idx}].{part} row {r}"
    c = data.draw(st.integers(min_value=0, max_value=doc["dim_h"] - 1))
    entry[part][r][c] = NUMBER_FAULTS[kind]
    return f"operators[{idx}].{part}[{r}][{c}]"


def as_read(doc):
    """doc through JSON text, so NaN and Infinity arrive as the JSON reader parses those literals."""
    return json.loads(json.dumps(doc))


@settings(deadline=None, max_examples=60)
@given(f=frames(max_operators=8), data=st.data())
def test_bulk_reader_names_the_fault_the_loop_names(f, data):
    doc = frame_to_dict(f)
    kind = data.draw(st.sampled_from([*NUMBER_FAULTS, *STRUCTURE_FAULTS]))
    where = corrupt(doc, data.draw(st.integers(min_value=0, max_value=len(f) - 1)), kind, data)
    doc = as_read(doc)
    with pytest.raises(FrameFormatError) as loop:
        frame_io._read_checked(doc["operators"], doc["dim_h"])
    with pytest.raises(FrameFormatError) as bulk:
        frame_from_dict(doc)
    assert str(bulk.value) == str(loop.value)
    assert str(bulk.value).startswith(where + " ")


@settings(deadline=None, max_examples=40)
@given(f=frames(max_operators=8).filter(lambda f: len(f) >= 2), data=st.data())
def test_bad_number_before_a_structure_error_is_named(f, data):
    doc = frame_to_dict(f)
    later = data.draw(st.integers(min_value=1, max_value=len(f) - 1))
    where = corrupt(doc, data.draw(st.integers(min_value=0, max_value=later - 1)),
                    data.draw(st.sampled_from(list(NUMBER_FAULTS))), data)
    corrupt(doc, later, data.draw(st.sampled_from(STRUCTURE_FAULTS)), data)
    with pytest.raises(FrameFormatError) as exc:
        frame_from_dict(as_read(doc))
    assert str(exc.value).startswith(where + " ")


@pytest.mark.parametrize("path", sorted((Path(__file__).parent / "data" / "golden").glob("*.frame.json")),
                         ids=lambda p: p.name.split(".")[0])
def test_valid_document_skips_the_per_entry_loop(path, monkeypatch):
    want = load_frame(path).stacked

    def refuse(*_):
        raise AssertionError("a document of finite floats is read in bulk")

    monkeypatch.setattr(frame_io, "_read_checked", refuse)
    assert np.array_equal(load_frame(path).stacked.view(np.uint64), want.view(np.uint64))


def json_route(path):
    """The frame of the file at path as the reader built it before orjson: json.load of UTF-8 text."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except json.JSONDecodeError as exc:
        raise FrameFormatError(f"invalid JSON in {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise FrameFormatError(f"{path} is not UTF-8 text: {exc}") from exc
    except RecursionError:
        raise FrameFormatError(f"JSON in {path} is nested too deeply to read") from None
    return frame_from_dict(doc)


def json_text(value, number, newline="\n") -> str:
    """value as JSON text with each float spelled by number(x) and each list item on its own line."""
    if isinstance(value, dict):
        return "{" + ", ".join(f"{json.dumps(k)}: {json_text(v, number, newline)}" for k, v in value.items()) + "}"
    if isinstance(value, list):
        return "[" + ("," + newline).join(json_text(v, number, newline) for v in value) + "]"
    return number(value) if isinstance(value, float) else json.dumps(value)


# Every finite double, by its bits, with subnormals and signed zeros made likely.
BIT_ENTRIES = st.one_of(
    st.integers(min_value=0, max_value=2**64 - 1).map(lambda b: float(np.uint64(b).view(np.float64))),
    st.integers(min_value=1, max_value=2**52 - 1).map(lambda b: float(np.uint64(b).view(np.float64))),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1.7976931348623157e308]),
).filter(math.isfinite)
# Integers within and beyond 64 bits (orjson reads the latter as floats, json as ints), up to
# the largest that still rounds to a finite double.
INT_ENTRIES = st.one_of(
    st.integers(min_value=-(2**64) - 2**12, max_value=2**64 + 2**12),
    st.integers(min_value=-(2**80), max_value=2**80),
    st.integers(min_value=2**1023, max_value=2**1024 - 2**970 - 1),
    st.sampled_from([2**63, -(2**63) - 1, 2**64 - 1, 2**64, 2**64 + 2**11, 2**64 + 2**11 + 1]),
)
SPELLINGS = {
    "write_frame": None,
    "compact json.dump": None,
    "%.17g": lambda x: "%.17g" % x,
    "%.25e": lambda x: "%.25e" % x,
}


@settings(deadline=None, max_examples=80)
@given(
    f=frames(max_operators=8),
    data=st.data(),
    spelling=st.sampled_from(sorted(SPELLINGS)),
    newline=st.sampled_from(["\n", "\r\n"]),
)
def test_valid_documents_load_as_json_reads_them(f, data, spelling, newline, tmp_path_factory):
    doc = frame_to_dict(f)
    rows = [row for entry in doc["operators"] for part in ("re", "im") for row in entry.get(part, [])]
    size = sum(map(len, rows))
    values = iter(data.draw(st.lists(st.one_of(BIT_ENTRIES, INT_ENTRIES), min_size=size, max_size=size)))
    for row in rows:
        row[:] = [next(values) for _ in row]
    if spelling == "write_frame":
        buf = io.StringIO()
        write_frame(frame_from_dict(doc), buf)
        text = buf.getvalue()
    elif spelling == "compact json.dump":
        text = json.dumps(doc, separators=(",", ":"))
    else:
        text = json_text(doc, SPELLINGS[spelling], newline)
    path = tmp_path_factory.mktemp("doc") / "frame.json"
    path.write_bytes(text.replace("\n", newline).encode("utf-8"))
    want, got = json_route(path), load_frame(path)
    assert got.counts == want.counts
    assert np.array_equal(got.stacked.view(np.uint64), want.stacked.view(np.uint64))


def entry_tokens(text: str) -> list[str]:
    """The entries of a document write_frame wrote, as spelled, in document order."""
    return [line.strip().rstrip(",") for line in text.split("\n") if line.startswith(" " * 10)]


@settings(deadline=None, max_examples=60)
@given(data=st.data(), n=st.integers(min_value=1, max_value=4), rows=st.integers(min_value=1, max_value=12))
def test_every_entry_is_spelled_as_repr(data, n, rows):
    # Each entry is spelled as orjson spells the float alone: like repr, the
    # shortest digits that parse back to it, though not always in repr's form.
    values = data.draw(st.lists(BIT_ENTRIES, min_size=2 * rows * n, max_size=2 * rows * n))
    t = np.array(values).reshape(2, rows, n)
    f = GFrame.from_stacked(t[0] + 1j * t[1], (rows,))
    buf = io.StringIO()
    write_frame(f, buf)
    entry, = frame_to_dict(f)["operators"]
    written = [x for part in ("re", "im") for row in entry.get(part, []) for x in row]
    tokens = entry_tokens(buf.getvalue())
    assert tokens == [orjson.dumps(x).decode() for x in written]
    assert np.array_equal(np.array(list(map(float, tokens))).view(np.uint64), np.array(written).view(np.uint64))


def scaled_nearly_parseval():
    f = nearly_parseval_gframe(6, (3, 3, 3), 0.3, seed=5)
    return GFrame.from_stacked(f.stacked * np.array([1.0, 1e-5, 1e16, -1.5e-7, 1e-300, 5e-324]), f.counts)


@settings(deadline=None, max_examples=30)
@given(f=frames(max_operators=30, elements=BIT_ENTRIES))
@example(f=scaled_nearly_parseval())
def test_saved_file_is_the_utf8_of_the_written_text(f, tmp_path_factory):
    # The file, the text on a stream and the dump of the document of lists are the same bytes.
    buf = io.StringIO()
    write_frame(f, buf)
    path = tmp_path_factory.mktemp("frame") / "f.json"
    save_frame(f, path)
    data = path.read_bytes()
    assert data == buf.getvalue().encode("utf-8")
    assert data == orjson.dumps(frame_to_dict(f), option=orjson.OPT_INDENT_2) + b"\n"


def test_failed_dump_leaves_the_saved_file_untouched(tmp_path, monkeypatch):
    path = tmp_path / "f.json"
    path.write_bytes(b"an earlier frame\n")

    def refuse(*args, **kwargs):
        raise orjson.JSONEncodeError("refused")

    monkeypatch.setattr(orjson, "dumps", refuse)
    with pytest.raises(orjson.JSONEncodeError, match="refused"):
        save_frame(random_gframe(2, (1, 2), seed=3), path)
    assert path.read_bytes() == b"an earlier frame\n"


def operator_doc(rows="1", dim_h="2", entry="0.5"):
    return f'{{"dim_h": {dim_h}, "operators": [{{"rows": {rows}, "re": [[1.0, {entry}]]}}]}}'.encode()


MALFORMED = {
    "empty file": b"",
    "null": b"null",
    "top-level array": b"[]",
    "NaN entry": operator_doc(entry="NaN"),
    "Infinity entry": operator_doc(entry="Infinity"),
    "1e400 entry": operator_doc(entry="1e400"),
    "10**400 entry": operator_doc(entry=str(10**400)),
    "2**64 dim_h": operator_doc(dim_h=str(2**64)),
    "2**64 rows": operator_doc(rows=str(2**64)),
    "12.0 rows": operator_doc(rows="12.0"),
    "trailing comma": b'{"dim_h": 2, "operators": [{"rows": 1, "re": [[1.0, 0.5],]}]}',
    "leading zero": operator_doc(entry="00.5"),
    "UTF-8 BOM": b"\xef\xbb\xbf" + operator_doc(),
    "invalid UTF-8": b'{"dim_h": 2, "note": "caf\xe9", "operators": []}',
    "CRLF syntax error on line 3": b'{\r\n  "dim_h": 2,\r\n  "operators": [{"rows": 1 "re": [[1.0, 0.5]]}]\r\n}\r\n',
    "100000-deep nesting": b"[" * 100000 + b"]" * 100000,
    "600 brackets in an unterminated string": b'{"dim_h": 2, "note": "abc' + b"[" * 600,  # in a string: no nesting
}


# The message each MALFORMED document is refused with: orjson's text where it refuses the bytes,
# frame_from_dict's where it refuses orjson's document (orjson reads 2**64 as a float).
MALFORMED_MESSAGES = {
    "empty file": "invalid JSON in {path}: input length is 0: line 1 column 1 (char 0)",
    "null": "frame document must be a JSON object",
    "top-level array": "frame document must be a JSON object",
    "NaN entry": "invalid JSON in {path}: unexpected character: line 1 column 53 (char 52)",
    "Infinity entry": "invalid JSON in {path}: unexpected character: line 1 column 53 (char 52)",
    "1e400 entry": "invalid JSON in {path}: number is infinity when parsed as double: line 1 column 53 (char 52)",
    "10**400 entry": "invalid JSON in {path}: number is infinity when parsed as double: line 1 column 53 (char 52)",
    "2**64 dim_h": "dim_h must be a positive integer",
    "2**64 rows": "operators[0].rows must be a positive integer",
    "12.0 rows": "operators[0].rows must be a positive integer",
    "trailing comma": "invalid JSON in {path}: trailing comma is not allowed: line 1 column 59 (char 58)",
    "leading zero": "invalid JSON in {path}: number with leading zero is not allowed: line 1 column 53 (char 52)",
    "UTF-8 BOM": "invalid JSON in {path}: byte order mark (BOM) is not supported: line 1 column 1 (char 0)",
    "invalid UTF-8": "{path} is not UTF-8 text: 'utf-8' codec can't decode byte 0xe9 in position 25: invalid continuation byte",
    "CRLF syntax error on line 3": "invalid JSON in {path}: unexpected character: line 3 column 28 (char 45)",
    "100000-deep nesting": "JSON in {path} is nested too deeply to read",
    "600 brackets in an unterminated string": "invalid JSON in {path}: unexpected end of data: line 1 column 626 (char 625)",
}


@pytest.mark.parametrize("name", sorted(MALFORMED))
def test_malformed_documents_fail_as_json_fails(name, tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_bytes(MALFORMED[name])
    with pytest.raises(FrameFormatError) as got:
        load_frame(path)
    assert str(got.value) == MALFORMED_MESSAGES[name].format(path=path)
    assert main(["analyze", str(path)]) == 2
    assert capsys.readouterr() == ("", f"error: {got.value}\n")


@pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="needs /dev/fd")
@pytest.mark.parametrize("name", ["NaN entry", "2**64 rows", "UTF-8 BOM", "invalid UTF-8"])
def test_malformed_document_from_a_pipe_is_named(name, tmp_path):
    # A pipe cannot be read twice: the fault is named from the bytes read once, as for a file.
    path = tmp_path / "bad.json"
    path.write_bytes(MALFORMED[name])
    with pytest.raises(FrameFormatError) as from_file:
        load_frame(path)
    read_end, write_end = os.pipe()
    os.write(write_end, MALFORMED[name])
    os.close(write_end)
    pipe = f"/dev/fd/{read_end}"
    try:
        with pytest.raises(FrameFormatError) as from_pipe:
            load_frame(pipe)
    finally:
        os.close(read_end)
    assert str(from_pipe.value) == str(from_file.value).replace(str(path), pipe)


def nested(depth: int) -> str:
    return "[" * depth + "]" * depth


def with_note(note: str) -> str:
    """operator_doc() with an unknown key "note" holding the JSON text note."""
    return operator_doc().decode()[:-1] + f', "note": {note}}}'


@pytest.mark.parametrize("depth", [4, frame_io.MAX_ORJSON_DEPTH])
def test_unknown_keys_nested_within_the_recursion_limit_load(depth, tmp_path):
    # orjson reads a document nested up to MAX_ORJSON_DEPTH deep.
    path = tmp_path / "frame.json"
    path.write_text(with_note(nested(depth - 1)))
    assert np.array_equal(load_frame(path).stacked, json_route(path).stacked)


@pytest.mark.parametrize("depth", [frame_io.MAX_ORJSON_DEPTH + 1, 700])
def test_unknown_keys_nested_beyond_max_orjson_depth_are_refused(depth, tmp_path):
    # Refused before orjson parses them, although json reads those within its recursion limit (~1000).
    path = tmp_path / "frame.json"
    path.write_text(with_note(nested(depth - 1)))
    with pytest.raises(FrameFormatError) as exc:
        load_frame(path)
    assert str(exc.value) == f"JSON in {path} is nested too deeply to read"


def test_unknown_key_nested_beyond_the_recursion_limit_is_refused(tmp_path):
    # Beyond json's recursion limit too: no depth past MAX_ORJSON_DEPTH loads.
    path = tmp_path / "frame.json"
    path.write_text(with_note(nested(5000)))
    with pytest.raises(FrameFormatError) as exc:
        load_frame(path)
    assert str(exc.value) == f"JSON in {path} is nested too deeply to read"


def assert_refused_by_orjson(path, message, capsys):
    """load_frame and analyze refuse path with orjson's message, although json reads it as the note-free document."""
    assert np.array_equal(json_route(path).stacked, frame_from_dict(json.loads(operator_doc())).stacked)
    with pytest.raises(FrameFormatError) as exc:
        load_frame(path)
    assert str(exc.value) == f"invalid JSON in {path}: {message}"
    assert main(["analyze", str(path)]) == 2
    assert capsys.readouterr() == ("", f"error: {exc.value}\n")


def test_lone_surrogate_in_an_unknown_key_is_refused(tmp_path, capsys):
    path = tmp_path / "frame.json"
    path.write_text(with_note('"\\ud800"'))
    assert_refused_by_orjson(path, "no matched low surrogate in string: line 1 column 77 (char 76)", capsys)


@pytest.mark.parametrize(
    "note, message",
    [
        ("NaN", "unexpected character: line 1 column 70 (char 69)"),
        ("Infinity", "unexpected character: line 1 column 70 (char 69)"),
        ("1e400", "number is infinity when parsed as double: line 1 column 70 (char 69)"),
    ],
)
def test_non_finite_number_in_an_unknown_key_is_refused(note, message, tmp_path, capsys):
    path = tmp_path / "frame.json"
    path.write_text(with_note(note))
    assert_refused_by_orjson(path, message, capsys)


def test_nesting_that_overflows_orjson_exits_2(tmp_path):
    # A million levels would overflow the C stack of orjson's object builder (a
    # crash, so the command runs in its own process); the depth guard refuses them.
    path = tmp_path / "deep.json"
    path.write_text(nested(1_000_000))
    env = dict(os.environ, PYTHONPATH=str(Path(gframes.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-m", "gframes.cli", "analyze", str(path)],
                          capture_output=True, text=True, env=env, timeout=120)
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr == f"error: JSON in {path} is nested too deeply to read\n"


def written_document(f: GFrame) -> bytes:
    buf = io.StringIO()
    write_frame(f, buf)
    return buf.getvalue().encode()


# Small valid documents to mutate: as write_frame writes them (one complex operator, one real),
# and compact, with an unknown key that holds escapes and nesting.
FUZZ_SEEDS = [
    written_document(GFrame.from_stacked(np.array([[0.5 - 1e-5j, -0.0], [1e16, 3.0 + 2.5j]]), (1, 1))),
    written_document(random_gframe(2, (2,), seed=3)),
    with_note('{"a": ["\\u00e9\\"", [1, -2.5e-3]], "b": null}').encode(),
]
# Bytes that JSON gives meaning to, made likely among all 256.
FUZZ_BYTES = st.one_of(st.sampled_from(b'[]{}",:-+.eE0159 \r\n\\ntuafl'), st.integers(min_value=0, max_value=255))


@st.composite
def mutated_documents(draw) -> bytes:
    """A FUZZ_SEEDS document with 1 to 4 bytes flipped, inserted or deleted, or its tail cut off (never to empty)."""
    data = bytearray(draw(st.sampled_from(FUZZ_SEEDS)))
    for _ in range(draw(st.integers(min_value=1, max_value=4))):
        kind = draw(st.sampled_from(["flip", "insert", "delete", "truncate"]))
        at = draw(st.integers(min_value=0, max_value=max(len(data) - 1, 0)))
        if kind == "insert":
            data.insert(at, draw(FUZZ_BYTES))
        elif not data:
            continue
        elif kind == "flip":
            data[at] ^= 1 << draw(st.integers(min_value=0, max_value=7))
        elif kind == "delete":
            del data[at]
        else:
            del data[at + 1:]
    return bytes(data)


@settings(deadline=None, max_examples=100)
@given(data=mutated_documents())
def test_mutated_documents_load_as_json_reads_them_or_are_refused(data, tmp_path_factory):
    # Every document that loads, loads as json reads it; any other is a FrameFormatError.
    path = tmp_path_factory.mktemp("fuzz") / "frame.json"
    path.write_bytes(data)
    try:
        got = load_frame(path)
    except FrameFormatError:
        return
    want = json_route(path)
    assert got.counts == want.counts
    assert np.array_equal(got.stacked.view(np.uint64), want.stacked.view(np.uint64))


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False, allow_infinity=False) | st.text(),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(), inner, max_size=4),
    max_leaves=40,
)


def depth_of(value) -> int:
    if isinstance(value, (list, dict)):
        return 1 + max(map(depth_of, value.values() if isinstance(value, dict) else value), default=0)
    return 0


@settings(deadline=None, max_examples=200)
@given(value=JSON_VALUES, ensure_ascii=st.booleans())
def test_nesting_depth_skips_brackets_in_strings(value, ensure_ascii):
    # Strings drawn with brackets, quotes and backslashes must not move the count.
    text = json.dumps(value, ensure_ascii=ensure_ascii, allow_nan=False)
    assert frame_io._nesting_depth(text.encode("utf-8")) == depth_of(value)
