"""Frame interchange format: round trips, schema validation, optional imaginary part."""

import io
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from gframes.errors import FrameFormatError
from gframes.io import frame_from_dict, frame_to_dict, load_frame, save_frame, write_frame
from gframes.generators import random_gframe
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


# Finite doubles, with the cases repr and json could format differently made likely.
ENTRIES = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -2.5e-310, 1e300, -1.7976931348623157e308, 1.0]),
    st.floats(allow_nan=False, allow_infinity=False),
)


@st.composite
def frames(draw, max_operators=300):
    """Frames mixing one-row and multi-row operators, each either real or complex."""
    n = draw(st.integers(min_value=1, max_value=4))
    size = draw(st.integers(min_value=1, max_value=max_operators))
    counts = draw(st.lists(st.sampled_from([1, 1, 2, 3]), min_size=size, max_size=size))
    shape = (sum(counts), n)
    t = draw(arrays(np.float64, shape, elements=ENTRIES)).astype(np.complex128)
    t.imag = draw(arrays(np.float64, shape, elements=ENTRIES))
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
    want = (json.dumps(doc, indent=2) + "\n").split("\n")
    # Line by line: pytest's diff of two long strings takes minutes per shrink step.
    for number, (a, b) in enumerate(zip(got, want)):
        assert a == b, f"line {number}"
    assert len(got) == len(want)


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
