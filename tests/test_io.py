"""Frame interchange format: round trips, schema validation, optional imaginary part."""

import json

import numpy as np
import pytest

from gframes.errors import FrameFormatError
from gframes.io import frame_from_dict, frame_to_dict, load_frame, save_frame
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
