"""Frame interchange format.

A frame document is JSON of the form

    {"dim_h": n, "operators": [{"rows": k, "re": [[...]], "im": [[...]]}, ...]}

with row-major nested arrays of k rows and n columns per operator. "im" may
be omitted when the imaginary part is all +0.0. Values are written with
repr-exact decimal, so a round trip reproduces every entry.
"""

from __future__ import annotations

import json
import math

import numpy as np

from .errors import FrameFormatError
from .model import GFrame


def frame_to_dict(f: GFrame) -> dict:
    t, starts, ends = f.stacked, f.offsets[:-1], f.offsets[1:]
    re, im = t.real.tolist(), t.imag.tolist()
    # "im" is omitted only when every imaginary entry is +0.0 (all bits zero),
    # so a -0.0 survives the round trip.
    nonzero_bits = t.imag.view(np.uint64).any(axis=1)
    has_im = np.logical_or.reduceat(nonzero_bits, starts).tolist()
    operators = []
    for start, end, complex_block in zip(starts, ends, has_im):
        entry = {"rows": end - start, "re": re[start:end]}
        if complex_block:
            entry["im"] = im[start:end]
        operators.append(entry)
    return {"dim_h": f.dim_h, "operators": operators}


def _checked_rows(value, rows: int, cols: int, where: str) -> list:
    if not isinstance(value, list) or len(value) != rows:
        raise FrameFormatError(f"{where} must be a list of {rows} rows")
    # Shapes are checked before allocating, so a huge declared dim_h cannot
    # request memory the document does not back with entries.
    for r, row in enumerate(value):
        if not isinstance(row, list) or len(row) != cols:
            raise FrameFormatError(f"{where} row {r} must be a list of {cols} numbers")
    for r, row in enumerate(value):
        # A row of finite floats (exactly float: bool, int and float subclasses
        # go on to the loop) is accepted in C; the loop below stays the only
        # code that names a bad entry, so the first one in document order wins.
        if set(map(type, row)) == {float} and all(map(math.isfinite, row)):
            continue
        for c, item in enumerate(row):
            if isinstance(item, bool) or not isinstance(item, (int, float)):
                raise FrameFormatError(f"{where}[{r}][{c}] is not a number")
            try:
                finite = math.isfinite(item)
            except OverflowError:  # an integer literal beyond the double range
                raise FrameFormatError(f"{where}[{r}][{c}] is too large for a double") from None
            if not finite:
                raise FrameFormatError(f"{where}[{r}][{c}] is not finite")
    return value


def frame_from_dict(doc) -> GFrame:
    if not isinstance(doc, dict):
        raise FrameFormatError("frame document must be a JSON object")
    dim_h = doc.get("dim_h")
    if isinstance(dim_h, bool) or not isinstance(dim_h, int) or dim_h < 1:
        raise FrameFormatError("dim_h must be a positive integer")
    raw_ops = doc.get("operators")
    if not isinstance(raw_ops, list) or not raw_ops:
        raise FrameFormatError("operators must be a non-empty list")
    counts, re_rows, im_rows, im_at = [], [], [], []
    for idx, entry in enumerate(raw_ops):
        where = f"operators[{idx}]"
        if not isinstance(entry, dict):
            raise FrameFormatError(f"{where} must be an object")
        rows = entry.get("rows")
        if isinstance(rows, bool) or not isinstance(rows, int) or rows < 1:
            raise FrameFormatError(f"{where}.rows must be a positive integer")
        re_rows += _checked_rows(entry.get("re"), rows, dim_h, f"{where}.re")
        if "im" in entry:
            im_rows += _checked_rows(entry.get("im"), rows, dim_h, f"{where}.im")
            im_at += range(len(re_rows) - rows, len(re_rows))
        counts.append(rows)
    t = np.array(re_rows, dtype=np.float64).astype(np.complex128)
    if im_rows:
        t.imag[im_at] = np.array(im_rows, dtype=np.float64)
    return GFrame.from_stacked(t, counts)


def _grid_text(rows: list) -> str:
    """A list of float rows as json.dump(..., indent=2) lays it out at the depth of "re"."""
    # json formats a finite float as float.__repr__, and every entry of a frame is finite.
    return (
        "[\n        [\n          "
        + "\n        ],\n        [\n          ".join(",\n          ".join(map(repr, row)) for row in rows)
        + "\n        ]\n      ]"
    )


def write_frame(f: GFrame, fh) -> None:
    """Write f to the text stream fh as json.dump(frame_to_dict(f), fh, indent=2) plus a newline.

    The text is built here, one operator per write, because json.dump runs its
    pure-Python encoder whenever it indents.
    """
    doc = frame_to_dict(f)
    fh.write(f'{{\n  "dim_h": {doc["dim_h"]},\n  "operators": [')
    sep = "\n"
    for entry in doc["operators"]:
        fields = [f'"rows": {entry["rows"]}']
        fields += [f'"{part}": {_grid_text(entry[part])}' for part in ("re", "im") if part in entry]
        fh.write(sep + "    {\n      " + ",\n      ".join(fields) + "\n    }")
        sep = ",\n"
    fh.write("\n  ]\n}\n")


def save_frame(f: GFrame, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        write_frame(f, fh)


def load_frame(path) -> GFrame:
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
