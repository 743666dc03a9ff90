"""Frame interchange format.

A frame document is JSON of the form

    {"dim_h": n, "operators": [{"rows": k, "re": [[...]], "im": [[...]]}, ...]}

with row-major nested arrays of k rows and n columns per operator. "im" may
be omitted when the imaginary part is all zero. Values are written with
repr-exact decimal, so a round trip reproduces every entry.
"""

from __future__ import annotations

import json
import math

import numpy as np

from .errors import FrameFormatError
from .model import GFrame


def frame_to_dict(f: GFrame) -> dict:
    operators = []
    for op in f.operators:
        entry = {"rows": op.shape[0], "re": op.real.tolist()}
        if np.any(op.imag):
            entry["im"] = op.imag.tolist()
        operators.append(entry)
    return {"dim_h": f.dim_h, "operators": operators}


def _as_real_grid(value, rows: int, cols: int, where: str) -> np.ndarray:
    if not isinstance(value, list) or len(value) != rows:
        raise FrameFormatError(f"{where} must be a list of {rows} rows")
    # Shapes are checked before allocating, so a huge declared dim_h cannot
    # request memory the document does not back with entries.
    for r, row in enumerate(value):
        if not isinstance(row, list) or len(row) != cols:
            raise FrameFormatError(f"{where} row {r} must be a list of {cols} numbers")
    grid = np.zeros((rows, cols))
    for r, row in enumerate(value):
        for c, item in enumerate(row):
            if isinstance(item, bool) or not isinstance(item, (int, float)):
                raise FrameFormatError(f"{where}[{r}][{c}] is not a number")
            if not math.isfinite(item):
                raise FrameFormatError(f"{where}[{r}][{c}] is not finite")
            grid[r, c] = float(item)
    return grid


def frame_from_dict(doc) -> GFrame:
    if not isinstance(doc, dict):
        raise FrameFormatError("frame document must be a JSON object")
    dim_h = doc.get("dim_h")
    if isinstance(dim_h, bool) or not isinstance(dim_h, int) or dim_h < 1:
        raise FrameFormatError("dim_h must be a positive integer")
    raw_ops = doc.get("operators")
    if not isinstance(raw_ops, list) or not raw_ops:
        raise FrameFormatError("operators must be a non-empty list")
    operators = []
    for idx, entry in enumerate(raw_ops):
        where = f"operators[{idx}]"
        if not isinstance(entry, dict):
            raise FrameFormatError(f"{where} must be an object")
        rows = entry.get("rows")
        if isinstance(rows, bool) or not isinstance(rows, int) or rows < 1:
            raise FrameFormatError(f"{where}.rows must be a positive integer")
        re = _as_real_grid(entry.get("re"), rows, dim_h, f"{where}.re")
        if "im" in entry:
            im = _as_real_grid(entry.get("im"), rows, dim_h, f"{where}.im")
        else:
            im = np.zeros((rows, dim_h))
        operators.append(re + 1j * im)
    return GFrame(operators, dim_h=dim_h)


def save_frame(f: GFrame, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(frame_to_dict(f), fh, indent=2)
        fh.write("\n")


def load_frame(path) -> GFrame:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except json.JSONDecodeError as exc:
        raise FrameFormatError(f"invalid JSON in {path}: {exc}") from exc
    return frame_from_dict(doc)
