"""Frame interchange format.

A frame document is JSON of the form

    {"dim_h": n, "operators": [{"rows": k, "re": [[...]], "im": [[...]]}, ...]}

with row-major nested arrays of k rows and n columns per operator. "im" may
be omitted when the imaginary part is all +0.0. Values are written with
repr-exact decimal, so a round trip reproduces every entry. Documents are
parsed with orjson; json reads only those that orjson or frame_from_dict
refuses, to name the fault as it always has.
"""

from __future__ import annotations

import json
import math
import re
from io import BytesIO, TextIOWrapper
from itertools import chain, compress, repeat

import numpy as np
import orjson

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


def _checked_grid(value, rows: int, cols: int, where: str) -> list:
    """value, once it is a list of `rows` lists of `cols` finite numbers; else the first fault, in order."""
    if not isinstance(value, list) or len(value) != rows:
        raise FrameFormatError(f"{where} must be a list of {rows} rows")
    # Shapes are checked before allocating, so a huge declared dim_h cannot
    # request memory the document does not back with entries.
    for r, row in enumerate(value):
        if not isinstance(row, list) or len(row) != cols:
            raise FrameFormatError(f"{where} row {r} must be a list of {cols} numbers")
    for r, row in enumerate(value):
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


def _read_checked(raw_ops: list, dim_h: int):
    """(counts, re rows, im rows, has im per operator), read operator by operator.

    The only code that names a fault: it raises FrameFormatError for the
    first one in document order, and reads int and float-subclass entries.
    """
    counts, re_rows, im_rows, has_im = [], [], [], []
    for idx, entry in enumerate(raw_ops):
        where = f"operators[{idx}]"
        if not isinstance(entry, dict):
            raise FrameFormatError(f"{where} must be an object")
        rows = entry.get("rows")
        if isinstance(rows, bool) or not isinstance(rows, int) or rows < 1:
            raise FrameFormatError(f"{where}.rows must be a positive integer")
        re_rows += _checked_grid(entry.get("re"), rows, dim_h, f"{where}.re")
        has_im.append("im" in entry)
        if has_im[-1]:
            im_rows += _checked_grid(entry.get("im"), rows, dim_h, f"{where}.im")
        counts.append(rows)
    return counts, re_rows, im_rows, has_im


def _all_instances(values, cls) -> bool:
    return all(map(isinstance, values, repeat(cls)))


def _read_bulk(raw_ops: list, dim_h: int):
    """_read_checked's result, with every check run over all operators at once; None on any fault.

    The entries must all be exact floats here; their finiteness is left to
    the caller, which has them as one array.
    """
    if not _all_instances(raw_ops, dict):
        return None
    counts = list(map(dict.get, raw_ops, repeat("rows")))
    if not _all_instances(counts, int) or any(map(isinstance, counts, repeat(bool))) or min(counts) < 1:
        return None
    has_im = list(map(dict.__contains__, raw_ops, repeat("im")))
    parts = []
    for key, ops, rows in (("re", raw_ops, counts),
                           ("im", compress(raw_ops, has_im), list(compress(counts, has_im)))):
        grids = list(map(dict.get, ops, repeat(key)))
        if not _all_instances(grids, list) or list(map(len, grids)) != rows:
            return None
        part = list(chain.from_iterable(grids))
        if not _all_instances(part, list) or set(map(len, part)) - {dim_h}:
            return None
        if set(map(type, chain.from_iterable(part))) - {float}:
            return None
        parts.append(part)
    return counts, parts[0], parts[1], has_im


def frame_from_dict(doc) -> GFrame:
    """The frame of an interchange document; FrameFormatError names its first fault in document order.

    The structure of every operator and the type of every entry are checked
    at once (_read_bulk), and the finiteness of the entries on their array.
    Only a document that fails there is read again operator by operator
    (_read_checked), which names the fault or, for int and float-subclass
    entries, reads them as their value.
    """
    if not isinstance(doc, dict):
        raise FrameFormatError("frame document must be a JSON object")
    dim_h = doc.get("dim_h")
    if isinstance(dim_h, bool) or not isinstance(dim_h, int) or dim_h < 1:
        raise FrameFormatError("dim_h must be a positive integer")
    raw_ops = doc.get("operators")
    if not isinstance(raw_ops, list) or not raw_ops:
        raise FrameFormatError("operators must be a non-empty list")
    counts, re_rows, im_rows, has_im = _read_bulk(raw_ops, dim_h) or _read_checked(raw_ops, dim_h)
    t = np.array(re_rows, dtype=np.float64).astype(np.complex128)
    if im_rows:
        t.imag[np.repeat(has_im, counts)] = np.array(im_rows, dtype=np.float64)
    if not np.isfinite(t).all():
        _read_checked(raw_ops, dim_h)  # raises, naming the first non-finite entry
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


# orjson builds the objects of a parsed document recursively on the C stack,
# with no depth limit: on x86-64 Linux (orjson 3.8, CPython 3.11) 150k levels
# overflowed the 8 MiB main thread and 5k levels a 256 KiB thread. Deeper
# documents go to json, which refuses those beyond the recursion limit (~1000).
MAX_ORJSON_DEPTH = 512
_NOT_STRUCTURE = bytes(sorted(set(range(256)) - set(b'"[]{}')))
_DEPTH_STEP = np.zeros(256, dtype=np.int8)
_DEPTH_STEP[list(b"[{")] = 1
_DEPTH_STEP[list(b"]}")] = -1


def _nesting_depth(data: bytes) -> int:
    """The deepest nesting of arrays and objects in data, when data is valid JSON."""
    if b"\\" in data:
        data = re.sub(rb"\\.", b"", data, flags=re.DOTALL)  # escapes, so no '"' is escaped
    brackets = re.sub(rb'"[^"]*"', b"", data.translate(None, _NOT_STRUCTURE))
    return int(_DEPTH_STEP[np.frombuffer(brackets, dtype=np.uint8)].cumsum().max(initial=0))


def _orjson_document(data: bytes):
    """orjson's parse of data; None when orjson refuses it or it nests too deeply for orjson."""
    # orjson parses the whole text before it builds any object, so a document
    # it would refuse cannot overflow the stack; only valid JSON is measured.
    if _nesting_depth(data) > MAX_ORJSON_DEPTH:
        return None
    try:
        return orjson.loads(data)
    except orjson.JSONDecodeError:
        return None


def load_frame(path) -> GFrame:
    """The frame of the document at path; FrameFormatError names its first fault as json reads it.

    The file is read once and parsed with orjson. When orjson refuses the
    document, or frame_from_dict refuses orjson's result, json parses the same
    bytes as UTF-8 text with universal newlines, as open(path) reads them, and
    raises the error (or loads the document) as this reader always has. The
    two parsers return the same objects, except where orjson refuses the text
    (NaN, Infinity, numbers beyond the double range, lone surrogates) or reads
    an integer beyond 64 bits, which it gives as the double the integer rounds to.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    doc = _orjson_document(data)
    if doc is not None:
        try:
            return frame_from_dict(doc)
        except FrameFormatError:
            pass
    try:
        doc = json.load(TextIOWrapper(BytesIO(data), encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise FrameFormatError(f"invalid JSON in {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise FrameFormatError(f"{path} is not UTF-8 text: {exc}") from exc
    except RecursionError:
        raise FrameFormatError(f"JSON in {path} is nested too deeply to read") from None
    return frame_from_dict(doc)
