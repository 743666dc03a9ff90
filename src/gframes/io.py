"""Frame interchange format.

A frame document is JSON of the form

    {"dim_h": n, "operators": [{"rows": k, "re": [[...]], "im": [[...]]}, ...]}

with row-major nested arrays of k rows and n columns per operator. "im" may
be omitted when the imaginary part is all +0.0. A document is written as
one orjson dump with OPT_INDENT_2, each value in the shortest digits that
parse back to it (1e-05 as 0.00001, 1e+16 as 1e16), so a round trip
reproduces every entry. Documents are parsed with orjson alone: RFC 8259
JSON, numbers within the double range, nesting at most MAX_ORJSON_DEPTH deep.
Each grid of a parsed document is read as one float64 array. numpy reads
true and false as 1.0 and 0.0 and every other non-number as another dtype,
so only a grid holding a 0 or 1 has the type of each entry checked.
"""

from __future__ import annotations

import math
import re
from itertools import chain, compress, repeat

import numpy as np
import orjson

from .errors import FrameFormatError
from .model import GFrame


def _document(f: GFrame, re, im) -> dict:
    """The interchange document of f, with operator i's "re" and "im" the row slices of re and im (lists or arrays)."""
    starts, ends = f.offsets[:-1], f.offsets[1:]
    # "im" is omitted only when every imaginary entry is +0.0 (all bits zero), so a -0.0 survives.
    nonzero_bits = f.stacked.imag.view(np.uint64).any(axis=1)
    has_im = np.logical_or.reduceat(nonzero_bits, starts).tolist()
    operators = []
    for start, end, complex_block in zip(starts, ends, has_im):
        entry = {"rows": end - start, "re": re[start:end]}
        if complex_block:
            entry["im"] = im[start:end]
        operators.append(entry)
    return {"dim_h": f.dim_h, "operators": operators}


def frame_to_dict(f: GFrame) -> dict:
    return _document(f, f.stacked.real.tolist(), f.stacked.imag.tolist())


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


def _float_grid(rows: list, dim_h: int) -> np.ndarray | None:
    """rows, lists of dim_h entries each, as one float64 array; None unless numpy reads them as exactly that.

    numpy reads strings, None, containers and integers beyond 64 bits as
    another dtype or shape, or refuses them as ragged. Of the values a JSON
    parser returns, only true and false also read as float64, as exactly 1.0
    and 0.0, so only a grid holding an entry equal to 0 or 1 has the types of
    its entries checked (exact float).
    """
    if not rows:
        return np.empty((0, dim_h))
    try:
        grid = np.array(rows)
    except ValueError:  # an entry is a container, so the shape is ragged
        return None
    if grid.dtype != np.float64 or grid.shape != (len(rows), dim_h):
        return None
    if ((grid == 0.0) | (grid == 1.0)).any() and set(map(type, chain.from_iterable(rows))) - {float}:
        return None
    return grid


def _read_bulk(raw_ops: list, dim_h: int):
    """_read_checked's result, with every check run over all operators at once; None on any fault.

    Each of the "re" and "im" grids is read as one float64 array
    (_float_grid); their finiteness is left to the caller.
    """
    if not _all_instances(raw_ops, dict):
        return None
    counts = list(map(dict.get, raw_ops, repeat("rows")))
    if not _all_instances(counts, int) or any(map(isinstance, counts, repeat(bool))) or min(counts) < 1:
        return None
    has_im = list(map(dict.__contains__, raw_ops, repeat("im")))
    grids = []
    for key, ops, rows in (("re", raw_ops, counts),
                           ("im", compress(raw_ops, has_im), list(compress(counts, has_im)))):
        blocks = list(map(dict.get, ops, repeat(key)))
        if not _all_instances(blocks, list) or list(map(len, blocks)) != rows:
            return None
        part = list(chain.from_iterable(blocks))
        if not _all_instances(part, list) or set(map(len, part)) - {dim_h}:
            return None
        grid = _float_grid(part, dim_h)
        if grid is None:
            return None
        grids.append(grid)
    return counts, grids[0], grids[1], has_im


def frame_from_dict(doc) -> GFrame:
    """The frame of an interchange document; FrameFormatError names its first fault in document order.

    doc holds the values a JSON parser returns. The structure of every
    operator is checked at once, and each of the "re" and "im" grids is read
    as one float64 array, whose entry types are checked only where numpy may
    have read a true or false, in a grid holding a 0 or 1 (_read_bulk); the
    finiteness of the entries is checked on their array. Only a document
    that fails there is read again operator by operator (_read_checked),
    which names the fault or reads the int and float-subclass entries the
    bulk read left to it as their value.
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
    t = np.asarray(re_rows, dtype=np.float64).astype(np.complex128)
    if any(has_im):
        t.imag[np.repeat(has_im, counts)] = np.asarray(im_rows, dtype=np.float64)
    if not np.isfinite(t).all():
        _read_checked(raw_ops, dim_h)  # raises, naming the first non-finite entry
    return GFrame.from_stacked(t, counts)


def _frame_json(f: GFrame) -> bytes:
    """frame_to_dict(f) as orjson's OPT_INDENT_2 text plus a newline, in one dump of f's own float64 arrays."""
    doc = _document(f, np.ascontiguousarray(f.stacked.real), np.ascontiguousarray(f.stacked.imag))
    return orjson.dumps(doc, option=orjson.OPT_INDENT_2 | orjson.OPT_SERIALIZE_NUMPY | orjson.OPT_APPEND_NEWLINE)


def write_frame(f: GFrame, fh) -> None:
    """Write f to the text stream fh as orjson.dumps(frame_to_dict(f), option=OPT_INDENT_2) plus a newline."""
    fh.write(_frame_json(f).decode())


def save_frame(f: GFrame, path) -> None:
    data = _frame_json(f)  # dumped before the open, so a failed dump leaves the file as it was
    with open(path, "wb") as fh:
        fh.write(data)


# orjson builds the objects of a parsed document recursively on the C stack,
# with no depth limit: on x86-64 Linux (orjson 3.8, CPython 3.11) 150k levels
# overflowed the 8 MiB main thread and 5k levels a 256 KiB thread. Deeper
# documents are refused before orjson sees them.
MAX_ORJSON_DEPTH = 512
_NOT_STRUCTURE = bytes(sorted(set(range(256)) - set(b'"[]{}')))
_DEPTH_STEP = np.zeros(256, dtype=np.int8)
_DEPTH_STEP[list(b"[{")] = 1
_DEPTH_STEP[list(b"]}")] = -1


def _nesting_depth(data: bytes) -> int:
    """The deepest nesting of arrays and objects in data outside its strings; exact for valid JSON.

    The tail of a string left open is not counted: orjson refuses such a document.
    """
    if b"\\" in data:
        data = re.sub(rb"\\.", b"", data, flags=re.DOTALL)  # escapes, so no '"' is escaped
    brackets = b"".join(data.translate(None, _NOT_STRUCTURE).split(b'"')[::2])  # the runs outside strings
    return int(_DEPTH_STEP[np.frombuffer(brackets, dtype=np.uint8)].cumsum().max(initial=0))


def load_frame(path) -> GFrame:
    """The frame of the document at path, read once and parsed with orjson; FrameFormatError names a fault."""
    with open(path, "rb") as fh:
        data = fh.read()
    # The depth is exact only for valid JSON; orjson parses the whole text before
    # it builds any object, so a document it refuses cannot overflow the stack.
    if _nesting_depth(data) > MAX_ORJSON_DEPTH:
        raise FrameFormatError(f"JSON in {path} is nested too deeply to read")
    try:
        doc = orjson.loads(data)
    except orjson.JSONDecodeError as exc:
        try:
            data.decode("utf-8")  # orjson names invalid UTF-8 as a surrogate fault
        except UnicodeDecodeError as utf8_exc:
            raise FrameFormatError(f"{path} is not UTF-8 text: {utf8_exc}") from utf8_exc
        raise FrameFormatError(f"invalid JSON in {path}: {exc}") from exc
    return frame_from_dict(doc)
