"""Deterministic serialization for reports.

Floating output is byte-stable by construction: every float is
formatted with '%.17g' (round-trip exact for doubles), keys are sorted,
and complex values become {"im": ..., "re": ...} records. The stdlib
json encoder is deliberately not used for numbers so that byte identity
does not hinge on repr() behavior across interpreter versions.
Non-finite numbers are rejected: a report containing NaN is a bug, not
something to serialize quietly. A dataclass field whose metadata sets
"serialize" to False is data for another artifact and is left out.
The encoder dispatches on the exact type of the plain Python scalars
that make up most of a report (float, int, str) and then on containers
(dicts, lists, tuples) before it falls back to isinstance tests for
numpy scalars, arrays and dataclasses.

CSV tables are passed as dictionary-encoded columns: a column is a
pair (values, codes) of 1-D numpy arrays, and its cell i is
values[codes[i]]. Each entry of values is formatted once, into a byte
table: one NUL-padded ASCII row per entry, ending in the column's
separator ("," or, for the last column, the row terminator). The file
is written in blocks of rows: a block gathers each column's table rows
by its codes into one fixed-width byte matrix, drops the padding (no
formatted cell holds a NUL) and is one write. The bytes are those of
formatting cell by cell; memory stays at the tables, the codes and one
block.
"""

from __future__ import annotations

import dataclasses
import json
import math

import numpy as np

# Rows gathered per CSV write: large enough to amortize the per-block
# calls, small enough that a block stays a small part of the file.
_BLOCK_ROWS = 4096


def _format_float(x: float) -> str:
    if not math.isfinite(x):
        raise ValueError(f"non-finite number in report: {x}")
    return "%.17g" % x


def _encode_dict(obj: dict) -> str:
    for k in obj:
        if not isinstance(k, str):
            raise TypeError(f"report keys must be strings, got {k!r}")
    items = (f"{json.dumps(k, ensure_ascii=True)}:{_encode(v)}" for k, v in sorted(obj.items()))
    return "{" + ",".join(items) + "}"


def _encode(obj) -> str:
    # exact scalar types first: bool is its own type, so it never takes the int branch
    t = type(obj)
    if t is float:
        return _format_float(obj)
    if t is int:
        return str(obj)
    if t is str:
        return json.dumps(obj, ensure_ascii=True)
    if isinstance(obj, dict):
        return _encode_dict(obj)
    if isinstance(obj, (list, tuple)):
        # the exact scalar types inline, without a call per element: a
        # report's long lists (violation_points) are tuples of them
        parts = []
        for x in obj:
            t = type(x)
            if t is float:
                parts.append("%.17g" % x if math.isfinite(x) else _format_float(x))
            elif t is int:
                parts.append(str(x))
            elif t is str:
                parts.append(json.dumps(x, ensure_ascii=True))
            else:
                parts.append(_encode(x))
        return "[" + ",".join(parts) + "]"
    if obj is None:
        return "null"
    if isinstance(obj, bool) or isinstance(obj, np.bool_):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return _format_float(float(obj))
    if isinstance(obj, (complex, np.complexfloating)):
        c = complex(obj)
        return '{"im":%s,"re":%s}' % (_format_float(c.imag), _format_float(c.real))
    if isinstance(obj, str):
        return json.dumps(obj, ensure_ascii=True)
    if isinstance(obj, np.ndarray):
        return _encode(obj.tolist())
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        fields = (f for f in dataclasses.fields(obj) if f.metadata.get("serialize", True))
        return _encode_dict({f.name: getattr(obj, f.name) for f in fields})
    raise TypeError(f"cannot serialize {type(obj).__name__} deterministically")


def canonical_json(obj) -> str:
    """Canonical JSON text of a report object (no trailing newline)."""
    return _encode(obj)


def write_json(path, obj):
    """Canonical JSON of obj and a newline at path. The text is encoded
    first, so a report that cannot be serialized leaves no file."""
    text = canonical_json(obj)
    with open(path, "w", encoding="ascii") as fh:
        fh.write(text)
        fh.write("\n")


def _column_table(column, end: bytes):
    """(table, codes) of one (values, codes) CSV column: table holds the
    ASCII text of each entry of values followed by end, one NUL-padded
    uint8 row per entry, each formatted once; cell i's text is
    table[codes[i]]."""
    values, codes = (np.asarray(a) for a in column)
    if values.ndim != 1 or codes.ndim != 1:
        raise ValueError(f"CSV values and codes must be 1-D, got shapes {values.shape} and {codes.shape}")
    if values.dtype.kind == "f":
        texts = [_format_float(x) for x in values.astype(np.float64, copy=False).tolist()]
    elif values.dtype.kind in "iu":
        texts = [str(v) for v in values.tolist()]
    else:
        raise TypeError(f"CSV columns must be integer or float, got {values.dtype}")
    if codes.dtype.kind not in "iu":
        raise TypeError(f"CSV codes must be integers, got {codes.dtype}")
    if codes.size and not (codes.min() >= 0 and codes.max() < len(texts)):
        raise ValueError(f"CSV codes must lie in [0, {len(texts)})")
    table = np.array([t.encode("ascii") + end for t in texts], dtype=bytes)
    return table.view(np.uint8).reshape(len(texts), table.dtype.itemsize), codes


def write_csv(path, header, columns):
    """Comma-separated table of dictionary-encoded columns, header row
    first, '%.17g' floats, no locale dependence. Each column is a pair
    (values, codes) of 1-D arrays, integer or float values and integer
    codes, whose cell i is values[codes[i]]; all columns have as many
    codes. The bytes are those of formatting each cell. Complex columns
    must be split into re/im pairs by the caller; any other dtype of
    values, bool included, raises TypeError. Every check, the
    formatting of values included, is done before the file opens."""
    if len(columns) != len(header):
        raise ValueError(f"{len(columns)} columns for a header of {len(header)}")
    tables = [_column_table(c, b"\n" if i == len(columns) - 1 else b",") for i, c in enumerate(columns)]
    lengths = [len(codes) for _, codes in tables]
    if len(set(lengths)) > 1:
        raise ValueError(f"CSV columns differ in length: {lengths}")
    n_rows = lengths[0] if lengths else 0
    with open(path, "wb") as fh:
        fh.write((",".join(header) + "\n").encode("ascii"))
        for lo in range(0, n_rows, _BLOCK_ROWS):
            rows = [np.take(table, codes[lo : lo + _BLOCK_ROWS], axis=0) for table, codes in tables]
            fh.write(np.concatenate(rows, axis=1).tobytes().translate(None, b"\0"))
