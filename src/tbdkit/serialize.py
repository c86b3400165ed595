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

CSV tables are passed as numpy columns. Each distinct value of a column
is formatted once, into a byte table: one NUL-padded ASCII row per
distinct value, ending in the column's separator ("," or, for the last
column, the row terminator). The distinct values come from np.unique,
on the bit pattern for floats so that -0.0 and 0.0 stay apart. The
file is written in blocks of rows: a block gathers each column's table
rows by the cells' indices into one fixed-width byte matrix, drops the
padding (no formatted cell holds a NUL) and is one write. The bytes are those of formatting cell by cell;
memory stays at the tables, the indices and one block.
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
        return "[" + ",".join(map(_encode, obj)) + "]"
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


def _column_table(col, end: bytes):
    """(table, inverse) of one CSV column: table holds the ASCII text of
    each distinct value followed by end, one NUL-padded uint8 row per
    value, each formatted once; cell i's text is table[inverse[i]]."""
    col = np.asarray(col)
    if col.ndim != 1:
        raise ValueError(f"CSV columns must be 1-D, got shape {col.shape}")
    if col.dtype.kind == "f":
        # Keyed on the bit pattern so that -0.0 and 0.0 stay apart.
        bits, inverse = np.unique(col.astype(np.float64, copy=False).view(np.int64), return_inverse=True)
        distinct = [_format_float(x) for x in bits.view(np.float64).tolist()]
    elif col.dtype.kind in "iu":
        values, inverse = np.unique(col, return_inverse=True)
        distinct = [str(v) for v in values.tolist()]
    else:
        raise TypeError(f"CSV columns must be integer or float, got {col.dtype}")
    table = np.array([s.encode("ascii") + end for s in distinct], dtype=bytes)
    return table.view(np.uint8).reshape(len(distinct), table.dtype.itemsize), inverse


def write_csv(path, header, columns):
    """Comma-separated table of equal-length 1-D integer or float
    columns, header row first, '%.17g' floats, no locale dependence. Each
    distinct value is formatted once; the bytes are those of formatting
    each cell. Complex columns must be split into re/im pairs by the
    caller; any other dtype, bool included, raises TypeError."""
    if len(columns) != len(header):
        raise ValueError(f"{len(columns)} columns for a header of {len(header)}")
    tables = [_column_table(c, b"\n" if i == len(columns) - 1 else b",") for i, c in enumerate(columns)]
    lengths = [len(inverse) for _, inverse in tables]
    if len(set(lengths)) > 1:
        raise ValueError(f"CSV columns differ in length: {lengths}")
    n_rows = lengths[0] if lengths else 0
    with open(path, "wb") as fh:
        fh.write((",".join(header) + "\n").encode("ascii"))
        for lo in range(0, n_rows, _BLOCK_ROWS):
            rows = [np.take(table, inverse[lo : lo + _BLOCK_ROWS], axis=0) for table, inverse in tables]
            fh.write(np.concatenate(rows, axis=1).tobytes().translate(None, b"\0"))
