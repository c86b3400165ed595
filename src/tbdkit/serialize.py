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

CSV tables are passed as plain columns: equal-length 1-D integer or
float arrays, one per header entry. Every cell is formatted on its own
and the file is written in one call.
"""

from __future__ import annotations

import dataclasses
import json
import math

import numpy as np


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
        return "[" + ",".join(_encode(x) for x in obj) + "]"
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


def _column_cells(column) -> list:
    """The text of each cell of a 1-D integer or float CSV column."""
    column = np.asarray(column)
    if column.ndim != 1:
        raise ValueError(f"CSV columns must be 1-D, got shape {column.shape}")
    if column.dtype.kind == "f":
        return [_format_float(x) for x in column.astype(np.float64, copy=False).tolist()]
    if column.dtype.kind in "iu":
        return [str(v) for v in column.tolist()]
    raise TypeError(f"CSV columns must be integer or float, got {column.dtype}")


def write_csv(path, header, columns):
    """Comma-separated table of equal-length 1-D integer or float
    columns, header row first, '%.17g' floats, no locale dependence.
    Complex columns must be split into re/im pairs by the caller; any
    other dtype, bool included, raises TypeError. Every check, the
    formatting of each cell included, is done before the file opens."""
    if len(columns) != len(header):
        raise ValueError(f"{len(columns)} columns for a header of {len(header)}")
    cells = [_column_cells(c) for c in columns]
    lengths = [len(c) for c in cells]
    if len(set(lengths)) > 1:
        raise ValueError(f"CSV columns differ in length: {lengths}")
    lines = [",".join(header), *(",".join(row) for row in zip(*cells))]
    with open(path, "wb") as fh:
        fh.write("".join(line + "\n" for line in lines).encode("ascii"))
