"""Deterministic serialization for reports.

Floating output is byte-stable by construction: every float is
formatted with '%.17g' (round-trip exact for doubles), keys are sorted,
and complex values become {"im": ..., "re": ...} records. The stdlib
json encoder is deliberately not used for numbers so that byte identity
does not hinge on repr() behavior across interpreter versions.
Non-finite numbers are rejected: a report containing NaN is a bug, not
something to serialize quietly. A dataclass field whose metadata sets
"serialize" to False is data for another artifact and is left out.

CSV tables are passed as numpy columns, and each distinct value of a
column is formatted once: same bytes as cell by cell, far fewer calls.
The last column's distinct texts carry the row terminator, so each row
is one ",".join over shared strings, and the rows are streamed to the
file rather than joined into one string.
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


def _encode(obj) -> str:
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
    if isinstance(obj, dict):
        for k in obj:
            if not isinstance(k, str):
                raise TypeError(f"report keys must be strings, got {k!r}")
        items = (f"{json.dumps(k, ensure_ascii=True)}:{_encode(v)}" for k, v in sorted(obj.items()))
        return "{" + ",".join(items) + "}"
    if isinstance(obj, (list, tuple)):
        return "[" + ",".join(_encode(v) for v in obj) + "]"
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        fields = (f for f in dataclasses.fields(obj) if f.metadata.get("serialize", True))
        return _encode({f.name: getattr(obj, f.name) for f in fields})
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


def _column_text(col, end: str = "") -> list:
    """The text of every cell of one CSV column followed by end, each
    distinct value formatted once and shared by all the cells that hold
    it."""
    col = np.asarray(col)
    if col.ndim != 1:
        raise ValueError(f"CSV columns must be 1-D, got shape {col.shape}")
    if col.dtype.kind == "f":
        # Keyed on the bit pattern so that -0.0 and 0.0 stay apart.
        bits, inverse = np.unique(col.astype(np.float64, copy=False).view(np.int64), return_inverse=True)
        distinct = [_format_float(x) + end for x in bits.view(np.float64).tolist()]
    elif col.dtype.kind in "biu":
        values, inverse = np.unique(col, return_inverse=True)
        distinct = [str(v).lower() + end for v in values.tolist()]  # True -> "true"
    else:
        raise TypeError(f"CSV columns must be bool, integer or float, got {col.dtype}")
    return np.array(distinct, dtype=object)[inverse].tolist()


def write_csv(path, header, columns):
    """Comma-separated table of equal-length 1-D columns, header row
    first, '%.17g' floats, true/false, no locale dependence. Each distinct
    value is formatted once; the bytes are those of formatting each cell.
    Complex columns must be split into re/im pairs by the caller."""
    if len(columns) != len(header):
        raise ValueError(f"{len(columns)} columns for a header of {len(header)}")
    cells = [_column_text(c, "\n" if i == len(columns) - 1 else "") for i, c in enumerate(columns)]
    if len({len(c) for c in cells}) > 1:
        raise ValueError(f"CSV columns differ in length: {[len(c) for c in cells]}")
    with open(path, "w", encoding="ascii", newline="") as fh:
        fh.write(",".join(header) + "\n")
        fh.writelines(map(",".join, zip(*cells)))
