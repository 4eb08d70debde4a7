"""Deterministic serialization of results.

Floats are rendered with %.17g so round-tripping is exact and two runs of
the same pipeline produce byte-identical files.  JSON output is sorted and
newline-terminated; non-finite values become the strings "inf", "-inf",
"nan" since JSON has no spelling for them.
"""

from __future__ import annotations

import json
import math

import numpy as np

__all__ = ["format_float", "sanitize", "write_csv", "write_json", "dumps_json"]


def format_float(x) -> str:
    # %g spells the non-finite values nan, inf and -inf
    return "%.17g" % float(x)


def _format_cell(x) -> str:
    if type(x) is float:
        return format_float(x)
    if isinstance(x, str):
        return x
    if isinstance(x, (bool, np.bool_)):
        return "true" if x else "false"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return format_float(x)


def write_csv(path, header, rows, row_format=None) -> None:
    """Write a CSV file.  ``row_format``, a ``%`` format for a whole row,
    replaces the per-cell formatting when every row has the same types
    (``%d`` for ints, ``%.17g`` for floats)."""
    lines = [",".join(header)]
    if row_format is None:
        lines += [",".join(_format_cell(cell) for cell in row) for row in rows]
    else:
        lines += [row_format % row for row in rows]
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def sanitize(obj):
    """Reduce an object tree to plain JSON-serializable values."""
    if isinstance(obj, dict):
        return {str(k): sanitize(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [sanitize(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [sanitize(v) for v in obj.tolist()]
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (int, np.integer)):
        return int(obj)
    if isinstance(obj, (float, np.floating)):
        x = float(obj)
        if math.isnan(x):
            return "nan"
        if math.isinf(x):
            return "inf" if x > 0 else "-inf"
        return x
    return obj


def dumps_json(obj) -> str:
    return json.dumps(sanitize(obj), sort_keys=True, indent=2) + "\n"


def write_json(path, obj) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(dumps_json(obj))
