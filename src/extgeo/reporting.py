"""Deterministic serialization of results.

Floats are rendered with %.17g so round-tripping is exact and two runs of
the same pipeline produce byte-identical files; %g spells the non-finite
values nan, inf and -inf.  A CSV file takes one ``%`` format for every
row, given by its writer along with the header.  JSON output is sorted
and newline-terminated; non-finite values become the strings "inf",
"-inf", "nan" since JSON has no spelling for them.
"""

from __future__ import annotations

import itertools
import json
import math

import numpy as np

__all__ = ["sanitize", "write_csv", "write_json", "dumps_json"]

# rows formatted into one string and written at a time by ``write_csv``
CSV_CHUNK = 4096


def write_csv(path, header, rows, row_format) -> None:
    """Write a CSV file: the header, then each row (a tuple) through
    ``row_format``, one ``%`` format for the whole row: ``%.17g`` for
    floats, ``%d`` for ints, ``%s`` for text.  Rows are formatted and
    written ``CSV_CHUNK`` at a time, so the file is never one string."""
    line = row_format + "\n"
    rows = iter(rows)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        while chunk := list(itertools.islice(rows, CSV_CHUNK)):
            fh.write("".join([line % row for row in chunk]))


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
