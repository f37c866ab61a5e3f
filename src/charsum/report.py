"""Report serialization.

JSON output is canonical: keys sorted, two-space indent, trailing
newline, floats via Python's shortest-repr.  Runs that differ only in
--jobs produce byte-identical files; wall-clock time is never written,
only printed.  Exact rationals are serialized as "a/b" strings, complex
numbers as {"re": ..., "im": ...} pairs.

The writer is hand-rolled: `json.dumps` with an indent runs the
encoder's pure-Python path, which is slower.  Its output is byte for
byte `json.dumps(doc, sort_keys=True, indent=2)`, and the tests hold it
to that with `json.dumps` as the oracle.
"""

from __future__ import annotations

import csv
import dataclasses
import functools
from fractions import Fraction
from json.encoder import encode_basestring_ascii

import numpy as np

from ._version import __version__
from .angles import Angle

SCHEMA = 1


@functools.cache
def _field_names(cls):
    return tuple(f.name for f in dataclasses.fields(cls))


def jsonable(obj):
    t = type(obj)
    if t is float or t is int or t is str or t is bool or obj is None:
        return obj
    if t is complex:
        return {"re": obj.real, "im": obj.imag}
    if isinstance(obj, (bool, int, str)):
        return obj
    if isinstance(obj, np.bool_):
        return bool(obj)
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, Angle):
        return str(obj)
    if isinstance(obj, Fraction):
        return "%d/%d" % (obj.numerator, obj.denominator)
    if isinstance(obj, complex):
        return {"re": float(obj.real), "im": float(obj.imag)}
    if isinstance(obj, (float, np.floating)):
        return float(obj)
    if isinstance(obj, dict):
        return {str(k): jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [jsonable(v) for v in obj.tolist()]
    if dataclasses.is_dataclass(obj):
        return {name: jsonable(getattr(obj, name))
                for name in _field_names(type(obj))}
    raise TypeError("cannot serialize %r" % type(obj))


def build_report(command, params, records=(), aggregate=None, skipped=(),
                 seed=0):
    return {
        "schema": SCHEMA,
        "version": __version__,
        "command": command,
        "params": jsonable(params),
        "seed": seed,
        "records": jsonable(list(records)),
        "aggregate": jsonable(aggregate if aggregate is not None else {}),
        "skipped": jsonable(list(skipped)),
    }


_INF = float("inf")


def _float_text(x):
    if x != x:
        return "NaN"
    if x == _INF:
        return "Infinity"
    if x == -_INF:
        return "-Infinity"
    return float.__repr__(x)


@functools.cache
def _layout(depth):
    """The opening, separating and closing text of a list and of a dict
    at nesting depth `depth`, newlines and indents included; shared by
    every container at that depth."""
    pad = "\n" + "  " * depth
    inner = pad + "  "
    return "[" + inner, "{" + inner, "," + inner, pad + "]", pad + "}"


def _encode(obj, depth, out):
    """Append the JSON text of obj, a value at nesting depth `depth`, to
    the list out.  Types are tested in json's order."""
    if isinstance(obj, str):
        out.append(encode_basestring_ascii(obj))
    elif obj is None:
        out.append("null")
    elif obj is True:
        out.append("true")
    elif obj is False:
        out.append("false")
    elif isinstance(obj, int):
        out.append(int.__repr__(obj))
    elif isinstance(obj, float):
        out.append(_float_text(obj))
    elif isinstance(obj, (list, tuple)):
        if not obj:
            out.append("[]")
            return
        sep, _, comma, close, _ = _layout(depth)
        for v in obj:
            out.append(sep)
            _encode(v, depth + 1, out)
            sep = comma
        out.append(close)
    elif isinstance(obj, dict):
        if not obj:
            out.append("{}")
            return
        _, sep, comma, _, close = _layout(depth)
        for k in sorted(obj):
            out.append(sep)
            out.append(encode_basestring_ascii(k))
            out.append(": ")
            _encode(obj[k], depth + 1, out)
            sep = comma
        out.append(close)
    else:
        raise TypeError("Object of type %s is not JSON serializable"
                        % type(obj).__name__)


def write_json(path, doc):
    """`json.dumps(doc, sort_keys=True, indent=2)` and a newline, for
    documents with string keys, as `jsonable` makes them."""
    out = []
    _encode(doc, 0, out)
    out.append("\n")
    with open(path, "w") as fh:
        fh.write("".join(out))


def fmt_cell(v):
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if isinstance(v, (float, np.floating)):
        return "%.12g" % float(v)
    if isinstance(v, Fraction):
        return "%d/%d" % (v.numerator, v.denominator)
    if isinstance(v, Angle):
        return str(v)
    return str(v)


def write_csv(path, header, rows):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([fmt_cell(v) for v in row])
