"""Report serialization.

JSON output is canonical: keys sorted, two-space indent, trailing
newline, floats via Python's shortest-repr.  Runs that differ only in
--jobs produce byte-identical files; wall-clock time is never written,
only printed.  Reports hold library values as they are, and the writer
encodes each in the one walk that writes the text: exact rationals and
angles as "a/b" strings, complex numbers as {"im": ..., "re": ...}
pairs, numpy scalars and arrays as their `tolist()`, and dataclasses as
objects of their fields.

The writer is hand-rolled: `json.dumps` with an indent runs the
encoder's pure-Python path, which is slower.  On JSON's own types its
output is byte for byte `json.dumps(doc, sort_keys=True, indent=2)`, and
the tests hold it to that, with the other types converted first.
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


def build_report(command, params, records=(), aggregate=None, skipped=(),
                 seed=0):
    return {
        "schema": SCHEMA,
        "version": __version__,
        "command": command,
        "params": params,
        "seed": seed,
        "records": list(records),
        "aggregate": aggregate if aggregate is not None else {},
        "skipped": list(skipped),
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


@functools.cache
def _sorted_fields(cls):
    return tuple(sorted(f.name for f in dataclasses.fields(cls)))


def _encode_members(keys, get, depth, out):
    """Append the JSON object that maps each of `keys`, in their order,
    to `get(key)`; an int key is written as its decimal string, as json
    writes it."""
    if not keys:
        out.append("{}")
        return
    _, sep, comma, _, close = _layout(depth)
    for k in keys:
        out.append(sep)
        out.append(encode_basestring_ascii(str(k)))
        out.append(": ")
        _encode(get(k), depth + 1, out)
        sep = comma
    out.append(close)


def _encode(obj, depth, out):
    """Append the JSON text of obj, a value at nesting depth `depth`, to
    the list out.  JSON's own types are tested first, in json's order."""
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
        _encode_members(sorted(obj), obj.__getitem__, depth, out)
    elif isinstance(obj, complex):
        _, sep, comma, _, close = _layout(depth)
        out += (sep, '"im": ', _float_text(obj.imag), comma, '"re": ',
                _float_text(obj.real), close)
    elif dataclasses.is_dataclass(type(obj)):
        _encode_members(_sorted_fields(type(obj)),
                        functools.partial(getattr, obj), depth, out)
    elif isinstance(obj, Fraction):
        out.append('"%d/%d"' % (obj.numerator, obj.denominator))
    elif isinstance(obj, Angle):
        out.append('"%s"' % obj)
    elif isinstance(obj, (np.generic, np.ndarray)):
        _encode(obj.tolist(), depth, out)
    else:
        raise TypeError("Object of type %s is not JSON serializable"
                        % type(obj).__name__)


def write_json(path, doc):
    """`json.dumps(doc, sort_keys=True, indent=2)` and a newline, for
    documents with string or int keys, with the values of other types
    encoded as the module docstring says."""
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
    return str(v)


def write_csv(path, header, rows):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([fmt_cell(v) for v in row])
