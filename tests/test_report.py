import json
import os
import tempfile
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from charsum import Angle
from charsum.report import build_report, fmt_cell, write_csv, write_json
from oracles import jsonable


def _written(tmp_path, doc):
    """The document `write_json` writes for doc, read back."""
    path = tmp_path / "doc.json"
    write_json(path, doc)
    return json.loads(path.read_text())


def test_written_scalar_types(tmp_path):
    values = [None, True, 7, "s", 1.5, np.float64(2.5), np.int64(9),
              np.bool_(True), Fraction(3, 7), Angle(Fraction(5, 4)), 2 + 3j]
    got = _written(tmp_path, values)
    assert got == [None, True, 7, "s", 1.5, 2.5, 9, True, "3/7", "1/4",
                   {"re": 2.0, "im": 3.0}]
    assert got[0] is None and got[1] is True and got[7] is True
    assert isinstance(got[6], int)


@dataclass
class Row:
    p: int
    angle: Angle


def test_written_containers_and_dataclasses(tmp_path):
    assert _written(tmp_path, [1, (2, 3)]) == [1, [2, 3]]
    assert _written(tmp_path, {"k": Fraction(1, 2)}) == {"k": "1/2"}
    assert _written(tmp_path, {1: "v"}) == {"1": "v"}
    assert _written(tmp_path, np.arange(3)) == [0, 1, 2]
    assert _written(tmp_path, Row(5, Angle(Fraction(1, 5)))) == \
        {"p": 5, "angle": "1/5"}


def test_build_report_shape(tmp_path):
    doc = _written(tmp_path, build_report(
        "demo", {"x": 1}, records=[{"a": Fraction(1, 3)}],
        aggregate={"ok": True}, skipped=[(2, "why")], seed=42))
    assert set(doc) == {"schema", "version", "command", "params", "seed",
                        "records", "aggregate", "skipped"}
    assert doc["schema"] == 1
    assert doc["command"] == "demo"
    assert doc["seed"] == 42
    assert doc["records"] == [{"a": "1/3"}]
    assert doc["skipped"] == [[2, "why"]]


def test_write_json_is_canonical(tmp_path):
    doc = build_report("demo", {"b": 1, "a": 2})
    path = tmp_path / "out.json"
    write_json(path, doc)
    text = path.read_text()
    assert text.endswith("\n")
    assert json.loads(text) == doc
    # keys are sorted in the serialized form
    assert text.index('"aggregate"') < text.index('"command"')
    assert text.index('"a"') < text.index('"b"')
    path2 = tmp_path / "again.json"
    write_json(path2, build_report("demo", {"b": 1, "a": 2}))
    assert path2.read_text() == text


SCALARS = st.one_of(
    st.none(), st.booleans(),
    st.integers(-(1 << 70), 1 << 70),
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([float("nan"), float("inf"), float("-inf"), -0.0,
                     5e-324, 1e300, 0.1]),
    st.text(),
    st.sampled_from(["", "\x00\x1f\x7f\n\t\"\\", "caf\u00e9 \u2713 \U0001f600",
                     "\ud800"]))


@dataclass(frozen=True)
class Pair:  # fields declared out of sorted order
    weight: float
    label: object


FINITE = st.floats(allow_nan=False, allow_infinity=False)
# values of the types reports hold besides JSON's own
LIBRARY_VALUES = st.one_of(
    st.builds(complex, st.floats(), st.floats()),
    st.builds(Fraction, st.integers(-10 ** 30, 10 ** 30),
              st.integers(1, 10 ** 30)),
    st.builds(Angle, st.builds(Fraction, st.integers(-1000, 1000),
                               st.integers(1, 1000))),
    st.integers(-(1 << 63), (1 << 63) - 1).map(np.int64),
    st.booleans().map(np.bool_),
    st.floats().map(np.float64),
    st.lists(FINITE, max_size=4).map(np.array),
    st.lists(st.integers(-5, 5), max_size=6).map(
        lambda xs: np.array(xs[:len(xs) // 2 * 2]).reshape(-1, 2)),
    st.lists(st.builds(complex, FINITE, FINITE), max_size=3).map(np.array),
    st.builds(Pair, st.floats(),
              st.one_of(st.none(), st.integers(), st.text(max_size=3))))
DOCUMENTS = st.recursive(
    st.one_of(SCALARS, LIBRARY_VALUES),
    lambda inner: st.one_of(
        st.lists(inner, max_size=5),
        st.lists(inner, max_size=3).map(tuple),
        st.dictionaries(st.one_of(st.text(max_size=6),
                                  st.sampled_from(["", "\u00e9", "\x01"])),
                        inner, max_size=5)),
    max_leaves=40)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(DOCUMENTS)
def test_write_json_matches_json_dumps(doc):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "doc.json")
        write_json(path, doc)
        with open(path, "rb") as fh:
            text = fh.read()
    expect = json.dumps(jsonable(doc), sort_keys=True, indent=2) + "\n"
    assert text == expect.encode("ascii")


def test_written_rejects_unknown_types(tmp_path):
    for doc in (object(), {1, 2}, Row):
        with pytest.raises(TypeError):
            jsonable(doc)
        with pytest.raises(TypeError):
            write_json(tmp_path / "bad.json", doc)


def test_write_json_rejects_what_json_rejects(tmp_path):
    for doc in (object(), {"k": {1j}}):
        with pytest.raises(TypeError):
            json.dumps(jsonable(doc))
        with pytest.raises(TypeError):
            write_json(tmp_path / "bad.json", doc)


def test_fmt_cell():
    assert fmt_cell(True) == "true"
    assert fmt_cell(False) == "false"
    assert fmt_cell(7) == "7"
    assert fmt_cell(np.int64(7)) == "7"
    assert fmt_cell(0.5) == "0.5"
    assert fmt_cell(Fraction(2, 6)) == "1/3"
    assert fmt_cell(Angle(Fraction(3, 2))) == "1/2"
    assert fmt_cell("plain") == "plain"


def test_write_csv(tmp_path):
    path = tmp_path / "t.csv"
    write_csv(path, ["p", "ok", "angle"],
              [(7, True, Fraction(1, 7)), (11, False, Fraction(2, 11))])
    lines = path.read_text().splitlines()
    assert lines[0] == "p,ok,angle"
    assert lines[1] == "7,true,1/7"
    assert lines[2] == "11,false,2/11"
