import json
import os
import tempfile
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from charsum import Angle
from charsum.report import (build_report, fmt_cell, jsonable, write_csv,
                            write_json)


def test_jsonable_scalar_types():
    assert jsonable(None) is None
    assert jsonable(True) is True
    assert jsonable(7) == 7
    assert jsonable("s") == "s"
    assert jsonable(1.5) == 1.5
    assert jsonable(np.float64(2.5)) == 2.5
    assert jsonable(np.int64(9)) == 9
    assert isinstance(jsonable(np.int64(9)), int)
    assert jsonable(np.bool_(True)) is True
    assert jsonable(Fraction(3, 7)) == "3/7"
    assert jsonable(Angle(Fraction(5, 4))) == "1/4"
    assert jsonable(2 + 3j) == {"re": 2.0, "im": 3.0}


def test_jsonable_containers_and_dataclasses():
    assert jsonable([1, (2, 3)]) == [1, [2, 3]]
    assert jsonable({"k": Fraction(1, 2)}) == {"k": "1/2"}
    assert jsonable({1: "v"}) == {"1": "v"}
    assert jsonable(np.arange(3)) == [0, 1, 2]

    @dataclass
    class Row:
        p: int
        angle: Angle

    assert jsonable(Row(5, Angle(Fraction(1, 5)))) == \
        {"p": 5, "angle": "1/5"}


def test_jsonable_rejects_unknown_types():
    with pytest.raises(TypeError):
        jsonable(object())


def test_build_report_shape():
    doc = build_report("demo", {"x": 1}, records=[{"a": Fraction(1, 3)}],
                       aggregate={"ok": True}, skipped=[(2, "why")],
                       seed=42)
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
DOCUMENTS = st.recursive(
    SCALARS,
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
    expect = json.dumps(doc, sort_keys=True, indent=2) + "\n"
    assert text == expect.encode("ascii")


def test_write_json_rejects_what_json_rejects(tmp_path):
    for doc in (object(), {"k": {1j}}):
        with pytest.raises(TypeError):
            json.dumps(doc)
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
