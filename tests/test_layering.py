"""Every charsum module imports on its own in a fresh interpreter, before
the package's __init__ runs, so an import cycle between two modules
shows whichever of them is loaded first.  Only `angles` reads the table
of p-th roots of unity; every other module goes through its kernels.
F_p consumers read the point matrix, not the tuples of
`enumerate_points`, and sum through the table, not with `psi_sum`.  Each
kernel step has one copy: the one-variable solve, the line sum's budget
guard, its evaluation of f on the whole line, the Weil verdict, the
count of a root's multiplicity by synthetic division (a numpy kernel and
its Python twin) and the square root mod p by a power (an int and a lane
version; the fibre kernel reads a table of squares instead).
No comparison has a bare float literal operand: each tolerance has a
name.  Every F_p sum refuses a character table over budget before it
builds its points.  One reader turns a one-variable polynomial into
coefficients.  Only `mpoly.power`, and its lane twin `power_lanes`,
walks the bits of an exponent.  The root-angle sweeps find roots on
lanes of primes, never with a scalar root finder or evaluator called
prime by prime.  Report values are turned into text in one walk, by the
writer.  Only `measure` calls numpy's FFT.  No module computes a
discriminant: bad primes and squarefreeness are read mod p, and the
resultant lives among the test oracles.  The parser does not recurse.
No module, in the package or among the tests, imports a name it never
uses."""

import ast
import subprocess
import sys
from importlib.util import find_spec
from pathlib import Path

import pytest

PACKAGE = Path(find_spec("charsum").submodule_search_locations[0])
MODULES = sorted(p.stem for p in PACKAGE.glob("*.py") if p.stem != "__init__")
SOURCES = sorted(list(PACKAGE.glob("*.py"))
                 + list(Path(__file__).parent.glob("*.py")))

LOAD_ALONE = """
import importlib, sys, types
pkg = types.ModuleType("charsum")
pkg.__path__ = [sys.argv[1]]
sys.modules["charsum"] = pkg
importlib.import_module("charsum." + sys.argv[2])
"""


@pytest.mark.parametrize("name", MODULES)
def test_module_imports_alone(name):
    r = subprocess.run([sys.executable, "-c", LOAD_ALONE, str(PACKAGE), name],
                       capture_output=True, text=True, timeout=60)
    assert r.returncode == 0, r.stderr


@pytest.mark.parametrize("name", MODULES)
def test_only_angles_calls_unit_roots(name):
    tree = ast.parse((PACKAGE / (name + ".py")).read_text())
    calls = [node.lineno for node in ast.walk(tree)
             if isinstance(node, ast.Call)
             and "unit_roots" in (getattr(node.func, "id", None),
                                  getattr(node.func, "attr", None))]
    assert name == "angles" or not calls, calls


# (module, function) pairs that may call enumerate_points: the F_q
# branches of exp_sum and count_points
TUPLE_POINT_CALLERS = {("weil", "exp_sum"), ("points", "count_points")}


def _by_function(tree, match):
    """(function, line) of every node inside a def that `match` accepts."""
    out = []
    for fn in ast.walk(tree):
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            out += [(fn.name, node.lineno) for node in ast.walk(fn)
                    if match(node)]
    return out


def _is_call(node, name):
    return isinstance(node, ast.Call) and name in (
        getattr(node.func, "id", None), getattr(node.func, "attr", None))


def _calls_by_function(tree, name):
    """(function, line) of every call of `name` inside a def."""
    return _by_function(tree, lambda node: _is_call(node, name))


@pytest.mark.parametrize("name", MODULES)
def test_fp_consumers_read_the_point_matrix(name):
    tree = ast.parse((PACKAGE / (name + ".py")).read_text())
    calls = [(fn, line)
             for fn, line in _calls_by_function(tree, "enumerate_points")
             if (name, fn) not in TUPLE_POINT_CALLERS]
    assert not calls, calls


# (module, function) pairs that may sum exact angles with `psi_sum`: the
# root sums of `psisym` and the F_q branch of exp_sum; every F_p sum goes
# through `angles.character_sum`
EXACT_ANGLE_SUMS = {("rootsums", "psisym_eval"), ("cli", "cmd_psisym"),
                    ("weil", "exp_sum")}


def test_only_exact_angle_sums_call_psi_sum():
    calls = {(name, fn) for name in MODULES
             for fn, _ in _calls_by_function(
                 ast.parse((PACKAGE / (name + ".py")).read_text()), "psi_sum")}
    assert calls == EXACT_ANGLE_SUMS


def _downward(loop):
    """A for loop over reversed(...) or a range with a negative step: a
    coefficient list read from the top."""
    it = loop.iter
    return _is_call(it, "reversed") or (
        _is_call(it, "range") and len(it.args) == 3
        and isinstance(it.args[2], ast.UnaryOp)
        and isinstance(it.args[2].op, ast.USub))


def _synthetic_division(node):
    """A downward loop that keeps a running accumulator, rebound from an
    expression that reads it, and stores it whole into a list or an
    array: Horner that keeps its partial values, which are the quotient
    by x - r."""
    if not (isinstance(node, ast.For) and _downward(node)):
        return False
    running = {t.id for n in ast.walk(node) if isinstance(n, ast.Assign)
               for t in n.targets if isinstance(t, ast.Name)
               and any(getattr(m, "id", None) == t.id
                       for m in ast.walk(n.value))}
    stored = {n.value.id for n in ast.walk(node)
              if isinstance(n, ast.Assign) and isinstance(n.value, ast.Name)
              and any(isinstance(t, ast.Subscript) for t in n.targets)}
    stored |= {n.args[0].id for n in ast.walk(node)
               if _is_call(n, "append") and n.args
               and isinstance(n.args[0], ast.Name)}
    return bool(running & stored)


POWERS = ("pow", "power", "power_lanes", "_pow_many", "pow_mod_array")


def _square_root_power(node):
    """A power of a residue to (m + 1) // 2, (m - 1) // 2 or a quarter:
    Euler's criterion and the square-root steps of Cipolla, Tonelli-Shanks
    and the p = 3 mod 4 shortcut."""
    if not any(_is_call(node, name) for name in POWERS) or len(node.args) < 2:
        return False
    e = node.args[1]
    return (isinstance(e, ast.BinOp) and isinstance(e.op, ast.FloorDiv)
            and getattr(e.right, "value", None) in (2, 4)
            and isinstance(e.left, ast.BinOp)
            and isinstance(e.left.op, (ast.Add, ast.Sub))
            and getattr(e.left.right, "value", None) == 1)


# (modules, what, the functions that may do it): root finding for one
# free variable, building a Weil record, reading its pass/fail slack,
# evaluating f on the whole line, counting root multiplicities (the
# numpy kernel and its Python twin) and taking square roots mod p (one
# int and one lane version)
SINGLE_COPIES = [
    (["points"], lambda node: _is_call(node, "roots_mod_p"),
     {("points", "_common_roots")}),
    (["weil"], lambda node: _is_call(node, "WeilRecord"),
     {("weil", "_record")}),
    (["weil"], lambda node: getattr(node, "id", None) == "PASS_SLACK",
     {("weil", "_record")}),
    (["weil"], lambda node: _is_call(node, "line_values"),
     {("weil", "_line_sum")}),
    (MODULES, _synthetic_division,
     {("polyroots", "_deflation_count"), ("polyroots", "_deflation_counts")}),
    (MODULES, _square_root_power,
     {("ffield", "sqrt_mod"), ("polyroots", "_sqrt_many")}),
]


@pytest.mark.parametrize("modules, match, owners", SINGLE_COPIES,
                         ids=["roots_mod_p", "WeilRecord", "PASS_SLACK",
                              "line_values", "synthetic_division",
                              "square_root"])
def test_each_kernel_step_has_one_copy(modules, match, owners):
    assert {(name, fn) for name in modules
            for fn, _ in _by_function(
                ast.parse((PACKAGE / (name + ".py")).read_text()),
                match)} == owners


def test_kernel_step_checks_see_a_copy():
    # a deflation and the Tonelli-Shanks steps; not Horner evaluation, a
    # forward loop or the inverse of 2
    tree = ast.parse("def deflate(f, r, p):\n    out, acc = [], 0\n"
                     "    for c in reversed(f):\n"
                     "        acc = (acc * r + c) % p\n"
                     "        out.append(acc)\n"
                     "def columns(g, r, p):\n"
                     "    for i in range(len(g) - 2, -1, -1):\n"
                     "        q[:, i] = acc\n"
                     "        acc = (g[:, i] + acc * r) % p\n"
                     "def evaluate(f, x, p):\n    acc = 0\n"
                     "    for c in reversed(f):\n"
                     "        acc = (acc * x + c) % p\n"
                     "def forward(f, r):\n"
                     "    for c in f:\n        acc = acc * r + c\n"
                     "        out.append(acc)\n"
                     "def tonelli(a, q, p):\n"
                     "    return pow(a, (q + 1) // 2, p)\n"
                     "def lanes(z, p):\n"
                     "    return _pow_many(z, (p - 1) // 2, p)\n"
                     "def half(p):\n    return (p + 1) // 2\n")
    assert {fn for fn, _ in _by_function(tree, _synthetic_division)} == {
        "deflate", "columns"}
    assert {fn for fn, _ in _by_function(tree, _square_root_power)} == {
        "tonelli", "lanes"}


def _one_point_budget_check(node):
    """A `_check_budget(q, 1, ...)` call: the guard of a sum over F_q."""
    return (_is_call(node, "_check_budget") and len(node.args) > 1
            and isinstance(node.args[1], ast.Constant)
            and node.args[1].value == 1)


def test_only_the_line_sum_guards_a_line():
    guards = {(name, fn) for name in MODULES
              for fn, _ in _by_function(
                  ast.parse((PACKAGE / (name + ".py")).read_text()),
                  _one_point_budget_check)}
    assert guards == {("weil", "_line_sum")}


# (module, function) pairs that sum over a table of p character values:
# each checks p against the table budget before its first point matrix,
# arange of F_p or `line_values`, which builds all of F_p
TABLE_CHECKED = [("weil", "exp_sum"), ("weil", "_line_sum"),
                 ("weil", "axiom3_sup"), ("measure", "pushforward_weyl")]


@pytest.mark.parametrize("module, function", TABLE_CHECKED,
                         ids=[fn for _, fn in TABLE_CHECKED])
def test_table_check_comes_before_the_points(module, function):
    tree = ast.parse((PACKAGE / (module + ".py")).read_text())
    fn = next(node for node in ast.walk(tree)
              if isinstance(node, ast.FunctionDef) and node.name == function)

    def first(*names):
        return min(((node.lineno, node.col_offset) for node in ast.walk(fn)
                    if any(_is_call(node, name) for name in names)),
                   default=None)

    check = first("_check_table_size")
    points = first("_point_matrix", "arange", "line_values")
    assert check is not None and points is not None and check < points


def test_one_reader_for_one_variable_polynomials():
    # parser.univariate is the one place that turns a polynomial into its
    # coefficient list; the readers it replaced stay gone
    calls = {(name, fn) for name in MODULES
             for fn, _ in _calls_by_function(
                 ast.parse((PACKAGE / (name + ".py")).read_text()),
                 "univariate_coeffs")}
    assert calls == {("parser", "univariate")}
    for path in SOURCES:
        names = {alias.name for node in ast.walk(ast.parse(path.read_text()))
                 if isinstance(node, ast.ImportFrom) for alias in node.names}
        assert "_as_rational_coeffs" not in names, path


def _walks_bits(node):
    """A `bin(...)` call, a `>>=` or a `>>`: reading a number bit by
    bit."""
    return _is_call(node, "bin") or (
        isinstance(node, (ast.AugAssign, ast.BinOp))
        and isinstance(node.op, ast.RShift))


def test_only_power_walks_the_bits_of_an_exponent():
    # every square-and-multiply goes through mpoly.power, or through its
    # twin power_lanes when each lane has its own exponent
    walks = {(name, fn) for name in MODULES
             for fn, _ in _by_function(
                 ast.parse((PACKAGE / (name + ".py")).read_text()),
                 _walks_bits)}
    assert walks == {("mpoly", "power"), ("mpoly", "power_lanes")}


def test_bit_walk_check_sees_a_shift():
    tree = ast.parse("def f(e):\n    return (e >> 3) & 1\n"
                     "def g(e):\n    e >>= 1\n    return e\n"
                     "def h(e):\n    return bin(e)\n"
                     "def k(e):\n    return e << 1\n")
    assert {fn for fn, _ in _by_function(tree, _walks_bits)} == {
        "f", "g", "h"}


# the scalar root finder and evaluator, which no root-angle sweep may call
# once per prime: the sweeps find roots and values on lanes of primes
SCALAR_ROOT_STEPS = ("roots_mod_p", "evaluate")


def _per_prime_calls(tree):
    """(name, line) of each call of a scalar root step inside a loop or a
    comprehension."""
    loops = (ast.For, ast.While, ast.ListComp, ast.SetComp, ast.DictComp,
             ast.GeneratorExp)
    return sorted({(name, node.lineno) for loop in ast.walk(tree)
                   if isinstance(loop, loops) for node in ast.walk(loop)
                   for name in SCALAR_ROOT_STEPS if _is_call(node, name)})


def test_sweeps_find_roots_on_lanes():
    tree = ast.parse((PACKAGE / "equidist.py").read_text())
    assert _per_prime_calls(tree) == []
    assert {fn for fn, _ in _calls_by_function(tree, "roots_mod_many")} == {
        "_value_worker"}


def test_per_prime_check_sees_a_loop():
    tree = ast.parse("def f(ps):\n    return [roots_mod_p(g, p) for p in ps]\n"
                     "def g(ps):\n    for p in ps:\n"
                     "        fppoly.evaluate(g, 1, p)\n"
                     "def h(p):\n    return roots_mod_p(g, p)\n")
    assert _per_prime_calls(tree) == [("evaluate", 5), ("roots_mod_p", 2)]


# (module, function) pairs that may test for Fraction: the report writer
# and the CSV cell formatter, which turn it into text, and the operand
# checks of exact arithmetic.  Another place that tests for it would be a
# second walk that converts report values.
FRACTION_TESTS = {("report", "_encode"), ("report", "fmt_cell"),
                  ("angles", "__eq__"), ("mpoly", "_as_fraction"),
                  ("mpoly", "_binop"), ("mpoly", "__mul__"),
                  ("mpoly", "substitute"), ("nfield", "_check")}


def _tests_for_fraction(node):
    return (_is_call(node, "isinstance") and len(node.args) == 2
            and any(getattr(n, "id", None) == "Fraction"
                    for n in ast.walk(node.args[1])))


def test_only_the_writers_turn_fractions_into_text():
    tests = {(name, fn) for name in MODULES
             for fn, _ in _by_function(
                 ast.parse((PACKAGE / (name + ".py")).read_text()),
                 _tests_for_fraction)}
    assert tests == FRACTION_TESTS


def _uses_fft(node):
    """`np.fft` / `numpy.fft`, or an import of numpy's fft module."""
    if isinstance(node, ast.Attribute):
        return (node.attr == "fft"
                and getattr(node.value, "id", None) in ("np", "numpy"))
    if isinstance(node, ast.Import):
        return any(alias.name.startswith("numpy.fft") for alias in node.names)
    if isinstance(node, ast.ImportFrom):
        return (node.module or "").startswith("numpy.fft") or (
            node.module == "numpy"
            and any(alias.name == "fft" for alias in node.names))
    return False


@pytest.mark.parametrize("name", MODULES)
def test_only_measure_calls_the_fft(name):
    tree = ast.parse((PACKAGE / (name + ".py")).read_text())
    lines = [node.lineno for node in ast.walk(tree) if _uses_fft(node)]
    assert bool(lines) == (name == "measure"), lines


def _float_literal_comparisons(tree):
    """Line of each comparison with a float literal operand, signed or
    not: a tolerance with no name and no scale."""
    return [node.lineno for node in ast.walk(tree)
            if isinstance(node, ast.Compare)
            for side in (node.left, *node.comparators)
            if isinstance(getattr(side, "operand", side), ast.Constant)
            and isinstance(getattr(side, "operand", side).value, float)]


@pytest.mark.parametrize("name", MODULES)
def test_no_comparison_with_a_bare_float(name):
    tree = ast.parse((PACKAGE / (name + ".py")).read_text())
    assert _float_literal_comparisons(tree) == []


def test_float_comparison_check_sees_one():
    tree = ast.parse("ok = err <= 1e-9\nwarn = -0.5 < x < 2\n"
                     "same = n == 2\nclose = err <= SLACK * 0.5\n")
    assert _float_literal_comparisons(tree) == [1, 2]


def _exact_discriminant_names(tree):
    """(name, line) of each definition, import or use of the exact
    discriminant, the resultant or a Sylvester matrix check."""
    return [(name, node.lineno) for node in ast.walk(tree)
            for name in (getattr(node, field, None)
                         for field in ("name", "asname", "id", "attr"))
            if isinstance(name, str)
            and (name in ("discriminant", "resultant")
                 or "sylvester" in name.lower())]


@pytest.mark.parametrize("name", MODULES)
def test_no_module_computes_an_exact_discriminant(name):
    tree = ast.parse((PACKAGE / (name + ".py")).read_text())
    assert _exact_discriminant_names(tree) == []


def test_exact_discriminant_check_sees_an_import():
    tree = ast.parse("from .mpoly import gauss_jordan as resultant\n"
                     "from oracles import discriminant\n"
                     "def check_sylvester(n):\n    return SYLVESTER_CAP\n")
    assert {name for name, _ in _exact_discriminant_names(tree)} == {
        "resultant", "discriminant", "check_sylvester", "SYLVESTER_CAP"}


def _recursive_functions(tree):
    """Functions of a module that reach themselves through calls, by name,
    of functions the same module defines."""
    defs = {fn.name: fn for fn in ast.walk(tree)
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))}
    calls = {name: {callee for node in ast.walk(fn)
                    if isinstance(node, ast.Call)
                    for callee in (getattr(node.func, "id", None),
                                   getattr(node.func, "attr", None))
                    if callee in defs}
             for name, fn in defs.items()}
    out = set()
    for start in defs:
        seen, todo = set(), list(calls[start])
        while todo:
            name = todo.pop()
            if name == start:
                out.add(start)
            elif name not in seen:
                seen.add(name)
                todo.extend(calls[name])
    return out


def test_the_parser_does_not_recurse():
    # one loop with an explicit stack: no limit on length or nesting
    tree = ast.parse((PACKAGE / "parser.py").read_text())
    assert _recursive_functions(tree) == set()


def test_recursion_check_sees_a_cycle():
    tree = ast.parse("def f(n):\n    return g(n)\n"
                     "def g(n):\n    return n and f(n - 1)\n"
                     "def h(n):\n    return f(n)\n")
    assert _recursive_functions(tree) == {"f", "g"}


def _unused_imports(tree):
    """Names bound by an import (not `from __future__`) that no Name node
    reads; the strings of `__all__` count as reads."""
    imported, used = {}, set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if getattr(node, "module", None) != "__future__":
                for alias in node.names:
                    name = (alias.asname or alias.name).split(".")[0]
                    imported[name] = node.lineno
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif (isinstance(node, ast.Assign)
              and any(getattr(t, "id", None) == "__all__"
                      for t in node.targets)):
            used.update(e.value for e in node.value.elts)
    return {name: line for name, line in imported.items() if name not in used}


@pytest.mark.parametrize("path", SOURCES,
                         ids=[p.parent.name + "/" + p.name for p in SOURCES])
def test_no_unused_imports(path):
    assert _unused_imports(ast.parse(path.read_text())) == {}


def test_unused_import_check_sees_one():
    tree = ast.parse("import math\nfrom os import path as p, sep\n"
                     "from __future__ import annotations\nprint(sep)\n")
    assert _unused_imports(tree) == {"math": 1, "p": 2}
