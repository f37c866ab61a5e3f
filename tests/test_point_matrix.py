"""The F_p point matrix and its consumers, against the loops they
replaced: the per-moment pushforward loop, the per-term Laurent loop, the
scalar hyperplane candidate scan and the point-by-point indicator fill.
The consumers must agree with these oracles bit for bit."""

from itertools import product
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from charsum import (LaurentPoly, MPoly, ValueTable, box_count, count_points,
                     enumerate_points, hyperplane_height_test,
                     parse_polynomial, prime_field, primes_in,
                     pushforward_weyl)
from charsum import measure, weil
from charsum.angles import character_sum, character_values
from charsum.errors import BudgetError, CharsumError
from charsum.mpoly import gauss_jordan
from charsum.points import DEFAULT_BUDGET, _point_matrix
from charsum.weil import _candidate_vectors
from oracles import eval_mod

PRIMES = {2: primes_in(200), 3: primes_in(47)}  # 3 variables: p^3 grids
# reducible, cylinder and doubled plane curves, some containing a line x = t
PLANE_SPECIALS = ("x*y", "(x-1)*y", "(x-1)^2", "x^2 - 1", "(x + 2*y - 3)^2")


def system_of(texts, names):
    return [parse_polynomial(t, variables=names).poly for t in texts]


@st.composite
def curves(draw):
    """(system, n, p, box): one conic or cubic in 2 or 3 variables with
    small integer coefficients, or in one plane case of four one of
    PLANE_SPECIALS, a prime up to 200 (47 in 3 variables) and a box of
    half-open residue ranges."""
    n = draw(st.integers(2, 3))
    p = draw(st.sampled_from(PRIMES[n]))
    if n == 2 and draw(st.integers(0, 3)) == 0:
        system = system_of([draw(st.sampled_from(PLANE_SPECIALS))],
                           ("x", "y"))
    else:
        deg = draw(st.integers(2, 3))
        exps = [e for e in product(range(deg + 1), repeat=n)
                if sum(e) <= deg]
        terms = draw(st.dictionaries(st.sampled_from(exps),
                                     st.integers(-5, 5), max_size=5))
        top = draw(st.sampled_from([e for e in exps if sum(e) == deg]))
        terms[top] = draw(st.sampled_from([1, -1, 2, 3]))
        system = [MPoly(n, terms)]
    box = [tuple(sorted(draw(st.lists(st.integers(0, p), min_size=2,
                                      max_size=2))))
           for _ in range(n)]
    return system, n, p, box


@st.composite
def graphs(draw):
    """(system, n, None, None): the curve x -> (x, g_2(x), ..., g_n(x)) in
    4 or 5 variables, each g_v of degree at most 3 with small integer
    coefficients, so that some of these curves lie in a hyperplane."""
    n = draw(st.integers(4, 5))
    system = []
    for v in range(1, n):
        g = draw(st.lists(st.integers(-3, 3), min_size=1, max_size=4))
        terms = {(k,) + (0,) * (n - 1): c for k, c in enumerate(g) if c}
        terms[tuple(int(i == v) for i in range(n))] = -1
        system.append(MPoly(n, terms))
    return system, n, None, None


def bits(moments):
    """The moments with each float as its exact bit pattern."""
    return [(m, v.real.hex(), v.imag.hex()) for m, v in moments]


# -- the matrix ------------------------------------------------------------


@settings(derandomize=True, max_examples=150, deadline=None)
@given(curves())
def test_point_matrix_is_the_sorted_enumeration(case):
    system, n, p, box = case
    full = _point_matrix(system, p, n, None, DEFAULT_BUDGET)
    mat = _point_matrix(system, p, n, box, DEFAULT_BUDGET)
    assert full.dtype == mat.dtype == np.int64
    assert full.shape == (len(full), n) and mat.shape == (len(mat), n)
    rows = [tuple(r) for r in full.tolist()]
    assert rows == sorted(set(rows))
    assert all(0 <= v < p for r in rows for v in r)
    assert all(eval_mod(f, p, r) == 0 for f in system for r in rows)
    inside = [r for r in rows
              if all(lo <= v < hi for v, (lo, hi) in zip(r, box))]
    assert [tuple(r) for r in mat.tolist()] == inside
    pts = enumerate_points(system, p, nvars=n, box=box)
    assert pts == inside
    assert all(type(v) is int for pt in pts for v in pt)
    assert count_points(system, p, nvars=n) == len(full)
    assert count_points(system, p, nvars=n, box=box) == len(mat)


def test_point_matrix_of_an_empty_variety():
    system = system_of(["x", "x - 1"], ("x", "y"))
    mat = _point_matrix(system, 11, None, None, DEFAULT_BUDGET)
    assert mat.shape == (0, 2) and mat.dtype == np.int64
    assert enumerate_points(system, 11) == []


def test_point_matrix_checks_like_enumerate_points():
    system = system_of(["y - x^2"], ("x", "y"))
    with pytest.raises(CharsumError):
        _point_matrix(system, 15, None, None, DEFAULT_BUDGET)  # not prime
    with pytest.raises(BudgetError):
        _point_matrix(system, 101, None, None, 100)
    with pytest.raises(CharsumError):
        _point_matrix(system, 11, None, [(0, 12), (0, 11)], DEFAULT_BUDGET)


# -- pushforward moments ---------------------------------------------------


def moments_oracle(mat, p, max_moment):
    """The per-moment loop pushforward_weyl replaced."""
    n = mat.shape[1]
    moments = [((0,) * n, 1.0 + 0.0j)]
    for m in np.ndindex(*((2 * max_moment + 1,) * n)):
        vec = tuple(int(v) - max_moment for v in m)
        if all(v == 0 for v in vec):
            continue
        dots = np.zeros(len(mat), dtype=np.int64)
        for i, c in enumerate(vec):
            if c:
                dots = (dots + mat[:, i] * c) % p
        moments.append((vec, character_sum(dots, p) / len(mat)))
    return moments


@settings(derandomize=True, max_examples=80, deadline=None)
@given(curves(), st.integers(0, 3))
def test_moments_match_the_per_moment_loop(case, max_moment):
    system, n, p, _ = case
    mat = np.array(enumerate_points(system, p, nvars=n), dtype=np.int64)
    if not len(mat):
        with pytest.raises(CharsumError):
            pushforward_weyl(system, p, max_moment, nvars=n)
        return
    expect = bits(moments_oracle(mat, p, max_moment))
    res = pushforward_weyl(system, p, max_moment, nvars=n)
    assert res.npoints == len(mat)
    assert bits(res.moments) == expect
    with patch.object(measure, "_CHUNK", 3 * len(mat)):  # blocks of 3
        assert bits(pushforward_weyl(system, p, max_moment,
                                     nvars=n).moments) == expect


def test_moment_count_is_refused_before_any_product():
    system = system_of(["x*y - 1"], ("x", "y"))
    # 24 moments x 10 points, and 11^2 cells to enumerate
    assert len(pushforward_weyl(system, 11, 2, budget=240).moments) == 25
    with pytest.raises(BudgetError, match="moment budget exceeded"):
        pushforward_weyl(system, 11, 2, budget=239)
    # 36M moments at 1012 points: refused before the first moment vector
    with patch.object(measure, "_free_grid") as grid:
        with pytest.raises(BudgetError):
            pushforward_weyl(system, 1013, 3000)
    grid.assert_not_called()


# -- Laurent values --------------------------------------------------------


@st.composite
def real_laurent(draw, n):
    """A real-mode Laurent polynomial in n variables: each exponent vector
    m in [-2, 2]^n comes with its conjugate at -m."""
    terms = {}
    for _ in range(draw(st.integers(0, 4))):
        m = tuple(draw(st.lists(st.integers(-2, 2), min_size=n,
                                max_size=n)))
        re = draw(st.fractions(-5, 5, max_denominator=4))
        im = 0 if not any(m) else draw(st.fractions(-5, 5,
                                                    max_denominator=4))
        terms[m] = (re, im)
        terms[tuple(-e for e in m)] = (re, -im)
    return LaurentPoly(n, terms)


def laurent_oracle(h, mat, p):
    """The per-term loop eval_real_on_residues replaced."""
    total = np.zeros(len(mat), dtype=np.complex128)
    for m, (re, im) in h.sorted_terms():
        dots = np.zeros(len(mat), dtype=np.int64)
        for i, e in enumerate(m):
            if e:
                dots = (dots + mat[:, i] * e) % p
        total += complex(float(re), float(im)) * character_values(dots, p)
    return total.real


@settings(derandomize=True, max_examples=80, deadline=None)
@given(st.data())
def test_laurent_values_match_the_per_term_loop(data):
    system, n, p, _ = data.draw(curves())
    h = data.draw(real_laurent(n))
    mat = _point_matrix(system, p, n, None, DEFAULT_BUDGET)
    got = h.eval_real_on_residues(mat, p)
    assert got.tobytes() == laurent_oracle(h, mat, p).tobytes()


def test_laurent_values_need_one_coordinate_per_variable():
    h = LaurentPoly(2, {(1, 0): 1, (-1, 0): 1})
    with pytest.raises(CharsumError):
        h.eval_real_on_residues(np.zeros((4, 3), dtype=np.int64), 5)


# -- hyperplane search -----------------------------------------------------


def scan_oracle(n, m, samples):
    """The scalar candidate scan `_constant_on_samples` replaced."""
    tuples = {q: [tuple(r) for r in pts.tolist()]
              for q, pts in samples.items()}
    for vecs in _candidate_vectors(n, m):
        for vec in map(tuple, vecs.tolist()):
            consts = []
            for q, pts in tuples.items():
                c0 = sum(a * x for a, x in zip(vec, pts[0])) % q
                if any(sum(a * x for a, x in zip(vec, pt)) % q != c0
                       for pt in pts[1:]):
                    break
                consts.append(c0)
            else:
                yield vec, consts


def outcome(call, *args, **kw):
    try:
        return call(*args, **kw)
    except CharsumError as exc:
        return "CharsumError: %s" % exc


def with_oracle(call, *args, **kw):
    with patch.object(weil, "_constant_on_samples", scan_oracle):
        return outcome(call, *args, **kw)


@settings(derandomize=True, max_examples=60, deadline=None)
@given(st.one_of(curves(), graphs()), st.integers(1, 3), st.booleans(),
       st.data())
def test_hyperplane_search_matches_the_scalar_scan(case, m, in_plane, data):
    system, n, _, _ = case
    if in_plane:  # also a plane a.x = c, whose height may exceed m
        a = data.draw(st.lists(st.integers(-3, 3), min_size=n, max_size=n)
                      .filter(any))
        terms = {tuple(int(i == j) for j in range(n)): c
                 for i, c in enumerate(a) if c}
        terms[(0,) * n] = data.draw(st.integers(-4, 4))
        system = system + [MPoly(n, terms)]
    assert outcome(hyperplane_height_test, system, m, nvars=n) == \
        with_oracle(hyperplane_height_test, system, m, nvars=n)


@settings(derandomize=True, max_examples=100, deadline=None)
@given(st.sampled_from([2, 3, 5]), st.integers(1, 4), st.data())
def test_rank_mod_counts_the_span(q, n, data):
    # the hyperplane search's span test: the pivots of gauss_jordan over
    # F_q elements
    rows = data.draw(st.lists(st.lists(st.integers(-9, 9), min_size=n,
                                       max_size=n), max_size=4))
    span = {tuple(sum(c * r[j] for c, r in zip(cs, rows)) % q
                  for j in range(n))
            for cs in product(range(q), repeat=len(rows))}
    field = prime_field(q)
    pivots, _ = gauss_jordan([[field.element(a) for a in r] for r in rows])
    assert q ** len(pivots) == len(span)


@pytest.mark.parametrize("texts, vector, constant, exact", [
    (["z - x*y"], None, None, None),
    (["x^2 + y^2 - 1", "z - x - 2*y"], (-1, -2, 1), 0, False),
], ids=["graph", "hyperplane"])
def test_box_count_flag_matches_the_scalar_scan(texts, vector, constant,
                                                exact):
    system = system_of(texts, ("x", "y", "z"))
    box = [(0, 51)] * 3
    got = box_count(system, 101, box, 1)
    assert got == with_oracle(box_count, system, 101, box, 1)
    hp = got.hyperplane
    if vector is None:
        assert hp is None
    else:
        assert (hp.vector, hp.constant, hp.exact) == (vector, constant,
                                                      exact)


# -- indicator tables ------------------------------------------------------


def indicator_oracle(p, n, points):
    """The point-by-point fill ValueTable.indicator replaced."""
    arr = np.zeros((p,) * n)
    for pt in points:
        arr[tuple(int(v) % p for v in pt)] = 1.0
    return arr


@settings(derandomize=True, max_examples=60, deadline=None)
@given(st.data())
def test_indicator_from_arrays_tuples_and_nothing(data):
    n = data.draw(st.integers(1, 3))
    p = data.draw(st.sampled_from(primes_in(13 if n == 3 else 60)))
    rows = data.draw(st.lists(st.lists(st.integers(-2 * p, 2 * p),
                                       min_size=n, max_size=n), max_size=30))
    expect = indicator_oracle(p, n, rows)
    as_array = np.array(rows, dtype=np.int64).reshape(-1, n)
    as_tuples = [tuple(r) for r in rows]
    for points in (as_array, as_tuples):
        got = ValueTable.indicator(p, n, points).values
        assert got.tobytes() == expect.tobytes()
    for empty in (np.zeros((0, n), dtype=np.int64), []):
        got = ValueTable.indicator(p, n, empty).values
        assert got.shape == (p,) * n and not got.any()
