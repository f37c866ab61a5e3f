import random
from fractions import Fraction
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from charsum import (MPoly, build_extension, count_points, enumerate_points,
                     hyperplane_height_test, parse_polynomial, prime_field,
                     primes_in, sample_points)
from charsum.errors import (DEFAULT_BUDGET, BadPrimeError, BudgetError,
                            CharsumError)
from charsum.measure import mu0_sweep
from charsum.mpoly import Lowered
from charsum import fppoly, points
from charsum.points import (_coeffs_in, _common_roots, _eliminate,
                            _point_matrix, _sample_matrix, lower)
from charsum.polyroots import horner
from oracles import eval_mod


def system_of(texts, names):
    return [parse_polynomial(t, variables=names).poly for t in texts]


def brute_points(system, p, n):
    pts = []
    for x in product(range(p), repeat=n):
        if all(eval_mod(f, p, x) == 0 for f in system):
            pts.append(x)
    return pts


def test_line_and_circle():
    names = ("x", "y")
    line = system_of(["y - 2*x - 1"], names)
    assert enumerate_points(line, 7) == brute_points(line, 7, 2)
    assert count_points(line, 7) == 7
    circle = system_of(["x^2 + y^2 - 1"], names)
    got = enumerate_points(circle, 13)
    assert got == brute_points(circle, 13, 2)
    assert count_points(circle, 13) == len(got)


def test_random_systems_match_brute_force():
    rng = random.Random(59)
    for _ in range(60):
        p = rng.choice([2, 3, 5, 7, 11])
        n = rng.randint(1, 3)
        system = []
        for _ in range(rng.randint(1, 2)):
            terms = {}
            for _ in range(rng.randint(1, 5)):
                e = tuple(rng.randint(0, 2) for _ in range(n))
                terms[e] = rng.randint(-6, 6)
            f = MPoly(n, terms)
            if not f.is_zero():
                system.append(f)
        if not system:
            continue
        got = enumerate_points(system, p, nvars=n)
        expect = brute_points(system, p, n)
        assert got == expect
        assert count_points(system, p, nvars=n) == len(expect)


def test_empty_system_is_full_space():
    assert count_points([], 5, nvars=2) == 25
    assert len(enumerate_points([], 3, nvars=3)) == 27


def test_inconsistent_system():
    names = ("x",)
    system = system_of(["x", "x - 1"], names)
    assert enumerate_points(system, 11) == []
    assert count_points(system, 11) == 0
    one = system_of(["1"], names)
    assert count_points(one, 11) == 0


def test_box_filtering():
    names = ("x", "y")
    line = system_of(["y - x"], names)
    pts = enumerate_points(line, 11, box=[(0, 5), (0, 11)])
    assert pts == [(i, i) for i in range(5)]
    assert count_points(line, 11, box=[(0, 5), (3, 11)]) == 2  # x = y in 3,4
    with pytest.raises(CharsumError):
        enumerate_points(line, 11, box=[(0, 5)])
    with pytest.raises(CharsumError):
        enumerate_points(line, 11, box=[(0, 12), (0, 11)])
    with pytest.raises(CharsumError):
        enumerate_points(line, 11, box=[(-1, 5), (0, 11)])


def test_count_shortcut_agrees_with_enumeration_on_curves():
    names = ("x", "y")
    for text in ("y^2 - x^3 - x", "y^2 - x^3 + 2*x - 1", "x*y - 1",
                 "y^2 + x*y - x^3 - 5", "x^2 + y^2 - 3"):
        system = system_of([text], names)
        for p in (3, 5, 7, 11, 13, 17, 19, 23):
            assert count_points(system, p) == \
                len(enumerate_points(system, p))


def test_discriminant_stays_inside_int64():
    # the fibre kernel's discriminant is its own lowered polynomial,
    # b^2 - 4ac, evaluated by horner on residue columns
    p = (1 << 31) - 1  # the largest prime vectorized evaluation accepts
    residues = [0, 1, 2, 123456789, (p - 1) // 2, p - 2, p - 1]
    a, b, c = (np.array(col, dtype=np.int64)
               for col in zip(*product(residues, repeat=3)))
    expect = [(int(y) ** 2 - 4 * int(x) * int(z)) % p
              for x, y, z in zip(a, b, c)]
    disc = Lowered([parse_polynomial("b^2 - 4*a*c",
                                     variables=("a", "b", "c")).poly])
    got = horner(disc.trees[0], disc.residues(p), p, {0: a, 1: b, 2: c})
    assert got.tolist() == expect


# (n, p) with p^n small enough for the brute-force oracle
FIBRE_CASES = [(n, p) for n in (2, 3, 4) for p in (2, 3, 5, 7, 11, 13)
               if p ** n <= 2401]


@st.composite
def fibre_systems(draw):
    """(system, n, p): f = h * (c2 y^2 + c1 y + c0) + r in the last
    variable y, with h, c_i and r random polynomials in the others, so the
    fibres over h = 0 are degenerate whenever r vanishes there; often a
    second equation in all variables, filtered on the fibres."""
    n, p = draw(st.sampled_from(FIBRE_CASES))
    exps = st.tuples(*[st.integers(0, 2)] * (n - 1))
    coeff = st.integers(-6, 6)

    def poly_in_others(max_terms):
        terms = draw(st.dictionaries(exps, coeff, max_size=max_terms))
        return MPoly(n, {e + (0,): c for e, c in terms.items()})

    y = MPoly.variable(n - 1, n)
    fibre = sum((poly_in_others(3) * y ** k for k in range(3)), MPoly(n, {}))
    if draw(st.booleans()):
        fibre = fibre * poly_in_others(2)
    f = fibre + poly_in_others(2)
    system = [f] if not f.is_zero() else []
    if draw(st.booleans()):
        g = MPoly(n, draw(st.dictionaries(
            st.tuples(*[st.integers(0, 2)] * n), coeff, max_size=4)))
        if not g.is_zero():
            system.append(g)
    return system, n, p


@settings(derandomize=True, max_examples=300, deadline=None)
@given(fibre_systems())
def test_fibre_kernel_matches_brute_force(case):
    system, n, p = case
    expect = brute_points(system, p, n)
    assert enumerate_points(system, p, nvars=n) == expect
    assert count_points(system, p, nvars=n) == len(expect)


def legendre(a, p):
    return {0: 0, 1: 1}.get(pow(a, (p - 1) // 2, p), -1)


def diagonal_quadric_count(a, b, p):
    """|{x in F_p^n : sum a_i x_i^2 = b}| for odd p and units a_i, in
    closed form (Lidl & Niederreiter, Finite Fields, Thms 6.26-6.27)."""
    n = len(a)
    prod_a = 1
    for ai in a:
        prod_a = prod_a * ai % p
    if n % 2:
        return p ** (n - 1) + p ** ((n - 1) // 2) * legendre(
            (-1) ** ((n - 1) // 2) * b * prod_a % p, p)
    v = p - 1 if b % p == 0 else -1
    return p ** (n - 1) + v * p ** ((n - 2) // 2) * legendre(
        (-1) ** (n // 2) * prod_a % p, p)


def test_diagonal_quadrics_match_the_closed_count():
    rng = random.Random(61)
    for p in primes_in(120)[1:]:
        for n in (2, 3, 4):
            forms = [((1,) * n, 1)]  # the unit sphere
            if n < 4 or p < 40:  # p^3 grid rows per 4-variable form
                forms.append((tuple(rng.randrange(1, p) for _ in range(n)),
                              rng.randrange(p)))
            for a, b in forms:
                terms = {(0,) * n: -b}
                for i, ai in enumerate(a):
                    terms[tuple(2 * (j == i) for j in range(n))] = ai
                assert count_points([MPoly(n, terms)], p) == \
                    diagonal_quadric_count(a, b, p), (a, b, p)


def test_budget_enforced():
    names = ("x", "y", "z")
    system = system_of(["x*y*z - 1"], names)
    with pytest.raises(BudgetError):
        enumerate_points(system, 101, budget=10 ** 4)
    with pytest.raises(BudgetError):
        count_points(system, 101, budget=10 ** 4)
    # elimination does not rescue the budget check; it applies to p^n
    line = system_of(["y - x"], ("x", "y"))
    with pytest.raises(BudgetError):
        count_points(line, 101, budget=100)


def test_extension_field_enumeration():
    F = build_extension(2, 2)
    names = ("x", "y")
    system = system_of(["x*y - 1"], names)
    pts = enumerate_points(system, F)
    # the multiplicative group has order 3
    assert len(pts) == 3
    for x, y in pts:
        assert (x * y) == F.one()
    assert count_points(system, F) == 3
    with pytest.raises(CharsumError):
        enumerate_points(system, F, box=[(0, 2), (0, 2)])


def test_prime_field_descriptor_accepted():
    names = ("x", "y")
    system = system_of(["y - x^2"], names)
    assert count_points(system, prime_field(7)) == \
        count_points(system, 7)


def test_denominator_clash_is_bad_prime():
    names = ("x",)
    system = system_of(["1/2*x - 1"], names)
    assert enumerate_points(system, 7) == [(2,)]
    with pytest.raises(BadPrimeError):
        enumerate_points(system, 2)


def test_sample_points_on_curve_mod_large_prime():
    names = ("x", "y")
    system = system_of(["y^2 - x^3 - x"], names)
    p = 1000003
    pts = sample_points(system, p, 12)
    assert len(pts) == 12
    assert len(set(pts)) == 12
    for pt in pts:
        assert all(eval_mod(f, p, pt) == 0 for f in system)


def test_sample_points_on_graph_system():
    names = ("x", "y", "z")
    system = system_of(["y - x^2", "z - x*y"], names)
    p = 1000033
    pts = sample_points(system, p, 8)
    for x, y, z in pts:
        assert y == x * x % p and z == x * y % p


def test_sample_points_stay_below_p():
    # the lines x = t stop at p: this curve has only 7 affine points
    # mod 7, so 12 samples cannot be had
    system = system_of(["y^2 - x^3 - x"], ("x", "y"))
    with pytest.raises(CharsumError, match="insufficient samples"):
        sample_points(system, 7, 12)
    assert sample_points(system, 7, 7) == [
        (0, 0), (1, 3), (1, 4), (3, 3), (3, 4), (5, 2), (5, 5)]


def test_sample_points_above_a_million_are_unchanged():
    names = ("x", "y")
    assert sample_points(system_of(["y^2 - x^3 - x"], names),
                         1000003, 12) == [
        (0, 0), (2, 394215), (2, 605788), (5, 449914), (5, 550089),
        (6, 333668), (6, 666335), (7, 205507), (7, 794496), (8, 100175),
        (8, 899828), (9, 274119)]
    assert sample_points(system_of(["x^2 + y^2 - 1"], names),
                         1000033, 6) == [
        (0, 1), (0, 1000032), (1, 0), (2, 325379), (2, 674654),
        (3, 438418)]


@pytest.mark.parametrize("text, count, expect", [
    # x = 0 constrains nothing, so the axis x = 0 comes from the lines y = t
    ("x*y", 6, [(1, 0), (2, 0), (3, 0), (4, 0), (5, 0), (6, 0)]),
    # every line x = t misses the cylinder or lies in it
    ("(x-1)^2", 3, [(1, 0), (1, 1), (1, 2)]),
    ("x^2 - 1", 4, [(1, 0), (1000002, 0), (1, 1), (1000002, 1)]),
])
def test_sample_points_skip_unconstrained_lines(text, count, expect):
    system = system_of([text], ("x", "y"))
    assert sample_points(system, 1000003, count) == expect


def test_sample_points_across_walks_the_lines_y_first():
    system = system_of(["x*y"], ("x", "y"))
    mat = _sample_matrix(system, 1000003, 3, across=True)
    assert mat.tolist() == [[0, 1], [0, 2], [0, 3]]
    # two directions find each point once: 7 points of this curve mod 7
    cubic = system_of(["y^2 - x^3 - x"], ("x", "y"))
    assert len(_sample_matrix(cubic, 7, 7, across=True)) == 7


# the conics of the point_tables benchmark catalogue
CATALOGUE_CONICS = ("y - x^2", "x*y - 1", "x^2 + y^2 - 1", "y^2 - x^3 - x",
                    "x^2 - 3*y^2 - 1", "y - x^3 + x")


def test_sqrt_table_is_left_to_budgeted_grids(monkeypatch):
    # the table holds 8p bytes: neither a one-variable system nor sampling
    # at a large prime may build it
    def refuse(p):
        raise AssertionError("square-root table built for p = %d" % p)

    monkeypatch.setattr(points, "_sqrt_table", refuse)
    p = 1000003  # 3 mod 8, so 2 is not a square
    for text, roots in (("x^2 - 2", []), ("x^2 - 4", [[2], [p - 2]])):
        system = system_of([text], ("x",))
        assert _point_matrix(system, p, 1, None, DEFAULT_BUDGET).tolist() \
            == roots
    for text in CATALOGUE_CONICS:
        system = system_of([text], ("x", "y"))
        for across in (False, True):
            assert len(_sample_matrix(system, p, 6, across=across)) == 6
        hyperplane_height_test(system, 20)


@st.composite
def residue_lists(draw):
    """(p, lists): equations in one variable as residue lists mod a small
    prime, among them zero lists, nonzero constants, products with
    repeated roots and several equations at once."""
    p = draw(st.sampled_from([2, 3, 5, 7, 11, 13]))
    residue = st.integers(0, p - 1)

    def one():
        kind = draw(st.sampled_from(["zero", "constant", "random",
                                     "repeated"]))
        if kind == "zero":
            return [0] * draw(st.integers(0, 3))
        if kind == "constant":
            return [draw(st.integers(1, p - 1))]
        if kind == "random":
            return draw(st.lists(residue, min_size=1, max_size=6))
        f = [1]  # a product of linear factors, some repeated
        for r in draw(st.lists(residue, min_size=1, max_size=4)):
            f = [(a - r * b) % p for a, b in zip([0] + f, f + [0])]
        return f

    return p, [one() for _ in range(draw(st.integers(1, 3)))]


@settings(derandomize=True, max_examples=300, deadline=None)
@given(residue_lists())
def test_common_roots_match_a_scan_of_the_field(case):
    p, polys = case
    kept = [list(f) for f in polys]
    got = _common_roots(polys, p)
    assert polys == kept  # the caller's lists are left alone
    if not any(c % p for f in polys for c in f):
        assert got is None
    else:
        assert got == [r for r in range(p)
                       if all(fppoly.evaluate(f, r, p) == 0 for f in polys)]


@settings(derandomize=True, max_examples=200, deadline=None)
@given(st.data())
def test_coefficients_in_one_variable_match_evaluation(data):
    n = data.draw(st.integers(1, 3))
    p = data.draw(st.sampled_from([3, 7, 101]))
    terms = data.draw(st.dictionaries(st.tuples(*[st.integers(0, 3)] * n),
                                      st.integers(-9, 9), max_size=6))
    f = MPoly(n, terms)
    v = data.draw(st.integers(0, n - 1))
    point = data.draw(st.lists(st.integers(0, p - 1), min_size=n,
                               max_size=n))
    low = Lowered([f])
    at = {w: x for w, x in enumerate(point) if w != v}
    coeffs = _coeffs_in(low.trees[0], v, low.residues(p), p, at)
    for r in range(p):
        point[v] = r
        assert fppoly.evaluate(coeffs, r, p) == eval_mod(f, p, point)


def test_sample_points_failure_is_loud():
    names = ("x", "y")
    # no points: x^2 + y^2 = -1 has solutions mod every prime, so use an
    # inconsistent pair instead
    system = system_of(["x", "x - 1"], names)
    with pytest.raises(CharsumError):
        sample_points(system, 101, 5)


def test_nvars_validation():
    f = parse_polynomial("x + y").poly
    with pytest.raises(CharsumError):
        enumerate_points([], 5)
    with pytest.raises(CharsumError):
        enumerate_points([f, MPoly(3, {(0, 0, 1): 1})], 5)


def test_substitution_leaving_a_nonzero_constant_has_no_points():
    # x = y + 1 from the first equation turns the second into -2
    system = system_of(["x - y - 1", "x - y + 1", "z^2 - x"], ("x", "y", "z"))
    for p in (3, 5, 7, 11):
        assert _eliminate(system, 3, p) is None
        assert brute_points(system, p, 3) == []
        assert enumerate_points(system, p, nvars=3) == []
        assert count_points(system, p, nvars=3) == 0
    # mod 2 the two equations agree and the system has points
    assert count_points(system, 2, nvars=3) == len(brute_points(system, 2, 3))


def _outcome(call, system, p, **kw):
    """The call's result, or the message of its bad-prime error."""
    try:
        return call(system, p, **kw)
    except BadPrimeError as exc:
        return "BadPrimeError: %s" % exc


def check_plan_at(system, n, plan, p):
    """The Q plan at p agrees with the system lowered over F_p and, where
    that path reaches the points, with the brute-force scan."""
    for call in (enumerate_points, count_points):
        got = _outcome(call, plan, p)
        assert got == _outcome(call, system, p, nvars=n), (call, p)
    if not isinstance(got, str):
        expect = brute_points(system, p, n)
        assert enumerate_points(plan, p) == expect
        assert got == len(expect)


@st.composite
def rational_systems(draw):
    """(system, n): one or two equations in 2 or 3 variables with small
    rational coefficients; often one variable occurs only in a linear
    term, with a coefficient that is a unit over Q but maybe not mod p,
    so elimination over Q has work to do."""
    n = draw(st.integers(2, 3))
    coeff = st.fractions(min_value=-6, max_value=6, max_denominator=3)
    system = []
    for _ in range(draw(st.integers(1, 2))):
        terms = draw(st.dictionaries(st.tuples(*[st.integers(0, 2)] * n),
                                     coeff, max_size=4))
        if draw(st.booleans()):
            v = draw(st.integers(0, n - 1))
            terms = {e: c for e, c in terms.items() if not e[v]}
            terms[tuple(int(i == v) for i in range(n))] = draw(
                st.sampled_from([Fraction(1), Fraction(-2), Fraction(3),
                                 Fraction(5, 2)]))
        f = MPoly(n, terms)
        if not f.is_zero():
            system.append(f)
    return system, n


@settings(derandomize=True, max_examples=200, deadline=None)
@given(rational_systems())
def test_lowered_plan_matches_fp_elimination_and_brute_force(case):
    system, n = case
    plan = lower(system, nvars=n)
    for p in (2, 3, 5, 7, 11):
        check_plan_at(system, n, plan, p)


def test_lowered_plan_at_exceptional_and_ordinary_primes():
    names = ("x", "y", "z")
    cases = [
        (["1/3*x + y^2 - 1"], 3),            # p divides a denominator
        (["3*y - x^2"], 3),                  # a unit pivot over Q only
        # x = 2y leaves (3y^2 + 1) z - 1, whose z is a unit pivot mod 3
        (["x - 2*y", "x^2 - 4*y^2 + 3*y^2*z + z - 1"], 3),
        (["y^2 - x^3 - x"], 2),              # p = 2 scans the grid
        (["x^2 + y^2 + z^2 - 1"], 2),
        (["x*y*z - 7"], 7),                  # the constant vanishes mod 7
    ]
    for texts, p in cases:
        system = system_of(texts, names)
        plan = lower(system, nvars=3)
        assert plan.exceptional % p == 0, texts
        check_plan_at(system, 3, plan, p)
        for q in (5, 11, 13):
            check_plan_at(system, 3, plan, q)


def test_lowered_plan_on_three_variable_grids():
    # a fibre over a 2-variable grid, a full 3-variable grid scan, and
    # substitutions that leave a plane curve
    names = ("x", "y", "z")
    for texts in (["x^2 + y^2 + z^2 - 1"], ["z^3 + x^3*y^3 - 2"],
                  ["x^2 + y^2 + z^2 - 1", "x*y*z - 1"],
                  ["y - x^2", "z - x*y", "y^2 + z - 3*x"]):
        system = system_of(texts, names)
        plan = lower(system)
        for p in primes_in(14):
            check_plan_at(system, 3, plan, p)


def test_lowered_plan_samples_like_the_system():
    # a plane curve, a graph over the line, and a graph cut down to points
    for texts, names, count in ((["y^2 - x^3 - x"], ("x", "y"), 6),
                                (["y - x^2", "z - x*y"], ("x", "y", "z"), 4),
                                (["y - x^2", "z - x*y", "y^2 + z - 3*x"],
                                 ("x", "y", "z"), 1)):
        system = system_of(texts, names)
        plan = lower(system)
        for p in (1000003, 1000033):
            assert sample_points(plan, p, count) == \
                sample_points(system, p, count)


def test_count_sweep_builds_no_mpoly_per_prime(monkeypatch):
    built = []
    init = MPoly.__init__

    def counting_init(self, *args, **kwargs):
        built.append(None)
        init(self, *args, **kwargs)

    monkeypatch.setattr(MPoly, "__init__", counting_init)

    def constructions(system, primes):
        built.clear()
        mu0_sweep(system, 1, primes)
        return len(built)

    for texts, names in ((["x*y - 1"], ("x", "y")),
                         (["y^2 - x^3 - x"], ("x", "y")),
                         (["y - x^2", "z - x*y"], ("x", "y", "z")),
                         (["x^2 + y^2 + z^2 - 1"], ("x", "y", "z"))):
        system = system_of(texts, names)
        few = constructions(system, primes_in(30))
        assert few == constructions(system, primes_in(400)), texts
