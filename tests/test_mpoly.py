import operator
import random
from fractions import Fraction
from itertools import permutations, zip_longest

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from charsum import (MPoly, NFElem, build_extension, fppoly, nf_build,
                     prime_field)
from charsum.errors import BadPrimeError, BudgetError, CharsumError
from charsum.mpoly import (Lowered, frac_mod, gauss_jordan, poly_add,
                           poly_derivative, poly_divmod, poly_gcd,
                           poly_monic, poly_mul, poly_powmod, poly_rem,
                           poly_sub, poly_trim, pow_mod_array, power,
                           power_lanes, primitive_integers)
from charsum.polyroots import horner
from oracles import discriminant, eval_mod, resultant


def poly_degree(coeffs):
    """Degree of a coefficient list, -1 for the zero polynomial."""
    return len(poly_trim(coeffs)) - 1


def fp_add(f, g, p):
    """Sum of two residue lists mod p, trimmed: the oracle for poly_add."""
    return fppoly.trim([(a + b) % p
                        for a, b in zip_longest(f, g, fillvalue=0)])


def random_poly(rng, nvars, nterms=6, maxdeg=3, span=9):
    terms = {}
    for _ in range(nterms):
        e = tuple(rng.randint(0, maxdeg) for _ in range(nvars))
        terms[e] = Fraction(rng.randint(-span, span), rng.randint(1, 4))
    return MPoly(nvars, terms)


def test_ring_laws_against_exact_evaluation():
    rng = random.Random(7)
    for _ in range(40):
        n = rng.randint(1, 3)
        f = random_poly(rng, n)
        g = random_poly(rng, n)
        h = random_poly(rng, n)
        pt = tuple(Fraction(rng.randint(-4, 4), rng.randint(1, 3))
                   for _ in range(n))
        fv, gv, hv = f.evaluate(pt), g.evaluate(pt), h.evaluate(pt)
        assert (f + g).evaluate(pt) == fv + gv
        assert (f - g).evaluate(pt) == fv - gv
        assert (f * g).evaluate(pt) == fv * gv
        assert ((f + g) * h).evaluate(pt) == (fv + gv) * hv
        assert (f ** 2).evaluate(pt) == fv * fv
        assert (-f).evaluate(pt) == -fv


def _termwise_product(f, g):
    """f * g summed one Fraction product per pair of terms, zeros
    dropped: the oracle for the integer-numerator product."""
    terms = {}
    for e1, c1 in f.terms.items():
        for e2, c2 in g.terms.items():
            e = tuple(a + b for a, b in zip(e1, e2))
            terms[e] = terms.get(e, Fraction(0)) + c1 * c2
    return [(e, c) for e, c in terms.items() if c]


def test_product_matches_the_termwise_fraction_product():
    # same terms in the same order; x*y cancels in (x + y)(x - y)
    rng = random.Random(11)
    x, y = MPoly.variable(0, 2), MPoly.variable(1, 2)
    pairs = [(x + y, x - y), (x * Fraction(1, 3) + 1, MPoly(2)),
             (MPoly(2), x)]
    for _ in range(60):
        n = rng.randint(1, 3)
        pairs.append((random_poly(rng, n), random_poly(rng, n)))
    for f, g in pairs:
        assert list((f * g).terms.items()) == _termwise_product(f, g)
    assert (x + y) * (x - y) == x ** 2 - y ** 2


def test_constant_and_variable_builders():
    c = MPoly.constant(Fraction(5, 3), 2)
    assert c.is_constant() and c.constant_value() == Fraction(5, 3)
    x = MPoly.variable(0, 2)
    y = MPoly.variable(1, 2)
    f = x * y + 2 * x
    assert f.evaluate([Fraction(v) for v in (3, 4)]) == 18
    assert f.total_degree() == 2
    assert f.degree_in(0) == 1 and f.degree_in(1) == 1
    assert f.variables_used() == {0, 1}


def test_substitute_matches_evaluation():
    rng = random.Random(11)
    for _ in range(25):
        f = random_poly(rng, 2)
        repl = random_poly(rng, 2, nterms=3, maxdeg=2)
        g = f.substitute(0, repl)
        pt = (Fraction(rng.randint(-3, 3)), Fraction(rng.randint(-3, 3)))
        assert g.evaluate(pt) == f.evaluate((repl.evaluate(pt), pt[1]))


def test_univariate_round_trip():
    coeffs = [Fraction(3), Fraction(-1, 2), Fraction(0), Fraction(7)]
    f = MPoly.from_univariate(coeffs)
    assert f.univariate_coeffs() == coeffs
    g = MPoly.from_univariate(coeffs, nvars=3, var=1)
    assert g.degree_in(1) == 3 and g.degree_in(0) == 0
    assert g.univariate_coeffs(var=1) == coeffs


def test_univariate_coeffs_rejects_extra_variables():
    x = MPoly.variable(0, 2)
    y = MPoly.variable(1, 2)
    with pytest.raises(CharsumError):
        (x * y).univariate_coeffs(0)


def test_dense_forms_refuse_a_huge_degree_before_allocating():
    # each would be a list of 2^32 entries
    x = MPoly(2, {(1 << 32, 0): 1, (0, 0): 1})
    for build in (lambda: x.univariate_coeffs(0),
                  lambda: x.as_univariate_in(0), lambda: Lowered([x])):
        with pytest.raises(BudgetError, match="degree 4294967296 exceeds"):
            build()
    top = MPoly(1, {(1 << 20,): 1})
    assert len(top.univariate_coeffs()) == (1 << 20) + 1
    with pytest.raises(BudgetError, match=r"dense-form cap 2\^20"):
        MPoly(1, {((1 << 20) + 1,): 1}).univariate_coeffs()


def test_as_univariate_in_reassembles():
    rng = random.Random(13)
    f = random_poly(rng, 3)
    x1 = MPoly.variable(1, 3)
    back = MPoly(3, {})
    for k, c in enumerate(f.as_univariate_in(1)):
        back = back + c * x1 ** k
    assert back == f


def test_drop_unused_variables():
    f = MPoly(3, {(2, 0, 0): Fraction(1), (0, 0, 1): Fraction(-1)})
    g, kept = f.drop_unused_variables()
    assert list(kept) == [0, 2]
    assert g.nvars == 2
    assert g == MPoly(2, {(2, 0): Fraction(1), (0, 1): Fraction(-1)})


def test_eval_mod_agrees_with_exact():
    rng = random.Random(17)
    p = 101
    for _ in range(20):
        n = rng.randint(1, 3)
        f = random_poly(rng, n)
        pt = tuple(rng.randrange(p) for _ in range(n))
        exact = f.evaluate([Fraction(v) for v in pt])
        assert eval_mod(f, p, pt) == frac_mod(exact, p)


def _horner(f, p, cols):
    low = Lowered([f])
    return horner(low.trees[0], low.residues(p), p, cols)


def test_horner_agrees_with_scalar():
    rng = random.Random(19)
    p = 97
    f = random_poly(rng, 2)
    xs = np.arange(p, dtype=np.int64)
    ys = (xs * 3 + 1) % p
    vals = _horner(f, p, {0: xs, 1: ys})
    for i in (0, 1, 17, 50, 96):
        assert int(vals[i]) == eval_mod(f, p, (int(xs[i]), int(ys[i])))


def test_horner_reads_only_the_variables_that_occur():
    # z never occurs, so no column is given for it; a constant comes
    # back as the scalar residue
    rng = random.Random(23)
    p = 10007
    xs = np.array([0, 1, p - 1, 12, 5000], dtype=np.int64)
    ys = (xs * 7 + 3) % p
    for _ in range(10):
        f = random_poly(rng, 2, nterms=12, maxdeg=4)
        f = MPoly(3, {e + (0,): c for e, c in f.terms.items()})
        vals = _horner(f, p, {0: xs, 1: ys})
        assert np.ndim(vals) == 1 or f.is_constant()
        assert np.broadcast_to(vals, xs.shape).tolist() == \
            [eval_mod(f, p, (int(x), int(y), 0)) for x, y in zip(xs, ys)]
    assert _horner(MPoly.constant(Fraction(-1, 3), 3), p, {}) == \
        frac_mod(Fraction(-1, 3), p)


# both sides of 2^11, near 10^6 and the largest primes below 2^31
HORNER_PRIMES = [3, 2039, 2053, 999983, 2147483629, 2147483647]


@st.composite
def poly_and_columns(draw):
    n = draw(st.integers(1, 3))
    coeff = st.fractions(min_value=-10 ** 12, max_value=10 ** 12,
                         max_denominator=50)
    f = MPoly(n, draw(st.dictionaries(st.tuples(*[st.integers(0, 7)] * n),
                                      coeff, max_size=8)))
    p = draw(st.sampled_from(HORNER_PRIMES))
    residue = st.one_of(st.integers(0, p - 1), st.sampled_from([0, p - 1]))
    rows = draw(st.integers(0, 6))
    cols = [draw(st.lists(residue, min_size=rows, max_size=rows))
            for _ in range(n)]
    return f, p, cols


@settings(derandomize=True, max_examples=300, deadline=None)
@given(poly_and_columns())
def test_horner_matches_eval_mod(case):
    f, p, cols = case
    cols = {v: np.array(c, dtype=np.int64) for v, c in enumerate(cols)}
    if any(c.denominator % p == 0 for c in f.terms.values()):
        with pytest.raises(BadPrimeError):
            _horner(f, p, cols)
        return
    expect = [eval_mod(f, p, pt) for pt in zip(*case[2])]
    got = _horner(f, p, cols)
    assert np.broadcast_to(got, len(expect)).tolist() == expect


def test_lowered_forms_share_one_denominator():
    x = MPoly.variable(0, 2)
    y = MPoly.variable(1, 2)
    low = Lowered([x * Fraction(1, 6) + 2, y * y * Fraction(3, 4)])
    assert low.den == 12
    # x/6 + 2 is read in x; (3/4) y^2 in y, with its two zero coefficients
    assert low.trees == [(0, [0, 1]), (1, [2, 3, 4])]
    assert low.nums == [24, 2, 0, 0, 9]
    assert Lowered.univariate([Fraction(1, 2), 0, 3]).nums == [1, 0, 6]
    with pytest.raises(BadPrimeError, match="divides denominator of 1/6"):
        low.residues(3)


def test_reduce_mod_bad_prime():
    f = MPoly(1, {(1,): Fraction(1, 5)})
    with pytest.raises(BadPrimeError):
        f.reduce_mod(5)
    assert f.reduce_mod(7) == {(1,): 3}  # 1/5 = 3 mod 7


def test_frac_mod():
    assert frac_mod(Fraction(1, 2), 7) == 4
    assert frac_mod(-3, 7) == 4
    assert frac_mod(Fraction(22, 3), 5) == 4  # 22 * inverse(3) = 2 * 2
    with pytest.raises(BadPrimeError):
        frac_mod(Fraction(1, 7), 7)


def test_poly_helpers():
    assert poly_trim([1, 2, 0, 0]) == [1, 2]
    assert poly_trim([0, 0]) == []
    assert poly_derivative([Fraction(4), Fraction(3), Fraction(2)]) == \
        [Fraction(3), Fraction(4)]
    assert poly_derivative([Fraction(9)]) == []


def test_poly_rem_is_euclidean():
    rng = random.Random(23)
    for _ in range(30):
        f = [Fraction(rng.randint(-9, 9), rng.randint(1, 3))
             for _ in range(rng.randint(1, 7))]
        g = [Fraction(rng.randint(-9, 9), rng.randint(1, 3))
             for _ in range(rng.randint(1, 5))]
        if not poly_trim(g):
            continue
        r = poly_rem(f, g)
        assert poly_degree(r) < poly_degree(poly_trim(g))
        # f - r vanishes at any root of g; check with a synthetic root of
        # a linear g
        if poly_degree(poly_trim(g)) == 1:
            gt = poly_trim(g)
            root = -gt[0] / gt[1]
            fv = sum(c * root ** k for k, c in enumerate(f))
            rv = sum(c * root ** k for k, c in enumerate(r))
            assert fv == rv


def test_poly_rem_zero_divisor():
    with pytest.raises(CharsumError):
        poly_rem([Fraction(1)], [Fraction(0)])


def test_resultant_product_formula():
    # res(f, g) = lc(f)^deg g * lc(g)^deg f * prod (alpha_i - beta_j)
    assert resultant([2, -3, 1], [12, -7, 1]) == 12
    assert resultant([-2, 1], [-5, 1]) == -3
    assert resultant([-5, 1], [-2, 1]) == 3
    assert resultant([-2, 2], [-3, 1]) == -4
    # common root makes it vanish
    assert resultant([-6, 5, 1], [-1, 1]) == 0


def test_resultant_multiplicativity():
    rng = random.Random(29)
    for _ in range(15):
        f = [Fraction(rng.randint(-5, 5)) for _ in range(3)] + [Fraction(1)]
        g = [Fraction(rng.randint(-5, 5)) for _ in range(2)] + [Fraction(1)]
        h = [Fraction(rng.randint(-5, 5)) for _ in range(2)] + [Fraction(1)]
        gh = [Fraction(0)] * (len(g) + len(h) - 1)
        for i, a in enumerate(g):
            for j, b in enumerate(h):
                gh[i + j] += a * b
        assert resultant(f, gh) == resultant(f, g) * resultant(f, h)


def test_discriminant_closed_forms():
    assert discriminant([1, 3, 1]) == 5              # b^2 - 4c
    assert discriminant([1, 3, 2]) == 1              # b^2 - 4ac
    assert discriminant([3, -1, 0, 1]) == -239       # -4p^3 - 27q^2
    assert discriminant([-45, 39, -11, 1]) == 0      # repeated root


@st.composite
def poly_and_points(draw):
    n = draw(st.integers(1, 3))
    coeff = st.fractions(min_value=-20, max_value=20, max_denominator=6)
    f = MPoly(n, draw(st.dictionaries(st.tuples(*[st.integers(0, 4)] * n),
                                      coeff, max_size=6)))
    p = draw(st.sampled_from([2, 3, 5, 7, 13, 101]))
    residues = draw(st.tuples(*[st.integers(0, p - 1)] * n))
    point = draw(st.tuples(*[st.fractions(min_value=-5, max_value=5,
                                          max_denominator=4)] * n))
    return f, p, residues, point


def _monomial(point, e):
    out = Fraction(1)
    for x, k in zip(point, e):
        out *= x ** k
    return out


@settings(derandomize=True, max_examples=300, deadline=None)
@given(poly_and_points())
def test_evaluate_agrees_with_eval_mod_and_eval_exact(case):
    f, p, residues, point = case
    exact = sum((c * _monomial(point, e) for e, c in f.terms.items()),
                Fraction(0))
    assert f.evaluate(point) == exact
    F = prime_field(p)
    elems = [F.element(x) for x in residues]
    try:
        want = eval_mod(f, p, residues)
    except BadPrimeError:
        with pytest.raises(BadPrimeError):
            f.evaluate(elems, F.rational)
        return
    assert f.evaluate(elems, F.rational) == F.element(want)


def test_pow_mod_array_matches_pow():
    for p in (2, 3, 5, 101, 65537, 2 ** 31 - 1):
        a = np.array([0, 1, 2, p - 1, p // 2, -1, -7, 3 * p + 5, 2 ** 40 + 3],
                     dtype=np.int64)
        for e in {1, 2, 3, p - 2} - {0}:
            assert pow_mod_array(a, e, p).tolist() == \
                [pow(int(x), e, p) for x in a]


@settings(derandomize=True, max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.sampled_from([2, 3, 101, 65537, 2 ** 31 - 1]),
                          st.integers(0, 2 ** 31 - 2),
                          st.integers(0, 2 ** 40)),
                min_size=1, max_size=8))
def test_power_lanes_matches_pow(lanes):
    # exponents of every bit length side by side, 0 among them
    p, a, e = (np.array(v, dtype=np.int64) for v in zip(*lanes))
    a %= p
    got = power_lanes(a, e, lambda x, y: x * y % p, np.ones_like(a))
    assert got.tolist() == [pow(int(x), int(k), int(q))
                            for x, k, q in zip(a, e, p)]


def test_power_lanes_multiplies_by_the_base_second():
    seen = []

    def mul(x, y):
        seen.append(y is base)
        return x * y
    base = np.array([[2], [3]], dtype=np.int64)
    got = power_lanes(base, np.array([5, 2]), mul, np.ones_like(base))
    assert got.tolist() == [[32], [9]]
    assert seen == [False, True] * 3


# -- the univariate toolkit, shared by Q and F_q ---------------------------

def _old_poly_rem(f, g):
    """The Q-only remainder the shared toolkit replaced, as an oracle."""
    f = [Fraction(c) for c in poly_trim(f)]
    g = [Fraction(c) for c in poly_trim(g)]
    d = len(g) - 1
    inv = 1 / g[-1]
    while len(f) - 1 >= d:
        q = f[-1] * inv
        shift = len(f) - 1 - d
        for i, c in enumerate(g):
            f[shift + i] -= q * c
        f = poly_trim(f)
    return f


def _old_gcd_poly_q(f, g):
    """The Q-only monic gcd the shared toolkit replaced, as an oracle."""
    f = poly_trim([Fraction(c) for c in f])
    g = poly_trim([Fraction(c) for c in g])
    while g:
        f, g = g, _old_poly_rem(f, g)
    if not f:
        return []
    inv = 1 / f[-1]
    return [c * inv for c in f]


def _coeff_lists(elem, count=2, max_size=7):
    return st.tuples(*[st.lists(elem, max_size=max_size)] * count)


@st.composite
def prime_field_case(draw):
    p = draw(st.sampled_from([2, 3, 5, 7, 101, 65521]))
    residue = st.one_of(st.integers(0, p - 1), st.sampled_from([0, 1]))
    f, g = draw(_coeff_lists(residue))
    return p, f, g, draw(st.integers(1, 40))


@settings(derandomize=True, max_examples=300, deadline=None)
@given(prime_field_case())
def test_toolkit_on_prime_field_elements_agrees_with_fppoly(case):
    p, f, g, e = case
    field = prime_field(p)
    F, G = ([field.element(c) for c in h] for h in (f, g))

    def ints(h):
        return [c.residue() for c in h]

    f, g = fppoly.trim(list(f)), fppoly.trim(list(g))
    assert ints(poly_add(F, G)) == fp_add(f, g, p)
    assert ints(poly_sub(F, G)) == fppoly.sub(f, g, p)
    assert ints(poly_mul(F, G)) == fppoly.mul(f, g, p)
    assert ints(poly_monic(poly_trim(F))) == fppoly.monic(f, p)
    assert ints(poly_gcd(F, G)) == fppoly.gcd(f, g, p)
    if not g:
        with pytest.raises(CharsumError):
            poly_divmod(F, G)
        return
    quot, rem = poly_divmod(F, G)
    assert (ints(quot), ints(rem)) == fppoly.divmod_poly(f, g, p)
    assert ints(poly_powmod(F, e, G)) == fppoly.powmod(f, e, g, p)


@st.composite
def extension_case(draw):
    field = build_extension(*draw(st.sampled_from([(3, 2), (2, 3)])))
    digit = st.integers(0, field.p - 1)
    elem = st.one_of(st.just((0,) * field.e),
                     st.tuples(*[digit] * field.e)).map(field.element)
    f, g = draw(_coeff_lists(elem))
    return field, f, g, draw(st.integers(1, 12))


@settings(derandomize=True, max_examples=300, deadline=None)
@given(extension_case())
def test_toolkit_over_extension_fields_divides_and_finds_common_factors(
        case):
    field, f, g, e = case
    f, g = poly_trim(f), poly_trim(g)
    d = poly_gcd(f, g)
    if f or g:
        assert d[-1] == field.one()
        assert poly_rem(f, d) == [] and poly_rem(g, d) == []
    else:
        assert d == []
    if not g:
        return
    quot, rem = poly_divmod(f, g)
    assert poly_degree(rem) < poly_degree(g)
    assert poly_add(poly_mul(quot, g), rem) == f
    power = f
    for _ in range(e - 1):
        power = poly_mul(power, f)
    assert poly_powmod(f, e, g) == poly_rem(power, g)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(_coeff_lists(st.builds(Fraction, st.integers(-9, 9),
                              st.integers(1, 4))))
def test_toolkit_over_q_agrees_with_the_q_only_routines(case):
    f, g = case
    assert poly_gcd(f, g) == _old_gcd_poly_q(f, g)
    assert poly_gcd(f, poly_derivative(f)) == \
        _old_gcd_poly_q(f, poly_derivative(f))
    if poly_trim(g):
        assert poly_rem(f, g) == _old_poly_rem(f, g)
        quot, rem = poly_divmod(f, g)
        assert poly_add(poly_mul(quot, g), rem) == poly_trim(f)


# -- the one square-and-multiply ------------------------------------------

def _repeated(x, e, mul):
    out = x
    for _ in range(e - 1):
        out = mul(out, x)
    return out


def _plain(v):
    return v.tolist() if isinstance(v, np.ndarray) else v


_F8, _F9 = build_extension(2, 3), build_extension(3, 2)
_NF = nf_build([-2, 0, 0, 1])
_P = 2 ** 31 - 1
_FP_MOD, _FP_P = [3, 0, 1, 1], 101
_Q_MOD = [Fraction(1), Fraction(-1), Fraction(0), Fraction(1)]
_small = st.fractions(min_value=-3, max_value=3, max_denominator=3)

# name: (strategy for the base, x^e through the caller's wrapper, the
# product the wrapper squares and multiplies with, the base reduction the
# wrapper makes first)
CARRIERS = {
    "mpoly": (st.dictionaries(st.tuples(st.integers(0, 3), st.integers(0, 3)),
                              _small, min_size=1, max_size=2)
              .map(lambda t: MPoly(2, t)),
              operator.pow, operator.mul, None),
    "fq8": (st.tuples(*[st.integers(0, 1)] * 3).map(_F8.element),
            operator.pow, operator.mul, None),
    "fq9": (st.tuples(*[st.integers(0, 2)] * 2).map(_F9.element),
            operator.pow, operator.mul, None),
    "nfelem": (st.tuples(*[_small] * 3).map(lambda c: NFElem(_NF, c)),
               operator.pow, operator.mul, None),
    "int64": (st.lists(st.integers(-2 ** 40, 2 ** 40), min_size=1,
                       max_size=6).map(lambda v: np.array(v, dtype=np.int64)),
              lambda a, e: pow_mod_array(a, e, _P),
              lambda a, b: a * b % _P, lambda a: a % _P),
    "fppoly": (st.lists(st.integers(0, _FP_P - 1), max_size=6)
               .map(fppoly.trim),
               lambda f, e: fppoly.powmod(f, e, _FP_MOD, _FP_P),
               lambda f, g: fppoly.mulmod(f, g, _FP_MOD, _FP_P),
               lambda f: fppoly.mod(list(f), _FP_MOD, _FP_P)),
    "toolkit": (st.lists(_small, max_size=5),
                lambda f, e: poly_powmod(f, e, _Q_MOD),
                lambda f, g: poly_rem(poly_mul(f, g), _Q_MOD),
                lambda f: poly_rem(f, _Q_MOD)),
}


@pytest.mark.parametrize("name", CARRIERS)
@settings(derandomize=True, max_examples=25, deadline=None)
@given(data=st.data())
def test_every_power_matches_repeated_multiplication(name, data):
    base, wrapper, mul, reduce = CARRIERS[name]
    x = data.draw(base)
    e = data.draw(st.integers(1, 200))
    want = _repeated(reduce(x) if reduce else x, e, mul)
    assert _plain(wrapper(x, e)) == _plain(want)
    assert _plain(power(reduce(x) if reduce else x, e, mul)) == _plain(want)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(st.integers(1, 10 ** 9))
def test_power_never_multiplies_by_one_nor_squares_after_the_last_bit(e):
    calls = []

    def mul(a, b):
        calls.append(1)
        return a * b % _P

    assert power(3, e, mul) == pow(3, e, _P)
    # a square per bit after the first, a product per set bit after the
    # highest: one more would be a product by one or a last squaring
    assert len(calls) == e.bit_length() - 1 + bin(e).count("1") - 1


class _Tracked:
    """A residue with an identity, so a product's operands can be told
    apart from equal values."""

    def __init__(self, v):
        self.v = v


@settings(derandomize=True, max_examples=300, deadline=None)
@given(st.integers(1, 10 ** 9))
def test_power_multiplies_by_the_base_as_second_factor(e):
    # so a power of x (or of a linear polynomial) never makes a full
    # product beside its squarings
    base, operands = _Tracked(3), []

    def mul(a, b):
        operands.append((a, b))
        return _Tracked(a.v * b.v % _P)

    assert power(base, e, mul).v == pow(3, e, _P)
    assert all(a is b or b is base for a, b in operands)


def test_power_wrappers_keep_their_edge_cases():
    x = MPoly.variable(0, 2) + 3
    assert x ** 0 == MPoly.constant(1, 2)
    with pytest.raises(ValueError):
        x ** -1
    for a in _F8.elements():
        assert a ** 0 == _F8.one()
        if not a.is_zero():
            for k in (1, 2, 7, 9):
                assert a ** -k == a.inverse() ** k
    with pytest.raises(CharsumError):
        NFElem.generator(_NF) ** -1
    assert NFElem.generator(_NF) ** 0 == NFElem.rational(_NF, 1)
    assert fppoly.powmod([5, 7], 0, _FP_MOD, _FP_P) == [1]


# -- the one exact Gauss-Jordan elimination --------------------------------

def _leibniz_det(m):
    n, total = len(m), Fraction(0)
    for perm in permutations(range(n)):
        sign = (-1) ** sum(perm[i] > perm[j]
                           for i in range(n) for j in range(i + 1, n))
        term = Fraction(sign)
        for i, j in enumerate(perm):
            term *= m[i][j]
        total += term
    return total


@settings(derandomize=True, max_examples=200, deadline=None)
@given(st.integers(1, 4).flatmap(
    lambda n: st.lists(st.lists(st.sampled_from([0, 0, 1, -1, 2, 3]),
                                min_size=n, max_size=n),
                       min_size=n, max_size=n)))
def test_gauss_jordan_gives_the_determinant_and_the_echelon_form(m):
    rows = [[Fraction(a) for a in r] for r in m]
    pivots, det = gauss_jordan(rows)
    n = len(m)
    assert (det if len(pivots) == n else 0) == _leibniz_det(m)
    assert pivots == sorted(pivots)
    for r, col in enumerate(pivots):
        assert [row[col] for row in rows] == [int(i == r) for i in range(n)]
        assert not any(rows[r][:col])
    assert not any(any(row) for row in rows[len(pivots):])


def _from_roots(lead, roots):
    f = [Fraction(lead)]
    for r in roots:
        f = poly_mul(f, [-r, Fraction(1)])
    return f


_root = st.fractions(min_value=-4, max_value=4, max_denominator=3)
_lead = st.sampled_from([1, -1, 2, Fraction(1, 2), -3])


@settings(derandomize=True, max_examples=200, deadline=None)
@given(_lead, st.lists(_root, max_size=4), _lead, st.lists(_root, max_size=4))
def test_resultant_and_discriminant_match_the_root_products(a, rs, b, ss):
    f, g = _from_roots(a, rs), _from_roots(b, ss)
    n, m = len(rs), len(ss)
    want = Fraction(a) ** m * Fraction(b) ** n
    for r in rs:
        for s in ss:
            want *= r - s
    assert resultant(f, g) == want
    if n == 0:
        return
    disc = Fraction(a) ** (2 * n - 2)
    for i in range(n):
        for j in range(i + 1, n):
            disc *= (rs[i] - rs[j]) ** 2
    assert discriminant(f) == (disc if n > 1 else 1)


def test_primitive_integers_clears_denominators_and_common_factors():
    assert primitive_integers([Fraction(2, 3), Fraction(-4, 9), 0]) == \
        [3, -2, 0]
    assert primitive_integers([0, -6, 10]) == [0, -3, 5]
