import random
from fractions import Fraction
from itertools import combinations, permutations
from math import gcd, isqrt
from unittest import mock

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from charsum import (Angle, NFElem, dfi_sweep, equidist, fppoly, hnf,
                     lattice_basis, mpoly, nf_build, nf_reduce, nfield,
                     parse_polynomial, primes_in, qlin_relations, value_set)
from charsum.errors import BudgetError, CharsumError
from charsum.nfield import _divides_disc, _poly_str, _refuse_rational_root
import oracles


def test_certificates_by_degree():
    assert nf_build([3, 1]).certificate == "degree 1"
    assert nf_build([-2, 0, 1]).certificate == "no rational roots (degree 2)"
    assert nf_build([-2, 0, 0, 1]).certificate == \
        "no rational roots (degree 3)"
    desc = nf_build([1, 1, 0, 0, 1])  # x^4 + x + 1
    assert desc.certificate == "irreducible mod 2"
    assert desc.degree == 4
    assert set(vars(desc)) == {"coeffs", "degree", "certificate"}


def test_defining_polynomial_is_read_like_the_sweeps_read_it():
    padded = parse_polynomial("y^3 + y + 1 + 0*x")
    expect = nf_build([1, 1, 0, 1])
    for f in (padded, padded.poly, "y^3 + y + 1 + 0*x", "y^3 + y + 1",
              parse_polynomial("y^3 + y + 1").poly):
        got = nf_build(f)
        assert got == expect and repr(got) == repr(expect)
    with pytest.raises(CharsumError, match="not univariate"):
        nf_build("x*y + 1")
    with pytest.raises(CharsumError, match="degree >= 1"):
        nf_build("5")


def test_reducible_inputs_are_refused():
    with pytest.raises(CharsumError, match="reducible"):
        nf_build([-1, 0, 1])            # (x-1)(x+1)
    with pytest.raises(CharsumError, match="repeated factor"):
        nf_build([1, 2, 1])             # (x+1)^2
    with pytest.raises(CharsumError, match="divisible by x - 2"):
        nf_build([-8, 0, 0, 1])         # x^3 - 8
    # x^4 + 1 is irreducible over Q but reducible mod every prime, so the
    # honest answer is that no certificate of this kind exists
    with pytest.raises(CharsumError, match="certificate not found"):
        nf_build([1, 0, 0, 0, 1])


@pytest.mark.parametrize("build", [nf_build, lambda f: dfi_sweep(f, 10)],
                         ids=["nf_build", "dfi_sweep"])
def test_sylvester_cap_is_checked_from_the_degree(build):
    # degree 1025 is over the number-field degree cap; the refusal comes
    # before any coefficient is scaled or differentiated
    f = [1] + [0] * 1024 + [1]
    with mock.patch.object(equidist, "primitive_integers") as scale, \
            mock.patch.object(mpoly, "poly_derivative") as derive:
        with pytest.raises(BudgetError, match="degree 1025 exceeds the "
                           "number-field degree cap 1024$"):
            build(f)
    assert not scale.called and not derive.called
    # degree 1024 is admitted, and refused for its root -1
    with pytest.raises(CharsumError, match="divisible by x \\+ 1$"):
        build([-1] + [0] * 1023 + [1])


def test_rational_root_refusal_names_the_smallest_integer_root():
    with pytest.raises(CharsumError, match="divisible by x \\+ 3$"):
        nf_build([-6, 1, 1])            # (x+3)(x-2)
    with pytest.raises(CharsumError, match="divisible by x$"):
        nf_build([0, -1, 0, 1])         # x(x-1)(x+1)
    with pytest.raises(CharsumError, match="repeated factor x\\^2 \\+ 2$"):
        nf_build([4, 0, 4, 0, 1])       # (x^2+2)^2


@st.composite
def poly_and_prime(draw):
    """An integer polynomial of degree 1 to 10 and a prime below 60 that
    does not divide its leading coefficient: f0 * s^2 with a planted
    square s, or g(x^p) + p h(x), whose derivative vanishes mod p, or a
    plain draw."""
    p = draw(st.sampled_from(primes_in(60)))
    small = st.integers(-6, 6)
    top = small.filter(lambda c: c % p)
    f = draw(st.lists(small, max_size=4)) + [draw(top)]
    kind = draw(st.sampled_from(["plain", "square", "pth"]))
    if kind == "square":
        sq = draw(st.lists(small, min_size=1, max_size=2)) + [draw(top)]
        f = _poly_mul(_poly_mul(f, sq), sq)
    elif kind == "pth" and p <= 5:
        g = draw(st.lists(small, min_size=1, max_size=2)) + [draw(top)]
        f = [0] * (p * (len(g) - 1) + 1)
        for k, c in enumerate(g):
            f[p * k] = c
        for k, c in enumerate(draw(st.lists(small, max_size=len(f) - 1))):
            f[k] += p * c
    assume(len(f) > 1)
    return f, p


@settings(derandomize=True, max_examples=300, deadline=None)
@given(poly_and_prime())
@example(([2, 0, 0, 0, 0, 1], 5))        # x^5 + 2: f' = 0 mod 5
@example(([1, 0, 1], 2))                 # (x + 1)^2 mod 2
@example(([1, 2, 1], 3))                 # (x + 1)^2
def test_squarefree_mod_p_matches_the_discriminant(case):
    f, p = case
    disc = oracles.discriminant(f)
    divides = disc.numerator % p == 0
    assert fppoly.is_squarefree(f, p) is not divides
    if disc:
        assert _divides_disc(f)(p) is divides
        # with every gcd failing, the test holds exactly up to the bound
        with mock.patch.object(fppoly, "is_squarefree", return_value=False):
            assert _divides_disc(f)(abs(disc))


def test_certificate_search_builds_no_sylvester_matrix():
    # the trinomial is reducible mod each of the 25 primes tried; at
    # degree 512 an exact discriminant took seconds
    with mock.patch.object(oracles, "discriminant",
                           side_effect=AssertionError), \
            mock.patch.object(mpoly, "gauss_jordan",
                              side_effect=AssertionError), \
            mock.patch.object(nfield, "gauss_jordan",
                              side_effect=AssertionError):
        with pytest.raises(CharsumError, match="certificate not found"):
            nf_build("x^512 + x + 1")


@pytest.mark.parametrize("coeffs,text", [
    ([-1, -1, 0, 1], "NumberFieldDesc(x^3 - x - 1, "
                     "certificate='no rational roots (degree 3)')"),
    ([2, -1, 0, 3, 1], "NumberFieldDesc(x^4 + 3*x^3 - x + 2, "
                       "certificate='irreducible mod 3')"),
    ([-3, 1, -1, 1], "NumberFieldDesc(x^3 - x^2 + x - 3, "
                     "certificate='no rational roots (degree 3)')"),
    ([1, -7, 0, 0, 0, 1], "NumberFieldDesc(x^5 - 7*x + 1, "
                          "certificate='irreducible mod 3')"),
])
def test_number_field_repr(coeffs, text):
    assert repr(nf_build(coeffs)) == text


def test_defining_polynomial_validation():
    with pytest.raises(CharsumError):
        nf_build([1, 2])                 # not monic
    with pytest.raises(CharsumError):
        nf_build([Fraction(1, 2), 1])    # not integral
    with pytest.raises(CharsumError):
        nf_build([5])                    # constant


def test_nfelem_arithmetic_satisfies_the_minimal_polynomial():
    desc = nf_build([-2, 0, 0, 1])  # b^3 = 2
    b = NFElem.generator(desc)
    assert (b ** 3).rational_value() == 2
    assert ((b * b) * b - 2).is_zero()
    x = 1 + b
    y = b * b - 3
    assert (x + y) - y == x
    assert x * y == y * x
    assert x * (y + 2) == x * y + 2 * x
    # (1 + b)(1 - b + b^2) = 1 + b^3 = 3
    z = x * NFElem(desc, (1, -1, 1))
    assert z.is_rational() and z.rational_value() == 3


def test_nfelem_power_matches_repeated_multiplication():
    rng = random.Random(91)
    desc = nf_build([1, -1, 0, 0, 1])  # x^4 - x + 1, irreducible mod 2
    for _ in range(10):
        x = NFElem(desc, [Fraction(rng.randint(-3, 3), rng.randint(1, 2))
                          for _ in range(4)])
        acc = NFElem.rational(desc, 1)
        for k in range(6):
            assert x ** k == acc
            acc = acc * x


def test_nfelem_validation():
    desc = nf_build([-2, 0, 1])
    other = nf_build([-3, 0, 1])
    with pytest.raises(CharsumError):
        NFElem(desc, (1,))
    with pytest.raises(CharsumError):
        NFElem.generator(desc) + NFElem.generator(other)
    with pytest.raises(CharsumError):
        NFElem.generator(desc) ** -1
    with pytest.raises(CharsumError):
        NFElem.generator(desc).rational_value()


def test_nf_reduce_is_a_ring_homomorphism():
    desc = nf_build([-2, 0, 1])  # b = sqrt(2)
    p = 7  # 2 is a QR mod 7: 3^2 = 2
    b = 3
    rng = random.Random(93)
    for _ in range(25):
        x = NFElem(desc, [rng.randint(-9, 9) for _ in range(2)])
        y = NFElem(desc, [rng.randint(-9, 9) for _ in range(2)])
        assert nf_reduce(x + y, p, b) == \
            (nf_reduce(x, p, b) + nf_reduce(y, p, b)) % p
        assert nf_reduce(x * y, p, b) == \
            (nf_reduce(x, p, b) * nf_reduce(y, p, b)) % p
    g = NFElem.generator(desc)
    assert nf_reduce(g, p, b) == b
    assert nf_reduce(g * g, p, b) == 2


def test_nf_reduce_rejects_non_roots():
    desc = nf_build([-2, 0, 1])
    with pytest.raises(CharsumError):
        nf_reduce(NFElem.generator(desc), 7, 2)  # 2^2 != 2 mod 7
    with pytest.raises(CharsumError):
        nf_reduce(NFElem(desc, (Fraction(1, 7), Fraction(0))), 7, 3)


def test_hnf_examples():
    assert hnf([[2, 0], [0, 2], [1, 1]]) == [(1, 1), (0, 2)]
    assert hnf([[4], [6]]) == [(2,)]
    assert hnf([[0, 0], [0, 0]]) == []
    assert hnf([[1, 2, 3]]) == [(1, 2, 3)]
    assert hnf([[-1, 0], [0, -1]]) == [(1, 0), (0, 1)]


def test_hnf_shape_properties():
    rng = random.Random(97)
    for _ in range(50):
        rows = [[rng.randint(-9, 9) for _ in range(4)]
                for _ in range(rng.randint(1, 5))]
        h = hnf(rows)
        # echelon: pivot columns strictly increase
        pivots = []
        for r in h:
            nz = [j for j, a in enumerate(r) if a]
            assert nz, "zero rows must be dropped"
            pivots.append(nz[0])
        assert pivots == sorted(set(pivots))
        # pivots positive, entries above reduced
        for i, r in enumerate(h):
            assert r[pivots[i]] > 0
            for k in range(i):
                assert 0 <= h[k][pivots[i]] < r[pivots[i]]


def test_hnf_is_a_lattice_invariant():
    rng = random.Random(101)
    for _ in range(40):
        n = rng.randint(1, 4)
        rows = [[rng.randint(-6, 6) for _ in range(n)] for _ in range(n)]
        h1 = hnf(rows)
        # apply random elementary integer row operations
        mat = [list(r) for r in rows]
        for _ in range(12):
            i, j = rng.randrange(len(mat)), rng.randrange(len(mat))
            op = rng.randrange(3)
            if op == 0 and i != j:
                m = rng.randint(-3, 3)
                mat[i] = [a + m * b for a, b in zip(mat[i], mat[j])]
            elif op == 1:
                mat[i], mat[j] = mat[j], mat[i]
            else:
                mat[i] = [-a for a in mat[i]]
        assert hnf(mat) == h1


def test_lattice_basis_round_trip():
    desc = nf_build([-2, 0, 1])
    b = NFElem.generator(desc)
    elems = [1 + b, 2 * b, NFElem(desc, (Fraction(1, 2), Fraction(0)))]
    lat = lattice_basis(elems)
    assert lat.field == desc
    for i, e in enumerate(elems):
        acc = NFElem.rational(desc, 0)
        for c, bas in zip(lat.expression[i], lat.basis):
            acc = acc + c * bas
        assert acc == e


def test_lattice_basis_double_membership():
    # appending the basis itself must not change the lattice
    desc = nf_build([-2, 0, 0, 1])
    b = NFElem.generator(desc)
    elems = [3 * b + 1, b * b, 2 - b, NFElem(desc, (0, Fraction(5, 3), 0))]
    lat = lattice_basis(elems)
    again = lattice_basis(elems + list(lat.basis))
    assert again.basis == lat.basis


def test_lattice_basis_validation():
    desc = nf_build([-2, 0, 1])
    with pytest.raises(CharsumError):
        lattice_basis([])
    with pytest.raises(CharsumError):
        lattice_basis([NFElem.rational(desc, 0)])
    other = nf_build([-3, 0, 1])
    with pytest.raises(CharsumError):
        lattice_basis([NFElem.generator(desc), NFElem.generator(other)])


def test_qlin_relations_examples():
    desc = nf_build([-2, 0, 1])
    b = NFElem.generator(desc)
    half = NFElem.rational(desc, Fraction(1, 2))
    combo = half + b  # 1/2 + b
    rels = qlin_relations([half, b, combo])
    assert rels == ((1, 1, -1),)
    # independent elements have no relations
    assert qlin_relations([half, b]) == ()
    # scalar multiples
    assert qlin_relations([b, 3 * b]) == ((3, -1),)


def test_value_set_exponent_matrix():
    desc = nf_build([2, 1])  # the rational field presented by x + 2
    elems = [NFElem.rational(desc, v)
             for v in (Fraction(1, 2), Fraction(1, 3), Fraction(5, 6))]
    vs = value_set(elems)
    lat = vs.lattice
    assert len(lat.basis) == 1
    assert lat.basis[0].rational_value() == Fraction(1, 6)
    assert vs.exponents == ((3,), (2,), (5,))


def test_value_set_sp_annotations():
    desc = nf_build([2, 1])
    third = NFElem.rational(desc, Fraction(1, 3))
    vs = value_set([third], sp_mode=True)
    assert len(vs.annotations) == 1
    ann = vs.annotations[0]
    assert ann.value == Fraction(1, 3)
    got = dict((k, a) for a, k in ann.values)
    # k = 2 selects angle 1/3 (t = 1), k = 1 selects angle 2/3 (t = 2)
    assert got == {2: Angle(Fraction(1, 3)), 1: Angle(Fraction(2, 3))}


def test_value_set_integer_annotation():
    desc = nf_build([2, 1])
    one = NFElem.rational(desc, 2)
    vs = value_set([one], sp_mode=True)
    ann = vs.annotations[0]
    assert ann.values == ((Angle(0), 0),)


def test_value_set_skips_irrational_basis():
    desc = nf_build([-2, 0, 1])
    vs = value_set([NFElem.generator(desc)], sp_mode=True)
    assert vs.annotations == ()


def _divisors(n):
    n = abs(n)
    return {e for d in range(1, isqrt(n) + 1) if n % d == 0
            for e in (d, n // d)}


def smallest_root_by_divisors(ints):
    """The divisor search the rational-root test replaced (oracle): r = u/v
    with u dividing the constant term and v the leading coefficient."""
    if ints[0] == 0:
        return Fraction(0)
    roots = [r for u in _divisors(ints[0]) for v in _divisors(ints[-1])
             if gcd(u, v) == 1
             for r in (Fraction(u, v), Fraction(-u, v))
             if sum(c * r ** k for k, c in enumerate(ints)) == 0]
    return min(roots, default=None)


def _poly_mul(f, g):
    out = [0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        for j, b in enumerate(g):
            out[i + j] += a * b
    return out


def test_rational_root_test_matches_the_divisor_search():
    rng = random.Random(2024)
    for _ in range(400):
        f = [rng.choice([1, 2, 3, -1, -6])]
        for _ in range(rng.randint(0, 2)):  # planted roots u/v
            f = _poly_mul(f, [-rng.randint(-30, 30), rng.randint(1, 5)])
        f = _poly_mul(f, [rng.randint(-9, 9) for _ in range(rng.randint(1, 3))]
                      + [rng.randint(1, 4)])
        if len(f) < 2 or not any(f):
            continue
        want = smallest_root_by_divisors(f)
        if want is None:
            _refuse_rational_root(f)
        else:
            with pytest.raises(CharsumError) as err:
                _refuse_rational_root(f)
            assert str(err.value) == \
                "reducible: divisible by " + _poly_str([-want, 1])


def test_rational_root_test_on_huge_constant_terms():
    big = 10 ** 21 + 7
    assert nf_build([-big, 0, 1]).certificate == \
        "no rational roots (degree 2)"
    r = 10 ** 11
    with pytest.raises(CharsumError, match="divisible by x - %d$" % r):
        nf_build(_poly_mul([-r, 1], [-r - 1, 1]))
    with pytest.raises(CharsumError, match="too large"):
        nf_build([-10 ** 40 - 1, 0, 1])


# -- products on the toolkit, relations on the one elimination -------------

def _old_nf_mul(x, y):
    """The product loop NFElem had before it multiplied on the polynomial
    toolkit (oracle): schoolbook product, then each coefficient above the
    degree folded down through the monic defining polynomial."""
    deg = x.field.degree
    prod = [Fraction(0)] * (2 * deg - 1)
    for i, a in enumerate(x.coords):
        if not a:
            continue
        for j, b in enumerate(y.coords):
            if b:
                prod[i + j] += a * b
    f = x.field.coeffs
    for k in range(len(prod) - 1, deg - 1, -1):
        c = prod[k]
        if not c:
            continue
        prod[k] = Fraction(0)
        for i in range(deg):
            prod[k - deg + i] -= c * f[i]
    return tuple(prod[:deg])


_FIELDS = [nf_build(f) for f in ([3, 1], [-2, 0, 1], [-2, 0, 0, 1],
                                 [1, -1, 0, 0, 1], [1, 1, 1, 1, 1])]
_coord = st.fractions(min_value=-5, max_value=5, max_denominator=4)


@st.composite
def field_elements(draw, count):
    field = draw(st.sampled_from(_FIELDS))
    coords = st.lists(st.one_of(st.just(Fraction(0)), _coord),
                      min_size=field.degree, max_size=field.degree)
    return [NFElem(field, draw(coords)) for _ in range(count)]


@settings(derandomize=True, max_examples=150, deadline=None)
@given(field_elements(2))
def test_nfelem_product_matches_the_old_loop(pair):
    x, y = pair
    assert (x * y).coords == _old_nf_mul(x, y)


def _det(m):
    n, total = len(m), Fraction(0)
    for perm in permutations(range(n)):
        sign = (-1) ** sum(perm[i] > perm[j]
                           for i in range(n) for j in range(i + 1, n))
        term = Fraction(sign)
        for i, j in enumerate(perm):
            term *= m[i][j]
        total += term
    return total


def _rank(rows):
    """The largest size of a nonzero minor (oracle)."""
    ncols = len(rows[0]) if rows else 0
    for r in range(min(len(rows), ncols), 0, -1):
        for rs in combinations(range(len(rows)), r):
            for cs in combinations(range(ncols), r):
                if _det([[rows[i][j] for j in cs] for i in rs]):
                    return r
    return 0


@st.composite
def dependent_elements(draw):
    """k elements, some of them integer combinations of the others."""
    base = draw(field_elements(draw(st.integers(1, 3))))
    out = list(base)
    for _ in range(draw(st.integers(0, 2))):
        coeffs = draw(st.lists(st.integers(-3, 3), min_size=len(out),
                               max_size=len(out)))
        out.append(sum((c * x for c, x in zip(coeffs, out)),
                       NFElem.rational(base[0].field, 0)))
    return draw(st.permutations(out))


@settings(derandomize=True, max_examples=200, deadline=None)
@given(dependent_elements())
def test_qlin_relations_annihilate_and_number_k_minus_rank(elems):
    rels = qlin_relations(elems)
    k = len(elems)
    assert len(rels) == k - _rank([e.coords for e in elems])
    zero = NFElem.rational(elems[0].field, 0)
    for rel in rels:
        assert len(rel) == k and all(isinstance(a, int) for a in rel)
        assert sum((a * x for a, x in zip(rel, elems)), zero) == zero
        assert gcd(*rel) == 1 and next(a for a in rel if a) > 0
    if rels:
        assert _rank(rels) == len(rels)
