import math
import random
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from charsum import (build_extension, fppoly, is_prime, next_prime,
                     poly_roots_fq, prime_field, primes_in, sqrt_mod)
from charsum import polyroots
from charsum.errors import CharsumError
from charsum.polyroots import (eval_many, line_values, residues,
                               roots_mod_many, roots_mod_p, squarefree_many)

SMALL_PRIMES = primes_in(199)


def deflations(f, r, p):
    """How many times x - r divides f mod p: repeated synthetic division."""
    m = 0
    while len(f) > 1:
        q = [0] * (len(f) - 1)
        acc = 0
        for k in range(len(f) - 1, 0, -1):
            acc = (acc * r + f[k]) % p
            q[k - 1] = acc
        if (acc * r + f[0]) % p:
            break
        m, f = m + 1, q
    return m


def brute_roots(coeffs, p):
    """Reference root finder: trial evaluation, multiplicity by repeated
    synthetic division."""
    f = [c % p for c in coeffs]
    while f and f[-1] == 0:
        f.pop()
    return [r for r in range(p) for _ in range(deflations(f, r, p))]


def test_small_cases():
    assert roots_mod_p([2, 0, 1], 7) == []          # x^2 + 2 has no roots
    assert roots_mod_p([-45, 39, -11, 1], 11) == [3, 3, 5]
    assert roots_mod_p([0, 1], 5) == [0]
    assert roots_mod_p([0, 0, 1], 5) == [0, 0]
    assert roots_mod_p([3], 5) == []                # nonzero constant
    assert roots_mod_p([1, 1], 2) == [1]
    # the four monic quadratics over F_2
    assert roots_mod_p([0, 0, 1], 2) == [0, 0]
    assert roots_mod_p([1, 0, 1], 2) == [1, 1]
    assert roots_mod_p([0, 1, 1], 2) == [0, 1]
    assert roots_mod_p([1, 1, 1], 2) == []


def test_zero_polynomial_is_an_error():
    # zero as given, and zero once reduced mod p
    for coeffs, p in (([0], 5), ([7, 14], 7)):
        with pytest.raises(CharsumError, match="zero polynomial"):
            roots_mod_p(coeffs, p)


def test_random_polynomials_against_brute_force():
    rng = random.Random(41)
    for _ in range(150):
        p = rng.choice([2, 3, 5, 7, 11, 13, 31, 97])
        deg = rng.randint(1, 6)
        coeffs = [rng.randrange(p) for _ in range(deg)] + [1]
        assert roots_mod_p(coeffs, p) == brute_roots(coeffs, p)


@st.composite
def polys_mod_small_p(draw):
    """(coeffs, p): arbitrary integer coefficients, or a scaled product of
    linear factors so that repeated roots are common."""
    p = draw(st.sampled_from([2, 3]) | st.sampled_from(SMALL_PRIMES))
    if draw(st.booleans()):
        coeffs = draw(st.lists(st.integers(-3 * p, 3 * p), min_size=1,
                               max_size=9))
    else:
        coeffs = [draw(st.integers(-3 * p, 3 * p))]
        for r in draw(st.lists(st.integers(0, p - 1), min_size=1,
                               max_size=8)):
            # times (x - r)
            coeffs = [a - r * b for a, b in zip([0] + coeffs, coeffs + [0])]
    if all(c % p == 0 for c in coeffs):
        coeffs[0] += 1
    return coeffs, p


@settings(derandomize=True, max_examples=400, deadline=None)
@given(polys_mod_small_p())
def test_roots_match_the_scan_oracle(case):
    coeffs, p = case
    assert roots_mod_p(coeffs, p) == brute_roots(coeffs, p)


@pytest.mark.parametrize("p", [13, 11, next_prime(1 << 17)])
def test_quadratic_discriminants(p):
    # p = 1 and 3 (mod 4), and a prime above 2^16
    r = 5
    assert roots_mod_p([r * r, -2 * r, 1], p) == [r, r]
    assert roots_mod_p([3 * r * r, -6 * r, 3], p) == [r, r]
    n = next(a for a in range(2, p) if pow(a, (p - 1) // 2, p) == p - 1)
    assert roots_mod_p([-n, 0, 1], p) == []
    assert roots_mod_p([3 * (1 - n), 6, 3], p) == []  # 3((x + 1)^2 - n)


def test_non_monic_and_degree_drop():
    # leading coefficient divisible by p: the reduction has lower degree
    assert roots_mod_p([1, 1, 5], 5) == [4]
    # scalar multiples have the same roots
    assert roots_mod_p([2, 4, 6], 7) == roots_mod_p([1, 2, 3], 7)


def test_large_prime_paths():
    # primes above 2^16
    p = next_prime(1 << 17)
    a = 12345
    r = pow(a, 2, p)
    assert roots_mod_p([-r, 0, 1], p) == sorted([a, p - a])
    q = p
    while q % 4 != 3:
        q = next_prime(q)
    assert roots_mod_p([1, 0, 1], q) == []  # -1 is a non-residue
    # full factorization with multiplicity at a large prime
    assert roots_mod_p([0, 0, 0, 1], p) == [0, 0, 0]
    prod = [(-3 * 7) % p, 3 + 7, p - 1]  # -(x - 3)(x - 7) has lc p-1
    assert roots_mod_p(prod, p) == [3, 7]


def linear_product(roots, p):
    """Coefficients of the product of x - r over the roots, mod p."""
    f = [1]
    for r in roots:
        f = [(a - r * b) % p for a, b in zip([0] + f, f + [0])]
    return f


@pytest.mark.parametrize("r, s", [(0, 1), (3, (1 << 61) - 2),
                                  (123456789123456789, 987654321987654321)])
def test_multiplicities_at_a_61_bit_prime(r, s):
    # (x - r)^3 (x - s), scaled, at the Mersenne prime 2^61 - 1
    p = (1 << 61) - 1
    f = [5 * c % p for c in linear_product([r, r, r, s], p)]
    assert [deflations(f, t, p) for t in (r, s)] == [3, 1]
    assert roots_mod_p(f, p) == sorted([r, r, r, s])


def fq_multiplicities(f, roots, field):
    """Reference multiplicities: repeated synthetic division by (x - r)."""
    out = []
    for r in roots:
        g = list(f)
        m = 0
        while len(g) > 1:
            acc = field.zero()
            coeffs = []
            for c in reversed(g):
                acc = acc * r + c
                coeffs.append(acc)
            if not coeffs.pop().is_zero():
                break
            m += 1
            g = coeffs[::-1]
        out.extend([r] * m)
    return out


def fq_scan_roots(coeffs, field):
    """Reference root finder over F_q: FqElem Horner at every element."""
    f = [field.element(c) for c in coeffs]
    while f and f[-1].is_zero():
        f.pop()
    hits = []
    for x in field.elements():
        acc = field.zero()
        for c in reversed(f):
            acc = acc * x + c
        if acc.is_zero():
            hits.append(x)
    return sorted(fq_multiplicities(f, hits, field))


def split_roots(coeffs, field):
    """poly_roots_fq with the tables switched off: Cantor-Zassenhaus."""
    with mock.patch.object(polyroots, "TABLE_LIMIT", 0):
        return poly_roots_fq(coeffs, field)


ORACLE_FIELDS = ([(2, e) for e in range(2, 9)] + [(3, e) for e in range(2, 6)]
                 + [(5, 2), (5, 3), (7, 2), (13, 2)])


@st.composite
def polys_over_fq(draw):
    """(coeffs, field): random coefficient vectors, or a scaled product of
    linear factors so that repeated roots are common; leading
    coefficients are arbitrary."""
    p, e = draw(st.sampled_from(ORACLE_FIELDS))
    field = build_extension(p, e)
    elem = st.tuples(*[st.integers(0, p - 1)] * e).map(field.element)
    if draw(st.booleans()):
        coeffs = draw(st.lists(elem, min_size=2, max_size=8))
    else:
        coeffs = [draw(elem)]
        for r in draw(st.lists(elem, min_size=1, max_size=6)):
            # times (x - r)
            coeffs = [a - r * b for a, b in zip([field.zero()] + coeffs,
                                                coeffs + [field.zero()])]
    if all(c.is_zero() for c in coeffs):
        coeffs[0] = field.one()
    return coeffs, field


@settings(derandomize=True, max_examples=250, deadline=None)
@given(polys_over_fq())
def test_fq_roots_match_the_scan_oracle(case):
    coeffs, field = case
    expect = fq_scan_roots(coeffs, field)
    assert poly_roots_fq(coeffs, field) == expect
    assert split_roots(coeffs, field) == expect


def test_fq_roots_against_brute_force():
    rng = random.Random(43)
    for F in (build_extension(2, 3), build_extension(3, 2), prime_field(13)):
        elems = list(F.elements())
        for _ in range(40):
            deg = rng.randint(1, 4)
            coeffs = [rng.choice(elems) for _ in range(deg)] + [F.one()]
            assert poly_roots_fq(coeffs, F) == fq_scan_roots(coeffs, F)


def test_fq_repeated_roots():
    F = build_extension(3, 2)
    g = F.generator()

    # multiply out (x - g)(x - g)(x - 1)
    def times(fac, root):
        out = [F.zero()] * (len(fac) + 1)
        for i, c in enumerate(fac):
            out[i + 1] = out[i + 1] + c
            out[i] = out[i] - c * root
        return out
    poly = [F.one()]
    for r in (g, g, F.one()):
        poly = times(poly, r)
    assert poly_roots_fq(poly, F) == sorted([g, g, F.one()])


def test_fq_repeated_roots_above_the_tables():
    # F_2^17 is above TABLE_LIMIT: x^q - x is split once, then each root
    # is deflated; (x - g)^2 (x - 1)^3 (x - g^5) g^7
    F = build_extension(2, 17)
    assert F.order > polyroots.TABLE_LIMIT
    g = F.generator()
    roots = [g, g, F.one(), F.one(), F.one(), g ** 5]
    poly = [F.one()]
    for r in roots:
        poly = [a - r * b for a, b in zip([F.zero()] + poly,
                                          poly + [F.zero()])]
    poly = [c * g ** 7 for c in poly]
    expect = sorted(fq_multiplicities(poly, [g, F.one(), g ** 5], F))
    assert expect == sorted(roots)
    assert poly_roots_fq(poly, F) == expect


# both sides of 2^11, near 10^6 and the largest prime eval_many accepts
HORNER_PRIMES = (2, 3, 2039, 2053, 1000003, (1 << 31) - 1)


def horner(coeffs, p, x):
    """Python-integer Horner: no overflow, one reduction at the end."""
    acc = 0
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc % p


@st.composite
def horner_cases(draw):
    p = draw(st.one_of(st.sampled_from(HORNER_PRIMES),
                       st.integers(2, (1 << 31) - 2).map(next_prime)))
    coeff = st.one_of(st.integers(-3 * p, 3 * p),
                      st.integers(-(1 << 80), 1 << 80), st.just(p - 1))
    coeffs = draw(st.lists(coeff, max_size=9))
    xs = [0, 1, p - 1] + draw(st.lists(st.integers(0, p - 1), max_size=8))
    return coeffs, p, xs


@settings(derandomize=True, max_examples=600, deadline=None)
@given(horner_cases())
@example(([2052] * 9, 2053, [0, 1, 2052]))
@example(([1000002] * 9, 1000003, [1000002]))
@example(([-1] * 9, (1 << 31) - 1, [(1 << 31) - 2]))
def test_eval_many_matches_python_horner(case):
    # degrees 0-8 and the empty list, with the accumulator's largest
    # values (x = p - 1) in every case, so a missed reduction overflows
    coeffs, p, xs = case
    got = eval_many(coeffs, p, np.array(xs, dtype=np.int64))
    assert got.dtype == np.int64
    assert got.tolist() == [horner(coeffs, p, x) for x in xs]


def test_eval_many_stays_inside_int64():
    coeffs = [5, -3, 0, 1]
    p = (1 << 31) - 1  # the largest prime it accepts
    xs = np.array([0, 1, p - 1, p - 2, 123456789], dtype=np.int64)
    expect = [sum(c * pow(int(x), k, p) for k, c in enumerate(coeffs)) % p
              for x in xs]
    assert eval_many(coeffs, p, xs).tolist() == expect
    big = next_prime(1 << 31)
    with pytest.raises(CharsumError):
        eval_many(coeffs, big, np.array([big - 1], dtype=np.int64))


# -- the whole line --------------------------------------------------------

def grid_degree_limit(p):
    """The largest degree `line_values` takes on the grid at p: d + 1 at
    most ceil(sqrt p), and (d + 1)(p - 1)^2 below 2^53."""
    return min(math.isqrt(p - 1) + 1, ((1 << 53) - 1) // (p - 1) ** 2) - 1


def assert_is_eval_many(got, coeffs, p, piece=1 << 18):
    """got is eval_many over arange(p), bit for bit: on all of F_p when
    p <= 2^20, else on its first, a middle and its last `piece` points."""
    assert got.dtype == np.int64 and got.shape == (p,)
    starts = (0, p // 2, p - piece) if p > 1 << 20 else (0,)
    for lo in starts:
        hi = min(lo + piece, p) if p > 1 << 20 else p
        assert np.array_equal(got[lo:hi], eval_many(
            coeffs, p, np.arange(lo, hi, dtype=np.int64)))


# the smallest primes, the crossover's neighbours, 2^15, near 10^5 and
# 10^6, the largest prime below 2^24
LINE_PRIMES = (2, 3, 8191, 8209, 32771, 100003, 1000003, 16777213)


@st.composite
def line_cases(draw):
    bits = draw(st.integers(3, 24))
    p = draw(st.one_of(
        st.sampled_from(LINE_PRIMES),
        st.integers(1 << (bits - 1), (1 << bits) - 4).map(next_prime)))
    # past the grid's degree limit only where Horner over F_p is cheap
    over = 2 if p < 1 << 20 else 0
    d = draw(st.integers(-1, min(grid_degree_limit(p), 40) + over))
    coeff = st.one_of(st.integers(0, p - 1), st.just(p - 1),
                      st.integers(-(1 << 70), 1 << 70))
    coeffs = draw(st.lists(coeff, min_size=d + 1, max_size=d + 1))
    if coeffs and coeffs[-1] % p == 0:
        coeffs[-1] = p - 1
    return coeffs + [0, p, -p][:draw(st.integers(0, 3))], p


@settings(derandomize=True, max_examples=40, deadline=None)
@given(line_cases())
@example(([], 1000003))
@example(([0, 0], 100003))
@example(([8208] * 92, 8209))
@example(([8208] * 93 + [0], 8209))
@example(([1000002] * 8 + [0, 0, 0], 1000003))
@example(([16777212] * 32, 16777213))
def test_line_values_is_eval_many_on_the_whole_line(case):
    # on the grid and off it: degrees -1 to past the grid's limit, with
    # trailing zeros as exp_sum passes them
    coeffs, p = case
    assert_is_eval_many(line_values(coeffs, p), coeffs, p)


def test_line_values_at_the_exactness_limit(monkeypatch):
    # d = 31 is the last degree whose float64 products stay exact below
    # 2^24, on the grid; d = 32 takes Horner
    p = 16777213
    d = grid_degree_limit(p)
    assert d == 31 and 32 * (p - 1) ** 2 < 1 << 53 <= 33 * (p - 1) ** 2
    horner_degrees = []

    def spy(coeffs, p, xs):
        horner_degrees.append(len(coeffs) - 1)
        return eval_many(coeffs, p, xs)

    monkeypatch.setattr(polyroots, "eval_many", spy)
    xs = [0, 1, 2, 4097, 4095 * 4096 + 3, p - 2, p - 1]
    for deg in (d, d + 1):
        coeffs = [p - 1 - 7 * k for k in range(deg + 1)]
        got = line_values(coeffs, p)
        assert [int(got[x]) for x in xs] == [horner(coeffs, p, x)
                                             for x in xs]
        assert horner_degrees == ([] if deg == d else [deg])
        assert_is_eval_many(got, coeffs, p)
        del got


def test_line_values_refuses_p_above_2_31():
    big = next_prime(1 << 31)
    with pytest.raises(CharsumError):
        line_values([1, 2, 3], big)


# -- many primes at once ---------------------------------------------------

# the largest primes below 2^31, where a product of two residues nears 2^62
TOP_PRIMES = [p for p in range((1 << 31) - 1, (1 << 31) - 200, -1)
              if is_prime(p)]


def lane_roots(coeffs, primes):
    """roots_mod_many regrouped as one sorted list per prime."""
    lane, root = roots_mod_many(coeffs, np.array(primes, dtype=np.int64))
    assert lane.dtype == root.dtype == np.int64
    out = [[] for _ in primes]
    for i, r in zip(lane.tolist(), root.tolist()):
        out[i].append(r)
    return out


@st.composite
def polys_and_primes(draw):
    """(coeffs, primes): degree 0-8 with coefficients of either size, or a
    scaled product of linear factors so that repeated roots are common
    mod every prime; primes at and below the degree, small, and just
    below 2^31, none dividing the leading coefficient."""
    big = st.integers(-(1 << 80), 1 << 80)
    if draw(st.booleans()):
        coeffs = draw(st.lists(st.integers(-300, 300) | big, min_size=1,
                               max_size=9))
    else:
        coeffs = [draw(st.integers(1, 40) | big)]
        for r in draw(st.lists(st.integers(-4, 4), max_size=8)):
            # times (x - r)
            coeffs = [a - r * b for a, b in zip([0] + coeffs, coeffs + [0])]
    if not coeffs[-1]:
        coeffs[-1] = 1
    primes = draw(st.lists(st.sampled_from(SMALL_PRIMES)
                           | st.sampled_from(TOP_PRIMES), max_size=12))
    return coeffs, [p for p in primes if coeffs[-1] % p]


@settings(derandomize=True, max_examples=400, deadline=None)
@given(polys_and_primes())
@example(([-2, 0, 0, 1], SMALL_PRIMES))
@example(([1, 0, 1], TOP_PRIMES))
@example(([1 << 64, 3, 1], [2, 3, 5] + TOP_PRIMES[:2]))
@example(([-8, 36, -54, 27], [2, 5, 7, 11]))     # (3x - 2)^3
def test_roots_mod_many_is_roots_mod_p_prime_by_prime(case):
    coeffs, primes = case
    assert lane_roots(coeffs, primes) == [roots_mod_p(coeffs, p)
                                          for p in primes]


def test_roots_mod_many_over_a_sweep():
    # the three polynomials of the root-angle benchmark sweeps and a
    # quintic, at every prime to 3000 that does not divide lc
    primes = primes_in(3000)
    for coeffs in ([1, 0, 1], [-2, 0, 0, 1], [1, 1, 0, 0, 2],
                   [-1, -1, 0, 0, 0, 1]):
        ok = [p for p in primes if coeffs[-1] % p]
        assert lane_roots(coeffs, ok) == [roots_mod_p(coeffs, p) for p in ok]


def test_lane_kernels_refuse_what_they_cannot_take():
    with pytest.raises(CharsumError, match="prime 3 divides the leading"):
        roots_mod_many([1, 1, 3], np.array([5, 3, 7]))
    for lanes in (roots_mod_many, squarefree_many):
        with pytest.raises(CharsumError, match="below 2\\^31"):
            lanes([1, 1, 1], np.array([5, next_prime(1 << 31)]))
    with pytest.raises(CharsumError, match="zero polynomial"):
        roots_mod_many([0, 0], np.array([5]))
    lane, root = roots_mod_many([1, 0, 1], np.zeros(0, dtype=np.int64))
    assert lane.tolist() == root.tolist() == []


# p - 1 = k 2^s with large s, from 16 to 27
TWO_ADIC_PRIMES = [65537, 7340033, 469762049, 998244353, 2013265921]


@st.composite
def residues_and_primes(draw):
    """(a, p) lanes: odd primes from 3 to just below 2^31, with 0, 1,
    p - 1 or any residue."""
    primes = draw(st.lists(st.sampled_from(SMALL_PRIMES[1:])
                           | st.sampled_from(TWO_ADIC_PRIMES)
                           | st.sampled_from(TOP_PRIMES), min_size=1,
                           max_size=12))
    return [draw(st.sampled_from([0, 1, p - 1]) | st.integers(0, p - 1))
            for p in primes], primes


@settings(derandomize=True, max_examples=300, deadline=None)
@given(residues_and_primes())
@example(([0, 0, 1, 2], [3, 3, 3, 3]))
@example(([0, 1, 3, 5], [65537, 2013265921, 2013265921, 998244353]))
def test_sqrt_many_is_sqrt_mod_lane_by_lane(case):
    a, primes = case
    got = polyroots._sqrt_many(np.array(a, dtype=np.int64),
                               np.array(primes, dtype=np.int64))
    assert got.tolist() == [-1 if r is None else r
                            for r in map(sqrt_mod, a, primes)]
    assert all(r * r % p == x for r, x, p in zip(got.tolist(), a, primes)
               if r >= 0)


@settings(derandomize=True, max_examples=200, deadline=None)
@given(polys_and_primes())
def test_squarefree_many_is_is_squarefree(case):
    coeffs, primes = case
    assume(len(coeffs) > 1)
    got = squarefree_many(coeffs, np.array(primes, dtype=np.int64))
    assert got.tolist() == [fppoly.is_squarefree(coeffs, p) for p in primes]


@st.composite
def lane_horner_cases(draw):
    """(coeffs, primes, xs): a prime and a residue per lane, coefficients
    ints of any size or int64 arrays aligned with the lanes."""
    primes = draw(st.lists(st.sampled_from(HORNER_PRIMES)
                           | st.sampled_from(TOP_PRIMES), min_size=1,
                           max_size=8))
    xs = [draw(st.integers(0, p - 1)) for p in primes]
    coeff = (st.integers(-(1 << 80), 1 << 80)
             | st.lists(st.integers(-(1 << 62), 1 << 62), min_size=len(xs),
                        max_size=len(xs))
             .map(lambda v: np.array(v, dtype=np.int64)))
    return draw(st.lists(coeff, max_size=9)), primes, xs


@settings(derandomize=True, max_examples=300, deadline=None)
@given(lane_horner_cases())
def test_eval_many_with_a_modulus_per_lane(case):
    coeffs, primes, xs = case
    got = eval_many(coeffs, np.array(primes, dtype=np.int64),
                    np.array(xs, dtype=np.int64))
    assert got.dtype == np.int64
    assert got.tolist() == [
        fppoly.evaluate([int(c if isinstance(c, int) else c[i]) % p
                         for c in coeffs], x, p)
        for i, (p, x) in enumerate(zip(primes, xs))]


def test_residues_of_any_size():
    primes = np.array([2, 3, 65537] + TOP_PRIMES[:3], dtype=np.int64)
    for c in (0, -1, 1 << 63, -(1 << 63) - 5, 3 ** 200, -(7 ** 90)):
        assert residues(c, primes).tolist() == [c % int(p) for p in primes]
