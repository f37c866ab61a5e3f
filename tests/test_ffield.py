import random
from itertools import product
from unittest import mock

import numpy as np
import pytest

from charsum import (build_extension, ffield, fppoly, fq_trace, frobenius,
                     prime_field, sqrt_mod)
from charsum.errors import CharsumError
from charsum.ffield import ExtFieldDesc, _is_irreducible_mod, packed_field

PACKED_FIELDS = ((2, 2), (2, 3), (2, 6), (3, 2), (3, 4), (5, 2), (7, 2),
                 (13, 2))


def frobenius_trace(x):
    """Reference trace: x + x^p + ... + x^(p^(e-1)), a residue."""
    acc = term = x
    for _ in range(x.field.e - 1):
        term = frobenius(term)
        acc = acc + term
    return acc.residue()


def test_prime_field_basics():
    F = prime_field(7)
    assert F.order == 7 and F.e == 1
    a = F.element(3)
    b = F.element(5)
    assert (a + b).residue() == 1
    assert (a * b).residue() == 1
    assert (a - b).residue() == 5
    assert (a / b).residue() == 2  # 3 * 3 = 9 = 2
    assert (a ** 6).residue() == 1


def test_bad_modulus_rejected():
    for n in (1, 4, 6, 9, 100):
        with pytest.raises(CharsumError):
            prime_field(n)
    with pytest.raises(CharsumError):
        ExtFieldDesc(7, 0)
    with pytest.raises(CharsumError):
        ExtFieldDesc(7, 2)  # no modulus given
    with pytest.raises(CharsumError, match="modulus is reducible"):
        ExtFieldDesc(2, 2, (0, 0, 1))  # x^2 is reducible


def test_extension_field_sizes():
    for p, e in ((2, 3), (3, 2), (5, 2), (7, 3)):
        F = build_extension(p, e)
        assert F.order == p ** e
        elems = list(F.elements())
        assert len(elems) == p ** e
        assert len(set(elems)) == p ** e


def test_generator_satisfies_the_modulus():
    for p, e in ((2, 2), (2, 3), (3, 2), (5, 2), (7, 2)):
        F = build_extension(p, e)
        g = F.generator()
        acc = F.zero()
        for k, c in enumerate(F.modulus):
            acc = acc + F.element(c) * g ** k
        assert acc.is_zero()


def test_field_axioms_on_random_elements():
    rng = random.Random(3)
    for F in (build_extension(2, 3), build_extension(3, 2),
              build_extension(5, 2)):
        elems = list(F.elements())
        for _ in range(60):
            a, b, c = (rng.choice(elems) for _ in range(3))
            assert (a + b) + c == a + (b + c)
            assert (a * b) * c == a * (b * c)
            assert a * (b + c) == a * b + a * c
            assert a + b == b + a
            assert a * b == b * a
            assert a + F.zero() == a
            assert a * F.one() == a
            assert (a - a).is_zero()


def test_inverse_and_division():
    F = build_extension(3, 2)
    for a in F.elements():
        if a.is_zero():
            with pytest.raises(ZeroDivisionError):
                a.inverse()
            continue
        assert (a * a.inverse()) == F.one()
        assert (a / a) == F.one()
        assert a ** -1 == a.inverse()


def test_pow_and_multiplicative_order():
    F = build_extension(2, 3)
    q = F.order
    for a in F.elements():
        if a.is_zero():
            assert (a ** 5).is_zero()
            continue
        assert a ** (q - 1) == F.one()
        assert a ** 0 == F.one()


def test_pow_matches_repeated_multiplication():
    for F in (build_extension(3, 2), build_extension(2, 4)):
        for a in F.elements():
            acc = F.one()
            for k in range(20):
                assert a ** k == acc
                acc = acc * a
            if not a.is_zero():
                assert a ** -3 == a.inverse() * a.inverse() * a.inverse()


def test_frobenius_is_field_automorphism_fixing_prime_field():
    F = build_extension(3, 2)
    elems = list(F.elements())
    for a in elems:
        for b in elems:
            assert frobenius(a + b) == frobenius(a) + frobenius(b)
            assert frobenius(a * b) == frobenius(a) * frobenius(b)
    fixed = [a for a in elems if frobenius(a) == a]
    assert len(fixed) == 3
    assert all(a.in_prime_field() for a in fixed)


def test_trace_is_additive_surjection_onto_prime_field():
    for p, e in ((2, 3), (3, 2), (5, 2)):
        F = build_extension(p, e)
        elems = list(F.elements())
        images = {}
        for a in elems:
            t = fq_trace(a)
            assert 0 <= t < p
            images.setdefault(t, 0)
            images[t] += 1
        # fibers of a nonzero linear form all have the same size
        assert set(images) == set(range(p))
        assert len(set(images.values())) == 1
        rng = random.Random(5)
        for _ in range(40):
            a, b = rng.choice(elems), rng.choice(elems)
            assert fq_trace(a + b) == (fq_trace(a) + fq_trace(b)) % p
            assert fq_trace(frobenius(a)) == fq_trace(a)


@pytest.mark.parametrize("p, e", PACKED_FIELDS + ((5, 3), (101, 2)))
def test_trace_form_matches_the_frobenius_sum(p, e):
    F = build_extension(p, e)
    for a in F.elements():
        assert fq_trace(a) == frobenius_trace(a)


@pytest.mark.parametrize("p, e", PACKED_FIELDS + ((17, 1),))
def test_packed_tables_match_element_arithmetic(p, e):
    F = build_extension(p, e)
    T = packed_field(F)
    q = F.order
    elems = list(F.elements())
    # integer order is the canonical element order, both ways
    assert [T.pack(a) for a in elems] == list(range(q))
    assert T.unpack(np.arange(q)) == elems
    # exp/log round trip over all of F_q^*
    assert sorted(T.exp[:q - 1].tolist()) == list(range(1, q))
    assert (T.exp[T.log[1:]] == np.arange(1, q)).all()
    assert (T.log[T.exp[:q - 1]] == np.arange(q - 1)).all()
    rng = random.Random(7)
    for _ in range(200):
        a, b = rng.choice(elems), rng.choice(elems)
        ia, ib = np.array([T.pack(a)]), np.array([T.pack(b)])
        assert T.unpack(T.add(ia, ib)) == [a + b]
        assert T.unpack(T.mul(ia, ib)) == [a * b]
    zero = np.zeros(q, dtype=np.int64)
    assert (T.mul(np.arange(q), zero) == 0).all()


def test_packed_tables_refuse_large_fields():
    with pytest.raises(CharsumError):
        packed_field(build_extension(2, 17))


def test_trace_on_prime_field_is_identity():
    F = prime_field(11)
    for r in range(11):
        assert fq_trace(F.element(r)) == r


def test_element_coercion_and_reduction():
    F = build_extension(2, 3)
    assert F.element(5) == F.one()  # 5 = 1 mod 2
    a = F.element((1, 1, 0))
    assert a == F.one() + F.generator()
    assert F.element(a) == a
    with pytest.raises(CharsumError):
        F.element((1, 0, 0, 1))  # too many coordinates
    G = build_extension(2, 2)
    with pytest.raises(CharsumError):
        F.element(G.one())
    with pytest.raises(CharsumError):
        F.one() + G.one()


@pytest.mark.parametrize("p, e", ((7, 1), (2, 1), (3, 2), (2, 3)))
def test_comparison_with_an_int_reads_the_coefficients(p, e):
    F = build_extension(p, e)
    for a in F.elements():
        for c in range(-2 * p - 3, 2 * p + 4):
            want = a.coeffs == (c % p,) + (0,) * (e - 1)
            assert (a == c) is want and (a != c) is not want
            assert (a == F.element(c)) is want


def test_residue_needs_prime_subfield():
    F = build_extension(3, 2)
    assert (F.one() + F.one()).residue() == 2
    with pytest.raises(CharsumError):
        F.generator().residue()


def test_modulus_has_no_prime_field_roots():
    for p, e in ((2, 2), (2, 3), (3, 2), (3, 3), (5, 2), (7, 2), (11, 2)):
        F = build_extension(p, e)
        mod = F.modulus
        assert len(mod) == e + 1 and mod[-1] == 1
        for x in range(p):
            assert sum(c * x ** k for k, c in enumerate(mod)) % p != 0


def test_modulus_is_the_first_irreducible_in_written_order():
    for p, e in ((2, 2), (2, 4), (3, 3), (5, 2), (7, 3)):
        first = next(tuple(upper[::-1]) + (1,)
                     for upper in product(range(p), repeat=e)
                     if _is_irreducible_mod(list(upper[::-1]) + [1], p))
        with mock.patch.object(ffield, "_is_irreducible_mod",
                               wraps=_is_irreducible_mod) as test:
            assert build_extension.__wrapped__(p, e).modulus == first
        # one test for each candidate up to the modulus, itself included
        assert test.call_count == 1 + sum(c * p ** k
                                          for k, c in enumerate(first[:-1]))


def _has_a_factor(f, p):
    """Trial division: whether a monic f over F_p has a monic factor of
    degree 1 ... deg(f)/2."""
    return any(fppoly.mod(f, list(low) + [1], p) == []
               for d in range(1, (len(f) - 1) // 2 + 1)
               for low in product(range(p), repeat=d))


@pytest.mark.parametrize("p, top", [(2, 8), (3, 5), (5, 4), (7, 3)])
def test_frobenius_walk_agrees_with_trial_division(p, top):
    # every monic polynomial of degree 1 ... top over F_p
    for e in range(1, top + 1):
        for low in product(range(p), repeat=e):
            f = list(low) + [1]
            assert _is_irreducible_mod(f, p) != _has_a_factor(f, p), f


def test_frobenius_walk_stops_at_the_first_factor():
    # x^160 + x + 1 has the root 1 mod 3, seen at x^3; an irreducible of
    # degree 10 takes the whole walk, x^(2^k) for k = 1 ... 5
    modulus = list(build_extension(2, 10).modulus)
    for f, p, steps, verdict in (([1, 1] + [0] * 158 + [1], 3, 1, False),
                                 (modulus, 2, 5, True)):
        with mock.patch.object(fppoly, "powmod", wraps=fppoly.powmod) as pm:
            assert _is_irreducible_mod(f, p) is verdict
        assert pm.call_count == steps


def test_large_extension_scans_candidates_lazily():
    # listing the p candidate digits first would need gigabytes here
    assert build_extension(1000000007, 2).modulus == (1, 0, 1)


def test_sqrt_mod_against_brute_force():
    for p in (3, 5, 7, 11, 13, 17, 97, 101):
        squares = {x * x % p for x in range(p)}
        for a in range(p):
            r = sqrt_mod(a, p)
            if a in squares:
                assert r is not None and r * r % p == a
            else:
                assert r is None


def test_sqrt_mod_two():
    assert sqrt_mod(0, 2) == 0
    assert sqrt_mod(1, 2) == 1


def test_ext_field_equality():
    assert build_extension(3, 2) == build_extension(3, 2)
    assert build_extension(3, 2) is build_extension(3, 2)
    assert build_extension(3, 2) != build_extension(3, 3)
    assert ExtFieldDesc(5, 1) == prime_field(5)
