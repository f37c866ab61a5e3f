import math
import random
from fractions import Fraction

import numpy as np
import pytest

from charsum import (Angle, build_extension, next_prime, prime_field,
                     primes_in, psi_p, standard_character,
                     twisted_character, unit_roots)
from charsum import angles
from charsum.angles import character_sum, character_values
from charsum.errors import CharsumError


def test_angle_reduction_mod_one():
    assert Angle(Fraction(7, 4)) == Angle(Fraction(3, 4))
    assert Angle(Fraction(-1, 4)) == Angle(Fraction(3, 4))
    assert Angle(2) == Angle(0)
    assert str(Angle(Fraction(3, 7))) == "3/7"
    assert str(Angle(0)) == "0/1"


def test_angle_arithmetic_is_exact():
    a = Angle(Fraction(1, 3))
    b = Angle(Fraction(5, 6))
    assert a + b == Angle(Fraction(1, 6))
    assert a - b == Angle(Fraction(1, 2))
    assert -a == Angle(Fraction(2, 3))
    assert a * 4 == Angle(Fraction(1, 3))
    assert 3 * a == Angle(0)
    rng = random.Random(1)
    for _ in range(100):
        x = Angle(Fraction(rng.randint(-50, 50), rng.randint(1, 50)))
        y = Angle(Fraction(rng.randint(-50, 50), rng.randint(1, 50)))
        assert (x + y) - y == x
        assert x + (-x) == Angle(0)


def test_angle_ordering_and_hash():
    assert Angle(Fraction(1, 3)) < Angle(Fraction(1, 2))
    assert len({Angle(Fraction(1, 2)), Angle(Fraction(3, 6))}) == 1


def test_to_complex_on_quadrants():
    assert Angle(0).to_complex() == 1
    assert abs(Angle(Fraction(1, 4)).to_complex() - 1j) < 1e-15
    assert abs(Angle(Fraction(1, 2)).to_complex() + 1) < 1e-15
    assert abs(Angle(Fraction(3, 4)).to_complex() + 1j) < 1e-15


def test_nearest_multiple():
    assert Angle(Fraction(3, 7)).nearest_multiple(3) == (1, Fraction(2, 21))
    assert Angle(Fraction(9, 10)).nearest_multiple(2) == (0, Fraction(1, 10))
    assert Angle(Fraction(1, 3)).nearest_multiple(3) == (1, Fraction(0))
    # exact midpoints round consistently (floor of scaled + 1/2)
    t, d = Angle(Fraction(1, 4)).nearest_multiple(2)
    assert d == Fraction(1, 4) and t in (0, 1)
    with pytest.raises(CharsumError):
        Angle(0).nearest_multiple(0)


def test_psi_p_is_a_character():
    p = 13
    for a in range(p):
        for b in range(p):
            assert psi_p(a, p) + psi_p(b, p) == psi_p(a + b, p)
    assert psi_p(p, p) == Angle(0)
    assert psi_p(-1, p) == Angle(Fraction(p - 1, p))


def test_character_sum_over_field_vanishes():
    p = 11
    total = sum(psi_p(a, p).to_complex() for a in range(p))
    assert abs(total) < 1e-12


def test_standard_character_on_extension():
    F = build_extension(3, 2)
    char = standard_character(F)
    for a in F.elements():
        for b in F.elements():
            assert char.psi(a) + char.psi(b) == char.psi(a + b)
    # values land in the p-th roots, not just the q-th
    assert all(char.psi(a).frac.denominator in (1, 3) for a in F.elements())


def test_twists_exhaust_characters():
    F = build_extension(2, 3)
    elems = list(F.elements())
    tables = set()
    for c in elems:
        char = twisted_character(F, c)
        tables.add(tuple(char.psi(x) for x in elems))
    assert len(tables) == F.order


def test_trivial_character_is_constant_one():
    F = build_extension(5, 2)
    char = twisted_character(F, 0)
    assert all(char.psi(x) == Angle(0) for x in F.elements())


def test_psi_q_prime_field_reduces_to_psi_p():
    F = prime_field(7)
    char = standard_character(F)
    for a in range(7):
        assert char.psi(a) == psi_p(a, 7)


def test_unit_roots_match_numpy_and_are_read_only():
    for p in (2, 3, 997, 1000003):
        table = unit_roots(p)
        assert table.shape == (p,)
        assert table.flags.writeable is False
        expect = np.exp(2j * np.pi * np.arange(p) / p)
        assert np.max(np.abs(table - expect)) < 1e-14


def test_character_kernels_match_the_defining_sums():
    rng = np.random.default_rng(11)
    for p in (2, 3, 997, 65537):
        res = rng.integers(0, p, size=500)
        angle = 2 * np.pi * res / p
        vals = character_values(res, p)
        assert np.max(np.abs(vals - np.exp(1j * angle))) < 1e-14
        total = character_sum(res, p)
        assert isinstance(total, complex)
        assert abs(total.real - math.fsum(np.cos(angle))) < 1e-10
        assert abs(total.imag - math.fsum(np.sin(angle))) < 1e-10


def test_unit_roots_cache_is_bounded_by_bytes():
    # the primes to 4000 need about 15 MB of tables, past the cap
    primes = primes_in(4000)
    for p in primes:
        unit_roots(p)
    cache = angles._roots_cache
    held = [nbytes for _, nbytes in cache.values()]
    assert angles._roots_cache_bytes == sum(held)
    assert sum(t.nbytes for t, _ in cache.values()) <= sum(held)
    assert sum(held) <= angles.UNIT_ROOTS_CAP
    assert primes[-1] in cache and 2 not in cache  # least recent go first
    assert unit_roots(primes[-1]) is unit_roots(primes[-1])

    big = next_prime(angles.UNIT_ROOTS_CAP // 16)
    table = unit_roots(big)
    assert table.shape == (big,)
    assert big not in cache
    assert angles._roots_cache_bytes <= angles.UNIT_ROOTS_CAP
