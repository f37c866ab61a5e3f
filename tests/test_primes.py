import pytest

from charsum import CharsumError, is_prime, next_prime, primes_in
from charsum.errors import DEFAULT_BUDGET, BudgetError


def test_small_primality():
    assert [n for n in range(2, 30) if is_prime(n)] == \
        [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
    assert not is_prime(0) and not is_prime(1) and not is_prime(-7)


def test_known_carmichael_and_strong_pseudoprimes():
    for n in (561, 1105, 1729, 25326001, 3215031751):
        assert not is_prime(n)
    assert is_prime(2 ** 61 - 1)
    assert not is_prime(2 ** 67 - 1)


def test_sieve_matches_trial_division():
    def trial(n):
        if n < 2:
            return False
        d = 2
        while d * d <= n:
            if n % d == 0:
                return False
            d += 1
        return True

    assert primes_in(2000) == [n for n in range(2001) if trial(n)]


def test_sieve_is_inclusive_of_limit():
    assert primes_in(13)[-1] == 13
    assert primes_in(12)[-1] == 11
    assert primes_in(2) == [2]
    assert primes_in(1) == []
    assert primes_in(0) == []


def test_congruence_filter():
    assert primes_in(100, (4, 1)) == [5, 13, 17, 29, 37, 41, 53, 61, 73,
                                      89, 97]
    assert primes_in(100, (4, 3)) == [3, 7, 11, 19, 23, 31, 43, 47, 59,
                                      67, 71, 79, 83]
    # negative residues are normalized
    assert primes_in(100, (4, -1)) == primes_in(100, (4, 3))


def test_empty_congruence_class_rejected():
    with pytest.raises(CharsumError):
        primes_in(100, (4, 2))
    with pytest.raises(CharsumError):
        primes_in(100, (0, 1))


def test_sieve_limit_is_capped_before_allocation():
    for limit in (DEFAULT_BUDGET + 1, 10 ** 12):
        with pytest.raises(BudgetError, match="budget exceeded"):
            primes_in(limit)
        with pytest.raises(BudgetError):
            primes_in(limit, (4, 1))


def test_next_prime():
    assert next_prime(0) == 2
    assert next_prime(2) == 3
    assert next_prime(10 ** 6) == 1000003
