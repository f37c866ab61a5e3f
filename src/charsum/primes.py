"""Prime generation and deterministic primality testing."""

from math import gcd

from .errors import DEFAULT_BUDGET, BudgetError, CharsumError

# The first twelve primes as Miller-Rabin witnesses decide primality
# for every n below EXACT_LIMIT = psi_12, about 3.2 * 10^23 (Sorenson and
# Webster, Math. Comp. 86 (2017)).
_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
EXACT_LIMIT = 318665857834031151167461


def is_prime(n: int) -> bool:
    """Primality test; exact for all n below EXACT_LIMIT (strong probable
    prime beyond that)."""
    if n < 2:
        return False
    for p in _WITNESSES:
        if n % p == 0:
            return n == p
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _WITNESSES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def primes_in(limit: int, congruence=None) -> list:
    """All primes p <= limit, optionally restricted to p = k (mod m).

    congruence is a (m, k) pair.  Classes with gcd(k, m) > 1 contain at
    most one prime, which is an error here, not a sweep.
    """
    if congruence is not None:
        m, k = congruence
        if m <= 0:
            raise CharsumError("modulus of a congruence class must be positive")
        k %= m
        if gcd(k, m) != 1:
            raise CharsumError(
                "empty congruence class beyond finitely many primes: "
                "gcd(%d, %d) = %d" % (k, m, gcd(k, m)))
    if limit > DEFAULT_BUDGET:
        raise BudgetError("sieve budget exceeded: %d > %d"
                          % (limit, DEFAULT_BUDGET))
    if limit < 2:
        return []
    sieve = bytearray([1]) * (limit + 1)
    sieve[0] = sieve[1] = 0
    i = 2
    while i * i <= limit:
        if sieve[i]:
            sieve[i * i::i] = bytearray(len(sieve[i * i::i]))
        i += 1
    out = [p for p in range(2, limit + 1) if sieve[p]]
    if congruence is not None:
        m, k = congruence
        out = [p for p in out if p % m == k % m]
    return out


def next_prime(n: int) -> int:
    """Smallest prime strictly greater than n."""
    n += 1
    while not is_prime(n):
        n += 1
    return n
