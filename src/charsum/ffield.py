"""Finite fields F_{p^e}: descriptors, elements, trace, Frobenius, and
packed tables for small fields.

An extension is represented by its canonical modulus: the monic
irreducible of degree e whose coefficient vector (read from the x^{e-1}
coefficient down to the constant) is lexicographically smallest, found
by a Frobenius walk x^(p^k) mod each candidate that stops at its first
factor.  Elements are immutable coefficient vectors in the power basis.

For q <= TABLE_LIMIT (2^16), `packed_field` gives numpy tables on packed
elements: the integer whose base-p digits are the coefficients, c_0 the
most significant, so that integer order is the canonical element order.
They hold the digits of every element (addition digit-wise mod p, XOR
over F_2) and exp/log tables of a primitive element (multiplication).
The trace is the F_p-linear form sum c_i Tr(x^i), with Tr(x^i) taken
once per field from the modulus by Newton's identities.
"""

from __future__ import annotations

import functools
from contextlib import suppress
from itertools import product

import numpy as np

from . import fppoly
from .errors import CharsumError
from .mpoly import frac_mod, power
from .primes import is_prime

# Largest field that gets packed tables: at q = 2^16 and e = 16 they
# take about 7 MB.
TABLE_LIMIT = 1 << 16


def _check_prime(p):
    if not is_prime(p):
        raise CharsumError("%d is not prime" % p)


def _prime_divisors(n):
    divs = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            divs.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        divs.append(n)
    return divs


def _is_irreducible_mod(coeffs, p):
    """Ben-Or's test for a monic f over F_p: a reducible f of degree e has
    an irreducible factor of degree k <= e/2, which divides x^(p^k) - x;
    walk h = x^(p^k) mod f and stop at the first gcd(h - x, f) != 1."""
    f = [c % p for c in coeffs]
    x = h = [0, 1]
    for _ in range((len(f) - 1) // 2):
        h = fppoly.powmod(h, p, f, p)
        if fppoly.degree(fppoly.gcd(fppoly.sub(h, x, p), f, p)) != 0:
            return False
    return len(f) > 1


class ExtFieldDesc:
    """Descriptor of F_{p^e}.  For e = 1 the modulus is x (the convention
    that makes residues their own coefficient vectors)."""

    __slots__ = ("p", "e", "modulus")

    def __init__(self, p, e, modulus=None):
        _check_prime(p)
        if e < 1:
            raise CharsumError("extension degree must be >= 1")
        if modulus is None:
            if e != 1:
                raise CharsumError("extension fields need an explicit "
                                   "modulus; use build_extension")
            modulus = (0, 1)
        modulus = tuple(int(c) % p for c in modulus[:-1]) + (int(modulus[-1]),)
        if len(modulus) != e + 1 or modulus[-1] != 1:
            raise CharsumError("modulus must be monic of degree e")
        if e > 1 and not _is_irreducible_mod(list(modulus), p):
            raise CharsumError("modulus is reducible over F_%d" % p)
        self.p = p
        self.e = e
        self.modulus = modulus

    @property
    def order(self):
        return self.p ** self.e

    def element(self, coeffs):
        if isinstance(coeffs, FqElem):
            if coeffs.field is not self and coeffs.field != self:
                raise CharsumError("element from a different field")
            return coeffs
        if isinstance(coeffs, int):
            coeffs = (coeffs,)
        coeffs = tuple(int(c) % self.p for c in coeffs)
        if len(coeffs) > self.e:
            raise CharsumError("coefficient vector longer than degree")
        coeffs = coeffs + (0,) * (self.e - len(coeffs))
        return FqElem(self, coeffs)

    def rational(self, c):
        """The image of a rational number; BadPrimeError if p divides its
        denominator."""
        return self.element(frac_mod(c, self.p))

    def zero(self):
        return self.element(0)

    def one(self):
        return self.element(1)

    def generator(self):
        """The class of x (equals 0 for e = 1)."""
        return self.element((0, 1)) if self.e > 1 else self.zero()

    def elements(self):
        """All q elements in canonical (coefficient-vector lex) order."""
        for vec in product(range(self.p), repeat=self.e):
            yield FqElem(self, vec)

    def __eq__(self, other):
        return (isinstance(other, ExtFieldDesc) and self.p == other.p
                and self.e == other.e and self.modulus == other.modulus)

    def __hash__(self):
        return hash((self.p, self.e, self.modulus))

    def __repr__(self):
        return "ExtFieldDesc(p=%d, e=%d)" % (self.p, self.e)


@functools.lru_cache(maxsize=4096)
def prime_field(p) -> ExtFieldDesc:
    """F_p, one descriptor per p: the cache holds every prime of a sweep
    to 38000, so a sweep tests each prime once."""
    return ExtFieldDesc(p, 1)


@functools.lru_cache(maxsize=64)
def build_extension(p, e) -> ExtFieldDesc:
    """F_{p^e} on the canonical (smallest) irreducible modulus; one
    descriptor per (p, e), so the tables cached per field are found again."""
    _check_prime(p)
    if e == 1:
        return prime_field(p)
    for i in range(p ** e):
        # c_k is base-p digit k of i, so the scan order matches the
        # "smallest written form" convention, c_{e-1} most significant.
        coeffs = [i // p ** k % p for k in range(e)] + [1]
        with suppress(CharsumError):    # the one test: a reducible modulus
            return ExtFieldDesc(p, e, coeffs)
    raise AssertionError("no irreducible of degree %d over F_%d" % (e, p))


class FqElem:
    __slots__ = ("field", "coeffs")

    def __init__(self, field, coeffs):
        self.field = field
        self.coeffs = tuple(int(c) % field.p for c in coeffs)

    def _coerce(self, other):
        if isinstance(other, FqElem):
            if other.field != self.field:
                raise CharsumError("field mismatch: %r vs %r"
                                   % (self.field, other.field))
            return other
        if isinstance(other, int):
            return self.field.element(other)
        return None

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        p = self.field.p
        return FqElem(self.field, [(a + b) % p
                                   for a, b in zip(self.coeffs, other.coeffs)])

    __radd__ = __add__

    def __neg__(self):
        p = self.field.p
        return FqElem(self.field, [(-a) % p for a in self.coeffs])

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        p = self.field.p
        prod = fppoly.mul(list(self.coeffs), list(other.coeffs), p)
        if self.field.e == 1:
            red = prod
        else:
            red = fppoly.mod(prod, list(self.field.modulus), p)
        red = red + [0] * (self.field.e - len(red))
        return FqElem(self.field, red)

    __rmul__ = __mul__

    def inverse(self):
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero")
        p = self.field.p
        if self.field.e == 1:
            return self.field.element(pow(self.coeffs[0], -1, p))
        # extended Euclid in F_p[x] against the modulus
        a = list(self.field.modulus)
        b = fppoly.trim(list(self.coeffs))
        t0, t1 = [], [1]
        while b:
            q, r = fppoly.divmod_poly(a, b, p)
            a, b = b, r
            t0, t1 = t1, fppoly.sub(t0, fppoly.mul(q, t1, p), p)
        inv_lead = pow(a[-1], -1, p)
        inv = fppoly.scalar_mul(t0, inv_lead, p)
        return self.field.element(tuple(inv))

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self * other.inverse()

    def __pow__(self, k):
        if k < 0:
            return self.inverse() ** (-k)
        if k == 0:
            return self.field.one()
        return power(self, k, FqElem.__mul__)

    def is_zero(self):
        return all(c == 0 for c in self.coeffs)

    def __bool__(self):
        return not self.is_zero()

    def in_prime_field(self):
        return all(c == 0 for c in self.coeffs[1:])

    def residue(self):
        """The residue in [0, p) when the element lies in the prime
        subfield."""
        if not self.in_prime_field():
            raise CharsumError("element is not in the prime subfield")
        return self.coeffs[0]

    def __eq__(self, other):
        if isinstance(other, int):
            # an int is the element (other mod p, 0, ..., 0)
            return (self.coeffs[0] == other % self.field.p
                    and not any(self.coeffs[1:]))
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash((self.field, self.coeffs))

    def __lt__(self, other):
        other = self._coerce(other)
        return self.coeffs < other.coeffs

    def __repr__(self):
        return "FqElem(%r in GF(%d^%d))" % (list(self.coeffs),
                                            self.field.p, self.field.e)


def frobenius(x: FqElem) -> FqElem:
    return x ** x.field.p


@functools.lru_cache(maxsize=256)
def _trace_form(field):
    """(Tr(x^0), ..., Tr(x^{e-1})): the power sums of the modulus's roots
    (the conjugates of x), by Newton's identities."""
    p, e, a = field.p, field.e, field.modulus
    s = [e % p]
    for k in range(1, e):
        acc = k * a[e - k]
        for j in range(1, k):
            acc += a[e - j] * s[k - j]
        s.append(-acc % p)
    return tuple(s)


def fq_trace(x: FqElem) -> int:
    """Trace down to F_p, returned as a residue in [0, p)."""
    form = _trace_form(x.field)
    return sum(c * t for c, t in zip(x.coeffs, form)) % x.field.p


class PackedField:
    """Numpy tables of F_q on packed elements (see the module docstring).

    `digits[n]` are the coefficients of element n; `exp[k]` is g^k for a
    primitive element g, and `log` inverts it.  log[0] is the sentinel 2n
    (n = q - 1) and exp is zero from 2n on, so a product with a zero
    factor needs no branch.
    """

    __slots__ = ("field", "weights", "digits", "exp", "log")

    def __init__(self, field):
        p, e, q = field.p, field.e, field.order
        if q > TABLE_LIMIT:
            raise CharsumError("packed tables need q <= %d" % TABLE_LIMIT)
        n = q - 1
        self.field = field
        self.weights = p ** np.arange(e - 1, -1, -1, dtype=np.int64)
        self.digits = (np.arange(q, dtype=np.int32)[:, None]
                       // self.weights.astype(np.int32) % p)
        # Powers of g by doubling: times g^m is an e x e matrix over F_p
        # acting on digit rows, and block [g^m, g^2m) is block [1, g^m)
        # times that matrix.
        g = _primitive_element(field)
        basis = [field.element((0,) * i + (1,)) for i in range(e)]
        mat = np.array([(b * g).coeffs for b in basis], dtype=np.int64)
        rows = np.zeros((1, e), dtype=np.int64)
        rows[0, 0] = 1
        while len(rows) < n:
            rows = np.vstack((rows, rows @ mat % p))
            mat = mat @ mat % p
        powers = rows[:n] @ self.weights
        self.exp = np.zeros(4 * n + 1, dtype=np.int64)
        self.exp[:n] = powers
        self.exp[n:2 * n] = powers
        self.log = np.empty(q, dtype=np.int64)
        self.log[powers] = np.arange(n)
        self.log[0] = 2 * n

    def pack(self, x: FqElem) -> int:
        return sum(int(c) * int(w) for c, w in zip(x.coeffs, self.weights))

    def unpack(self, ns) -> list:
        """FqElems of an array of packed elements."""
        return [FqElem(self.field, row) for row in self.digits[ns].tolist()]

    def add(self, a, b):
        if self.field.p == 2:
            return a ^ b
        return (self.digits[a] + self.digits[b]) % self.field.p @ self.weights

    def mul(self, a, b):
        return self.exp[self.log[a] + self.log[b]]


def _primitive_element(field):
    """The first element in canonical order that generates F_q^*; a
    fraction phi(q-1)/(q-1) of the elements do, so few are tried."""
    n = field.order - 1
    divs = _prime_divisors(n)
    for x in field.elements():
        if not x.is_zero() and all(x ** (n // r) != field.one()
                                   for r in divs):
            return x


@functools.lru_cache(maxsize=8)
def packed_field(field) -> PackedField:
    """The tables of `field`, built once per descriptor."""
    return PackedField(field)


def sqrt_mod(a, p):
    """A square root of a mod p (odd p), or None if a is a non-residue.
    Tonelli-Shanks with a deterministic non-residue scan."""
    a %= p
    if a == 0:
        return 0
    if p == 2:
        return a
    if pow(a, (p - 1) // 2, p) != 1:
        return None
    if p % 4 == 3:
        return pow(a, (p + 1) // 4, p)
    q = p - 1
    s = 0
    while q % 2 == 0:
        q //= 2
        s += 1
    z = 2
    while pow(z, (p - 1) // 2, p) != p - 1:
        z += 1
    m, c, t, r = s, pow(z, q, p), pow(a, q, p), pow(a, (q + 1) // 2, p)
    while t != 1:
        i, t2 = 0, t
        while t2 != 1:
            t2 = t2 * t2 % p
            i += 1
        b = pow(c, 1 << (m - i - 1), p)
        m, c = i, b * b % p
        t = t * c % p
        r = r * b % p
    return r
