"""Exact angles on the circle, additive characters, and the table of
p-th roots of unity.

An Angle is a reduced fraction a/b taken mod 1, standing for the point
exp(2*pi*i*a/b).  All character values are produced as Angles; complex
doubles appear only when a caller asks for them.  Vectorized code
reaches the values e(k/p) = exp(2*pi*i*k/p) through two kernels,
`character_sum` (a histogram of residues dotted with them) and
`character_values` (a gather); both read `unit_roots(p)`, the one place
that computes them as an array.
"""

from __future__ import annotations

import cmath
import math
from collections import OrderedDict
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import CharsumError
from .ffield import ExtFieldDesc, FqElem, fq_trace


class Angle:
    __slots__ = ("frac",)

    def __init__(self, value):
        if isinstance(value, Angle):
            frac = value.frac
        else:
            frac = Fraction(value)
        self.frac = frac - (frac.numerator // frac.denominator)

    def __add__(self, other):
        return Angle(self.frac + Angle(other).frac)

    __radd__ = __add__

    def __neg__(self):
        return Angle(-self.frac)

    def __sub__(self, other):
        return Angle(self.frac - Angle(other).frac)

    def __rsub__(self, other):
        return Angle(Angle(other).frac - self.frac)

    def __mul__(self, k):
        if not isinstance(k, int):
            return NotImplemented
        return Angle(self.frac * k)

    __rmul__ = __mul__

    def __eq__(self, other):
        if isinstance(other, Angle):
            return self.frac == other.frac
        if isinstance(other, (int, Fraction)):
            return self == Angle(other)
        return NotImplemented

    def __hash__(self):
        return hash(self.frac)

    def __lt__(self, other):
        return self.frac < Angle(other).frac

    def __repr__(self):
        return "Angle(%s)" % self

    def __str__(self):
        return "%d/%d" % (self.frac.numerator, self.frac.denominator)

    def to_complex(self) -> complex:
        return cmath.exp(2j * cmath.pi * float(self.frac))

    def nearest_multiple(self, n: int):
        """(t, distance): the index t in [0, n) of the closest multiple
        t/n on the circle, and the exact distance to it."""
        if n < 1:
            raise CharsumError("n must be >= 1")
        scaled = self.frac * n
        t = (2 * scaled.numerator + scaled.denominator) // (
            2 * scaled.denominator)  # floor(scaled + 1/2)
        dist = abs(scaled - t) / n
        return t % n, dist


def psi_p(a: int, p: int) -> Angle:
    """The standard character of F_p: a residue class goes to a/p."""
    return Angle(Fraction(int(a) % p, p))


@dataclass(frozen=True)
class CharacterDesc:
    """An additive character of F_q: the trace-lift of psi_p composed with
    multiplication by `twist`.  twist = 1 is the standard character; every
    character of F_q arises from exactly one twist (0 gives the trivial
    one)."""

    field: ExtFieldDesc
    twist: FqElem

    def psi(self, x) -> Angle:
        x = self.field.element(x)
        return psi_p(fq_trace(self.twist * x), self.field.p)


def standard_character(field: ExtFieldDesc) -> CharacterDesc:
    return CharacterDesc(field, field.one())


def twisted_character(field: ExtFieldDesc, c) -> CharacterDesc:
    return CharacterDesc(field, field.element(c))


# Bytes of root tables kept between calls.  A sweep over the 303 primes
# up to 2000 needs 4.4 MB; one table near p = 10^6 (16 MB) is larger and
# is returned without being kept, so it does not outlive its operation.
UNIT_ROOTS_CAP = 8 << 20

_roots_cache = OrderedDict()    # p -> (table, bytes held), LRU first
_roots_cache_bytes = 0


def unit_roots(p: int) -> np.ndarray:
    """The read-only complex array exp(2*pi*i*k/p), k = 0..p-1.

    Built as the outer product of e(a*m/p) and e(b/p) with m = ceil(sqrt p),
    cut to its first p entries: 2 sqrt(p) exponentials instead of p, and
    every entry within 2e-15 of np.exp's.  Tables are kept in an LRU
    cache bounded by UNIT_ROOTS_CAP bytes.
    """
    global _roots_cache_bytes
    hit = _roots_cache.get(p)
    if hit is not None:
        _roots_cache.move_to_end(p)
        return hit[0]
    m = math.isqrt(p - 1) + 1       # ceil(sqrt(p))
    rows = -(-p // m)               # ceil(p / m)
    coarse = np.exp(2j * np.pi * (np.arange(rows) * m) / p)
    fine = np.exp(2j * np.pi * np.arange(m) / p)
    full = np.multiply.outer(coarse, fine).reshape(-1)
    table = full[:p]
    table.setflags(write=False)
    if full.nbytes <= UNIT_ROOTS_CAP:
        _roots_cache[p] = (table, full.nbytes)
        _roots_cache_bytes += full.nbytes
        while _roots_cache_bytes > UNIT_ROOTS_CAP:
            _, (_, nbytes) = _roots_cache.popitem(last=False)
            _roots_cache_bytes -= nbytes
    return table


def character_sum(residues, p) -> complex:
    """Sum of e(r/p) over an int array of residues r in [0, p): their
    histogram dotted with the table."""
    return complex(np.bincount(residues, minlength=p) @ unit_roots(p))


def character_values(residues, p) -> np.ndarray:
    """The complex array e(r/p) for an int array of residues in [0, p)."""
    return unit_roots(p)[residues]
