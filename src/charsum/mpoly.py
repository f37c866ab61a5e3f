"""Multivariate polynomials with exact rational coefficients.

Terms map exponent tuples to nonzero Fractions; the zero polynomial has no
terms.  Everything is immutable after construction, so instances can be
shared across worker processes freely.  `Lowered` is the one integer form
for work mod many primes: integer numerators over one denominator, each
polynomial a Horner tree.  Also here: `power`, the one square-and-multiply,
and `power_lanes`, its twin with one exponent per lane; a univariate
toolkit over any exact field; `gauss_jordan`, the one exact elimination,
over Q or F_q.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction

import numpy as np

from .errors import BadPrimeError, BudgetError, CharsumError

DEGREE_CAP = 1 << 20  # degree of a dense coefficient list


def _as_fraction(c):
    if isinstance(c, Fraction):
        return c
    if isinstance(c, int):
        return Fraction(c)
    raise TypeError("coefficients must be int or Fraction, got %r" % (c,))


def _dense(d):
    """d, the degree of a dense form of d + 1 entries; above DEGREE_CAP
    it is refused before any of them is allocated."""
    if d > DEGREE_CAP:
        raise BudgetError("degree %d exceeds the dense-form cap 2^20" % d)
    return d


def power(x, e, mul):
    """x^e for e >= 1 under the product `mul`, by the binary method read
    left to right: each step squares, and a set bit multiplies by the
    base x, always as the second factor.  It never multiplies by one and
    never squares after the last bit.  The one square-and-multiply;
    callers handle e <= 0 and reduce the base."""
    out = x
    for bit in bin(e)[3:]:
        out = mul(out, out)
        if bit == "1":
            out = mul(out, x)
    return out


def power_lanes(x, es, mul, one):
    """x^e lane by lane, for an int64 array es >= 0 of exponents, one
    per row of the array x: the binary method of `power` read left to
    right from the top bit of the largest exponent.  Every lane starts at
    `one` and squares, and a lane whose exponent has the bit set then
    multiplies by x, as the second factor."""
    out = one
    for k in range(int(es.max(initial=0)).bit_length() - 1, -1, -1):
        out = mul(out, out)
        bit = (es >> k) & 1 == 1
        out = np.where(bit.reshape(bit.shape + (1,) * (out.ndim - 1)),
                       mul(out, x), out)
    return out


class MPoly:
    __slots__ = ("nvars", "terms")

    def __init__(self, nvars, terms=None):
        cleaned = {}
        for expts, c in (terms or {}).items():
            expts = tuple(map(int, expts))
            if len(expts) != nvars or (expts and min(expts) < 0):
                raise ValueError("bad exponent tuple %r for %d variables"
                                 % (expts, nvars))
            c = _as_fraction(c)
            if c:
                cleaned[expts] = cleaned.get(expts, Fraction(0)) + c
                if not cleaned[expts]:
                    del cleaned[expts]
        self.nvars = nvars
        self.terms = cleaned

    # -- constructors ------------------------------------------------

    @classmethod
    def constant(cls, c, nvars):
        return cls(nvars, {(0,) * nvars: _as_fraction(c)})

    @classmethod
    def variable(cls, i, nvars):
        e = [0] * nvars
        e[i] = 1
        return cls(nvars, {tuple(e): Fraction(1)})

    @classmethod
    def from_univariate(cls, coeffs, nvars=1, var=0):
        """Little-endian coefficient list -> polynomial in variable `var`."""
        terms = {}
        for k, c in enumerate(coeffs):
            e = [0] * nvars
            e[var] = k
            terms[tuple(e)] = _as_fraction(c)
        return cls(nvars, terms)

    # -- ring operations ---------------------------------------------

    def _binop(self, other, sign):
        if isinstance(other, (int, Fraction)):
            other = MPoly.constant(other, self.nvars)
        if self.nvars != other.nvars:
            raise ValueError("variable count mismatch")
        terms = dict(self.terms)
        for e, c in other.terms.items():
            terms[e] = terms.get(e, Fraction(0)) + sign * c
        return MPoly(self.nvars, terms)

    def __add__(self, other):
        return self._binop(other, 1)

    __radd__ = __add__

    def __sub__(self, other):
        return self._binop(other, -1)

    def __rsub__(self, other):
        return (-self)._binop(other, 1)

    def __neg__(self):
        return MPoly(self.nvars, {e: -c for e, c in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return MPoly(self.nvars,
                         {e: c * other for e, c in self.terms.items()})
        if self.nvars != other.nvars:
            raise ValueError("variable count mismatch")
        # integer numerators: one Fraction per term of the product
        den = math.lcm(*(c.denominator for f in (self, other)
                         for c in f.terms.values()))
        left, right = ([(e, c.numerator * den // c.denominator)
                        for e, c in f.terms.items()] for f in (self, other))
        terms = {}
        for e1, n1 in left:
            for e2, n2 in right:
                e = tuple(map(operator.add, e1, e2))
                terms[e] = terms.get(e, 0) + n1 * n2
        return MPoly(self.nvars, {e: Fraction(n, den * den)
                                  for e, n in terms.items()})

    __rmul__ = __mul__

    def __pow__(self, k):
        if k < 0:
            raise ValueError("negative power")
        if k == 0:
            return MPoly.constant(1, self.nvars)
        return power(self, k, MPoly.__mul__)

    def __eq__(self, other):
        return (isinstance(other, MPoly) and self.nvars == other.nvars
                and self.terms == other.terms)

    def __hash__(self):
        return hash((self.nvars, frozenset(self.terms.items())))

    def __repr__(self):
        return "MPoly(%d, %r)" % (self.nvars, self.terms)

    # -- structure ----------------------------------------------------

    def is_zero(self):
        return not self.terms

    def is_constant(self):
        return all(sum(e) == 0 for e in self.terms)

    def constant_value(self):
        return self.terms.get((0,) * self.nvars, Fraction(0))

    def total_degree(self):
        if not self.terms:
            return -1
        return max(sum(e) for e in self.terms)

    def degree_in(self, var):
        if not self.terms:
            return -1
        return max(e[var] for e in self.terms)

    def variables_used(self):
        return {i for e in self.terms for i, k in enumerate(e) if k}

    def sorted_terms(self):
        """Terms in descending graded-lexicographic order."""
        return sorted(self.terms.items(),
                      key=lambda t: (sum(t[0]), t[0]), reverse=True)

    # -- substitution and views ----------------------------------------

    def substitute(self, var, repl):
        """Replace variable `var` by a scalar or an MPoly (same nvars)."""
        if isinstance(repl, (int, Fraction)):
            repl = MPoly.constant(repl, self.nvars)
        out = MPoly(self.nvars, {})
        powers = {0: MPoly.constant(1, self.nvars)}
        for e, c in self.terms.items():
            k = e[var]
            if k not in powers:
                powers[k] = repl ** k
            rest = list(e)
            rest[var] = 0
            out = out + powers[k] * MPoly(self.nvars, {tuple(rest): c})
        return out

    def as_univariate_in(self, var):
        """Little-endian list of coefficient polynomials in `var`.

        Coefficients keep the same nvars with the `var` exponent zeroed.
        """
        d = _dense(max(self.degree_in(var), 0))
        coeffs = [dict() for _ in range(d + 1)]
        for e, c in self.terms.items():
            rest = list(e)
            k = rest[var]
            rest[var] = 0
            coeffs[k][tuple(rest)] = c
        return [MPoly(self.nvars, t) for t in coeffs]

    def univariate_coeffs(self, var=0):
        """Little-endian Fraction list; error if other variables occur."""
        if self.variables_used() - {var}:
            raise CharsumError("polynomial is not univariate")
        out = [Fraction(0)] * (_dense(max(self.degree_in(var), 0)) + 1)
        for e, c in self.terms.items():
            out[e[var]] = c
        return out

    def drop_unused_variables(self):
        """Project onto the variables that actually occur (for canonical
        comparison, and for reading a polynomial in one variable).
        Returns (poly, kept_indices)."""
        used = sorted(self.variables_used())
        return MPoly(len(used), {tuple(e[i] for i in used): c
                                 for e, c in self.terms.items()}), used

    # -- reduction mod p ------------------------------------------------

    def reduce_mod(self, p):
        """Terms with int coefficients in [0, p); drops vanishing terms."""
        out = {}
        for e, c in self.terms.items():
            r = frac_mod(c, p)
            if r:
                out[e] = r
        return out

    def evaluate(self, point, coeff=Fraction):
        """Value at a point whose coordinates support +, * and ** (say
        Fractions or FqElems); `coeff` maps a rational coefficient, and 0,
        into their ring."""
        total = coeff(0)
        for e, c in self.terms.items():
            t = coeff(c)
            for x, k in zip(point, e):
                if k:
                    t = t * x ** k
            total = total + t
        return total


def check_int64_modulus(p):
    """Vectorized mod-p kernels multiply two residues in int64; p < 2^31
    keeps every product below 2^62."""
    if p >= 1 << 31:
        raise CharsumError("vectorized evaluation requires p < 2^31")


def pow_mod_array(a, e, p):
    """a^e mod p elementwise for e >= 1 (p < 2^31, see
    check_int64_modulus)."""
    return power(a % p, e, lambda x, y: x * y % p)


def frac_mod(c, p):
    """Fraction -> residue in [0, p); BadPrimeError if p divides the
    denominator."""
    c = _as_fraction(c)
    den = c.denominator % p
    if den == 0:
        raise BadPrimeError("bad prime %d: divides denominator of %s" % (p, c))
    return c.numerator % p * pow(den, -1, p) % p


class Lowered:
    """Polynomials lowered once to integer numerators over one common
    denominator, so that reducing all of them mod a prime costs one
    inverse (`residues`).

    Each polynomial is a Horner tree over those numerators: a leaf is the
    index of a constant's numerator; a node (v, kids) is the polynomial
    read in its highest variable v, kids[k] the tree of the coefficient of
    v^k.  A polynomial that is constant over Q is a leaf, so it evaluates
    to a scalar.  `polyroots.horner` evaluates a tree on residue arrays.
    """

    __slots__ = ("den", "nums", "trees")

    def __init__(self, polys):
        coeffs = []
        self._split([_horner_tree(list(f.terms.items()), f.nvars, coeffs)
                     for f in polys], coeffs)

    @classmethod
    def univariate(cls, coeffs):
        """The one-variable case: a little-endian coefficient list, whose
        numerators come out in the same order."""
        out = cls.__new__(cls)
        out._split([(0, list(range(len(coeffs))))],
                   [_as_fraction(c) for c in coeffs])
        return out

    def _split(self, trees, coeffs):
        self.trees = trees
        self.den = math.lcm(*(c.denominator for c in coeffs))
        self.nums = [c.numerator * (self.den // c.denominator)
                     for c in coeffs]

    def residues(self, p):
        """The numerators' residues times the denominator's inverse: what
        frac_mod gives for each coefficient, or its bad-prime error."""
        den = self.den % p
        if den == 0:
            for n in self.nums:
                frac_mod(Fraction(n, self.den), p)  # raises at the first
        inv = pow(den, -1, p)
        return [n * inv % p for n in self.nums]


def primitive_integers(coeffs):
    """The rational coefficients (not all zero) scaled to integers with no
    common factor; the sign is the caller's to choose."""
    nums = Lowered.univariate(coeffs).nums
    g = math.gcd(*nums)
    return [n // g for n in nums]


def _horner_tree(terms, top, coeffs):
    """The Horner tree of the (exponents, coefficient) pairs `terms`, none
    of which uses a variable >= top; leaves index `coeffs`, which grows."""
    v = top - 1
    while v >= 0 and not any(e[v] for e, _ in terms):
        v -= 1
    if v < 0:
        coeffs.append(terms[0][1] if terms else Fraction(0))
        return len(coeffs) - 1
    kids = [[] for _ in range(_dense(max(e[v] for e, _ in terms)) + 1)]
    for e, c in terms:
        kids[e[v]].append((e, c))
    return v, [_horner_tree(t, v, coeffs) for t in kids]


# -- univariate polynomials over a field (little-endian coefficient lists) --
#
# The coefficients are Fractions (over Q) or FqElems (over F_q); the
# functions use only +, -, *, == 0 and ** -1 on them, so one copy serves
# both.  Ints have no exact ** -1: pass Fractions.  `fppoly` is the int
# fast path for F_p.

def poly_trim(coeffs):
    coeffs = list(coeffs)
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return coeffs


def poly_derivative(coeffs):
    return [k * c for k, c in enumerate(coeffs)][1:]


def poly_add(f, g):
    if len(f) < len(g):
        f, g = g, f
    return poly_trim([a + b for a, b in zip(f, g)] + list(f[len(g):]))


def poly_sub(f, g):
    return poly_add(f, [-c for c in g])


def poly_mul(f, g):
    """Each coefficient is the sum of its own products, so no zero of the
    ring is needed."""
    if not f or not g:
        return []
    out = []
    for k in range(len(f) + len(g) - 1):
        lo, hi = max(0, k - len(g) + 1), min(k, len(f) - 1)
        terms = [f[i] * g[k - i] for i in range(lo, hi + 1)]
        out.append(sum(terms[1:], terms[0]))
    return poly_trim(out)


def poly_divmod(f, g):
    """(quotient, remainder) of f by g != 0: schoolbook division, one
    inverse of g's leading coefficient."""
    f, g = poly_trim(f), poly_trim(g)
    if not g:
        raise CharsumError("division by the zero polynomial")
    d = len(g) - 1
    inv = g[-1] ** -1
    quot = []
    for k in range(len(f) - 1 - d, -1, -1):
        c = f[k + d] * inv
        quot.append(c)
        for i in range(d):
            f[k + i] = f[k + i] - c * g[i]
    return quot[::-1], poly_trim(f[:d])


def poly_rem(f, g):
    return poly_divmod(f, g)[1]


def poly_monic(f):
    if not f:
        return []
    inv = f[-1] ** -1
    return [c * inv for c in f]


def poly_gcd(f, g):
    """The monic gcd; [] when both are zero."""
    f, g = poly_trim(f), poly_trim(g)
    while g:
        f, g = g, poly_rem(f, g)
    return poly_monic(f)


def poly_powmod(f, e, m):
    """f^e mod m for e >= 1."""
    return power(poly_rem(f, m), e, lambda a, b: poly_rem(poly_mul(a, b), m))


def gauss_jordan(rows):
    """Reduce a matrix of Fractions or FqElems (a list of equal-length row
    lists) in place to reduced row echelon form by exact Gauss-Jordan
    elimination.

    Returns (pivot columns, signed product of the pivots): the sign flips
    with each row swap, so when every column of a square matrix has a
    pivot the product is its determinant.
    """
    pivots, det = [], 1
    for col in range(len(rows[0]) if rows else 0):
        r = len(pivots)
        piv = next((i for i in range(r, len(rows)) if rows[i][col]), None)
        if piv is None:
            continue
        if piv != r:
            rows[r], rows[piv] = rows[piv], rows[r]
            det = -det
        lead = rows[r][col]
        det *= lead
        top = rows[r] = [a / lead for a in rows[r]]
        support = [j for j, b in enumerate(top) if b]
        for i, row in enumerate(rows):
            if i != r and row[col]:
                c = row[col]
                for j in support:
                    row[j] -= c * top[j]
        pivots.append(col)
    return pivots, det
