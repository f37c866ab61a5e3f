"""Number fields presented by a monic integer polynomial, with explicit
irreducibility certificates, reduction maps to prime fields, and exact
integer-lattice calculations on coordinate vectors.

Everything here is Fraction arithmetic; nothing is floated.  Elements
multiply on the `mpoly` toolkit (product, then remainder by the defining
polynomial) and take powers through `mpoly.power`; Q-linear relations
come from `mpoly.gauss_jordan`.  The discriminant is never computed:
squarefreeness and bad primes are read from gcd(f, f') mod p.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import filterfalse, islice
from math import gcd

from . import fppoly
from .errors import BudgetError, CharsumError
from .ffield import _is_irreducible_mod
from .mpoly import (Lowered, MPoly, frac_mod, gauss_jordan, poly_derivative,
                    poly_gcd, poly_mul, poly_rem, poly_trim, power,
                    primitive_integers)
from .parser import poly_to_string, univariate
from .polyroots import roots_mod_p
from .primes import EXACT_LIMIT, next_prime, primes_in
from .angles import Angle

CERT_PRIME_COUNT = 25
NF_DEGREE_CAP = 1024  # bounds memory, not the time of the Frobenius walk


def _check_degree(d):
    if d > NF_DEGREE_CAP:
        raise BudgetError("degree %d exceeds the number-field degree cap %d"
                          % (d, NF_DEGREE_CAP))


def _int_coeffs(f):
    """Little-endian integer coefficients of a monic defining polynomial,
    given as anything `parser.univariate` reads; a degree over the cap is
    refused first."""
    coeffs = poly_trim(univariate(f, "defining polynomial"))
    if len(coeffs) < 2:
        raise CharsumError("defining polynomial must have degree >= 1")
    _check_degree(len(coeffs) - 1)
    if coeffs[-1] != 1:
        raise CharsumError("defining polynomial must be monic")
    if any(c.denominator != 1 for c in coeffs):
        raise CharsumError("defining polynomial must have integer coefficients")
    return [int(c) for c in coeffs]


def _poly_str(coeffs):
    return poly_to_string(MPoly.from_univariate(coeffs), ("x",))


def _monic_companion(ints):
    """lc^(d-1) f(y / lc) for integer f of degree d: monic, with integer
    roots lc * r for the rational roots r of f."""
    deg, lc = len(ints) - 1, ints[-1]
    return [ints[i] * lc ** (deg - 1 - i) for i in range(deg)] + [1]


def _refuse_rational_root(ints):
    """Refuse an integer polynomial with a rational root, naming the factor
    x - r of the smallest one (x itself when the constant term is 0).

    The roots are y / lc for the integer roots y of the monic companion g.
    Each such y divides g_0 and has |y| <= 1 + max |g_i| (Cauchy), so the
    roots of g mod one prime q above twice that bound, read in
    (-q/2, q/2), include them all; an exact evaluation keeps the true
    ones.
    """
    if ints[0] == 0:
        roots = [Fraction(0)]
    else:
        g = _monic_companion(ints)
        bound = min(abs(g[0]), 1 + max(abs(c) for c in g[:-1]))
        q = next_prime(2 * bound)
        if q >= EXACT_LIMIT:
            raise CharsumError("coefficients too large for the rational-root "
                               "test: root bound %d" % bound)
        ys = {y - q if y > q // 2 else y for y in roots_mod_p(g, q)}
        roots = [Fraction(y, ints[-1]) for y in ys
                 if sum(c * y ** k for k, c in enumerate(g)) == 0]
    if roots:
        raise CharsumError("reducible: divisible by %s"
                           % _poly_str([-min(roots), 1]))


def _refuse_repeated_factor(ints):
    """Refuse a monic integer f with a repeated factor, named as gcd(f, f')
    over Q; f squarefree mod one prime below 30 proves there is none."""
    if not any(fppoly.is_squarefree(ints, p) for p in primes_in(30)):
        f = [Fraction(c) for c in ints]
        rep = poly_gcd(f, poly_derivative(f))
        if len(rep) > 1:
            raise CharsumError("reducible: repeated factor %s"
                               % _poly_str(rep))


def _disc_bound(ints):
    """Mahler's bound d^d ||f||_2^(2d-2) on |disc(f)|: no prime above it
    divides a nonzero discriminant."""
    d = len(ints) - 1
    return d ** d * sum(c * c for c in ints) ** (d - 1)


def _divides_disc(ints):
    """The test p -> (p divides disc(f)) for squarefree integer f and primes
    p not dividing lc(f): f mod p has a repeated factor, at p up to
    `_disc_bound`."""
    bound = _disc_bound(ints)
    return lambda p: p <= bound and not fppoly.is_squarefree(ints, p)


def _certificate(ints):
    """Irreducibility certificate for a monic squarefree integer f of degree
    >= 2 with no rational root: that alone up to degree 3, else irreducible
    mod one of the first CERT_PRIME_COUNT primes not dividing disc(f)."""
    deg = len(ints) - 1
    if deg <= 3:
        return "no rational roots (degree %d)" % deg
    good = filterfalse(_divides_disc(ints), primes_in(10 ** 4))
    for p in islice(good, CERT_PRIME_COUNT):
        if _is_irreducible_mod([c % p for c in ints], p):
            return "irreducible mod %d" % p
    raise CharsumError("certificate not found: no irreducibility proof "
                       "within %d primes" % CERT_PRIME_COUNT)


@dataclass(frozen=True)
class NumberFieldDesc:
    coeffs: tuple       # little-endian integer, monic
    degree: int
    certificate: str

    def __repr__(self):
        return "NumberFieldDesc(%s, certificate=%r)" % (
            _poly_str(self.coeffs), self.certificate)


def nf_build(f) -> NumberFieldDesc:
    """Build a number field from a monic integer polynomial, refusing to
    proceed without an irreducibility certificate.

    Certificates, in the order tried: degree 1; no rational roots (full
    proof for degrees 2 and 3); irreducible mod p for a good prime p.
    """
    coeffs = _int_coeffs(f)
    deg = len(coeffs) - 1
    _refuse_repeated_factor(coeffs)
    if deg == 1:
        return NumberFieldDesc(tuple(coeffs), 1, "degree 1")
    _refuse_rational_root(coeffs)
    return NumberFieldDesc(tuple(coeffs), deg, _certificate(coeffs))


class NFElem:
    """Element of a number field, as Fraction coordinates in the power
    basis 1, b, ..., b^(deg-1) of the defining root b."""

    __slots__ = ("field", "coords")

    def __init__(self, field, coords):
        coords = tuple(Fraction(c) for c in coords)
        if len(coords) != field.degree:
            raise CharsumError("expected %d coordinates, got %d"
                               % (field.degree, len(coords)))
        self.field = field
        self.coords = coords

    @classmethod
    def rational(cls, field, value):
        return cls(field, (Fraction(value),) + (Fraction(0),) * (field.degree - 1))

    @classmethod
    def generator(cls, field):
        if field.degree == 1:
            return cls.rational(field, -field.coeffs[0])
        coords = [Fraction(0)] * field.degree
        coords[1] = Fraction(1)
        return cls(field, coords)

    def _check(self, other):
        if isinstance(other, NFElem):
            if other.field != self.field:
                raise CharsumError("elements of different fields")
            return other
        if isinstance(other, (int, Fraction)):
            return NFElem.rational(self.field, other)
        return NotImplemented

    def __add__(self, other):
        other = self._check(other)
        if other is NotImplemented:
            return NotImplemented
        return NFElem(self.field,
                      [a + b for a, b in zip(self.coords, other.coords)])

    __radd__ = __add__

    def __neg__(self):
        return NFElem(self.field, [-a for a in self.coords])

    def __sub__(self, other):
        other = self._check(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = self._check(other)
        if other is NotImplemented:
            return NotImplemented
        f = [Fraction(c) for c in self.field.coeffs]
        prod = poly_rem(poly_mul(self.coords, other.coords), f)
        return NFElem(self.field, prod + [0] * (self.field.degree - len(prod)))

    __rmul__ = __mul__

    def __pow__(self, e):
        if not isinstance(e, int) or e < 0:
            raise CharsumError("exponent must be a nonnegative integer")
        if e == 0:
            return NFElem.rational(self.field, 1)
        return power(self, e, NFElem.__mul__)

    def __eq__(self, other):
        return (isinstance(other, NFElem) and other.field == self.field
                and other.coords == self.coords)

    def __hash__(self):
        return hash((self.field.coeffs, self.coords))

    def is_zero(self):
        return all(c == 0 for c in self.coords)

    def is_rational(self):
        return all(c == 0 for c in self.coords[1:])

    def rational_value(self) -> Fraction:
        if not self.is_rational():
            raise CharsumError("element is not rational")
        return self.coords[0]

    def __repr__(self):
        return "NFElem(%s)" % (self.coords,)


def nf_reduce(x: NFElem, p: int, b: int) -> int:
    """Reduce x at the place where the defining root maps to b mod p."""
    if fppoly.evaluate(x.field.coeffs, b, p) != 0:
        raise CharsumError(
            "%d is not a root of the defining polynomial mod %d" % (b, p))
    return fppoly.evaluate([frac_mod(c, p) for c in x.coords], b, p)


def hnf(rows):
    """Row Hermite normal form of an integer matrix.

    Pivots are positive, entries above each pivot are reduced into
    [0, pivot), zero rows are dropped.  Returns a list of row tuples.
    """
    mat = [list(map(int, r)) for r in rows]
    row = 0
    for col in range(len(mat[0]) if mat else 0):
        pivot = next((i for i in range(row, len(mat)) if mat[i][col]), None)
        if pivot is None:
            continue
        mat[row], mat[pivot] = mat[pivot], mat[row]
        for i in range(row + 1, len(mat)):
            while mat[i][col]:
                q = mat[i][col] // mat[row][col]
                if q:
                    mat[i] = [a - q * b for a, b in zip(mat[i], mat[row])]
                if mat[i][col]:
                    mat[row], mat[i] = mat[i], mat[row]
        if mat[row][col] < 0:
            mat[row] = [-a for a in mat[row]]
        row += 1
        if row == len(mat):
            break
    mat = [r for r in mat if any(r)]
    # reduce above the pivots, earliest pivot column first: each later
    # reducing row is zero in the columns already finished, so no step
    # disturbs a previous one
    for i in range(len(mat)):
        col = next(j for j, a in enumerate(mat[i]) if a)
        for k in range(i):
            q = mat[k][col] // mat[i][col]
            if q:
                mat[k] = [a - q * b for a, b in zip(mat[k], mat[i])]
    return [tuple(r) for r in mat]


def _express_in_hnf(vec, basis_rows):
    """Integer coordinates of vec in an HNF basis, or None."""
    vec = list(vec)
    coords = []
    for row in basis_rows:
        col = next(j for j, a in enumerate(row) if a)
        if vec[col] % row[col]:
            return None
        q = vec[col] // row[col]
        coords.append(q)
        vec = [a - q * b for a, b in zip(vec, row)]
    if any(vec):
        return None
    return coords


@dataclass(frozen=True)
class LatticeBasis:
    field: NumberFieldDesc
    basis: tuple        # NFElem rows, triangular
    expression: tuple   # expression[i][j]: elems[i] = sum_j e_ij basis[j]


def lattice_basis(elems) -> LatticeBasis:
    """Z-module basis of the lattice spanned by the given elements, plus
    the integer matrix expressing the inputs in that basis."""
    elems = list(elems)
    if not elems:
        raise CharsumError("need at least one element")
    field = elems[0].field
    if any(e.field != field for e in elems):
        raise CharsumError("elements of different fields")
    low = Lowered.univariate([c for e in elems for c in e.coords])
    deg = field.degree
    rows = [low.nums[i:i + deg] for i in range(0, len(low.nums), deg)]
    h = hnf(rows)
    if not h:
        raise CharsumError("all elements are zero")
    basis = tuple(NFElem(field, [Fraction(a, low.den) for a in row])
                  for row in h)
    expression = []
    for row in rows:
        coords = _express_in_hnf(row, h)
        if coords is None:
            raise CharsumError("hnf expression failed")
        expression.append(tuple(coords))
    return LatticeBasis(field=field, basis=basis, expression=tuple(expression))


def qlin_relations(elems):
    """Primitive integer basis of the Q-linear relations
    sum_i a_i elems[i] = 0, by exact nullspace computation."""
    elems = list(elems)
    if not elems:
        return ()
    deg = elems[0].field.degree
    k = len(elems)
    # columns of m are the elements; relations are the nullspace
    m = [[elems[i].coords[r] for i in range(k)] for r in range(deg)]
    pivots, _ = gauss_jordan(m)
    free = [c for c in range(k) if c not in pivots]
    relations = []
    for fc in free:
        vec = [Fraction(0)] * k
        vec[fc] = Fraction(1)
        for r, pc in enumerate(pivots):
            vec[pc] = -m[r][fc]
        ints = primitive_integers(vec)
        lead = next(v for v in ints if v)
        if lead < 0:
            ints = [-v for v in ints]
        relations.append(tuple(ints))
    return tuple(relations)


@dataclass(frozen=True)
class RationalAnnotation:
    index: int            # which basis element
    value: Fraction       # the rational a/n it equals
    values: tuple         # ((Angle, galois_exponent), ...) allowed pairs


@dataclass(frozen=True)
class ValueSetDesc:
    lattice: LatticeBasis
    exponents: tuple      # same matrix as lattice.expression
    annotations: tuple    # RationalAnnotation for rational basis elements


def value_set(elems, sp_mode=False) -> ValueSetDesc:
    """Multiplicative description of the joint character values on the
    given elements: each input value is a monomial in the basis values
    with the listed integer exponents.

    With sp_mode, rational basis entries a/n carry the finite list of
    allowed values: angle (t*a mod n)/n paired with the residue
    k = -inverse(t) mod n that selects it.
    """
    lat = lattice_basis(elems)
    annotations = []
    if sp_mode:
        for j, b in enumerate(lat.basis):
            if not b.is_rational():
                continue
            a = b.rational_value()
            n = a.denominator
            if n == 1:
                annotations.append(RationalAnnotation(
                    index=j, value=a, values=((Angle(0), 0),)))
                continue
            pairs = []
            for t in range(1, n):
                if gcd(t, n) != 1:
                    continue
                angle = Angle(Fraction((t * a.numerator) % n, n))
                k = (-pow(t, -1, n)) % n
                pairs.append((angle, k))
            annotations.append(RationalAnnotation(
                index=j, value=a, values=tuple(pairs)))
    return ValueSetDesc(lattice=lat, exponents=lat.expression,
                        annotations=tuple(annotations))
