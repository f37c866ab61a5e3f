"""Character sums over the roots of monic polynomials, and the
common-value function kappa.

A term of degree n is the coefficient tuple (c_1, ..., c_n) of the monic
polynomial x^n + c_1 x^{n-1} + ... + c_n; its value under a character is
the sum of Psi over the field-rational roots, with multiplicity (roots
outside the field contribute nothing).  The algebraic closure laws below
(negate-odd-coefficients for conjugation, polynomial product for addition
of values, root-sum multisets for multiplication) are what make these
terms a term algebra rather than a bag of numbers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .angles import CharacterDesc
from .errors import CharsumError
from .ffield import ExtFieldDesc
from .mpoly import MPoly, poly_mul
from .polyroots import poly_roots_fq


@dataclass(frozen=True)
class PsiSymTerm:
    """Immutable: field descriptor plus (c_1, ..., c_n); degree 0 is the
    empty product (value 0: no roots)."""

    field: ExtFieldDesc
    coeffs: tuple

    def __post_init__(self):
        object.__setattr__(self, "coeffs",
                           tuple(self.field.element(c) for c in self.coeffs))

    @property
    def degree(self):
        return len(self.coeffs)

    def monic_poly(self):
        """Little-endian FqElem list of x^n + c_1 x^{n-1} + ... + c_n."""
        return list(self.coeffs[::-1]) + [self.field.one()]


def make_term(field, coeffs) -> PsiSymTerm:
    return PsiSymTerm(field, tuple(coeffs))


def _term_of(field, monic) -> PsiSymTerm:
    """The term of a little-endian monic polynomial (monic_poly's
    inverse)."""
    return PsiSymTerm(field, tuple(monic[-2::-1]))


def rational_roots(term: PsiSymTerm) -> list:
    """Field-rational roots with multiplicity, canonical order."""
    if term.degree == 0:
        return []
    return poly_roots_fq(term.monic_poly(), term.field)


def psi_sum(roots, char: CharacterDesc) -> complex:
    """Sum of Psi over a root multiset, each part summed exactly."""
    res, ims = [], []
    for r in roots:
        z = char.psi(r).to_complex()
        res.append(z.real)
        ims.append(z.imag)
    return complex(math.fsum(res), math.fsum(ims))


def psisym_eval(term: PsiSymTerm, char: CharacterDesc) -> complex:
    if char.field != term.field:
        raise CharsumError("character and term live over different fields")
    return psi_sum(rational_roots(term), char)


def psisym_conj(term: PsiSymTerm) -> PsiSymTerm:
    """The term whose roots are the negatives: c_i -> (-1)^i c_i.  Its
    value is the complex conjugate of the original's."""
    out = []
    for i, c in enumerate(term.coeffs, start=1):
        out.append(-c if i % 2 else c)
    return PsiSymTerm(term.field, tuple(out))


def psisym_add(t1: PsiSymTerm, t2: PsiSymTerm) -> PsiSymTerm:
    """Degree n+m term whose monic polynomial is the product; the root
    multiset is the disjoint union, so values add."""
    if t1.field != t2.field:
        raise CharsumError("terms live over different fields")
    return _term_of(t1.field, poly_mul(t1.monic_poly(), t2.monic_poly()))


def psisym_mul(t1: PsiSymTerm, t2: PsiSymTerm) -> PsiSymTerm:
    """Term whose roots are all pairwise sums of the two field-rational
    root multisets.  Because rational roots are closed under addition,
    psisym_eval multiplies across this operation (Psi is additive-to-
    multiplicative)."""
    if t1.field != t2.field:
        raise CharsumError("terms live over different fields")
    field = t1.field
    roots1, roots2 = rational_roots(t1), rational_roots(t2)
    poly = [field.one()]
    for a in roots1:
        for b in roots2:
            poly = poly_mul(poly, [-(a + b), field.one()])
    return _term_of(field, poly)


def kappa_eval(P: MPoly, Q: MPoly, b, field: ExtFieldDesc, root_var=None):
    """The common Q-value over the roots of P(b, .), else zero.

    P and Q are polynomials in parameter variables plus one root variable
    (the last one unless root_var says otherwise).  Returns an FqElem: the
    constant c with Q(b, d) = c for every root d of P(b, .) in the field,
    when at least one root exists and the value does not depend on the
    root; otherwise the field's zero (the definable default).
    """
    if P.nvars != Q.nvars:
        raise CharsumError("P and Q must share a variable table")
    n = P.nvars
    if root_var is None:
        root_var = n - 1
    b = [field.element(v) for v in b]
    if len(b) != n - 1:
        raise CharsumError("expected %d parameter values" % (n - 1))

    def at(d):
        """The point b with d inserted as the root variable."""
        return b[:root_var] + [d] + b[root_var:]

    # the coefficient polynomials do not involve the root variable, so
    # any placeholder root will do
    p_coeffs = [c.evaluate(at(field.zero()), field.rational)
                for c in P.as_univariate_in(root_var)]
    while p_coeffs and p_coeffs[-1].is_zero():
        p_coeffs.pop()
    if not p_coeffs:
        raise CharsumError("P(b, .) is the zero polynomial")
    if len(p_coeffs) == 1:
        return field.zero()  # no roots: constant nonzero polynomial
    roots = poly_roots_fq(p_coeffs, field)
    if not roots:
        return field.zero()
    values = [Q.evaluate(at(d), field.rational) for d in set(roots)]
    first = values[0]
    if all(v == first for v in values):
        return first
    return field.zero()
