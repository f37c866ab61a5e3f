"""Laurent polynomials on the n-torus with complex-rational coefficients.

Coefficients are stored as exact (real, imaginary) Fraction pairs keyed by
integer exponent vectors, so the real-mode validation (coefficient at -m
equals the conjugate of the one at m) is a strict equality, not a float
comparison.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from .angles import character_values
from .errors import CharsumError
from .parser import parse_polynomial


def _coeff(c):
    if isinstance(c, tuple):
        re, im = c
        return (Fraction(re), Fraction(im))
    if isinstance(c, complex):
        raise TypeError("pass complex-rational coefficients as (re, im) "
                        "Fraction pairs")
    return (Fraction(c), Fraction(0))


class LaurentPoly:
    __slots__ = ("nvars", "terms")

    def __init__(self, nvars, terms):
        self.nvars = nvars
        cleaned = {}
        for m, c in terms.items():
            m = tuple(int(e) for e in m)
            if len(m) != nvars:
                raise CharsumError("exponent vector length mismatch")
            c = _coeff(c)
            if c != (0, 0):
                cleaned[m] = c
        self.terms = cleaned

    def has_constant_term(self):
        return (0,) * self.nvars in self.terms

    def is_real_mode(self):
        """Real-valued on the torus: coeff(-m) == conj(coeff(m)) exactly."""
        for m, (re, im) in self.terms.items():
            neg = tuple(-e for e in m)
            if self.terms.get(neg) != (re, -im):
                return False
        return True

    def coeff_abs_sum(self) -> float:
        return math.fsum(math.hypot(float(re), float(im))
                         for re, im in self.terms.values())

    def sorted_terms(self):
        return sorted(self.terms.items())

    def eval_real_on_residues(self, mat, p) -> np.ndarray:
        """Real values of h(Psi(x_1), ..., Psi(x_n)) for the rows x of
        mat, an (N, n) int array of residues; requires real mode.  All
        exponent vectors, reduced mod p, meet the points in one matrix
        product.  The caller checks p against the table budget before it
        builds mat."""
        if not self.is_real_mode():
            raise CharsumError("Laurent polynomial is not real-valued")
        if mat.shape[1] != self.nvars:
            raise CharsumError("points have %d coordinates, h has %d "
                               "variables" % (mat.shape[1], self.nvars))
        terms = self.sorted_terms()
        exps = np.array([m for m, _ in terms], dtype=np.int64)
        # (terms, points)
        dots = (exps.reshape(-1, self.nvars) % p) @ mat.T % p
        total = np.zeros(len(mat), dtype=np.complex128)
        for (_, (re, im)), row in zip(terms, dots):
            total += complex(float(re), float(im)) * character_values(row, p)
        return total.real


def laurent_from_expression(text, nvars=None) -> LaurentPoly:
    """Build a LaurentPoly from an expression in z1..zn (coordinates) and
    zb1..zbn (their conjugates); rational coefficients only."""
    pe = parse_polynomial(text)
    names = pe.variables
    indices = {}
    for name in names:
        bar = name.startswith("zb")
        body = name[2:] if bar else name[1:]
        if not (name.startswith("z") and body.isdigit() and int(body) >= 1):
            raise CharsumError("Laurent variables must be z1.. and zb1.., "
                               "got %r" % name)
        indices[name] = (int(body) - 1, -1 if bar else 1)
    if nvars is None:
        nvars = max((i + 1 for i, _ in indices.values()), default=1)
    terms = {}
    for expts, c in pe.poly.terms.items():
        m = [0] * nvars
        for name, e in zip(names, expts):
            i, sign = indices[name]
            if i >= nvars:
                raise CharsumError("variable %r exceeds nvars=%d"
                                   % (name, nvars))
            m[i] += sign * e
        m = tuple(m)
        re, im = terms.get(m, (Fraction(0), Fraction(0)))
        terms[m] = (re + c, im)
    return LaurentPoly(nvars, terms)
