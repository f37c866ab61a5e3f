"""Plain scalar evaluators and the exact-angle sum the tests check the
package's kernels against, the exact resultant and discriminant that the
squarefree test mod p is checked against, and the converter to JSON's
own types that the report writer is checked against; none of them is
reached by the package itself."""

import dataclasses
from fractions import Fraction

import numpy as np

from charsum.angles import Angle
from charsum.mpoly import frac_mod, gauss_jordan, poly_derivative, poly_trim
from charsum.points import _field_coeffs
from charsum.rootsums import psi_sum


def eval_mod(f, p, point):
    """f at a residue tuple mod p, term by term; BadPrimeError when p
    divides a coefficient's denominator."""
    total = 0
    for e, c in f.terms.items():
        t = frac_mod(c, p)
        for x, k in zip(point, e):
            if k:
                t = t * pow(int(x), k, p) % p
        total = (total + t) % p
    return total


def exp_sum_points(points, f, char):
    """Sum of Psi(f(x)) over an explicit point set: each value an exact
    angle, the real and imaginary parts summed with math.fsum."""
    field = char.field
    coeff = _field_coeffs(field, [f])
    return psi_sum([f.evaluate([field.element(v) for v in x], coeff)
                    for x in points], char)


def resultant(f, g):
    """Resultant of two rational univariate polynomials: the determinant
    of their Sylvester matrix (f0^m when f = f0 is constant and g has
    degree m)."""
    f = [Fraction(c) for c in poly_trim(f)]
    g = [Fraction(c) for c in poly_trim(g)]
    n, m = len(f) - 1, len(g) - 1
    if n < 0 or m < 0:
        return Fraction(0)
    zero = [Fraction(0)]
    rows = ([zero * i + f[::-1] + zero * (m - 1 - i) for i in range(m)]
            + [zero * i + g[::-1] + zero * (n - 1 - i) for i in range(n)])
    pivots, det = gauss_jordan(rows)
    return det if len(pivots) == n + m else Fraction(0)


def discriminant(f):
    """Discriminant of a rational univariate polynomial of degree >= 1."""
    f = poly_trim([Fraction(c) for c in f])
    d = len(f) - 1
    if d == 1:
        return Fraction(1)
    res = resultant(f, poly_derivative(f))
    sign = -1 if (d * (d - 1) // 2) % 2 else 1
    return sign * res / f[-1]


def jsonable(obj):
    """obj as JSON's own types, converted as `report.write_json` encodes
    it: complex as {"re", "im"}, Fraction and Angle as "a/b", numpy values
    by their Python equivalents, dataclasses as dicts of their fields."""
    if obj is None or isinstance(obj, (bool, int, float, str)):
        return obj
    if isinstance(obj, np.bool_):
        return bool(obj)
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.floating):
        return float(obj)
    if isinstance(obj, (complex, np.complexfloating)):
        return {"re": float(obj.real), "im": float(obj.imag)}
    if isinstance(obj, Angle):
        obj = obj.frac
    if isinstance(obj, Fraction):
        return "%d/%d" % (obj.numerator, obj.denominator)
    if isinstance(obj, dict):
        return {k: jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple, np.ndarray)):
        return [jsonable(v) for v in obj]
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {f.name: jsonable(getattr(obj, f.name))
                for f in dataclasses.fields(obj)}
    raise TypeError("cannot convert %r" % type(obj))
