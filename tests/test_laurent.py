import cmath
from fractions import Fraction

import numpy as np
import pytest

from charsum import Angle, LaurentPoly, laurent_from_expression
from charsum.errors import CharsumError


def eval_at_angles(h, angles) -> complex:
    """h at the points e(a) of exact angles a, term by term: the oracle
    for the vectorized values."""
    total = 0j
    for m, (re, im) in h.sorted_terms():
        theta = Angle(0)
        for a, e in zip(angles, m):
            if e:
                theta = theta + a * e
        total += complex(float(re), float(im)) * theta.to_complex()
    return total


def test_expression_parsing_maps_zb_to_inverse():
    h = laurent_from_expression("z1 + zb1")
    assert h.nvars == 1
    assert h.terms == {(1,): (1, 0), (-1,): (1, 0)}
    h2 = laurent_from_expression("2*z1*zb2 - 3")
    assert h2.nvars == 2
    assert h2.terms == {(1, -1): (2, 0), (0, 0): (-3, 0)}


def test_variable_name_validation():
    with pytest.raises(CharsumError):
        laurent_from_expression("w1 + z1")
    with pytest.raises(CharsumError):
        laurent_from_expression("z0")
    with pytest.raises(CharsumError):
        laurent_from_expression("z2", nvars=1)


def test_cancellation_of_z_zb_products():
    h = laurent_from_expression("z1*zb1")
    assert h.terms == {(0,): (1, 0)}
    assert h.has_constant_term()


def test_real_mode_detection():
    assert laurent_from_expression("z1 + zb1").is_real_mode()
    assert laurent_from_expression("-z1 - zb1").is_real_mode()
    assert laurent_from_expression("z1*z2 + zb1*zb2").is_real_mode()
    assert not laurent_from_expression("z1").is_real_mode()
    assert not laurent_from_expression("z1 + 2*zb1").is_real_mode()
    # complex coefficients in conjugate pairs count as real mode
    h = LaurentPoly(1, {(1,): (Fraction(0), Fraction(1)),
                        (-1,): (Fraction(0), Fraction(-1))})
    assert h.is_real_mode()


def test_constant_term_and_coefficient_sum():
    h = laurent_from_expression("z1^3 + zb1^3 + z1 + zb1")
    assert not h.has_constant_term()
    assert h.coeff_abs_sum() == 4.0


def test_eval_at_angles_matches_direct_formula():
    h = laurent_from_expression("z1^2 + zb1^2 + 3*z1*zb2")
    a1 = Angle(Fraction(1, 7))
    a2 = Angle(Fraction(2, 5))
    z1 = cmath.exp(2j * cmath.pi / 7)
    z2 = cmath.exp(4j * cmath.pi / 5)
    direct = z1 ** 2 + z1 ** -2 + 3 * z1 / z2
    assert abs(eval_at_angles(h, (a1, a2)) - direct) < 1e-12


def test_eval_real_on_residues_matches_pointwise():
    h = laurent_from_expression("z1 + zb1 + z1*z2 + zb1*zb2")
    p = 13
    mat = np.array([(x, y) for x in range(p) for y in range(p)],
                   dtype=np.int64)
    vals = h.eval_real_on_residues(mat, p)
    for row, got in zip(mat, vals):
        angles = (Angle(Fraction(int(row[0]), p)),
                  Angle(Fraction(int(row[1]), p)))
        expect = eval_at_angles(h, angles)
        assert abs(expect.imag) < 1e-12
        assert abs(got - expect.real) < 1e-12


def test_eval_real_requires_real_mode():
    h = laurent_from_expression("z1")
    with pytest.raises(CharsumError):
        h.eval_real_on_residues(np.zeros((1, 1), dtype=np.int64), 5)


def test_complex_literal_coefficients_rejected():
    with pytest.raises(TypeError):
        LaurentPoly(1, {(1,): 1j})
