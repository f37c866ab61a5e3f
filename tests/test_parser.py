from fractions import Fraction

import pytest

from charsum import MPoly, parse_polynomial, poly_to_string, print_polynomial
from charsum.errors import CharsumError, ParseError
from charsum.parser import univariate


def test_basic_parse():
    pe = parse_polynomial("x^2 + 2*x + 1")
    assert pe.variables == ("x",)
    assert pe.poly.univariate_coeffs() == [Fraction(1), Fraction(2),
                                           Fraction(1)]


def test_variables_are_sorted():
    pe = parse_polynomial("y + x + a")
    assert pe.variables == ("a", "x", "y")


def test_rational_coefficients():
    pe = parse_polynomial("1/2*x - 3/4")
    assert pe.poly.univariate_coeffs() == [Fraction(-3, 4), Fraction(1, 2)]


def test_leading_minus_and_parentheses():
    pe = parse_polynomial("-(x - 1)*(x + 1)")
    assert pe.poly.univariate_coeffs() == [Fraction(1), Fraction(0),
                                           Fraction(-1)]


def test_power_binds_tighter_than_product():
    pe = parse_polynomial("2*x^3")
    assert pe.poly.univariate_coeffs() == [0, 0, 0, 2]
    pe = parse_polynomial("(2*x)^3")
    assert pe.poly.univariate_coeffs() == [0, 0, 0, 8]


def test_juxtaposition_is_rejected():
    with pytest.raises(ParseError):
        parse_polynomial("2x")
    with pytest.raises(ParseError):
        parse_polynomial("x y")


def test_malformed_inputs():
    for bad in ("", "x +", "x ^ y", "x^-2", "(x", "x)", "3/0", "x & y",
                "^2", "x^"):
        with pytest.raises(ParseError):
            parse_polynomial(bad)


def test_exponent_cap():
    with pytest.raises(ParseError):
        parse_polynomial("x^4294967296")


def test_declared_variables_pin_table():
    pe = parse_polynomial("y", variables=("x", "y"))
    assert pe.variables == ("x", "y")
    assert pe.poly.nvars == 2
    with pytest.raises(ParseError):
        parse_polynomial("z", variables=("x", "y"))


def test_print_round_trip():
    for text in ("x^2 + 2*x + 1", "3*x*y - y^2 + 1/2", "-x + 1",
                 "x^4 - 10*x^2 + 1", "2/3"):
        pe = parse_polynomial(text)
        printed = print_polynomial(pe)
        again = parse_polynomial(printed, variables=pe.variables)
        assert again.poly == pe.poly
        # printing is idempotent on its own output
        assert print_polynomial(again) == printed


def test_canonical_string_details():
    assert print_polynomial(parse_polynomial("1*x + 0")) == "x"
    assert print_polynomial(parse_polynomial("x - x")) == "0"
    assert print_polynomial(parse_polynomial("0 - x - 1")) == "-x - 1"
    assert poly_to_string(MPoly(2, {(1, 1): Fraction(-1, 2)}),
                          ("u", "v")) == "-1/2*u*v"


def test_expression_equality_ignores_spelling():
    assert parse_polynomial("(x+1)^2") == parse_polynomial("x^2 + 2*x + 1")
    assert parse_polynomial("x + 0*y") != parse_polynomial("x + y")
    # unused names do not count
    assert parse_polynomial("x + 0*y") == parse_polynomial("x")


def test_one_reader_for_one_variable_inputs():
    cubic = [Fraction(1), Fraction(1), Fraction(0), Fraction(1)]
    for f in ("y^3 + y + 1", "y^3 + y + 1 + 0*x", "x^3 + x + 1",
              parse_polynomial("t^3 + t + 1"),
              parse_polynomial("y^3 + y + 1", variables=("a", "y", "z")).poly,
              [1, 1, 0, 1], (Fraction(1), 1, 0, Fraction(1))):
        assert univariate(f) == cubic
    # a constant, the zero polynomial included, is a one-entry list
    assert univariate("5") == [5]
    assert univariate("x - x") == [0]
    assert univariate(MPoly.constant(Fraction(1, 2), 3)) == [Fraction(1, 2)]
    assert all(type(c) is Fraction for c in univariate([1, 2]))
    with pytest.raises(CharsumError, match="not univariate"):
        univariate("x*y + 1")
    with pytest.raises(CharsumError, match="cannot read the element"):
        univariate(7, what="the element")
    with pytest.raises(ParseError):
        univariate("x^")
