"""The parser's exact error reports, expressions built in step with their
polynomials, and inputs too long or too deep for a recursive parser."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from charsum import MPoly, parse_polynomial, parser
from charsum.errors import ParseError

# (input, message, offset) of the first error in reading order
MALFORMED = [
    ("", "expected a rational, a variable or '('", 0),
    ("x +", "expected a rational, a variable or '('", 3),
    ("x ^ y", "expected a natural number exponent", 4),
    ("x^-2", "expected a natural number exponent", 2),
    ("(x", "expected ')'", 2),
    ("x)", "unexpected trailing input ')'", 1),
    ("3/0", "zero denominator", 2),
    ("x & y", "unexpected character '&'", 2),
    ("^2", "expected a rational, a variable or '('", 0),
    ("x^", "expected a natural number exponent", 2),
    ("2x", "unexpected trailing input 'x'", 1),
    ("x y", "unexpected trailing input 'y'", 2),
    ("x^2^3", "unexpected trailing input '^'", 3),
    ("(x^2^3)", "expected ')'", 4),
    ("--x", "expected a rational, a variable or '('", 1),
    ("x*-y", "expected a rational, a variable or '('", 2),
    ("x^(2)", "expected a natural number exponent", 2),
    ("x + + $", "expected a rational, a variable or '('", 4),
    ("3/x", "expected a denominator", 2),
    ("x^4294967296", "exponent 4294967296 exceeds cap 2^32", 2),
    ("(x))", "unexpected trailing input ')'", 3),
    ("1/2/3", "unexpected trailing input '/'", 3),
    ("(2*x)^4000000000",
     "power too large to expand: up to 1 terms of 4000000000 bits", 6),
    ("(x+1)^4000000000", "power too large to expand: up to 4000000001 "
                         "terms of 4000000000 bits", 6),
]


@pytest.mark.parametrize("text,message,offset", MALFORMED,
                         ids=[repr(t) for t, _, _ in MALFORMED])
def test_malformed_input_message_and_offset(text, message, offset):
    with pytest.raises(ParseError) as info:
        parse_polynomial(text)
    assert str(info.value) == "%s (at offset %d)" % (message, offset)
    assert info.value.position == offset


def test_unknown_variable_in_a_pinned_table():
    with pytest.raises(ParseError) as info:
        parse_polynomial("x + z", variables=("x", "y"))
    assert str(info.value) == "unknown variable 'z' (at offset 4)"


@pytest.mark.parametrize("text,message,offset", [
    ("x^²", "not a decimal number '²'", 2),
    ("1²", "not a decimal number '1²'", 0),
    ("x ²", "unexpected trailing input '²'", 2),
    ("x^" + "9" * 5000, "number too long: 5000 digits", 2),
])
def test_numbers_are_decimal_and_convertible(text, message, offset):
    with pytest.raises(ParseError) as info:
        parse_polynomial(text)
    assert str(info.value) == "%s (at offset %d)" % (message, offset)


def test_an_error_after_a_huge_power_is_reported_before_expanding():
    # the tokens are checked before anything is multiplied out
    with pytest.raises(ParseError, match="unexpected character"):
        parse_polynomial("(x + y + 1)^4000000000 + $")


def test_power_guard_bounds_terms_times_bits():
    # (x+1)^e has e+1 terms of e bits: (e+1) max(e, 64) <= 2^24 up to 4095
    base = parse_polynomial("x + 1").poly
    parser._check_power(base, 4095, 0)
    with pytest.raises(ParseError, match="4097 terms of 4096 bits"):
        parser._check_power(base, 4096, 0)
    # about 6.8e5: 81^2 exponent vectors of up to 40 log2(6) bits
    parser._check_power(parse_polynomial("x^2+x*y+y^2+3").poly, 40, 0)
    # C(103, 3) monomials beat the 101^3 box; 40 terms in one variable
    # to a huge power are bounded by the box, C(t+e-1, t-1) >= 2^39
    with pytest.raises(ParseError, match="up to 176851 terms of 200 bits"):
        parser._check_power(parse_polynomial("x+y+z+1").poly, 100, 0)
    e = (1 << 32) - 1
    with pytest.raises(ParseError, match="up to %d terms" % (39 * e + 1)):
        parser._check_power(MPoly.from_univariate([1] * 40), e, 0)
    # C(e+1199, 1199) terms overflow a float: shown as a power of two
    many = "(" + "+".join("a%d" % k for k in range(1200)) + ")^4000000000"
    with pytest.raises(ParseError, match=r"up to 2\^\d+ terms of \d+ bits"):
        parse_polynomial(many)
    # one term of no bits, and a constant
    assert parse_polynomial("x^4000000000").poly.terms == {(4000000000,): 1}
    assert parse_polynomial("(-1)^5000").poly.terms == {(): 1}


NAMES = ("x", "y", "z1", "t_2")


@st.composite
def expressions(draw):
    """(text, table, names used, polynomial over table), drawn together:
    each piece of text is drawn with the MPoly it must parse to."""
    table = tuple(draw(st.permutations(NAMES + ("w",))))
    n = len(table)
    used = set()
    space = st.sampled_from(["", " ", "  ", "\t"])

    def factor(depth):
        kind = draw(st.sampled_from(("rational", "var", "paren")[:2 + (
            depth > 0)]))
        if kind == "rational":
            num = draw(st.integers(0, 10 ** 20))
            den = draw(st.integers(1, 12))
            if den == 1 and draw(st.booleans()):
                text = str(num)
            else:
                text = "%d%s/%s%d" % (num, draw(space), draw(space), den)
            value = MPoly.constant(Fraction(num, den), n)
        elif kind == "var":
            name = draw(st.sampled_from(NAMES))
            used.add(name)
            text, value = name, MPoly.variable(table.index(name), n)
        else:
            inner, value = expr(depth - 1)
            text = "(" + draw(space) + inner + draw(space) + ")"
        if draw(st.booleans()):
            e = draw(st.integers(0, 3))
            text += "%s^%s%d" % (draw(space), draw(space), e)
            value = value ** e
        return text, value

    def expr(depth):
        total = MPoly(n, {})
        text = ""
        for k in range(draw(st.integers(1, 3))):
            sign = draw(st.sampled_from((1, -1)))
            if k == 0:
                text += "-" + draw(space) if sign < 0 else ""
            else:
                text += draw(space) + "+-"[sign < 0] + draw(space)
            pieces, product = [], MPoly.constant(1, n)
            for _ in range(draw(st.integers(1, 3))):
                piece, value = factor(depth)
                pieces.append(piece)
                product = product * value
            text += (draw(space) + "*" + draw(space)).join(pieces)
            total = total + product * sign
        return text, total

    text, value = expr(draw(st.integers(0, 2)))
    return text, table, tuple(sorted(used)), value


@settings(derandomize=True, max_examples=300, deadline=None)
@given(expressions())
def test_expressions_parse_to_their_polynomials(case):
    text, table, used, value = case
    pinned = parse_polynomial(text, variables=table)
    assert pinned.variables == table and pinned.poly == value
    # unpinned, the table is the sorted names the text uses
    free = parse_polynomial(text)
    assert free.variables == used
    at = [table.index(name) for name in used]
    assert free.poly == MPoly(len(used), {tuple(e[k] for k in at): c
                                          for e, c in value.terms.items()})


def test_five_thousand_term_sum():
    text = " + ".join("%d*x^%d" % (k, k) for k in range(1, 5001))
    pe = parse_polynomial(text)
    assert pe.poly == MPoly.from_univariate(range(5001))


def test_five_thousand_nested_parentheses():
    depth = 5000
    pe = parse_polynomial("(" * depth + "x + 1" + ")" * depth + "^2")
    assert pe.poly.univariate_coeffs() == [1, 2, 1]
    # a leading minus opens every level: (-1)^5000 x = x
    pe = parse_polynomial("(-" * depth + "x" + ")" * depth)
    assert pe.poly == MPoly.variable(0, 1)
    with pytest.raises(ParseError) as info:
        parse_polynomial("(" * depth + "x" + ")" * (depth - 1))
    assert info.value.position == 2 * depth


def test_twelve_hundred_variable_product():
    names = ["a%d" % k for k in range(1, 1201)]
    pe = parse_polynomial("*".join(names))
    assert pe.variables == tuple(sorted(names))
    assert pe.poly.terms == {(1,) * 1200: 1}
