"""Polynomial expression parsing and canonical printing.

Grammar (juxtaposition is NOT multiplication; '*' is required):

    expr     := ['-'] term (('+' | '-') term)*
    term     := factor ('*' factor)*
    factor   := base ('^' nat)?
    base     := rational | var | '(' expr ')'
    rational := nat ('/' nat)?
    var      := letter (letter | digit | '_')*

The optional leading '-' is the only extension over the stated grammar;
canonical printing never emits anything the grammar cannot re-read.
Numbers are decimal.  The parse is one loop over the token list with an
explicit stack of open parentheses, so neither the length nor the nesting
depth of an expression is limited; it runs once to check the tokens and
once to build the polynomial.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import CharsumError, ParseError
from .mpoly import MPoly

EXPONENT_CAP = 1 << 32
POWER_CAP = 1 << 24  # terms x max(coefficient bits, 64) of one power


@dataclass(frozen=True)
class PolyExpr:
    """A parsed polynomial together with its variable name table."""
    source: str
    poly: MPoly
    variables: tuple

    def __eq__(self, other):
        if not isinstance(other, PolyExpr):
            return NotImplemented
        return _normal_form(self) == _normal_form(other)

    def __hash__(self):
        return hash(_normal_form(self))


def _normal_form(pe):
    poly, kept = pe.poly.drop_unused_variables()
    names = tuple(pe.variables[i] for i in kept)
    return (names, poly.nvars, frozenset(poly.terms.items()))


def _tokens(text):
    """The (kind, text, offset) tokens of `text`.  The list ends with
    ("end", "", len(text)), or with ("bad", ch, offset) at the first
    character that starts no token; that one raises only when the parse
    reaches it, so the first error in reading order is the one reported."""
    out, i, n = [], 0, len(text)
    while True:
        while i < n and text[i].isspace():
            i += 1
        if i == n:
            out.append(("end", "", n))
            return out
        start, ch = i, text[i]
        if ch.isdigit():
            while i < n and text[i].isdigit():
                i += 1
            kind = "nat"
        elif ch.isalpha():
            while i < n and (text[i].isalnum() or text[i] == "_"):
                i += 1
            kind = "name"
        elif ch in "+-*/^()":
            i, kind = i + 1, ch
        else:
            out.append(("bad", ch, start))
            return out
        out.append((kind, text[start:i], start))


def _token(tokens, i):
    kind, text, pos = tok = tokens[i]
    if kind == "bad":
        raise ParseError("unexpected character %r" % text, pos)
    return tok


def _nat(text, pos):
    """The value of a digits token.  '²' is a digit to the tokenizer, so
    in "x ²" it is reported as trailing input; only a number the grammar
    reads must be decimal."""
    if not text.isdecimal():
        raise ParseError("not a decimal number %r" % text, pos)
    try:
        return int(text)
    except ValueError:  # more digits than int() converts
        raise ParseError("number too long: %d digits" % len(text),
                         pos) from None


def _sum(polys, nvars):
    """The sum of `polys`, merged in one pass over their terms."""
    if len(polys) == 1:
        return polys[0]
    terms = {}
    for poly in polys:
        for expts, c in poly.terms.items():
            terms[expts] = terms.get(expts, 0) + c
    return MPoly(nvars, terms)


def _check_power(base, e, pos):
    """Refuses base^e before it is multiplied out when a bound on its
    size, terms x max(coefficient bits, 64), exceeds POWER_CAP.  A power
    of t terms has at most C(t+e-1, e) terms, and at most
    prod_v (e deg_v + 1), one per exponent vector in its box.  With the
    coefficients written g_i / D over their common denominator, each of
    its coefficients is a sum of products over D^e of magnitude at most
    (sum |g_i|)^e / D^e, so its numerator and denominator take at most
    e log2(D sum |g_i|) bits.  This bounds memory, not time."""
    terms = base.terms
    if e < 2 or not terms:
        return
    count = 1
    if len(terms) > 1:
        count = math.prod(e * max(col) + 1 for col in zip(*terms))
        k = min(e, len(terms) - 1)
        if k < count.bit_length():  # else C(t+e-1, k) >= 2^k > count
            count = min(count, math.comb(len(terms) + e - 1, k))
    den = math.lcm(*(c.denominator for c in terms.values()))
    height = sum(abs(c.numerator) * (den // c.denominator)
                 for c in terms.values()) * den
    bits = e * math.log2(height)
    # an int compared with a float is exact, where count * bits could
    # overflow a float
    if count > POWER_CAP / max(bits, 64):
        shown = count if count < 1 << 53 else "2^%d" % count.bit_length()
        raise ParseError("power too large to expand: up to %s terms of "
                         "%d bits" % (shown, math.ceil(bits)), pos)


def _read(tokens, index, nvars, build):
    """The polynomial the tokens spell.  With `build` false the same walk
    only checks them and builds nothing, so the first error is raised
    before any expansion, however large, is begun."""
    # Each open parenthesis saves the enclosing sum: its finished terms,
    # the sign of its current term and that term's product so far.
    stack, terms, sign, product = [], [], 1, None
    i, opening = 0, True  # at the start of a sum, where a '-' may stand
    while True:
        kind, tok, pos = _token(tokens, i)
        i += 1
        if opening and kind == "-":
            sign, opening = -1, False
            continue
        opening = kind == "("
        if opening:
            stack.append((terms, sign, product))
            terms, sign, product = [], 1, None
            continue
        if kind == "nat":
            den = 1
            if _token(tokens, i)[0] == "/":
                dkind, dtext, dpos = _token(tokens, i + 1)
                if dkind != "nat":
                    raise ParseError("expected a denominator", dpos)
                den = _nat(dtext, dpos)
                if den == 0:
                    raise ParseError("zero denominator", dpos)
                i += 2
            value = Fraction(_nat(tok, pos), den)
            base = MPoly.constant(value, nvars) if build else None
        elif kind == "name":
            if tok not in index:
                raise ParseError("unknown variable %r" % tok, pos)
            base = MPoly.variable(index[tok], nvars) if build else None
        else:
            raise ParseError("expected a rational, a variable or '('", pos)
        while True:  # after a base; each ')' closes a sum into a new base
            kind, tok, pos = _token(tokens, i)
            if kind == "^":
                kind, tok, pos = _token(tokens, i + 1)
                if kind != "nat":
                    raise ParseError("expected a natural number exponent",
                                     pos)
                e = _nat(tok, pos)
                if e >= EXPONENT_CAP:
                    raise ParseError("exponent %d exceeds cap 2^32" % e, pos)
                if build:
                    _check_power(base, e, pos)
                    base = base ** e
                i += 2
                kind, tok, pos = _token(tokens, i)
            if build:
                product = base if product is None else product * base
                if kind != "*":  # the term is finished
                    terms.append(product if sign > 0 else -product)
            if kind == "*":
                i += 1
                break
            if kind in ("+", "-"):
                sign, product, i = (1 if kind == "+" else -1), None, i + 1
                break
            if not stack and kind != "end":
                raise ParseError("unexpected trailing input %r" % tok, pos)
            if stack and kind != ")":
                raise ParseError("expected ')'", pos)
            base = _sum(terms, nvars)
            if not stack:
                return base
            i += 1
            terms, sign, product = stack.pop()


def _names(tokens):
    return {text for kind, text, _ in tokens if kind == "name"}


def variable_names(text):
    """The set of variable names in `text`, read off its tokens without
    parsing it: the names `parse_polynomial(text)` would collect."""
    return _names(_tokens(text))


def parse_polynomial(text, variables=None) -> PolyExpr:
    """Parse an expression into a PolyExpr.

    With `variables` the name table and its ordering are pinned (unknown
    names are errors); otherwise names are collected and sorted.
    """
    tokens = _tokens(text)
    if variables is None:
        names = tuple(sorted(_names(tokens)))
    else:
        names = tuple(variables)
    index = {name: i for i, name in enumerate(names)}
    _read(tokens, index, len(names), build=False)
    return PolyExpr(text, _read(tokens, index, len(names), True), names)


def univariate(f, what="polynomial"):
    """Little-endian Fraction coefficients of a one-variable input: text,
    a PolyExpr, an MPoly or a sequence of rationals.  An MPoly's unused
    variables are dropped first, so its one variable may be any of them
    and a constant is a one-entry list; a second variable is an error."""
    if isinstance(f, str):
        f = parse_polynomial(f)
    if isinstance(f, PolyExpr):
        f = f.poly
    if isinstance(f, MPoly):
        f, _ = f.drop_unused_variables()
        return f.univariate_coeffs() if f.nvars else [f.constant_value()]
    try:
        return [Fraction(c) for c in f]
    except TypeError:
        raise CharsumError("cannot read %s from %r" % (what, f))


def _fmt_coeff(c: Fraction) -> str:
    if c.denominator == 1:
        return str(c.numerator)
    return "%d/%d" % (c.numerator, c.denominator)


def poly_to_string(poly: MPoly, variables) -> str:
    """Canonical form: descending graded-lex terms, explicit '*', '^' for
    exponents > 1, no redundant unit coefficients."""
    if poly.is_zero():
        return "0"
    pieces = []
    for expts, coeff in poly.sorted_terms():
        factors = []
        for name, e in zip(variables, expts):
            if e == 1:
                factors.append(name)
            elif e > 1:
                factors.append("%s^%d" % (name, e))
        mag = abs(coeff)
        if not factors or mag != 1:
            factors.insert(0, _fmt_coeff(mag))
        body = "*".join(factors)
        if not pieces:
            pieces.append(body if coeff > 0 else "-" + body)
        else:
            pieces.append((" + " if coeff > 0 else " - ") + body)
    return "".join(pieces)


def print_polynomial(pe: PolyExpr) -> str:
    return poly_to_string(pe.poly, pe.variables)
