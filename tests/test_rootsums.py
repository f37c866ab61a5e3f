import random

import pytest

from charsum import (MPoly, build_extension, kappa_eval, make_term,
                     parse_polynomial, prime_field, psisym_add, psisym_conj,
                     psisym_eval, psisym_mul, rational_roots,
                     standard_character, twisted_character)
from charsum.errors import CharsumError
from charsum.rootsums import _term_of

TOL = 1e-9


def eval_by_field_scan(term, char):
    """Independent oracle: find roots by scanning the field, take
    multiplicity by synthetic division, sum character values."""
    F = term.field
    poly = term.monic_poly()
    total = 0j
    for x in F.elements():
        g = list(poly)
        while len(g) > 1:
            q = [F.zero()] * (len(g) - 1)
            acc = F.zero()
            for k in range(len(g) - 1, 0, -1):
                acc = acc * x + g[k]
                q[k - 1] = acc
            if not (acc * x + g[0]).is_zero():
                break
            total += char.psi(x).to_complex()
            g = q
    return total


def fields_under_test():
    return [prime_field(7), prime_field(13), build_extension(2, 2),
            build_extension(3, 2)]


def random_term(rng, F, maxdeg=4):
    deg = rng.randint(0, maxdeg)
    elems = list(F.elements())
    return make_term(F, tuple(rng.choice(elems) for _ in range(deg)))


def test_eval_matches_field_scan_oracle():
    rng = random.Random(61)
    for F in fields_under_test():
        char = standard_character(F)
        for _ in range(25):
            t = random_term(rng, F)
            assert abs(psisym_eval(t, char)
                       - eval_by_field_scan(t, char)) < TOL


def test_degree_zero_term_is_the_empty_sum():
    F = prime_field(5)
    t = make_term(F, ())
    assert rational_roots(t) == []
    assert psisym_eval(t, standard_character(F)) == 0


def test_unary_law_recovers_the_character():
    # the degree 1 term with coefficient -c has the single root c
    for F in fields_under_test():
        char = standard_character(F)
        for c in F.elements():
            t = make_term(F, (-c,))
            assert rational_roots(t) == [c]
            assert abs(psisym_eval(t, char)
                       - char.psi(c).to_complex()) < TOL
    # and the zero-coefficient term evaluates to 1
    F = prime_field(11)
    t = make_term(F, (0,))
    assert psisym_eval(t, standard_character(F)) == 1


def test_conjugation_law():
    rng = random.Random(67)
    for F in fields_under_test():
        chars = [standard_character(F),
                 twisted_character(F, list(F.elements())[-1])]
        for _ in range(20):
            t = random_term(rng, F)
            tc = psisym_conj(t)
            # roots negate
            assert sorted(-r for r in rational_roots(t)) == \
                rational_roots(tc)
            for char in chars:
                v = psisym_eval(t, char)
                assert abs(psisym_eval(tc, char) - v.conjugate()) < TOL


def test_conjugation_is_an_involution():
    rng = random.Random(71)
    F = build_extension(3, 2)
    for _ in range(20):
        t = random_term(rng, F)
        assert psisym_conj(psisym_conj(t)).coeffs == t.coeffs


def test_addition_law():
    rng = random.Random(73)
    for F in fields_under_test():
        char = standard_character(F)
        for _ in range(20):
            t1, t2 = random_term(rng, F), random_term(rng, F)
            ts = psisym_add(t1, t2)
            assert ts.degree == t1.degree + t2.degree
            assert sorted(rational_roots(t1) + rational_roots(t2)) == \
                rational_roots(ts)
            assert abs(psisym_eval(ts, char) - psisym_eval(t1, char)
                       - psisym_eval(t2, char)) < TOL


def test_multiplication_law():
    rng = random.Random(79)
    for F in fields_under_test():
        char = standard_character(F)
        for _ in range(15):
            t1, t2 = random_term(rng, F, maxdeg=3), \
                random_term(rng, F, maxdeg=3)
            tm = psisym_mul(t1, t2)
            assert abs(psisym_eval(tm, char)
                       - psisym_eval(t1, char) * psisym_eval(t2, char)) < TOL


def test_field_mismatch_is_rejected():
    t1 = make_term(prime_field(5), (1,))
    t2 = make_term(prime_field(7), (1,))
    with pytest.raises(CharsumError):
        psisym_add(t1, t2)
    with pytest.raises(CharsumError):
        psisym_mul(t1, t2)
    with pytest.raises(CharsumError):
        psisym_eval(t1, standard_character(prime_field(7)))


def test_term_from_rational_coeffs():
    F = prime_field(7)
    t = make_term(F, [F.rational(c) for c in [1, -3]])
    assert t.coeffs == (F.element(1), F.element(4))
    from fractions import Fraction
    t2 = make_term(F, [F.rational(c) for c in [Fraction(1, 2)]])
    assert t2.coeffs == (F.element(4),)


def kappa_brute(P, Q, b, F, root_var):
    from charsum.mpoly import frac_mod
    n = P.nvars
    params = list(b)

    def ev(f, point):
        acc = F.zero()
        for e, c in f.sorted_terms():
            t = F.element(frac_mod(c, F.p))
            for x, k in zip(point, e):
                if k:
                    t = t * x ** k
            acc = acc + t
        return acc

    values = set()
    any_root = False
    for d in F.elements():
        point = []
        bi = 0
        for v in range(n):
            if v == root_var:
                point.append(d)
            else:
                point.append(F.element(params[bi]))
                bi += 1
        if ev(P, point).is_zero():
            any_root = True
            values.add(ev(Q, point))
    if any_root and len(values) == 1:
        return values.pop()
    return F.zero()


def test_kappa_square_root_example():
    # P = y^2 - b: kappa with Q = y^2 recovers b on squares, while Q = y
    # sees two roots disagree and collapses to zero
    names = ("b", "y")
    P = parse_polynomial("y^2 - b", variables=names).poly
    Qsq = parse_polynomial("y^2", variables=names).poly
    Qy = parse_polynomial("y", variables=names).poly
    F = prime_field(11)
    squares = {x * x % 11 for x in range(11)}
    for b in range(11):
        vsq = kappa_eval(P, Qsq, (b,), F)
        vy = kappa_eval(P, Qy, (b,), F)
        if b in squares:
            assert vsq == F.element(b)
        else:
            assert vsq.is_zero()
        if b == 0:
            assert vy.is_zero()  # the double root 0 gives Q-value 0
        else:
            assert vy.is_zero()  # two roots with opposite Q-values


def test_kappa_against_brute_force():
    rng = random.Random(83)
    F = prime_field(7)
    for _ in range(30):
        P = MPoly(2, {(rng.randint(0, 1), rng.randint(0, 2)):
                      rng.randint(-5, 5) for _ in range(3)})
        Q = MPoly(2, {(rng.randint(0, 1), rng.randint(0, 2)):
                      rng.randint(-5, 5) for _ in range(3)})
        b = (rng.randrange(7),)
        try:
            got = kappa_eval(P, Q, b, F)
        except CharsumError:
            continue  # P(b, .) identically zero; contract is an error
        assert got == kappa_brute(P, Q, b, F, 1)


def test_kappa_root_var_selection():
    names = ("x", "y")
    # solve for x instead of the default last variable
    P = parse_polynomial("x - y^2", variables=names).poly
    Q = parse_polynomial("x + y", variables=names).poly
    F = prime_field(5)
    # with root_var = 0, parameters are (y,); the single root x = y^2
    for y in range(5):
        v = kappa_eval(P, Q, (y,), F, root_var=0)
        assert v == F.element(y * y + y)


def test_kappa_extension_field():
    F = build_extension(2, 2)
    names = ("b", "y")
    P = parse_polynomial("y^2 - b", variables=names).poly
    Q = parse_polynomial("y^2", variables=names).poly
    # squaring is a bijection in characteristic 2
    for b in F.elements():
        assert kappa_eval(P, Q, (b,), F) == b


def test_kappa_validation():
    names = ("b", "y")
    P = parse_polynomial("b*y - b", variables=names).poly
    Q = parse_polynomial("y", variables=names).poly
    F = prime_field(5)
    with pytest.raises(CharsumError):
        kappa_eval(P, Q, (0,), F)  # P(0, .) is the zero polynomial
    assert kappa_eval(P, Q, (1,), F) == F.one()
    with pytest.raises(CharsumError):
        kappa_eval(P, Q, (1, 2), F)  # too many parameters
    with pytest.raises(CharsumError):
        kappa_eval(P, MPoly(3, {}), (1,), F)  # variable tables differ


def test_kappa_root_var_in_the_middle_against_brute_force():
    rng = random.Random(89)
    for F in (prime_field(5), build_extension(3, 2)):
        elems = list(F.elements())
        for _ in range(25):
            P, Q = (MPoly(3, {(rng.randint(0, 2), rng.randint(0, 2),
                               rng.randint(0, 1)): rng.randint(-4, 4)
                              for _ in range(4)}) for _ in range(2))
            b = (rng.choice(elems), rng.choice(elems))
            try:
                got = kappa_eval(P, Q, b, F, root_var=1)
            except CharsumError:
                continue  # P(b, .) identically zero
            assert got == kappa_brute(P, Q, b, F, 1)


def test_term_of_inverts_monic_poly():
    rng = random.Random(17)
    for F in (prime_field(7), build_extension(2, 3)):
        elems = list(F.elements())
        for deg in range(5):
            t = make_term(F, [rng.choice(elems) for _ in range(deg)])
            assert _term_of(F, t.monic_poly()) == t
