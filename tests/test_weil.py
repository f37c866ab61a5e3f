import cmath
import math
import random
import subprocess
import sys
import time
from fractions import Fraction
from itertools import product

import pytest

from charsum import (axiom3_sup, box_count, build_extension,
                     enumerate_points, exp_sum, hyperplane_height_test,
                     laurent_from_expression, parse_polynomial, prime_field,
                     primes_in, standard_character, twisted_character,
                     weil_check, weil_check_curve, weil_sweep)
from charsum import points, polyroots, weil
from charsum.errors import BadPrimeError, CharsumError
from charsum.mpoly import Lowered, MPoly, frac_mod
from charsum.primes import next_prime
from charsum.weil import _candidate_vectors
from oracles import exp_sum_points

TOL = 1e-9


def poly(text, names=None):
    return parse_polynomial(text, variables=names).poly


def test_sum_over_the_whole_line_vanishes_for_linear():
    # sum of psi(a x + b) over x is 0 for a != 0
    p = 31
    f = poly("3*x + 5")
    char = standard_character(prime_field(p))
    assert abs(exp_sum([], f, char)) < TOL


def test_gauss_sum_magnitude_is_exactly_sqrt_p():
    for p in primes_in(200)[1:]:  # odd primes
        rec = weil_check(poly("x^2"), p)
        assert abs(rec.magnitude - math.sqrt(p)) < TOL
        assert rec.passed and rec.degree == 2
        assert rec.bound == math.sqrt(p)


def test_shifts_and_scalings_keep_gauss_magnitude():
    rng = random.Random(89)
    for _ in range(20):
        p = rng.choice(primes_in(300)[1:])
        a = rng.randrange(1, p)
        b = rng.randrange(p)
        c = rng.randrange(p)
        rec = weil_check([c, b, a], p)
        assert abs(rec.magnitude - math.sqrt(p)) < TOL


def test_weil_check_random_polynomials_within_bound():
    rng = random.Random(97)
    for _ in range(100):
        p = rng.choice(primes_in(100))
        d = rng.randint(2, 6)
        if math.gcd(d, p) != 1:
            continue
        coeffs = [rng.randint(-20, 20) for _ in range(d)] + [
            rng.randrange(1, p)]
        rec = weil_check(coeffs, p)
        assert rec.passed, (coeffs, p, rec)


def test_weil_check_wild_degree_rejected():
    with pytest.raises(CharsumError):
        weil_check(poly("x^5 + x"), 5)
    with pytest.raises(CharsumError):
        weil_check(poly("x^2"), 2)


def test_weil_check_degree_drop_rejected():
    # 7 x^3 + x has degree 1 mod 7: inside the hypotheses but trivial;
    # 7 x^3 + 7 x drops to degree < 1 and is an error
    rec = weil_check(poly("7*x^3 + x"), 7)
    assert rec.degree == 1 and abs(rec.magnitude) < TOL
    with pytest.raises(CharsumError):
        weil_check(poly("7*x^3 + 7*x"), 7)


def test_weil_check_twisted_character():
    p = 43
    for twist in (1, 2, 5):
        char = twisted_character(prime_field(p), twist)
        rec = weil_check(poly("x^3 + 2*x"), p, char=char)
        assert rec.passed
        assert abs(rec.magnitude) <= 2 * math.sqrt(p) + TOL


def test_exp_sum_points_agrees_with_fast_line_path():
    p = 53
    f = poly("x^4 + 3*x + 1")
    char = standard_character(prime_field(p))
    fast = exp_sum([], f, char)
    slow = exp_sum_points([(x,) for x in range(p)], f, char)
    assert abs(fast - slow) < TOL


CURVES = ("x^2 + y^2 - 1", "x*y - 1", "y - x^2", "y^2 - x^3 - x - 1",
          "x + 0*y", "(x-1)^2")
SUMMANDS = ("x + 2*y", "3", "x^2*y + 1/3*y", "x*y^2 - 5*y + x")


def test_exp_sum_on_curves_matches_the_exact_angle_oracle():
    # the point-matrix route against exact angles summed with fsum
    rng = random.Random(22)
    odd = primes_in(3000)[1:]
    worst = 0.0
    for _ in range(120):
        p = rng.choice(odd[:40] if rng.random() < 0.5 else odd)
        system = [poly(rng.choice(CURVES), ("x", "y"))]
        f = poly(rng.choice(SUMMANDS), ("x", "y"))
        char = twisted_character(prime_field(p), rng.randrange(p))
        box = None
        if rng.random() < 0.4:
            box = [sorted((rng.randrange(p + 1), rng.randrange(p + 1)))
                   for _ in range(2)]
        try:
            expect = exp_sum_points(enumerate_points(system, p, box=box),
                                    f, char)
        except BadPrimeError:
            with pytest.raises(BadPrimeError):
                exp_sum(system, f, char, box=box)
            continue
        worst = max(worst, abs(exp_sum(system, f, char, box=box) - expect))
    assert worst < 1e-10


def test_exp_sum_raises_where_p_divides_a_denominator():
    system = [poly("y - x^2", ("x", "y"))]
    f = poly("x^2*y + 1/3*y", ("x", "y"))
    char = standard_character(prime_field(3))
    with pytest.raises(BadPrimeError):
        exp_sum_points(enumerate_points(system, 3), f, char)
    with pytest.raises(BadPrimeError):
        exp_sum(system, f, char)


def test_curve_sum_near_a_hundred_thousand_is_fast():
    # the per-point route took 3.3 s here on a 2-vCPU host
    p = 100003
    system = [poly("y^2 - x^3 - x - 1", ("x", "y"))]
    f = poly("x + 2*y", ("x", "y"))
    char = standard_character(prime_field(p))
    start = time.perf_counter()
    value = exp_sum(system, f, char, budget=10 ** 11)
    assert time.perf_counter() - start < 1.0
    pts = enumerate_points(system, p, budget=10 ** 11)
    assert abs(value - exp_sum_points(pts, f, char)) < 1e-9


def _refuse(*args, **kwargs):
    raise AssertionError("the exact per-point route was taken")


def test_exp_sum_over_fp_reads_the_point_matrix(monkeypatch):
    names = ("x", "y")
    system = [poly("x*y - 1", names)]
    f = poly("x + y", names)
    char = standard_character(prime_field(37))
    box = [(0, 20), (3, 37)]
    expect = [exp_sum(system, f, char), exp_sum(system, f, char, box=box)]
    for module in (points, weil):
        monkeypatch.setattr(module, "enumerate_points", _refuse)
    monkeypatch.setattr(MPoly, "evaluate", _refuse)
    assert [exp_sum(system, f, char),
            exp_sum(system, f, char, box=box)] == expect
    # over a proper extension every point is still evaluated exactly
    with pytest.raises(AssertionError, match="per-point route"):
        exp_sum(system, f, standard_character(build_extension(3, 2)))


def test_exp_sum_over_fq_matches_the_exact_angle_oracle():
    names = ("x", "y")
    system = [poly("x*y - 1", names)]
    for F in (build_extension(3, 2), build_extension(2, 3)):
        for f in (poly("x + y", names), poly("x^2*y + 3", names)):
            char = standard_character(F)
            expect = exp_sum_points(enumerate_points(system, F), f, char)
            assert exp_sum(system, f, char) == expect


def test_line_exp_sum_is_weil_check_bit_for_bit():
    rng = random.Random(41)
    for p in (101, 1009, 100003):
        for twist in (1, 2, p - 1):
            f = poly("x^3 + %d*x^2 + %d"
                     % (rng.randrange(p), rng.randrange(p)))
            char = twisted_character(prime_field(p), twist)
            assert exp_sum([], f, char) == weil_check(f, p, char).value


RUN_CAPPED = """
import resource, sys
resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))
from charsum import (exp_sum, parse_polynomial, prime_field,
                     standard_character)
from charsum.errors import CharsumError
p = 2147483659
char = standard_character(prime_field(p))
line = parse_polynomial("x^3 + 2").poly
curve, g = (parse_polynomial(text, variables=("x", "y")).poly
            for text in ("y^2 - x^3 - 1", "x + 2*y"))
for system, f in (([], line), ([curve], g)):
    try:
        exp_sum(system, f, char, budget=2 ** 64)
    except CharsumError as exc:
        print(type(exc).__name__, exc)
"""


def test_fp_sums_refuse_p_above_2_31_before_allocating():
    # the int64 kernels need p < 2^31; the line refuses before its
    # p-long arange, so a 1 GiB child sees no MemoryError
    r = subprocess.run([sys.executable, "-c", RUN_CAPPED],
                       capture_output=True, text=True, timeout=60)
    assert r.returncode == 0, r.stderr
    lines = r.stdout.splitlines()
    assert len(lines) == 2, r.stdout
    assert "requires p < 2^31" in lines[0]
    assert "MemoryError" not in r.stdout + r.stderr


def test_kloosterman_sum_within_classical_bound():
    names = ("x", "y")
    system = [poly("x*y - 1", names)]
    f = poly("x + y", names)
    for p in primes_in(60)[1:]:
        char = standard_character(prime_field(p))
        s = exp_sum(system, f, char)
        assert abs(s.imag) < TOL  # Kloosterman sums are real
        assert abs(s) <= 2 * math.sqrt(p) + TOL


def test_weil_check_curve_is_flagged_heuristic():
    names = ("x", "y")
    system = [poly("x*y - 1", names)]
    f = poly("x + y", names)
    rec = weil_check_curve(system, f, 37)
    assert rec.heuristic
    assert rec.passed
    rec2 = weil_check_curve(system, f, 37, constant=2.0)
    assert rec2.bound == 2.0 * math.sqrt(37)


def test_axiom3_validation():
    names = ("x", "y")
    system = [poly("x*y - 1", names)]
    with pytest.raises(CharsumError):
        axiom3_sup(system, laurent_from_expression("z1", nvars=2), 11)
    with pytest.raises(CharsumError):
        axiom3_sup(system,
                   laurent_from_expression("z1*zb1", nvars=2), 11)
    nopts = [poly("x", names), poly("x - 1", names)]
    with pytest.raises(CharsumError):
        axiom3_sup(nopts, laurent_from_expression("z1 + zb1", nvars=2), 11,
                   nvars=2)


def test_axiom3_passes_on_hyperbola():
    names = ("x", "y")
    system = [poly("x*y - 1", names)]
    h = laurent_from_expression("z1*zb2 + zb1*z2", nvars=2)
    for p in (11, 101, 499):
        res = axiom3_sup(system, h, p, nvars=2)
        assert res.npoints == p - 1
        assert res.passed
        assert res.sup >= -res.tolerance


def test_axiom3_fails_on_a_line_with_a_negative_witness():
    # the y-axis has constant first coordinate, so h = -(z1 + zb1) is
    # identically -2 on its character image while the tolerance shrinks
    # like 1/sqrt(p): the positivity floor must report a failure
    names = ("x", "y")
    system = [poly("x + 0*y", names)]
    h = laurent_from_expression("0 - z1 - zb1", nvars=2)
    res = axiom3_sup(system, h, 53, nvars=2)
    assert res.npoints == 53
    assert abs(res.sup + 2.0) < TOL
    assert not res.passed


def candidate_list(n, m):
    """The rows of every piece _candidate_vectors yields, as tuples."""
    return [tuple(v) for vecs in _candidate_vectors(n, m)
            for v in vecs.tolist()]


def test_candidate_vectors_order_and_primitivity():
    got = candidate_list(2, 2)
    assert got[:4] == [(-1, 1), (0, 1), (1, 0), (1, 1)]
    assert all(max(abs(c) for c in v) <= 2 for v in got)
    assert (2, 2) not in got          # not primitive
    assert (0, -1) not in got         # canonical sign
    assert len(set(got)) == len(got)
    # height 1 vectors all come before any height 2 vector
    heights = [max(abs(c) for c in v) for v in got]
    assert heights == sorted(heights)


def candidate_vectors_scan(n, m):
    """The tuple-by-tuple scan _candidate_vectors replaced (oracle)."""
    for height in range(1, m + 1):
        for vec in product(range(-height, height + 1), repeat=n):
            if max(abs(v) for v in vec) != height:
                continue
            nz = [v for v in vec if v]
            if not nz or nz[-1] < 0:
                continue
            if math.gcd(*vec) != 1:
                continue
            yield vec


@pytest.mark.parametrize("n", [1, 2, 3])
def test_candidate_vectors_match_the_tuple_scan(n, monkeypatch):
    full = list(candidate_vectors_scan(n, 20))
    for m in range(1, 21):
        assert candidate_list(n, m) == \
            [v for v in full if max(abs(c) for c in v) <= m]
    monkeypatch.setattr(weil, "_CHUNK", 1000)  # cubes split into pieces
    assert candidate_list(n, 20) == full


def test_hyperplane_found_for_affine_graphs():
    names = ("x", "y")
    system = [poly("y - 2*x - 1", names)]
    res = hyperplane_height_test(system, 3)
    assert res is not None
    assert res.vector == (-2, 1)
    assert res.constant == 1
    assert res.exact
    line = [poly("x + 0*y", names)]
    res2 = hyperplane_height_test(line, 3)
    assert res2.vector == (1, 0)
    assert res2.constant == 0
    assert res2.exact


@pytest.mark.parametrize("texts, names, vector, constant", [
    (["y - x^2", "z - y - 1"], ("x", "y", "z"), (0, -1, 1), 1),
    # a non-unit coefficient; y - x = 1/2 is no integer constant
    (["2*y - 2*x - 1"], ("x", "y"), (-1, 1), None),
])
def test_hyperplane_exact_when_elimination_leaves_no_equation(
        texts, names, vector, constant):
    res = hyperplane_height_test([poly(t, names) for t in texts], 3)
    assert res is not None
    assert (res.vector, res.constant, res.exact) == (vector, constant, True)


def test_hyperplane_sampling_coincidence_is_ruled_out():
    # the samples of z = x*y all have x = 0, so z - x vanishes on them;
    # composed with the substitution it is x*y - x, not constant
    system = [poly("z - x*y", ("x", "y", "z"))]
    assert hyperplane_height_test(system, 3) is None


def test_hyperplane_absent_for_parabola():
    names = ("x", "y")
    system = [poly("y - x^2", names)]
    assert hyperplane_height_test(system, 3) is None


@pytest.mark.parametrize("text, vector, constant", [
    ("x*y", None, None),            # two axes: the lines y = t refute y = 0
    ("(x-1)*y", None, None),
    ("(x-1)^2", (1, 0), 1),         # a cylinder: found on the lines y = t
    ("x^2 - 1", None, None),        # two parallel lines, in no one plane
    ("(x + 2*y - 3)^2", (1, 2), 3),
])
def test_hyperplane_on_reducible_and_cylinder_curves(text, vector,
                                                     constant):
    res = hyperplane_height_test([poly(text, ("x", "y"))], 20, nvars=2)
    if vector is None:
        assert res is None
    else:
        assert (res.vector, res.constant, res.exact) == (vector, constant,
                                                         False)


def test_hyperplane_height_cap():
    names = ("x", "y")
    system = [poly("y - x", names)]
    with pytest.raises(CharsumError):
        hyperplane_height_test(system, 0)
    with pytest.raises(CharsumError):
        hyperplane_height_test(system, 100)


def test_box_count_quadrant_of_parabola():
    names = ("x", "y")
    system = [poly("y - x^2", names)]
    p = 103
    half = (p + 1) // 2
    res = box_count(system, p, [(0, half), (0, half)], 1)
    assert res.hyperplane is None
    assert res.count == sum(1 for x in range(half)
                            if x * x % p < half)
    assert abs(res.fraction - 0.25) < 5 / math.sqrt(p)
    assert math.isclose(res.expected, p * (half / p) ** 2)


def test_box_count_flags_contained_line():
    names = ("x", "y")
    system = [poly("x + 0*y", names)]
    p = 103
    res = box_count(system, p, [(0, p), (0, (p + 1) // 2)], 1)
    assert res.count == (p + 1) // 2
    assert res.hyperplane is not None
    assert res.hyperplane.vector == (1, 0)
    res2 = box_count(system, p, [(0, p), (0, p)], 1, flag_height=0)
    assert res2.hyperplane is None


def test_weil_sweep_matches_per_prime_checks():
    primes = primes_in(60)
    cases = (("x^5 + 3*x + 1", 1, "wild degree 5 at p = 5"),
             ("7*x^3 + 7*x", 1, "degree mod 7 is -1"),
             ("1/3*x^4 + x", 2, "bad prime 3"),
             ("x^3 + 2*x", 11, "trivial character (twist = 0 mod 11)"),
             ("x^4 - 2*x + 5", -3, "trivial character (twist = 0 mod 3)"))
    for text, twist, reason in cases:
        f = poly(text)
        records, skipped = weil_sweep(f, primes, twist)
        expect_records, expect_skipped = [], []
        for p in primes:
            char = twisted_character(prime_field(p), twist)
            try:
                expect_records.append(weil_check(f, p, char=char))
            except CharsumError as exc:
                expect_skipped.append((p, str(exc)))
        assert records == expect_records
        assert skipped == expect_skipped
        assert any(reason in why for _, why in skipped), (text, skipped)


def test_line_sums_on_the_grid_are_those_of_horner(monkeypatch):
    # line_values takes the grid near 10^6 and on (10^5, 2*10^5), Horner
    # when its crossover is out of reach; the records are the same
    rng = random.Random(28)
    singles, p = [], 1000003
    for k in range(20):
        coeffs = [rng.randrange(-30, 31) for _ in range(2 + k % 5)] + [1]
        singles.append((coeffs, p))
        p = next_prime(p + 997)
    sweep = [p for p in primes_in(200000) if p > 100000][::21]
    assert len(sweep) == 400
    horner_calls = []
    real = polyroots.eval_many

    def spy(coeffs, p, xs):
        horner_calls.append(p)
        return real(coeffs, p, xs)

    def run():
        return ([weil_check(coeffs, p) for coeffs, p in singles],
                weil_sweep("x^5 - 3*x^2 + 7*x + 11", sweep))

    monkeypatch.setattr(polyroots, "eval_many", spy)
    grid = run()
    assert horner_calls == []
    monkeypatch.setattr(polyroots, "GRID_MIN", 1 << 62)
    assert run() == grid
    assert len(horner_calls) == 420
    assert not grid[1][1] and len(grid[1][0]) == 400


def test_common_denominator_residues_match_frac_mod():
    rng = random.Random(31)
    dens = (1, 2, 3, 9, 10)
    for _ in range(60):
        coeffs = [Fraction(rng.randint(-40, 40), rng.choice(dens))
                  for _ in range(rng.randint(0, 5))]
        coeffs.append(Fraction(rng.choice((-7, 1, 4)), rng.choice(dens)))
        split = weil._lowered(coeffs)
        for p in primes_in(40):
            try:
                expect = [frac_mod(c, p) for c in coeffs]
            except BadPrimeError as exc:
                with pytest.raises(BadPrimeError) as got:
                    split.residues(p)
                assert str(got.value) == str(exc)
            else:
                assert split.residues(p) == expect


def test_weil_check_lowers_each_polynomial_once():
    f = poly("x^3 + 1/2*x + 5")
    primes = primes_in(200)[2:]  # 2 divides a denominator, 3 the degree
    records = [weil_check(f, p) for p in primes]
    coeffs = [Fraction(5), Fraction(1, 2), 0, 1]
    assert [weil_check(coeffs, p) for p in primes] == records
    assert records == [weil._weil_record(
        Lowered.univariate(f.univariate_coeffs()), p, 1) for p in primes]


def test_an_unused_variable_does_not_change_a_weil_record():
    # the one reader drops the unused x, as the root-angle sweeps do
    padded, plain = poly("y^3 + y + 1 + 0*x"), poly("y^3 + y + 1")
    assert padded.nvars == 2
    primes = primes_in(300)
    for p in primes[2:]:
        assert weil_check(padded, p) == weil_check(plain, p)
    assert weil_sweep(padded, primes) == weil_sweep(plain, primes)
    assert weil_sweep("y^3 + y + 1 + 0*x", primes, 5) == \
        weil_sweep([1, 1, 0, 1], primes, 5)


def test_quadratic_gauss_sum_near_a_million():
    # x^2 + 14x + 18 = (x + 7)^2 - 31 and p = 1 mod 4, so the sum is
    # e(-31/p) sqrt(p) exactly
    p = 1094881
    rec = weil_check(poly("x^2 + 14*x + 18"), p)
    expect = cmath.exp(-2j * cmath.pi * 31 / p) * math.sqrt(p)
    assert abs(rec.value - expect) < 1e-8
