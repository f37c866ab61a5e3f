"""Exponential sums, Weil-bound records, the curve sup test, hyperplane
detection, and box counts.

Every sum over the affine line F_p goes through `_line_sum`: the
enumeration budget checked for p points, then the twisted, reduced
polynomial at every x of F_p by `polyroots.line_values` (Horner below
its crossover, exact float64 Taylor shifts on a grid above), summed by
`angles.character_sum`.  Every other F_p point set is read from the
point matrix, where `polyroots.horner` evaluates f; both give int64
residues, so F_p sums need p < 2^31, and both read a table
of p character values, so they need p <= 2^24, checked before any point
is built.  `weil_check` makes one Weil record at one prime; `weil_sweep`
makes them along a prime list, splitting the polynomial's coefficients
over one common denominator once, so each prime costs one inverse.
Every record, on the line or on a curve, is built by `_record`, which
holds the one pass/fail rule.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from math import gcd

import numpy as np

from .angles import CharacterDesc, character_sum, standard_character
from .errors import BadPrimeError, CharsumError
from .ffield import prime_field
from .laurent import LaurentPoly
from .measure import _check_table_size
from .mpoly import Lowered, MPoly, check_int64_modulus, gauss_jordan
from .parser import univariate
from .points import (_CHUNK, DEFAULT_BUDGET, _check_budget, _field_coeffs,
                     _free_grid, _point_matrix, _sample_matrix,
                     _system_nvars, enumerate_points, lower)
from .polyroots import horner, line_values
from .primes import next_prime
from .rootsums import psi_sum

PASS_SLACK = 1e-6
HEIGHT_CAP = 20


@dataclass(frozen=True)
class WeilRecord:
    p: int
    degree: int
    value: complex
    magnitude: float
    bound: float
    normalized: float
    passed: bool
    heuristic: bool = False


def exp_sum(system, f: MPoly, char: CharacterDesc, box=None,
            budget=DEFAULT_BUDGET) -> complex:
    """Sum of Psi(f(x)) over the zero set of `system` (empty system: all
    of affine space).  Over F_p (p < 2^31) any point set but the bare
    line is read from the point matrix and summed over a table of p
    values, refused above 2^24; over F_q each point is an exact angle."""
    field = char.field
    n = f.nvars
    if field.e > 1:
        pts = enumerate_points(system, field, nvars=n, box=box, budget=budget)
        coeff = _field_coeffs(field, [f])
        return psi_sum([f.evaluate(x, coeff) for x in pts], char)
    p = field.p
    twist = char.twist.residue()
    if not system and n == 1 and box is None:
        return _line_sum(_lowered(f).residues(p), p, twist, budget)
    _check_table_size(p, 1)  # character_sum reads a table of p values
    mat = _point_matrix(system, p, n, box, budget)
    lowered = Lowered([f])
    twisted = [c * twist % p for c in lowered.residues(p)]
    vals = horner(lowered.trees[0], twisted, p, dict(enumerate(mat.T)))
    return character_sum(np.broadcast_to(vals, len(mat)), p)


def _line_sum(red, p, twist, budget=DEFAULT_BUDGET):
    """Sum of e(twist * g(x) / p) over x in F_p, where red holds the
    residues of g's coefficients, little-endian; p points must fit the
    enumeration budget, p < 2^31 the int64 evaluation, and p values the
    character table."""
    _check_budget(p, 1, budget)
    check_int64_modulus(p)
    _check_table_size(p, 1)
    return character_sum(line_values([c * twist % p for c in red], p), p)


def _lowered(f):
    """f (anything `parser.univariate` reads) as the one-variable
    `Lowered`, so that reducing it mod a prime costs one inverse."""
    return Lowered.univariate(univariate(f))


def _weil_record(coeffs, p, twist) -> WeilRecord:
    """The Weil record of sum_x Psi_p(twist * f(x)) for f given as
    `_lowered`, at a prime p the caller vouches for."""
    red = coeffs.residues(p)
    while red and red[-1] == 0:
        red.pop()
    d = len(red) - 1
    if d < 1:
        raise CharsumError("degree mod %d is %d; need >= 1" % (p, d))
    if gcd(d, p) != 1:
        raise CharsumError("wild degree %d at p = %d; bound not applicable"
                           % (d, p))
    twist %= p
    if twist == 0:
        raise CharsumError("trivial character (twist = 0 mod %d); bound "
                           "not applicable" % p)
    return _record(p, d, _line_sum(red, p, twist), d - 1)


def _record(p, degree, value, constant, heuristic=False) -> WeilRecord:
    """The record of a sum `value` at p against the bound constant *
    sqrt(p): the one pass/fail rule."""
    magnitude = abs(value)
    bound = constant * math.sqrt(p)
    return WeilRecord(p=p, degree=degree, value=value, magnitude=magnitude,
                      bound=bound, normalized=magnitude / math.sqrt(p),
                      passed=magnitude <= bound + PASS_SLACK,
                      heuristic=heuristic)


def weil_check(f, p, char=None) -> WeilRecord:
    """Archimedean check of |sum Psi(f(x))| <= (d-1) sqrt(p) on the affine
    line over F_p.

    f: anything `parser.univariate` reads (text, a polynomial in one
    variable, a coefficient list).  The degree is taken after reduction
    mod p; a degree sharing a factor with p, or a trivial character, is
    outside the bound's hypotheses and is an error.
    """
    field = prime_field(p)
    twist = 1 if char is None else char.twist.residue()
    return _weil_record(_lowered(f), field.p, twist)


def weil_sweep(f, primes, twist=1):
    """Weil records of f along a list of primes, as (records, skipped).

    The character at each p is Psi_p(twist * .).  A prime where the bound
    does not apply (bad reduction, degree drop, wild degree, trivial
    character, budget) is skipped with the message `weil_check` would
    raise there.  The primes are trusted to be prime (they come from
    `primes_in`), so no field is built per prime.
    """
    coeffs = _lowered(f)
    records, skipped = [], []
    for p in primes:
        try:
            records.append(_weil_record(coeffs, p, twist))
        except CharsumError as exc:
            skipped.append((p, str(exc)))
    return records, skipped


def weil_check_curve(system, f, p, constant=None,
                     budget=DEFAULT_BUDGET) -> WeilRecord:
    """Same record shape for a sum over a curve, with a configurable bound
    constant (default: (total degree of system + deg f)^2, flagged
    heuristic)."""
    field = prime_field(p)
    char = standard_character(field)
    value = exp_sum(system, f, char, budget=budget)
    sysdeg = max((g.total_degree() for g in system), default=0)
    degree = max(f.total_degree(), 0)
    if constant is None:
        constant = (sysdeg + degree) ** 2
    return _record(p, degree, value, constant, heuristic=True)


@dataclass(frozen=True)
class SupResult:
    sup: float
    tolerance: float
    npoints: int
    passed: bool


def axiom3_sup(system, h: LaurentPoly, p, nvars=None,
               budget=DEFAULT_BUDGET) -> SupResult:
    """Finite-p form of the positivity axiom: for a real-valued Laurent
    polynomial h with no constant term, max of h over the character image
    of the curve must clear -b' sqrt(p) / |C(F_p)| where b' is the sum of
    coefficient magnitudes."""
    if not h.is_real_mode():
        raise CharsumError("h must be real-valued (coefficient at -m must "
                           "conjugate the one at m)")
    if h.has_constant_term():
        raise CharsumError("h must have no constant term")
    n = nvars or h.nvars
    _check_table_size(p, 1)  # character_values reads a table of p values
    mat = _point_matrix(system, p, n, None, budget)
    if not len(mat):
        raise CharsumError("no points on the curve mod %d" % p)
    vals = h.eval_real_on_residues(mat, p)
    sup = float(vals.max())
    tol = h.coeff_abs_sum() * math.sqrt(p) / len(mat)
    return SupResult(sup=sup, tolerance=tol, npoints=len(mat),
                     passed=sup >= -tol)


@dataclass(frozen=True)
class HyperplaneResult:
    vector: tuple
    constant: object  # small int when consistent across primes, else None
    exact: bool
    primes: tuple


def _candidate_vectors(n, m):
    """Primitive integer vectors with sup norm <= m, last nonzero entry
    positive, by increasing height then lex order, as the rows of int64
    matrices.  Each height's cube is scanned in numpy pieces of at most
    _CHUNK vectors; each piece yields one matrix."""
    for height in range(1, m + 1):
        side = 2 * height + 1
        for start in range(0, side ** n, _CHUNK):
            flat = np.arange(start, min(start + _CHUNK, side ** n),
                             dtype=np.int64)
            vecs = np.array(_free_grid(n, side, flat)) - height  # (n, piece)
            positive = np.zeros(len(flat), dtype=bool)  # last nonzero > 0
            for col in vecs:
                positive = np.where(col != 0, col > 0, positive)
            keep = (positive & (np.abs(vecs).max(axis=0) == height)
                    & (np.gcd.reduce(vecs, axis=0) == 1))
            yield vecs.T[keep]


def _constant_on_samples(n, m, samples):
    """(vector, constants) for each candidate of `_candidate_vectors(n, m)`
    whose dot product with the sample points is one constant mod each
    prime, in search order; `samples` maps each prime to its sample
    matrix, and constants holds the constant at each prime.  A piece of
    candidates meets a prime's samples in one matrix product.  Nothing is
    scanned when one prime's sample differences span F_q^n: only the zero
    vector is constant there, and a candidate's entries are below q."""
    for q, pts in samples.items():
        field = prime_field(q)
        diffs = [[field.element(a) for a in row]
                 for row in (pts[1:] - pts[0]).tolist()]
        if len(gauss_jordan(diffs)[0]) == n:
            return
    for vecs in _candidate_vectors(n, m):
        consts = np.zeros((len(vecs), 0), dtype=np.int64)
        for q, pts in samples.items():
            dots = pts @ (vecs % q).T % q   # (samples, candidates)
            ok = (dots == dots[0]).all(axis=0)
            vecs = vecs[ok]
            consts = np.column_stack([consts[ok], dots[0, ok]])
            if not len(vecs):
                break
        yield from zip(map(tuple, vecs.tolist()), consts.tolist())


def hyperplane_height_test(system, m, nvars=None):
    """Search for a height <= m affine hyperplane containing the variety.

    Evidence is A.x constant on sampled points over three large primes.
    The system is lowered once over Q; when its elimination leaves no
    equation, the variety is the graph of the substitutions over its free
    variables, and A.x composed with them is exactly constant or the
    candidate is a sampling coincidence.  A plane curve is sampled along
    the lines x = t; before a candidate found on those samples is
    returned, it must also hold, with the same constants, on samples
    taken along the lines y = t (a component that is itself a line x = t
    gives no samples on those lines).  Returns None when nothing is found
    (a probabilistic answer), else a HyperplaneResult.
    """
    n = _system_nvars(system, nvars)
    if m < 1 or m > HEIGHT_CAP:
        raise CharsumError("height bound must be in [1, %d]" % HEIGHT_CAP)
    deg = max((g.total_degree() for g in system), default=1)
    points_per_prime = 2 * max(deg, 1) + 2
    primes = []
    q = 10 ** 6
    while len(primes) < 3:
        q = next_prime(q)
        try:
            for g in system:
                g.reduce_mod(q)
        except BadPrimeError:
            continue
        primes.append(q)
    plan = lower(system, n)
    samples = {q: _sample_matrix(plan, q, points_per_prime) for q in primes}

    graph = not plan.empty and not plan.residual
    across = None
    for vec, consts in _constant_on_samples(n, m, samples):
        if graph:
            expr = sum((a * MPoly.variable(v, n) for v, a in enumerate(vec)),
                       MPoly(n, {}))
            for v, repl in plan.eliminated:
                expr = expr.substitute(v, repl)
            if not expr.is_constant():
                continue  # sampling coincidence; symbolic check rules it out
        elif len(plan.free) == 2:
            across = across or {q: _sample_matrix(plan, q, points_per_prime,
                                                  across=True)
                                for q in primes}
            if any((pts @ np.array(vec) % q != c).any()
                   for (q, pts), c in zip(across.items(), consts)):
                continue  # the lines y = t leave the hyperplane
        constant = _consistent_constant(consts, primes)
        return HyperplaneResult(vector=vec, constant=constant, exact=graph,
                                primes=tuple(primes))
    return None


def _consistent_constant(consts, primes):
    """The one integer in (-q/2, q/2] all the constants read as, or None."""
    reps = {c - q if c > q // 2 else c for c, q in zip(consts, primes)}
    return reps.pop() if len(reps) == 1 else None


@dataclass(frozen=True)
class BoxCountResult:
    count: int
    fraction: float
    expected: float
    hyperplane: object  # HyperplaneResult or None


def box_count(system, p, box, declared_dim, nvars=None, flag_height=None,
              budget=DEFAULT_BUDGET) -> BoxCountResult:
    """Points of the variety inside a product of residue ranges, with the
    random-model expectation p^dim * prod(box fractions) and a contained-
    in-a-hyperplane flag (the one caveat to that model), searched up to
    height flag_height in [0, HEIGHT_CAP]; 0 skips the search."""
    n = _system_nvars(system, nvars)
    if flag_height is None:
        flag_height = HEIGHT_CAP
    if not 0 <= flag_height <= HEIGHT_CAP:
        raise CharsumError("hyperplane height must be in [0, %d], got %d"
                           % (HEIGHT_CAP, flag_height))
    count = len(_point_matrix(system, p, n, box, budget))
    fraction = count / p ** declared_dim
    expected = float(p ** declared_dim)
    for lo, hi in box:
        expected *= (hi - lo) / p
    flag = None
    if flag_height:
        try:
            flag = hyperplane_height_test(system, flag_height, nvars=n)
        except CharsumError:  # too few sample points
            flag = None
    return BoxCountResult(count=count, fraction=fraction, expected=expected,
                          hyperplane=flag)
