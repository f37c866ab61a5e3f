"""Equidistribution experiments for root angles mod p.

A sweep takes an irreducible integer polynomial, walks the primes up to a
limit, collects the normalized roots r/p (or g(r)/p for a derived
element), and summarizes them with a Kolmogorov-Smirnov distance and a
ladder of Weyl sums.  Primes are only ever skipped for a stated reason;
the skip list is part of the report.

Angles enter the float world exactly once, as residue / p.  Joint Weyl
sums reduce the integer dot product mod p before that division, so a
joint sum and the matching derived-element sweep produce bit-identical
values.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from math import gcd, lcm

import numpy as np

from .angles import Angle
from .errors import CharsumError
from .fppoly import evaluate
from .mpoly import MPoly, discriminant, frac_mod, poly_rem, poly_trim
from .nfield import nf_build
from .parallel import pmap
from .parser import PolyExpr, parse_polynomial, poly_to_string
from .polyroots import roots_mod_p
from .primes import primes_in

WEYL_DEPTH = 5


def ks_statistic(values) -> float:
    """Kolmogorov-Smirnov distance between the empirical distribution of
    the values and the uniform distribution on [0, 1)."""
    s = sorted(float(v) for v in values)
    n = len(s)
    if n == 0:
        raise CharsumError("no samples")
    d = 0.0
    for i, x in enumerate(s):
        d = max(d, x - i / n, (i + 1) / n - x)
    return d


def weyl_sum(values, h) -> complex:
    """Normalized exponential sum (1/N) sum exp(2 pi i h s).

    The phase is 2*pi*h*s with no reduction mod 1, so negating h
    conjugates every term (and hence the sum) exactly.
    """
    values = list(values)
    if not values:
        raise CharsumError("no samples")
    total = 0j
    for s in values:
        total += cmath.exp(2j * math.pi * h * float(s))
    return total / len(values)


def sample_histogram(samples, bins):
    """Counts of the sample angles in `bins` equal cells of [0, 1)."""
    vals = [r / p for p, r, _ in samples]
    counts, _ = np.histogram(vals, bins=bins, range=(0.0, 1.0))
    return [int(c) for c in counts]


@dataclass(frozen=True)
class SweepReport:
    command: str
    params: dict
    nsamples: int
    ks: float | None
    weyl: tuple         # ((h, complex value), ...)
    samples: tuple      # ((p, residue, Fraction(residue, p)), ...)
    skipped: tuple      # ((p, reason), ...)
    empty: bool


def _as_rational_coeffs(f, what="polynomial"):
    """Little-endian Fraction coefficients of a univariate input, which
    may be a string, a parsed expression, a polynomial, or a list."""
    if isinstance(f, str):
        f = parse_polynomial(f)
    if isinstance(f, PolyExpr):
        f = f.poly
    if isinstance(f, MPoly):
        f, _ = f.drop_unused_variables()
        if f.nvars == 0:
            return [f.constant_value()]
        return f.univariate_coeffs(0)
    try:
        return [Fraction(c) for c in f]
    except TypeError:
        raise CharsumError("cannot read %s from %r" % (what, f))


def _integer_form(coeffs):
    """Scale rational coefficients to a primitive integer list with a
    positive leading coefficient (same roots, cleaner arithmetic)."""
    coeffs = poly_trim(list(coeffs))
    if not coeffs:
        raise CharsumError("zero polynomial")
    scale = lcm(*[Fraction(c).denominator for c in coeffs])
    ints = [int(Fraction(c) * scale) for c in coeffs]
    g = 0
    for c in ints:
        g = gcd(g, c)
    ints = [c // g for c in ints]
    if ints[-1] < 0:
        ints = [-c for c in ints]
    return ints


def _divisors(n):
    n = abs(n)
    out = []
    d = 1
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            out.append(n // d)
        d += 1
    return sorted(set(out))


def _rational_roots(ints):
    """Rational roots of a primitive integer polynomial, by the usual
    numerator-divides-constant, denominator-divides-leading test."""
    if ints[0] == 0:
        return [Fraction(0)]
    roots = []
    for u in _divisors(ints[0]):
        for v in _divisors(ints[-1]):
            if gcd(u, v) != 1:
                continue
            for r in (Fraction(u, v), Fraction(-u, v)):
                val = Fraction(0)
                for c in reversed(ints):
                    val = val * r + c
                if val == 0:
                    roots.append(r)
    return sorted(set(roots))


def _certify_irreducible(ints):
    """Irreducibility certificate for a primitive integer polynomial of
    degree >= 2, via its monic companion lc^(d-1) f(y / lc)."""
    deg = len(ints) - 1
    roots = _rational_roots(ints)
    if roots:
        r = roots[0]
        factor = ("x" if r == 0 else
                  "x - %s" % r if r > 0 else "x + %s" % -r)
        raise CharsumError("reducible: divisible by %s" % factor)
    lc = ints[-1]
    monic = [ints[i] * lc ** (deg - 1 - i) for i in range(deg)] + [1]
    return nf_build(monic)


def _poly_string(ints):
    return poly_to_string(MPoly.from_univariate(ints), ("x",))


def _good_primes(ints, xlimit, congruence, extra_bad=()):
    """Primes up to xlimit in the congruence class, split into usable
    primes and (prime, reason) skips."""
    lc = ints[-1]
    disc = discriminant(ints)
    good, skipped = [], []
    for p in primes_in(xlimit, congruence):
        if lc % p == 0:
            skipped.append((p, "bad prime: divides leading coefficient"))
        elif disc.numerator % p == 0:
            skipped.append((p, "bad prime: divides discriminant"))
        elif any(b % p == 0 for b in extra_bad):
            skipped.append((p, "bad prime: divides a coefficient denominator"))
        else:
            good.append(p)
    return good, skipped


def _roots_worker(ints, p):
    return p, tuple(roots_mod_p([c % p for c in ints], p))


def _floats(samples):
    return [r / p for p, r, _ in samples]


def _summarize(floats, weyl_depth):
    if not floats:
        return None, ()
    ks = ks_statistic(floats)
    weyl = tuple((h, weyl_sum(floats, h)) for h in range(1, weyl_depth + 1))
    return ks, weyl


def dfi_sweep(f, xlimit, congruence=None, weyl_depth=WEYL_DEPTH,
              jobs=1) -> SweepReport:
    """Distribution of the roots of an irreducible integer polynomial,
    normalized to [0, 1), over all usable primes up to xlimit."""
    ints = _integer_form(_as_rational_coeffs(f))
    deg = len(ints) - 1
    if deg < 1:
        raise CharsumError("constant polynomial has no roots to follow")
    if deg == 1:
        raise CharsumError("degenerate: a degree 1 polynomial has a single "
                           "forced root mod every prime")
    cert = _certify_irreducible(ints)
    good, skipped = _good_primes(ints, xlimit, congruence)
    results = pmap(partial(_roots_worker, ints), good, jobs)
    samples = []
    for p, roots in results:
        for r in roots:
            samples.append((p, r, Fraction(r, p)))
    floats = _floats(samples)
    ks, weyl = _summarize(floats, weyl_depth)
    params = {"poly": _poly_string(ints), "xlimit": xlimit,
              "congruence": list(congruence) if congruence else None,
              "weyl_depth": weyl_depth, "certificate": cert.certificate}
    return SweepReport(command="dfi", params=params, nsamples=len(samples),
                       ks=ks, weyl=weyl, samples=tuple(samples),
                       skipped=tuple(skipped), empty=not samples)


def _value_worker(ints, gq, p):
    gp = [frac_mod(c, p) for c in gq]
    roots = roots_mod_p([c % p for c in ints], p)
    values = tuple(evaluate(gp, r, p) for r in roots)
    return p, len(roots), values


def _element_sweep(command, f, gq, xlimit, congruence, split_only,
                   weyl_depth, jobs, params_extra):
    """Shared body of the derived-element sweep and the joint Weyl sum:
    samples are g(root) mod p over the roots of f mod p."""
    ints = _integer_form(_as_rational_coeffs(f))
    deg = len(ints) - 1
    if deg < 2:
        raise CharsumError("degenerate: need an irreducible polynomial of "
                           "degree at least 2")
    cert = _certify_irreducible(ints)
    denoms = sorted({c.denominator for c in gq if c.denominator != 1})
    good, skipped = _good_primes(ints, xlimit, congruence, extra_bad=denoms)
    skipped = list(skipped)
    results = pmap(partial(_value_worker, ints, gq), good, jobs)
    samples = []
    for p, nroots, values in results:
        if split_only and nroots != deg:
            skipped.append((p, "not split"))
            continue
        for v in values:
            samples.append((p, v, Fraction(v, p)))
    skipped.sort()
    floats = _floats(samples)
    ks, weyl = _summarize(floats, weyl_depth)
    params = {"poly": _poly_string(ints), "xlimit": xlimit,
              "congruence": list(congruence) if congruence else None,
              "split_only": split_only, "weyl_depth": weyl_depth,
              "certificate": cert.certificate}
    params.update(params_extra)
    return SweepReport(command=command, params=params,
                       nsamples=len(samples), ks=ks, weyl=weyl,
                       samples=tuple(samples), skipped=tuple(skipped),
                       empty=not samples)


def dfi_extended_sweep(f, g, xlimit, congruence=None, split_only=False,
                       weyl_depth=WEYL_DEPTH, jobs=1) -> SweepReport:
    """Distribution of g(root)/p over the roots of f mod p.

    g is a rational polynomial in the root; it must be non-constant
    modulo f, otherwise the values are forced and there is nothing to
    test."""
    gq = _as_rational_coeffs(g, what="the derived element")
    ints = _integer_form(_as_rational_coeffs(f))
    rem = poly_rem(gq, [Fraction(c) for c in ints])
    if len(rem) <= 1:
        raise CharsumError("element is rational; equidistribution claim "
                           "does not apply")
    gshow = poly_to_string(MPoly.from_univariate(gq), ("x",))
    return _element_sweep("dfiext", f, gq, xlimit, congruence, split_only,
                          weyl_depth, jobs, {"g": gshow})


def multi_weyl(f, xlimit, hvec, congruence=None, split_only=False,
               jobs=1) -> SweepReport:
    """Joint Weyl sum (1/N) sum exp(2 pi i (h_1 r + ... + h_k r^k) / p)
    over the roots r of f mod p.

    The dot product is reduced mod p before dividing by p, which makes
    this identical, float for float, to the first Weyl sum of the
    derived-element sweep with g = sum h_i x^i.
    """
    hvec = tuple(int(h) for h in hvec)
    if not hvec or all(h == 0 for h in hvec):
        raise CharsumError("h must be a nonzero integer vector")
    gq = [Fraction(0)] + [Fraction(h) for h in hvec]
    report = _element_sweep("multiweyl", f, gq, xlimit, congruence,
                            split_only, 1, jobs, {"h": list(hvec)})
    weyl = ()
    if not report.empty:
        weyl = ((hvec, weyl_sum(_floats(report.samples), 1)),)
    return SweepReport(command=report.command, params=report.params,
                       nsamples=report.nsamples, ks=None, weyl=weyl,
                       samples=report.samples, skipped=report.skipped,
                       empty=report.empty)


@dataclass(frozen=True)
class SPRecord:
    p: int
    k: int              # p mod n
    residue: int        # the inverse of n mod p
    angle: Fraction     # residue / p
    t: int              # numerator of the nearest multiple of 1/n
    dist: Fraction
    law_ok: bool
    pairing_ok: bool


@dataclass(frozen=True)
class SPReport:
    n: int
    xlimit: int
    records: tuple
    skipped: tuple
    all_ok: bool


def sp_check(n, xlimit) -> SPReport:
    """Exact check of the reciprocal-angle law: for p not dividing n, the
    angle of the inverse of n mod p sits at distance exactly 1/(n p) from
    the multiple t/n selected by t = -inverse(p) mod n."""
    if not isinstance(n, int) or n < 1:
        raise CharsumError("n must be a positive integer")
    records, skipped = [], []
    for p in primes_in(xlimit):
        if n % p == 0:
            skipped.append((p, "divides n"))
            continue
        m = pow(n, -1, p)
        t_raw = (m * n - 1) // p
        angle = Fraction(m, p)
        dist = abs(angle - Fraction(t_raw, n))
        _, near_dist = Angle(angle).nearest_multiple(n)
        law_ok = dist == Fraction(1, n * p) and dist == near_dist
        t = t_raw % n
        if n == 1:
            pairing_ok = t == 0
        else:
            pairing_ok = (t + pow(p % n, -1, n)) % n == 0
        records.append(SPRecord(p=p, k=p % n, residue=m, angle=angle, t=t,
                                dist=dist, law_ok=law_ok,
                                pairing_ok=pairing_ok))
    all_ok = all(r.law_ok and r.pairing_ok for r in records)
    return SPReport(n=n, xlimit=xlimit, records=tuple(records),
                    skipped=tuple(skipped), all_ok=all_ok)
