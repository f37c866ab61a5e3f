"""Equidistribution experiments for root angles mod p.

A sweep takes an irreducible integer polynomial, takes the primes up to
a limit as one int64 array, collects the normalized values g(r)/p of a
derived element g at the roots r mod p, found for a block of primes at
once (`polyroots.roots_mod_many`), and summarizes them with a
Kolmogorov-Smirnov distance and a ladder of Weyl sums.  All three sweeps
share that one body: dfi is the sweep with g = x, and multiweyl relabels
its first Weyl sum.  Primes are only ever skipped for a stated reason;
the skip list is part of the report.

Angles enter the float world exactly once, as residue / p.  Joint Weyl
sums reduce the integer dot product mod p before that division, so a
joint sum and the matching derived-element sweep produce bit-identical
values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import partial

import numpy as np

from .angles import Angle
from .errors import CharsumError
from .mpoly import Lowered, poly_rem, poly_trim, primitive_integers
from .nfield import (_certificate, _check_degree, _disc_bound,
                     _monic_companion, _poly_str, _refuse_rational_root,
                     _refuse_repeated_factor)
from .parallel import pmap
from .parser import univariate
from .points import _CHUNK
from .polyroots import (eval_many, inverse_many, residues, roots_mod_many,
                        squarefree_many)
from .primes import primes_in

WEYL_DEPTH = 5


def ks_statistic(values) -> float:
    """Kolmogorov-Smirnov distance between the empirical distribution of
    the values (a sequence of reals) and the uniform distribution on
    [0, 1)."""
    s = np.sort(np.asarray(values, dtype=np.float64))
    n = len(s)
    if n == 0:
        raise CharsumError("no samples")
    i = np.arange(n)
    return float(max(0.0, (s - i / n).max(), ((i + 1) / n - s).max()))


def weyl_sum(values, h) -> complex:
    """Normalized exponential sum (1/N) sum exp(2 pi i h s) over a
    sequence of reals s.

    The phase is 2*pi*h*s with no reduction mod 1, so negating h
    conjugates every term (and hence the sum) exactly.
    """
    s = np.asarray(values, dtype=np.float64)
    if not len(s):
        raise CharsumError("no samples")
    return complex(np.exp(2j * math.pi * h * s).sum()) / len(s)


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


def _integer_form(coeffs):
    """Scale rational coefficients to a primitive integer list with a
    positive leading coefficient (same roots, cleaner arithmetic); a
    degree over the number-field cap is refused first."""
    coeffs = poly_trim(list(coeffs))
    if not coeffs:
        raise CharsumError("zero polynomial")
    _check_degree(len(coeffs) - 1)
    ints = primitive_integers(coeffs)
    if ints[-1] < 0:
        ints = [-c for c in ints]
    return ints


def _certify_irreducible(ints):
    """Irreducibility certificate for a primitive integer polynomial of
    degree >= 2, via its monic companion lc^(d-1) f(y / lc), whose rational
    roots are named as f's."""
    _refuse_rational_root(ints)
    g = _monic_companion(ints)
    _refuse_repeated_factor(g)
    return _certificate(g)


_SKIPS = ("bad prime: divides leading coefficient",
          "bad prime: divides discriminant",
          "bad prime: divides a coefficient denominator")


def _good_primes(ints, xlimit, congruence, den):
    """Primes up to xlimit in the congruence class, split into an int64
    array of usable primes and (prime, reason) skips, each test on the
    whole array, the first that applies named.  A prime not dividing lc
    divides the discriminant of the squarefree f when f mod p has a
    repeated factor, which no prime above `_disc_bound` does; den is the
    common denominator of the derived element's coefficients."""
    primes = np.array(primes_in(xlimit, congruence), dtype=np.int64)
    lc = residues(ints[-1], primes) == 0
    disc = np.zeros(len(primes), dtype=bool)
    test = ~lc & (primes <= min(_disc_bound(ints), xlimit))
    disc[test] = ~squarefree_many(ints, primes[test])
    reason = np.select([lc, disc, residues(den, primes) == 0], [0, 1, 2], -1)
    bad = reason >= 0
    skipped = [(p, _SKIPS[r]) for p, r in zip(primes[bad].tolist(),
                                               reason[bad].tolist())]
    return primes[~bad], skipped


def _summarize(samples, weyl_depth):
    if not samples:
        return None, ()
    floats = np.array([r / p for p, r, _ in samples])
    ks = ks_statistic(floats)
    weyl = tuple((h, weyl_sum(floats, h)) for h in range(1, weyl_depth + 1))
    return ks, weyl


def dfi_sweep(f, xlimit, congruence=None, weyl_depth=WEYL_DEPTH,
              jobs=1) -> SweepReport:
    """Distribution of the roots of an irreducible integer polynomial,
    normalized to [0, 1), over all usable primes up to xlimit: the
    derived-element sweep with g = x."""
    ints = _integer_form(univariate(f))
    deg = len(ints) - 1
    if deg < 1:
        raise CharsumError("constant polynomial has no roots to follow")
    if deg == 1:
        raise CharsumError("degenerate: a degree 1 polynomial has a single "
                           "forced root mod every prime")
    return _element_sweep("dfi", ints, [0, 1], xlimit, congruence, False,
                          weyl_depth, jobs, {})


def _value_worker(ints, g, block):
    """(lanes, values) over an int64 array of primes: the roots r of f mod
    every prime of the block at once, by `roots_mod_many`, and g(r) mod p
    at all of them in one `eval_many`, for g `Lowered`."""
    lane, roots = roots_mod_many(ints, block)
    inv = inverse_many(residues(g.den, block), block)
    coeffs = [(residues(n, block) * inv % block)[lane] for n in g.nums]
    return lane, eval_many(coeffs, block[lane], roots)


def _element_sweep(command, ints, gq, xlimit, congruence, split_only,
                   weyl_depth, jobs, params_extra):
    """The one body of every root-angle sweep: samples are g(root) mod p
    over the roots of f mod p, for f in `_integer_form` and g given by
    rational coefficients.  The good primes go to the workers in blocks
    of at most _CHUNK // (2 deg) lanes; a sweep of one block runs
    in-process."""
    deg = len(ints) - 1
    if deg < 2:
        raise CharsumError("degenerate: need an irreducible polynomial of "
                           "degree at least 2")
    cert = _certify_irreducible(ints)
    g = Lowered.univariate(gq)
    good, skipped = _good_primes(ints, xlimit, congruence, g.den)
    size = _CHUNK // (2 * deg)
    blocks = [good[i:i + size] for i in range(0, len(good), size)]
    samples = []
    for block, (lane, values) in zip(
            blocks, pmap(partial(_value_worker, ints, g), blocks, jobs)):
        if split_only:
            count = np.bincount(lane, minlength=len(block))
            skipped += [(p, "not split") for p in block[count != deg].tolist()]
            keep = count[lane] == deg
            lane, values = lane[keep], values[keep]
        samples += [(p, v, Fraction(v, p)) for p, v in
                    zip(block[lane].tolist(), values.tolist())]
    skipped.sort()
    ks, weyl = _summarize(samples, weyl_depth)
    params = {"poly": _poly_str(ints), "xlimit": xlimit,
              "congruence": list(congruence) if congruence else None,
              "weyl_depth": weyl_depth, "certificate": cert,
              **params_extra}
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
    gq = univariate(g, what="the derived element")
    ints = _integer_form(univariate(f))
    rem = poly_rem(gq, [Fraction(c) for c in ints])
    if len(rem) <= 1:
        raise CharsumError("element is rational; equidistribution claim "
                           "does not apply")
    return _element_sweep("dfiext", ints, gq, xlimit, congruence, split_only,
                          weyl_depth, jobs,
                          {"split_only": split_only, "g": _poly_str(gq)})


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
    ints = _integer_form(univariate(f))
    report = _element_sweep("multiweyl", ints, gq, xlimit, congruence,
                            split_only, 1, jobs,
                            {"split_only": split_only, "h": list(hvec)})
    return replace(report, ks=None,
                   weyl=tuple((hvec, w) for _, w in report.weyl))


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
