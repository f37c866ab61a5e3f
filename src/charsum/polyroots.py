"""Roots of univariate polynomials over finite fields.

Over F_p every prime takes one path: degrees 1 and 2 in closed form,
higher degrees by gcd with x^p - x and equal-degree splitting
(Cantor-Zassenhaus).  Over a proper extension F_q with
q <= TABLE_LIMIT (2^16) one numpy Horner pass over all q packed elements
(`ffield.packed_field`) finds the roots, and one synthetic division over
all of them at once per round gives their multiplicities.  Larger q take
the gcd-and-split path on `FqElem` polynomials, with multiplicities from
repeated gcds.  The splitting randomness is seeded from (p, f) so
repeated runs and parallel sweeps agree.

The one mod-p array evaluator lives here too: `eval_many`, lazy-reduction
Horner in one variable, and `horner`, which runs it at every node of an
`mpoly.Lowered` tree.
"""

from __future__ import annotations

import random
import zlib

import numpy as np

from . import fppoly
from .errors import CharsumError
from .ffield import TABLE_LIMIT, ExtFieldDesc, packed_field, sqrt_mod
from .mpoly import (check_int64_modulus, poly_add, poly_divmod, poly_gcd,
                    poly_monic, poly_mul, poly_powmod, poly_rem, poly_sub,
                    poly_trim)


_INT64_MAX = (1 << 63) - 1


def _splitting_rng(p, coeffs):
    key = repr((p, tuple(coeffs))).encode()
    return random.Random(zlib.crc32(key))


def eval_many(coeffs, p, xs):
    """Horner evaluation of a coefficient list (ints, or int64 arrays
    aligned with xs) over an int64 array of residues in [0, p), on one
    accumulator; requires p < 2^31.

    The coefficients are reduced once.  The accumulator starts at the
    leading one and is reduced mod p only when the next step acc*x + c
    could pass 2^63 - 1 by a running bound (every fourth step or so at
    p < 2^11, every second near 10^6, every step near 2^31), and once at
    the end.  The empty list is the zero polynomial.
    """
    check_int64_modulus(p)
    red = [c % p for c in coeffs]
    if not red:
        return np.zeros_like(xs)
    top = p - 1
    headroom = (_INT64_MAX - top) // top
    acc = np.full_like(xs, red[-1])
    bound = top
    for c in reversed(red[:-1]):
        if bound > headroom:
            acc %= p
            bound = top
        acc *= xs
        acc += c
        bound = bound * top + top
    acc %= p
    return acc


def horner(tree, res, p, cols):
    """Value mod p of a `mpoly.Lowered` tree whose numerators reduce to
    `res`, at the aligned int64 residue columns cols[v]: one eval_many
    per node, whose coefficients are its children's values (scalars or
    arrays).  A constant tree gives the scalar residue."""
    if isinstance(tree, int):
        return res[tree]
    v, kids = tree
    return eval_many([horner(k, res, p, cols) for k in kids], p, cols[v])


def _multiplicities(f, roots, p):
    out = []
    for r in roots:
        q, rem = fppoly.deflate_root(f, r, p)
        while rem == 0:
            out.append(r)
            q, rem = fppoly.deflate_root(q, r, p)
    return out


def _quadratic_roots(b, c, p):
    """Sorted roots (with multiplicity) of x^2 + bx + c over F_p."""
    if p == 2:
        # x^2 = x * x, x^2 + 1 = (x + 1)^2, x^2 + x = x(x + 1), x^2 + x + 1
        if b == 0:
            return [c, c]
        return [0, 1] if c == 0 else []
    s = sqrt_mod(b * b - 4 * c, p)
    if s is None:
        return []
    inv2 = (p + 1) // 2
    return sorted([(-b + s) * inv2 % p, (-b - s) * inv2 % p])


def _split_linear(g, p, rng):
    """Roots of a monic g: in closed form up to degree 2 (a double root
    comes back twice), else g must be a product of distinct linear
    factors."""
    d = fppoly.degree(g)
    if d <= 0:
        return []
    if d == 1:
        return [-g[0] % p]
    if d == 2:
        return _quadratic_roots(g[1], g[0], p)
    while True:
        a = rng.randrange(p)
        h = fppoly.powmod([a, 1], (p - 1) // 2, g, p)
        h = fppoly.sub(h, [1], p)
        d1 = fppoly.gcd(h, g, p)
        if 0 < fppoly.degree(d1) < fppoly.degree(g):
            d2, rem = fppoly.divmod_poly(g, d1, p)
            assert rem == []
            return _split_linear(d1, p, rng) + _split_linear(d2, p, rng)


def roots_mod_p(coeffs, p) -> list:
    """Sorted roots (with multiplicity) of f over F_p.

    coeffs is little-endian over Z; reduction happens here.  The zero
    polynomial has no well-defined root set and is an error.
    """
    f = fppoly.trim([c % p for c in coeffs])
    if not f:
        raise CharsumError("zero polynomial")
    fm = fppoly.monic(f, p)
    if fppoly.degree(fm) <= 2:
        return _split_linear(fm, p, None)
    xp = fppoly.powmod([0, 1], p, fm, p)
    g = fppoly.gcd(fppoly.sub(xp, [0, 1], p), fm, p)
    if fppoly.degree(g) <= 0:
        return []
    rng = _splitting_rng(p, f)
    roots = _split_linear(g, p, rng)
    return sorted(_multiplicities(f, roots, p))


# -- generic path over F_q ------------------------------------------------

def _split_fq(g, field, rng):
    """Roots of a monic g over F_q that is a product of distinct linear
    factors: Cantor-Zassenhaus on the shared `mpoly` toolkit."""
    d = len(g) - 1
    if d <= 0:
        return []
    if d == 1:
        return [-(g[0] * g[1] ** -1)]
    zero, one = field.zero(), field.one()
    while True:
        a = field.element(tuple(rng.randrange(field.p)
                                for _ in range(field.e)))
        if field.p == 2:
            # additive splitting: trace map T(a*x) = sum (a*x)^{2^i}, i < e
            cur = poly_rem([zero, a], g)
            h = list(cur)
            for _ in range(field.e - 1):
                cur = poly_rem(poly_mul(cur, cur), g)
                h = poly_add(h, cur)
        else:
            h = poly_sub(poly_powmod([a, one], (field.order - 1) // 2, g),
                         [one])
        d1 = poly_gcd(h, g)
        if 0 < len(d1) - 1 < d:
            d2, rem = poly_divmod(g, d1)
            assert not rem
            return _split_fq(d1, field, rng) + _split_fq(d2, field, rng)


def _packed_roots(f, field):
    """Sorted roots with multiplicity of f (degree >= 1) over F_q,
    q <= TABLE_LIMIT: Horner over every packed element, then synthetic
    division of f by (x - r) for all surviving roots r at once."""
    F = packed_field(field)
    coeffs = [F.pack(c) for c in f]
    xs = np.arange(field.order, dtype=np.int64)
    acc = np.full(field.order, coeffs[-1], dtype=np.int64)
    for c in reversed(coeffs[:-1]):
        acc = F.add(F.mul(acc, xs), c)
    hits = np.flatnonzero(acc == 0)
    mult = np.zeros(len(hits), dtype=np.int64)
    live = np.arange(len(hits))
    g = np.tile(np.array(coeffs, dtype=np.int64), (len(hits), 1))
    while len(live) and g.shape[1] > 1:
        r = hits[live]
        quot = np.empty((len(live), g.shape[1] - 1), dtype=np.int64)
        acc = g[:, -1]
        for i in range(g.shape[1] - 2, -1, -1):
            quot[:, i] = acc
            acc = F.add(g[:, i], F.mul(acc, r))
        divides = acc == 0
        mult[live[divides]] += 1
        live, g = live[divides], quot[divides]
    return F.unpack(np.repeat(hits, mult))


def poly_roots_fq(coeffs, field: ExtFieldDesc) -> list:
    """Sorted roots (with multiplicity, canonical element order) of a
    univariate polynomial over F_q.  Coefficients may be ints or FqElems."""
    f = poly_trim(field.element(c) for c in coeffs)
    if not f:
        raise CharsumError("zero polynomial")
    if field.e == 1:
        ints = [c.residue() for c in f]
        return [field.element(r) for r in roots_mod_p(ints, field.p)]
    if len(f) == 1:
        return []
    if field.order <= TABLE_LIMIT:
        return _packed_roots(f, field)
    fm = poly_monic(f)
    x = [field.zero(), field.one()]
    layer = poly_gcd(poly_sub(poly_powmod(x, field.order, fm), x), fm)
    rng = _splitting_rng(field.p, tuple(c.coeffs for c in f))
    # layer k is the product of (x - r) over the roots r of multiplicity
    # at least k; dividing it by the next layer leaves multiplicity k.
    roots, rest, k = [], fm, 1
    while len(layer) > 1:
        rest = poly_divmod(rest, layer)[0]
        deeper = poly_gcd(rest, layer)
        exact = poly_divmod(layer, deeper)[0]
        roots += _split_fq(exact, field, rng) * k
        layer, k = deeper, k + 1
    return sorted(roots)
