"""Roots of univariate polynomials over finite fields.

Over F_p every prime takes one path: degrees 1 and 2 in closed form,
higher degrees by gcd with x^p - x and equal-degree splitting
(Cantor-Zassenhaus).  `roots_mod_many` takes the same path for many
primes below 2^31 at once, one prime per lane of int64 arrays, and gives
what `roots_mod_p` gives prime by prime.  Over a proper extension F_q with
q <= TABLE_LIMIT (2^16) one numpy Horner pass over all q packed elements
(`ffield.packed_field`) finds the roots; larger q split gcd(x^q - x, f)
on `FqElem` polynomials.  Every finder counts multiplicities at its
distinct roots by synthetic division: `_deflation_counts` on int64 rows,
its twin `_deflation_count` on lists.  The splitting randomness is
seeded from (p, f) so repeated runs and parallel sweeps agree.

The mod-p array evaluators live here too: `eval_many`, lazy-reduction
Horner in one variable with one modulus or one per lane; `horner`, which
runs it at every node of an `mpoly.Lowered` tree; and `line_values`, f
at every x of F_p, which above GRID_MIN takes Taylor shifts on a
sqrt(p) x sqrt(p) grid of x in exact float64 products, and otherwise
`eval_many`.
"""

from __future__ import annotations

import math
import random
import zlib

import numpy as np

from . import fppoly
from .errors import CharsumError
from .ffield import TABLE_LIMIT, ExtFieldDesc, packed_field, sqrt_mod
from .mpoly import (check_int64_modulus, poly_add, poly_divmod, poly_gcd,
                    poly_monic, poly_mul, poly_powmod, poly_rem, poly_sub,
                    poly_trim, power_lanes)


_INT64_MAX = (1 << 63) - 1


def _splitting_rng(p, coeffs):
    key = repr((p, tuple(coeffs))).encode()
    return random.Random(zlib.crc32(key))


def residues(c, p):
    """c mod p for an int c of any size, or an int64 array c, and a
    modulus p: an int, or an int64 array of moduli below 2^31 aligned
    with c.  An int beyond int64 meets an array of moduli as its base-2^32
    digits, through `eval_many`."""
    if isinstance(p, int) or not isinstance(c, int) or abs(c) <= _INT64_MAX:
        return c % p
    digits, m = [], abs(c)
    while m:
        m, d = divmod(m, 1 << 32)
        digits.append(d)
    r = eval_many(digits, p, (1 << 32) % p)
    return -r % p if c < 0 else r


def eval_many(coeffs, p, xs):
    """Horner evaluation of a coefficient list (ints, or int64 arrays
    aligned with xs) over an int64 array of residues in [0, p), on one
    accumulator.  p is one modulus below 2^31, or an int64 array of them
    aligned with xs; the running bound below takes the largest.

    The coefficients are reduced once.  The accumulator starts at the
    leading one and is reduced mod p only when the next step acc*x + c
    could pass 2^63 - 1 by a running bound (every fourth step or so at
    p < 2^11, every second near 10^6, every step near 2^31), and once at
    the end.  The empty list is the zero polynomial.
    """
    if isinstance(p, int):
        top, red = p - 1, [c % p for c in coeffs]
    else:
        top, red = int(p.max(initial=2)) - 1, [residues(c, p) for c in coeffs]
    check_int64_modulus(top + 1)
    if not red:
        return np.zeros_like(xs)
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


# The least p at which `line_values` takes the grid, and the points in
# one of its blocks of rows (256 KiB of int64).  On a 2-vCPU x86 host the
# two paths are about even near p = 6000 at degrees 2-6; the grid is
# about 2x slower at p = 997 and 3-6x faster near 10^6.
GRID_MIN = 1 << 13
_GRID_BLOCK = 1 << 15


def _powers(xs, n, p):
    """The (len(xs), n) int64 array of xs[i]^k mod p, k < n."""
    out = np.ones((len(xs), n), dtype=np.int64)
    for k in range(1, n):
        out[:, k] = out[:, k - 1] * xs % p
    return out


def line_values(coeffs, p):
    """f(x) mod p at x = 0, 1, ..., p - 1, as an int64 array, for a
    prime p below 2^31 and f a little-endian list of ints (trailing zeros
    allowed; the empty list is the zero polynomial).

    With d the degree of f mod p and m = ceil(sqrt p), p >= GRID_MIN,
    d + 1 <= m and (d + 1)(p - 1)^2 < 2^53, x is written a*m + b with
    0 <= b < m, and f(a*m + b) = sum_j t_j(a) b^j, where the Taylor
    coefficients t_j(a) = sum_k C(k + j, j) f_(k+j) (a*m)^k form the
    product of the powers of a*m with the Hankel-like matrix of
    C(k + j, j) f_(k+j) mod p.  Both products run in float64 on residues,
    so every partial sum is an integer below 2^53 and exact; the Taylor
    coefficients are reduced once, and then each block of rows of
    values, a*m + b for a few a and every b, is multiplied out into the
    int64 result and reduced mod p once per point.  Any other input
    takes `eval_many` over arange(p).  Both paths give the same residues.
    """
    if p < GRID_MIN:
        return eval_many(coeffs, p, np.arange(p, dtype=np.int64))
    check_int64_modulus(p)
    red = [c % p for c in coeffs]
    while red and red[-1] == 0:
        red.pop()
    n, m = len(red), math.isqrt(p - 1) + 1
    if n > m or n * (p - 1) ** 2 >= 1 << 53:
        return eval_many(red, p, np.arange(p, dtype=np.int64))
    rows = -(-p // m)
    hankel = np.zeros((n, n))
    for k in range(n):
        for j in range(n - k):
            hankel[k, j] = math.comb(k + j, j) * red[k + j] % p
    shifts = _powers(np.arange(0, rows * m, m, dtype=np.int64) % p, n, p)
    taylor = (shifts.astype(np.float64) @ hankel).astype(np.int64) % p
    taylor = taylor.astype(np.float64)
    steps = _powers(np.arange(m, dtype=np.int64), n, p).T.astype(np.float64)
    out = np.empty((rows, m), dtype=np.int64)
    step = max(1, _GRID_BLOCK // m)
    quot = np.empty((min(step, rows), m), dtype=np.int64)
    for r in range(0, rows, step):
        block = out[r:r + step]
        block[...] = taylor[r:r + step] @ steps
        q = quot[:len(block)]
        np.floor_divide(block, p, out=q)  # by a constant, unlike %
        q *= p
        block -= q
    return out.reshape(-1)[:p]


def horner(tree, res, p, cols):
    """Value mod p of a `mpoly.Lowered` tree whose numerators reduce to
    `res`, at the aligned int64 residue columns cols[v]: one eval_many
    per node, whose coefficients are its children's values (scalars or
    arrays).  A constant tree gives the scalar residue."""
    if isinstance(tree, int):
        return res[tree]
    v, kids = tree
    return eval_many([horner(k, res, p, cols) for k in kids], p, cols[v])


def _deflation_count(f, r, axpy):
    """How many times x - r divides f, for a root r of f: synthetic
    division of a coefficient list until the remainder is nonzero, from
    the top with acc <- axpy(c, acc, r) = c + acc r in f's field.  The
    Python twin of `_deflation_counts`, for ints mod any p and for
    `FqElem`s."""
    k = 0
    while len(f) > 1:
        quot, acc = [], f[-1]
        for c in reversed(f[:-1]):
            quot.append(acc)
            acc = axpy(c, acc, r)
        if acc:
            break
        f, k = quot[::-1], k + 1
    return k


def _deflation_counts(rows, roots, axpy):
    """How many times x - r divides each row of an int64 coefficient
    matrix, r its entry of `roots` (a root, or a row of a root and what
    its field needs, such as a lane's prime): one synthetic division of
    every row still divisible per round, axpy(c, acc, r) = c + acc r on
    the columns of those rows and their entries of `roots`."""
    mult = np.zeros(len(rows), dtype=np.int64)
    live = np.arange(len(rows))
    while len(live) and rows.shape[1] > 1:
        r = roots[live]
        quot = np.empty((len(live), rows.shape[1] - 1), dtype=np.int64)
        acc = rows[:, -1]
        for i in range(rows.shape[1] - 2, -1, -1):
            quot[:, i] = acc
            acc = axpy(rows[:, i], acc, r)
        divides = acc == 0
        mult[live[divides]] += 1
        live, rows = live[divides], quot[divides]
    return mult


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
    roots = _split_linear(g, p, _splitting_rng(p, f))
    return sorted(r for r in roots for _ in range(
        _deflation_count(f, r, lambda c, acc, x: (c + acc * x) % p)))


# -- many primes at once ----------------------------------------------------
#
# A lane is one prime p < 2^31.  A lane polynomial is one row of an int64
# matrix of residues in [0, p), little-endian; P is the column of the
# lanes' primes.  Every product of two residues stays below 2^62.


def _pow_many(a, e, p):
    """a^e mod p elementwise, with an exponent and a prime per entry."""
    return power_lanes(a, e, lambda x, y: x * y % p, np.ones_like(a))


def inverse_many(a, p):
    """The inverse of each a mod p (a nonzero mod p), by Fermat."""
    return _pow_many(a % p, p - 2, p)


def _degrees(a):
    """Degree of each row, -1 for a zero row."""
    nz = a != 0
    return np.where(nz.any(axis=1),
                    a.shape[1] - 1 - np.argmax(nz[:, ::-1], axis=1), -1)


def _lead(a, da):
    return a[np.arange(len(a)), np.maximum(da, 0)]


def _eliminate(a, da, b, db, P, live):
    """In the live lanes (da >= db >= 0), a <- lead(b) a - lead(a) x^(da -
    db) b, which cancels a's top term; the new a and its degrees."""
    idx = np.arange(a.shape[1]) - (da - db)[:, None]
    shifted = np.where(idx >= 0, np.take_along_axis(
        b, np.clip(idx, 0, a.shape[1] - 1), axis=1), 0)
    new = (_lead(b, db)[:, None] * a
           - _lead(a, da)[:, None] * shifted % P) % P
    a = np.where(live[:, None], new, a)
    return a, _degrees(a)


def _gcd_many(a, b, P):
    """gcd of two lane polynomials of one width, up to a unit per lane,
    and its degrees: Euclid without inverses, one top term per step."""
    da, db = _degrees(a), _degrees(b)
    while True:
        swap = da < db
        a, b = np.where(swap[:, None], b, a), np.where(swap[:, None], a, b)
        da, db = np.where(swap, db, da), np.where(swap, da, db)
        live = db >= 0
        if not live.any():
            return a, da
        a, da = _eliminate(a, da, b, db, P, live)


def _monic_many(a, da, P):
    return a * inverse_many(_lead(a, da), P[:, 0])[:, None] % P


def _divide_many(a, b, db, P):
    """The quotient a / b for monic b dividing a, lane by lane."""
    q = np.zeros_like(a)
    rows = np.arange(len(a))
    da = _degrees(a)
    live = da >= db
    while live.any():
        q[rows[live], (da - db)[live]] = _lead(a, da)[live]
        a, da = _eliminate(a, da, b, db, P, live)
        live = da >= db
    return q


def _powlin_many(a, e, m, P):
    """(x + a)^e mod m lane by lane, for a residue a and an exponent e per
    lane and m monic of degree k >= 2 in every lane.  A product by the
    base x + a is a shift; a square is reduced from the top, one
    coefficient at a time.  Sums of products are reduced once where
    k (p - 1)^2 stays inside int64, term by term otherwise."""
    n, k = m.shape[0], m.shape[1] - 1
    top = int(P.max(initial=2)) - 1
    lazy = k * top * top <= _INT64_MAX
    low = m[:, :k]
    base = np.zeros((n, k), dtype=np.int64)
    base[:, 0], base[:, 1] = a, 1

    def mul(u, v):
        if v is base:
            # u (x + a): a u, plus u shifted up less its x^k term times m
            out = a[:, None] * u - u[:, -1:] * low
            out[:, 1:] += u[:, :-1]
            return out % P
        prod = np.zeros((n, 2 * k - 1), dtype=np.int64)
        for i in range(k):
            prod[:, i:i + k] += u[:, i:i + 1] * v if lazy else (
                u[:, i:i + 1] * v % P)
        prod %= P
        for j in range(2 * k - 2, k - 1, -1):
            prod[:, j - k:j] -= prod[:, j:j + 1] % P * low if lazy else (
                prod[:, j:j + 1] % P * low % P)
        return prod[:, :k] % P

    one = np.zeros_like(base)
    one[:, 0] = 1
    return power_lanes(base, e, mul, one)


def _sqrt_many(a, p):
    """A square root of each a mod p (odd p, a in [0, p)), or -1 for a
    non-residue: Cipolla as in `ffield.sqrt_mod`, with the same least t
    per lane and so the same root.  One `power_lanes` over (n, 2) lanes
    of pairs u + v w, w^2 = t^2 - a, raises t + w to (p + 1) / 2."""
    half = (p - 1) // 2
    out = np.where(a == 0, 0, -1)
    live = np.flatnonzero(_pow_many(a, half, p) == 1)
    a, p, half = a[live], p[live], half[live]
    t = np.zeros_like(p)
    todo = np.arange(len(p))
    while len(todo):
        n = (t[todo] * t[todo] - a[todo]) % p[todo]
        todo = todo[_pow_many(n, half[todo], p[todo]) != p[todo] - 1]
        t[todo] += 1
    n = (t * t - a) % p

    def mul(u, v):
        return np.stack([(u[:, 0] * v[:, 0] + u[:, 1] * v[:, 1] % p * n) % p,
                         (u[:, 0] * v[:, 1] + u[:, 1] * v[:, 0]) % p], axis=1)

    one, zero = np.ones_like(p), np.zeros_like(p)
    out[live] = power_lanes(np.stack([t, one], axis=1), (p + 1) // 2, mul,
                            np.stack([one, zero], axis=1))[:, 0]
    return out


def _quadratic_many(b, c, p):
    """Lanes and roots of x^2 + bx + c: both roots, smaller first, in
    the lanes with a square discriminant (twice for a double root)."""
    s = _sqrt_many((b * b - 4 * c) % p, p)
    ok = np.flatnonzero(s >= 0)
    inv2 = (p[ok] + 1) // 2
    r1 = (p[ok] - b[ok] + s[ok]) * inv2 % p[ok]
    r2 = (2 * p[ok] - b[ok] - s[ok]) * inv2 % p[ok]
    return (np.concatenate([ok, ok]),
            np.concatenate([np.minimum(r1, r2), np.maximum(r1, r2)]))


def _split_many(pool, P, rng):
    """Lanes and roots of the monic lane polynomials in `pool`, a dict
    degree -> [(lanes, rows)], each a product of distinct linear factors:
    closed forms at degrees 1 and 2, else Cantor-Zassenhaus rounds on all
    the lanes of one degree at once, a gcd with (x + a)^((p-1)/2) - 1 for
    a random a per lane."""
    lanes, roots = [], []
    while pool:
        k = max(pool)
        lane = np.concatenate([ln for ln, _ in pool[k]])
        g = np.concatenate([rows for _, rows in pool.pop(k)])
        p = P[lane]
        if k == 1:
            lanes.append(lane)
            roots.append(-g[:, 0] % p)
            continue
        if k == 2:
            ok, r = _quadratic_many(g[:, 1], g[:, 0], p)
            lanes.append(lane[ok])
            roots.append(r)
            continue
        Pc = p[:, None]
        a = np.frombuffer(rng.randbytes(8 * len(p)), dtype=np.int64) % p
        h = _powlin_many(a, (p - 1) // 2, g, Pc)
        h[:, 0] = (h[:, 0] - 1) % p
        d1, j = _gcd_many(g, np.pad(h, ((0, 0), (0, 1))), Pc)
        split = (0 < j) & (j < k)
        d1 = _monic_many(d1[split], j[split], Pc[split])
        d2 = _divide_many(g[split], d1, j[split], Pc[split])
        stay = ~split
        for at, part, deg in ((lane[split], d1, j[split]),
                              (lane[split], d2, k - j[split]),
                              (lane[stay], g[stay], np.full(stay.sum(), k))):
            for e in np.unique(deg):
                sel = deg == e
                pool.setdefault(int(e), []).append(
                    (at[sel], part[sel, :e + 1]))
    return lanes, roots


def _lane_primes(primes):
    """The primes as an int64 array, refused unless each is below 2^31."""
    primes = np.asarray(primes, dtype=np.int64)
    if len(primes) and (primes.min() < 2 or primes.max() >= 1 << 31):
        raise CharsumError("lanes take primes below 2^31")
    return primes


def squarefree_many(ints, primes):
    """Whether f mod p is squarefree, gcd(f, f') = 1, for an integer f and
    each of an int64 array of primes below 2^31 not dividing lc(f): one
    lane Euclid.  f' = 0 mod p is not squarefree, as in
    `fppoly.is_squarefree`."""
    primes = _lane_primes(primes)
    f = np.stack([residues(c, primes) for c in ints], axis=1)
    df = np.zeros_like(f)
    df[:, :-1] = f[:, 1:] * np.arange(1, f.shape[1]) % primes[:, None]
    return _gcd_many(f, df, primes[:, None])[1] == 0


def roots_mod_many(ints, primes):
    """Roots with multiplicity of an integer polynomial f mod each of an
    int64 array of primes below 2^31, none dividing lc(f): two flat
    arrays, the index of each root's prime and the root, sorted by index
    and then by root, so that prime by prime they are `roots_mod_p`.

    Degrees 1 and 2 take closed forms in every lane.  Above, x^p mod f
    comes from `power_lanes`, one lane Euclid gives gcd(x^p - x, f), and
    `_split_many` splits it; `_deflation_counts` at all of the roots at
    once gives their multiplicities.  p = 2 takes `roots_mod_p`.
    """
    f = poly_trim(ints)
    if not f:
        raise CharsumError("zero polynomial")
    primes = _lane_primes(primes)
    lc = residues(f[-1], primes)
    if not lc.all():
        raise CharsumError("prime %d divides the leading coefficient"
                           % primes[lc == 0][0])
    d = len(f) - 1
    odd = np.flatnonzero(primes != 2)
    p = primes[odd]
    P = p[:, None]
    fm = np.stack([residues(c, p) for c in f], axis=1)
    if (lc[odd] != 1).any():
        fm = fm * inverse_many(lc[odd], p)[:, None] % P
    every = np.arange(len(p))
    if d < 3:
        pool = {d: [(every, fm)]} if d else {}
    else:
        h = _powlin_many(np.zeros_like(p), p, fm, P)
        h[:, 1] = (h[:, 1] - 1) % p
        g, e = _gcd_many(fm, np.pad(h, ((0, 0), (0, 1))), P)
        g = _monic_many(g, e, P)
        pool = {int(k): [(every[e == k], g[e == k, :k + 1])]
                for k in np.unique(e) if k > 0}
    rng = random.Random(zlib.crc32(repr(f).encode()))
    lanes, roots = _split_many(pool, p, rng)
    lane = np.concatenate(lanes + [np.zeros(0, dtype=np.int64)])
    root = np.concatenate(roots + [np.zeros(0, dtype=np.int64)])
    if d >= 3:
        mult = _deflation_counts(
            fm[lane], np.stack([root, p[lane]], axis=1),
            lambda c, acc, rp: (c + acc * rp[:, 0]) % rp[:, 1])
        lane, root = np.repeat(lane, mult), np.repeat(root, mult)
    lane = odd[lane]
    for i in np.flatnonzero(primes == 2):
        found = roots_mod_p(f, 2)
        lane = np.concatenate([lane, np.full(len(found), i)])
        root = np.concatenate([root, np.array(found, dtype=np.int64)])
    order = np.lexsort((root, lane))
    return lane[order], root[order]


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
    q <= TABLE_LIMIT: Horner over every packed element, then
    `_deflation_counts` of f at all of the roots it finds at once."""
    F = packed_field(field)
    coeffs = [F.pack(c) for c in f]
    xs = np.arange(field.order, dtype=np.int64)
    acc = np.full(field.order, coeffs[-1], dtype=np.int64)
    for c in reversed(coeffs[:-1]):
        acc = F.add(F.mul(acc, xs), c)
    hits = np.flatnonzero(acc == 0)
    mult = _deflation_counts(
        np.tile(np.array(coeffs, dtype=np.int64), (len(hits), 1)), hits,
        lambda c, acc, r: F.add(c, F.mul(acc, r)))
    return F.unpack(np.repeat(hits, mult))


def poly_roots_fq(coeffs, field: ExtFieldDesc) -> list:
    """Sorted roots (with multiplicity, canonical element order) of a
    univariate polynomial over F_q.  Coefficients may be ints or FqElems.
    Above TABLE_LIMIT, f is deflated at each root of gcd(x^q - x, f)."""
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
    g = poly_gcd(poly_sub(poly_powmod(x, field.order, fm), x), fm)
    roots = _split_fq(g, field,
                      _splitting_rng(field.p, tuple(c.coeffs for c in f)))
    return sorted(r for r in roots for _ in range(
        _deflation_count(fm, r, lambda c, acc, x: c + acc * x)))
