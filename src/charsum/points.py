"""Point enumeration, counting and sampling for polynomial systems over
F_q.

The contract is brute force with a q^n candidate budget.  Over F_p one
front end, `_eliminate`, reduces the system mod p and finds it empty when
a polynomial reduces, or is substituted down, to a nonzero constant.
Within the budget two elementary shortcuts keep desk-scale sweeps fast
without any point-counting machinery:

  * variables that occur linearly with a unit (constant, invertible)
    coefficient are eliminated by substitution, so graphs, lines and
    diagonals cost p instead of p^n;
  * one remaining equation of degree 1 or 2 in some free variable y is
    solved for y by the quadratic formula, vectorized over the grid of
    the other free variables (p odd); the other equations filter those
    solutions, and counting needs only whether each discriminant is a
    square.

Without such an equation (or at p = 2) the grid over all free variables
is scanned in chunks; a single free variable takes the root finder.
Extension fields take the plain object scan (small q only): every
candidate point goes through `MPoly.evaluate`, with the coefficients
reduced into the field once per call.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import product

import numpy as np

from .errors import BudgetError, CharsumError
from .ffield import ExtFieldDesc
from .mpoly import MPoly, pow_mod_array
from .polyroots import roots_mod_p

DEFAULT_BUDGET = 10 ** 9
_CHUNK = 1 << 19


def _system_nvars(system, nvars):
    if nvars is None:
        if not system:
            raise CharsumError("empty system needs an explicit nvars")
        nvars = system[0].nvars
    for f in system:
        if f.nvars != nvars:
            raise CharsumError("system polynomials disagree on nvars")
    if nvars < 1:
        raise CharsumError("need at least one variable")
    return nvars


def _check_budget(q, n, budget):
    if q ** n > budget:
        raise BudgetError("enumeration budget exceeded: %d^%d > %d"
                          % (q, n, budget))


def _validate_box(box, n, p):
    if box is None:
        return None
    if len(box) != n:
        raise CharsumError("box must give a range per variable")
    out = []
    for lo, hi in box:
        lo, hi = int(lo), int(hi)
        if not (0 <= lo <= hi <= p):
            raise CharsumError("box ranges must satisfy 0 <= lo <= hi <= p")
        out.append((lo, hi))
    return out


def _reduce_poly(f: MPoly, p) -> MPoly:
    return MPoly(f.nvars, {e: Fraction(c) for e, c in f.reduce_mod(p).items()})


def _prepare(system, p):
    """The polynomials reduced mod p, zeros dropped; None when one is a
    nonzero constant (provably no points)."""
    reduced = []
    for f in system:
        g = _reduce_poly(f, p)
        if g.is_zero():
            continue
        if g.is_constant():
            return None
        reduced.append(g)
    return reduced


def _unit_linear(system, free, p):
    """(index, var, replacement) for the first equation that is linear
    with a constant coefficient in a free variable, or None."""
    for idx, f in enumerate(system):
        for v in free:
            if f.degree_in(v) != 1:
                continue
            coeffs = f.as_univariate_in(v)
            if coeffs[1].is_constant():
                c = int(coeffs[1].constant_value())
                return idx, v, _reduce_poly(
                    coeffs[0] * Fraction(-pow(c, -1, p)), p)
    return None


def _eliminate(system, n, p):
    """Reduce mod p and substitute out unit-linear variables.

    Returns (substitutions, residual, free), or None when the system
    provably has no points: substitutions is a list of (var, replacement
    MPoly) in elimination order; every replacement references only
    variables free at its own elimination step.
    """
    sys_ = _prepare(system, p)
    free = list(range(n))
    subs = []
    while sys_ is not None:
        found = _unit_linear(sys_, free, p)
        if found is None:
            return subs, sys_, free
        idx, v, repl = found
        free.remove(v)
        subs.append((v, repl))
        sys_ = _prepare([g.substitute(v, repl)
                         for g in sys_[:idx] + sys_[idx + 1:]], p)
    return None


@lru_cache(maxsize=16)
def _sqrt_table(p):
    """t[c] = the smaller square root of c, or -1 (p odd)."""
    ys = np.arange((p + 1) // 2, dtype=np.int64)
    tbl = np.full(p, -1, dtype=np.int64)
    tbl[ys * ys % p] = ys
    return tbl


def _disc(a, b, c, p):
    """b^2 - 4ac mod p on residue arrays.  For p < 2^31, b^2 < 2^62 and
    4 (ac mod p) < 2^33, so reducing ac first keeps the difference inside
    int64 (4ac itself can pass 2^63)."""
    return (b * b - 4 * (a * c % p)) % p


def _inv_mod_array(a, p):
    return pow_mod_array(a, p - 2, p)


def _free_grid(free_count, p, flat):
    """Columns of the lex-ordered grid over the free variables for the
    given flat indices (all below p^free_count)."""
    cols = []
    for _ in range(free_count - 1):
        flat, rem = np.divmod(flat, p)
        cols.append(rem)
    cols.append(flat)
    return cols[::-1]


def _eval_on(f, p, n, assign):
    """assign: dict var -> array; absent variables do not occur in f and
    are passed as the scalar 0."""
    return f.eval_mod_arrays(p, [assign.get(i, 0) for i in range(n)])


def _fibre_equation(residual, free, p):
    """(f, y): a residual equation of degree 1 or 2 in the free variable
    y, whose fibres over the other free variables the quadratic formula
    solves; (None, None) when there is none or p = 2 (the grid is
    scanned)."""
    if p > 2 and len(free) > 1:
        for f in residual:
            for y in reversed(free):
                if 1 <= f.degree_in(y) <= 2:
                    return f, y
    return None, None


def _fibre_count(c0, c1, c2, p):
    """Number of (row, y) with c2 y^2 + c1 y + c0 = 0 over all rows.  A
    quadratic row has 1 + (disc != 0) roots when disc is a square, that is
    (s >= 0) + (s > 0) for its smaller root s."""
    quad = c2 != 0
    count = 0
    if quad.any():
        s = _sqrt_table(p)[_disc(c2, c1, c0, p)]
        count = (np.count_nonzero(quad & (s >= 0))
                 + np.count_nonzero(quad & (s > 0)))
    flat = ~quad
    lin = np.count_nonzero(flat & (c1 != 0))
    full = np.count_nonzero(flat & (c1 == 0) & (c0 == 0))
    return int(count + lin + full * p)


def _fibre_points(c0, c1, c2, p):
    """(rows, ys) pieces, aligned: the roots y of c2 y^2 + c1 y + c0 over
    each row.  A degenerate row, all three coefficients zero, has every y;
    those come in pieces of about _CHUNK points."""
    pieces = []
    quad = np.flatnonzero(c2)
    if len(quad):
        a, b = c2[quad], c1[quad]
        s = _sqrt_table(p)[_disc(a, b, c0[quad], p)]
        inv2a = _inv_mod_array(2 * a % p, p)
        has, two = s >= 0, s > 0
        pieces.append((quad[has], ((s - b) % p * inv2a % p)[has]))
        pieces.append((quad[two], ((-s - b) % p * inv2a % p)[two]))
    flat = c2 == 0
    lin = np.flatnonzero(flat & (c1 != 0))
    if len(lin):
        pieces.append((lin, -c0[lin] % p * _inv_mod_array(c1[lin], p) % p))
    full = np.flatnonzero(flat & (c1 == 0) & (c0 == 0))
    step = max(1, _CHUNK // p)
    for i in range(0, len(full), step):
        part = full[i:i + step]
        pieces.append((np.repeat(part, p),
                       np.tile(np.arange(p, dtype=np.int64), len(part))))
    return pieces


def _solve_residual(residual, free, n, p, count_only=False):
    """Solutions of the residual system over the free variables.

    Returns (columns, count): columns maps var -> aligned int64 array of
    solutions; a count_only call may leave it empty.  With a fibre equation
    the grid runs over the other free variables and each row's y values
    come from the quadratic formula; otherwise the grid runs over all of
    them.  Either way the remaining equations filter the candidates.
    """
    k = len(free)
    if k == 0:
        return {}, 1  # the empty assignment
    if count_only and not residual:
        return {}, p ** k
    if k == 1 and residual:
        v = free[0]
        base = residual[0].as_univariate_in(v)
        coeffs = [int(c.constant_value()) for c in base]
        roots = sorted(set(roots_mod_p(coeffs, p)))
        arr = np.array(roots, dtype=np.int64)
        for g in residual[1:]:
            vals = _eval_on(g, p, n, {v: arr})
            arr = arr[vals == 0]
        return {v: arr}, len(arr)

    f, y = _fibre_equation(residual, free, p)
    grid = [v for v in free if v != y]
    filters = [g for g in residual if g is not f]
    if f is not None:
        coeffs = f.as_univariate_in(y)
        while len(coeffs) < 3:
            coeffs.append(MPoly(n, {}))
    total = p ** len(grid)
    keep = {v: [np.zeros(0, np.int64)] for v in free}
    count = 0
    for start in range(0, total, _CHUNK):
        flat = np.arange(start, min(start + _CHUNK, total), dtype=np.int64)
        cols = dict(zip(grid, _free_grid(len(grid), p, flat)))
        if f is None:
            pieces = [cols]
        else:
            c0, c1, c2 = (_eval_on(c, p, n, cols) for c in coeffs)
            if count_only and not filters:
                count += _fibre_count(c0, c1, c2, p)
                continue
            pieces = []
            for rows, ys in _fibre_points(c0, c1, c2, p):
                piece = {v: col[rows] for v, col in cols.items()}
                piece[y] = ys
                pieces.append(piece)
        for piece in pieces:
            for g in filters:
                ok = _eval_on(g, p, n, piece) == 0
                piece = {v: col[ok] for v, col in piece.items()}
            count += len(piece[free[0]])
            if not count_only:
                for v in free:
                    keep[v].append(piece[v])
    if count_only:
        return {}, count
    return {v: np.concatenate(keep[v]) for v in free}, count


def _reconstruct(subs, columns, n, p, length):
    """Fill eliminated coordinates; columns maps var -> aligned array."""
    zero = np.zeros(length, dtype=np.int64)
    for v, repl in reversed(subs):
        arrays = [columns.get(i, zero) for i in range(n)]
        columns[v] = repl.eval_mod_arrays(p, arrays) if repl.terms else \
            np.zeros(length, dtype=np.int64)
    return columns


def _assemble(columns, n, length, box, p):
    mat = np.empty((length, n), dtype=np.int64)
    for i in range(n):
        mat[:, i] = columns[i]
    if box is not None:
        mask = np.ones(length, dtype=bool)
        for i, (lo, hi) in enumerate(box):
            mask &= (mat[:, i] >= lo) & (mat[:, i] < hi)
        mat = mat[mask]
    order = np.lexsort(tuple(mat[:, i] for i in range(n - 1, -1, -1)))
    mat = mat[order]
    return [tuple(int(v) for v in row) for row in mat]


def enumerate_points(system, field, nvars=None, box=None,
                     budget=DEFAULT_BUDGET):
    """All common zeros, sorted lexicographically.

    `field` is an ExtFieldDesc or a prime.  Boxes (half-open residue
    ranges, one per variable) are a prime-field notion.
    """
    if isinstance(field, int):
        field = ExtFieldDesc(field, 1)
    n = _system_nvars(system, nvars)
    _check_budget(field.order, n, budget)
    if field.e > 1:
        if box is not None:
            raise CharsumError("box requires prime field")
        return _enumerate_fq(system, field, n)
    p = field.p
    box = _validate_box(box, n, p)
    elim = _eliminate(system, n, p)
    if elim is None:
        return []
    subs, residual, free = elim
    columns, length = _solve_residual(residual, free, n, p)
    _reconstruct(subs, columns, n, p, length)
    return _assemble(columns, n, length, box, p)


def count_points(system, field, nvars=None, box=None, budget=DEFAULT_BUDGET):
    """|V(F_q)| (or the count inside a box), without materializing points
    when a shortcut applies."""
    if isinstance(field, int):
        field = ExtFieldDesc(field, 1)
    n = _system_nvars(system, nvars)
    if box is not None or field.e > 1:
        return len(enumerate_points(system, field, nvars=n, box=box,
                                    budget=budget))
    _check_budget(field.order, n, budget)
    elim = _eliminate(system, n, field.p)
    if elim is None:
        return 0
    _, residual, free = elim
    return _solve_residual(residual, free, n, field.p, count_only=True)[1]


def _field_coeffs(field, polys):
    """The `coeff` map of MPoly.evaluate over `field` for these
    polynomials, each coefficient reduced once."""
    table = {c: field.rational(c) for f in polys for c in f.terms.values()}
    table[0] = field.zero()
    return table.__getitem__


def _enumerate_fq(system, field, n):
    coeff = _field_coeffs(field, system)
    return [point for point in product(field.elements(), repeat=n)
            if all(f.evaluate(point, coeff).is_zero() for f in system)]


def sample_points(system, p, count, nvars=None):
    """Deterministic point sampling for large p (no full enumeration).

    Supports systems that reduce, after unit-linear elimination, to at
    most a plane curve.  Raises when it cannot produce `count` points.
    """
    n = _system_nvars(system, nvars)
    elim = _eliminate(system, n, p)
    if elim is None:
        raise CharsumError("insufficient samples: no points mod %d" % p)
    subs, residual, free = elim

    sol_rows = []
    k = len(free)
    if not residual:
        for flat in range(min(count, p ** k)):
            assign = {}
            rem = flat
            for v in reversed(free):
                assign[v] = rem % p
                rem //= p
            sol_rows.append(assign)
    elif k == 1:
        v = free[0]
        coeffs = [int(c.constant_value())
                  for c in residual[0].as_univariate_in(v)]
        roots = sorted(set(roots_mod_p(coeffs, p)))
        for r in roots:
            if all(g.eval_mod(p, _point_of({v: r}, n)) == 0
                   for g in residual[1:]):
                sol_rows.append({v: r})
    elif k == 2:
        xv, yv = free
        for t in range(60 * count + 120):
            uni = _prepare([g.substitute(xv, t) for g in residual], p)
            if uni is None:
                continue
            if not uni:
                sol_rows.append({xv: t, yv: 0})
            else:
                coeffs = [int(c.constant_value())
                          for c in uni[0].as_univariate_in(yv)]
                for r in sorted(set(roots_mod_p(coeffs, p))):
                    if all(g.eval_mod(p, _point_of({xv: t, yv: r}, n)) == 0
                           for g in uni[1:]):
                        sol_rows.append({xv: t, yv: r})
            if len(sol_rows) >= count:
                break
    else:
        raise CharsumError("insufficient samples: system too wide for "
                           "large-prime sampling")

    if len(sol_rows) < count:
        raise CharsumError("insufficient samples: found %d of %d mod %d"
                           % (len(sol_rows), count, p))
    points = []
    for assign in sol_rows[:count]:
        assign = dict(assign)
        for v, repl in reversed(subs):
            assign[v] = repl.eval_mod(p, _point_of(assign, n))
        points.append(_point_of(assign, n))
    return points


def _point_of(assign, n):
    return tuple(assign.get(i, 0) for i in range(n))
