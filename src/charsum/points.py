"""Point enumeration, counting and sampling for polynomial systems over
F_q.

The contract is brute force with a q^n candidate budget.  Over F_p one
elimination routine, `_eliminate`, works over Q or over F_p: it finds
the system empty when a polynomial is, or is substituted down to, a
nonzero constant, and substitutes out the variables that occur linearly
with a unit (constant, invertible) coefficient, so graphs, lines and
diagonals cost p instead of p^n.  `_lower` makes its result a `Plan`:
the substitutions, the residual equations and, when one residual
equation has degree 1 or 2 in a free variable y, that fibre equation's
coefficients c0, c1, c2 in y and its discriminant c1^2 - 4 c0 c2, all
held as one `mpoly.Lowered`.  The fibre equation is solved for y by the
quadratic formula, vectorized over the grid of the other free variables
(p odd); the other equations filter those solutions, and counting needs
only whether each discriminant is a square.  Without such an equation
(or at p = 2) the grid over all free variables is scanned in chunks.
On grids every polynomial is evaluated by `polyroots.horner`.  One free
variable, the others fixed, is solved in one step: each equation's
coefficients in that variable (`_coeffs_in`), then their common roots
(`_common_roots`).  It serves a single free variable and each line that
sampling walks.

`lower` makes the plan once over Q, for counting or enumerating one
system at many primes.  At an ordinary prime that plan only reduces its
numerators, with one inverse of their denominator.  p = 2 and the primes
dividing a numerator or denominator of any polynomial the elimination
over Q produced are exceptional: there, as for a system passed as it is,
the system is lowered over F_p.

Over F_p, enumeration yields one (N, n) int64 matrix of residues, its
rows sorted lexicographically (`_point_matrix`); the package's F_p
consumers read that matrix, and `enumerate_points` is its tuple view.
`sample_points` is likewise the tuple view of `_sample_matrix`, which
walks a plane curve along the lines x = t and, when those give too few
points, along the lines y = t.

Extension fields take the plain object scan (small q only): every
candidate point goes through `MPoly.evaluate`, with the coefficients
reduced into the field once per call.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import product, zip_longest

import numpy as np

from . import fppoly
from .errors import DEFAULT_BUDGET, BudgetError, CharsumError
from .ffield import prime_field
from .mpoly import Lowered, MPoly, pow_mod_array
from .polyroots import horner, roots_mod_p

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


def _reduce(f, p):
    """f over the domain: itself over Q (p None), else reduced mod p."""
    if p is None:
        return f
    return MPoly(f.nvars, {e: Fraction(c) for e, c in f.reduce_mod(p).items()})


def _prepare(system, p, seen):
    """The polynomials over the domain, zeros dropped, each nonzero one
    also appended to seen; None when one is a nonzero constant (provably
    no points)."""
    reduced = []
    for f in system:
        g = _reduce(f, p)
        if g.is_zero():
            continue
        seen.append(g)
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
                c = coeffs[1].constant_value()
                inv = 1 / c if p is None else pow(int(c), -1, p)
                return idx, v, _reduce(coeffs[0] * -inv, p)
    return None


def _eliminate(system, n, p, seen=None):
    """Substitute out unit-linear variables over Q (p None) or, after
    reducing mod p, over F_p.

    Returns (substitutions, residual, free), or None when the system
    provably has no points: substitutions is a list of (var, replacement
    MPoly) in elimination order; every replacement references only
    variables free at its own elimination step.  `seen`, when given,
    collects the nonzero polynomials of every round.
    """
    seen = [] if seen is None else seen
    sys_ = _prepare(system, p, seen)
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
                         for g in sys_[:idx] + sys_[idx + 1:]], p, seen)
    return None


def _fibre_equation(residual, free, p):
    """(f, y): a residual equation of degree 1 or 2 in the free variable
    y, whose fibres over the other free variables the quadratic formula
    solves; (None, None) when there is none or p = 2 (the grid is
    scanned).  Over Q (p None) the prime is odd, 2 being exceptional."""
    if p != 2 and len(free) > 1:
        for f in residual:
            for y in reversed(free):
                if 1 <= f.degree_in(y) <= 2:
                    return f, y
    return None, None


class Plan:
    """A system after `_eliminate` over Q (p None) or F_p, its
    polynomials lowered to Horner trees of one `Lowered`, `low`.

    `empty` says the system provably has no points.  Otherwise
    `eliminated` holds the (var, replacement MPoly) pairs `_eliminate`
    made, `subs` the same as (var, tree), `residual` the trees of the
    remaining equations over the `free` variables, `fibre` (y, [c0, c1,
    c2, disc]) when there is a fibre equation (None otherwise), and
    `filters` the residual trees other than the fibre equation's.  Over
    Q, `exceptional` is 2 times the product of every numerator and
    denominator of every polynomial the elimination produced: at a prime
    dividing none of them the elimination mod p makes the same choices,
    raises no bad-prime error and yields the reductions of these
    polynomials.
    """

    __slots__ = ("n", "system", "exceptional", "empty", "low", "eliminated",
                 "subs", "residual", "free", "fibre", "filters")

    def __init__(self, system, n, p=None):
        self.n, self.system = n, system
        seen = []
        elim = _eliminate(system, n, p, seen)
        self.exceptional = None if p is not None else 2 * math.prod(
            {abs(c.numerator) * c.denominator
             for g in seen for c in g.terms.values()})
        self.empty = elim is None
        if self.empty:
            return
        self.eliminated, residual, self.free = elim
        f, y = _fibre_equation(residual, self.free, p)
        polys = [repl for _, repl in self.eliminated] + residual
        if f is not None:
            c0, c1, c2 = (f.as_univariate_in(y) + [MPoly(n, {})] * 2)[:3]
            polys += [c0, c1, c2, c1 * c1 - 4 * c0 * c2]
        self.low = Lowered(polys)
        trees = iter(self.low.trees)
        self.subs = [(v, next(trees)) for v, _ in self.eliminated]
        self.residual = [next(trees) for _ in residual]
        self.fibre = None if f is None else (y, list(trees))
        self.filters = [t for g, t in zip(residual, self.residual)
                        if g is not f]


def lower(system, nvars=None) -> Plan:
    """`system` lowered once over Q, for use at many primes: pass the plan
    to count_points, enumerate_points or sample_points in place of the
    system."""
    return Plan(system, _system_nvars(system, nvars))


def _unpack(system, nvars):
    """(polynomials, nvars) of a system or of the plan `lower` made."""
    if isinstance(system, Plan):
        return system.system, system.n
    return system, _system_nvars(system, nvars)


def _plan_at(system, n, p):
    """(plan, residues) at p for a system or a Q plan: the Q plan itself
    at an ordinary prime, else the system lowered over F_p."""
    if not isinstance(system, Plan):
        plan = Plan(system, n, p)
    elif system.exceptional % p:
        plan = system
    else:
        plan = Plan(system.system, n, p)
    return plan, None if plan.empty else plan.low.residues(p)


def _sqrt_table(p):
    """t[c] = the smaller square root of c, or -1 (p odd)."""
    ys = np.arange((p + 1) // 2, dtype=np.int64)
    tbl = np.full(p, -1, dtype=np.int64)
    tbl[ys * ys % p] = ys
    return tbl


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


def _rows_where(mask, rows):
    """How many of `rows` rows a mask holds: a column, or a scalar that
    holds for every row or none."""
    return int(np.count_nonzero(mask)) * (1 if np.ndim(mask) else rows)


def _fibre_count(coeffs, ev, p, rows):
    """Number of (row, y) with c2 y^2 + c1 y + c0 = 0 over `rows` rows,
    for coeffs = (c0, c1, c2, disc) trees, disc = c1^2 - 4 c0 c2, and ev
    their evaluator (each value a column, or a scalar for every row).
    Only the values some row needs are taken: a quadratic row has
    1 + (disc != 0) roots when disc is a square, that is (s >= 0) +
    (s > 0) for its smaller root s; a flat row needs c1 and c0."""
    c0, c1, c2, disc = coeffs
    c2 = ev(c2)
    quad, flat = c2 != 0, c2 == 0
    count = 0
    if quad.any() if np.ndim(quad) else quad:
        s = _sqrt_table(p)[ev(disc)]
        count = (_rows_where(quad & (s >= 0), rows)
                 + _rows_where(quad & (s > 0), rows))
    if flat.any() if np.ndim(flat) else flat:
        c0, c1 = ev(c0), ev(c1)
        count += (_rows_where(flat & (c1 != 0), rows)
                  + _rows_where(flat & (c1 == 0) & (c0 == 0), rows) * p)
    return count


def _fibre_points(coeffs, ev, p, rows):
    """(rows, ys) pieces, aligned: the roots y of c2 y^2 + c1 y + c0 over
    each of `rows` rows (arguments as for _fibre_count).  A degenerate
    row, all three coefficients zero, has every y; those come in pieces of
    about _CHUNK points.  A coefficient that is one scalar for every row
    is inverted once, before it is broadcast."""
    values = [ev(t) for t in coeffs]
    c0, c1, c2, disc = (np.broadcast_to(v, rows) for v in values)
    pieces = []
    quad = np.flatnonzero(c2)
    if len(quad):
        a = values[2] if np.ndim(values[2]) == 0 else c2[quad]
        b = c1[quad]
        s = _sqrt_table(p)[disc[quad]]
        inv2a = _inv_mod_array(2 * a % p, p)
        has, two = s >= 0, s > 0
        pieces.append((quad[has], ((s - b) % p * inv2a % p)[has]))
        pieces.append((quad[two], ((-s - b) % p * inv2a % p)[two]))
    flat = c2 == 0
    lin = np.flatnonzero(flat & (c1 != 0))
    if len(lin):
        c = values[1] if np.ndim(values[1]) == 0 else c1[lin]
        pieces.append((lin, -c0[lin] % p * _inv_mod_array(c, p) % p))
    full = np.flatnonzero(flat & (c1 == 0) & (c0 == 0))
    step = max(1, _CHUNK // p)
    for i in range(0, len(full), step):
        part = full[i:i + step]
        pieces.append((np.repeat(part, p),
                       np.tile(np.arange(p, dtype=np.int64), len(part))))
    return pieces


def _coeffs_in(tree, v, res, p, at):
    """Residues of a `Lowered` tree's coefficients in the variable v,
    little-endian, with each other variable w of the tree fixed at the
    int at[w]."""
    if isinstance(tree, int):
        return [res[tree]]
    w, kids = tree
    parts = [_coeffs_in(kid, v, res, p, at) for kid in kids]
    if w == v:
        return [c for c, in parts]  # the kids are free of v
    out = []
    for part in reversed(parts):  # Horner in at[w]
        out = [(a * at[w] + b) % p
               for a, b in zip_longest(out, part, fillvalue=0)]
    return out


def _common_roots(polys, p):
    """Sorted common roots over F_p of residue lists (little-endian, one
    per equation); None when every list is zero, so that no equation
    constrains the variable."""
    polys = [f for f in (fppoly.trim(list(g)) for g in polys) if f]
    if not polys:
        return None
    return [r for r in sorted(set(roots_mod_p(polys[0], p)))
            if all(fppoly.evaluate(f, r, p) == 0 for f in polys[1:])]


def _solve(plan, res, p, count_only=False):
    """Solutions of the plan's residual system over its free variables,
    given its residues at p.

    Returns (columns, count): columns maps var -> aligned int64 array of
    solutions; a count_only call may leave it empty.  With a fibre equation
    the grid runs over the other free variables and each row's y values
    come from the quadratic formula; otherwise the grid runs over all of
    them.  Either way the remaining equations filter the candidates.
    """
    free = plan.free
    k = len(free)
    if k == 0:
        return {}, 1  # the empty assignment
    if count_only and not plan.residual:
        return {}, p ** k
    if k == 1 and plan.residual:
        v = free[0]
        # each residual equation is nonzero mod p: the roots are a list
        arr = np.array(_common_roots([_coeffs_in(g, v, res, p, {})
                                      for g in plan.residual], p),
                       dtype=np.int64)
        return {v: arr}, len(arr)

    y, coeffs = plan.fibre or (None, None)
    grid = [v for v in free if v != y]
    total = p ** len(grid)
    keep = {v: [np.zeros(0, np.int64)] for v in free}
    count = 0
    for start in range(0, total, _CHUNK):
        flat = np.arange(start, min(start + _CHUNK, total), dtype=np.int64)
        cols = dict(zip(grid, _free_grid(len(grid), p, flat)))
        if y is None:
            pieces = [cols]
        else:
            def ev(tree):
                return horner(tree, res, p, cols)
            if count_only and not plan.filters:
                count += _fibre_count(coeffs, ev, p, len(flat))
                continue
            pieces = []
            for rows, ys in _fibre_points(coeffs, ev, p, len(flat)):
                piece = {v: col[rows] for v, col in cols.items()}
                piece[y] = ys
                pieces.append(piece)
        for piece in pieces:
            for g in plan.filters:
                ok = horner(g, res, p, piece) == 0
                piece = {v: col[ok] for v, col in piece.items()}
            count += len(piece[free[0]])
            if not count_only:
                for v in free:
                    keep[v].append(piece[v])
    if count_only:
        return {}, count
    return {v: np.concatenate(keep[v]) for v in free}, count


def _reconstruct(plan, res, columns, p, length):
    """Fill eliminated coordinates; columns maps var -> aligned array."""
    for v, tree in reversed(plan.subs):
        col = horner(tree, res, p, columns)
        columns[v] = col if np.ndim(col) else \
            np.full(length, col, dtype=np.int64)
    return columns


def _assemble(columns, n, box):
    """The int64 matrix of the aligned columns, cut to the box, its rows
    sorted lexicographically."""
    mat = np.stack([columns[i] for i in range(n)], axis=1)
    if box is not None:
        lo, hi = np.array(box, dtype=np.int64).T
        mat = mat[((mat >= lo) & (mat < hi)).all(axis=1)]
    return mat[np.lexsort(mat.T[::-1])]


def _point_matrix(system, p, nvars, box, budget):
    """All common zeros over F_p as one (N, n) int64 matrix of residues,
    rows sorted lexicographically: the one F_p enumeration.  Arguments as
    for enumerate_points, with p a prime."""
    prime_field(p)  # refuses a non-prime
    n = _unpack(system, nvars)[1]
    _check_budget(p, n, budget)
    box = _validate_box(box, n, p)
    plan, res = _plan_at(system, n, p)
    if plan.empty:
        return np.zeros((0, n), dtype=np.int64)
    columns, length = _solve(plan, res, p)
    _reconstruct(plan, res, columns, p, length)
    return _assemble(columns, n, box)


def enumerate_points(system, field, nvars=None, box=None,
                     budget=DEFAULT_BUDGET):
    """All common zeros, sorted lexicographically, as tuples.

    `system` is a list of MPolys or the plan `lower` made of one; `field`
    is an ExtFieldDesc or a prime.  Boxes (half-open residue ranges, one
    per variable) are a prime-field notion.  Over F_p this is the tuple
    view of `_point_matrix`.
    """
    if isinstance(field, int):
        field = prime_field(field)
    if field.e == 1:
        mat = _point_matrix(system, field.p, nvars, box, budget)
        return list(map(tuple, mat.tolist()))
    polys, n = _unpack(system, nvars)
    _check_budget(field.order, n, budget)
    if box is not None:
        raise CharsumError("box requires prime field")
    return _enumerate_fq(polys, field, n)


def count_points(system, field, nvars=None, box=None, budget=DEFAULT_BUDGET):
    """|V(F_q)| (or the count inside a box), without materializing points
    when a shortcut applies; `system` as for enumerate_points."""
    if isinstance(field, int):
        field = prime_field(field)
    n = _unpack(system, nvars)[1]
    if field.e > 1:
        return len(enumerate_points(system, field, nvars=n, box=box,
                                    budget=budget))
    if box is not None:
        return len(_point_matrix(system, field.p, n, box, budget))
    _check_budget(field.order, n, budget)
    plan, res = _plan_at(system, n, field.p)
    if plan.empty:
        return 0
    return _solve(plan, res, field.p, count_only=True)[1]


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


def _sample_matrix(system, p, count, nvars=None, across=False):
    """The points of `sample_points` as one (count, n) int64 matrix;
    `across` as for `_sample_plane`."""
    n = _unpack(system, nvars)[1]
    plan, res = _plan_at(system, n, p)
    if plan.empty:
        raise CharsumError("insufficient samples: no points mod %d" % p)
    free = plan.free
    k = len(free)
    if not plan.residual:
        length = min(count, p ** k)
        columns = dict(zip(free, _free_grid(
            k, p, np.arange(length, dtype=np.int64))))
    elif k == 1:
        columns, length = _solve(plan, res, p)
    elif k == 2:
        columns, length = _sample_plane(plan, res, p, count, across)
    else:
        raise CharsumError("insufficient samples: system too wide for "
                           "large-prime sampling")
    if length < count:
        raise CharsumError("insufficient samples: found %d of %d mod %d"
                           % (length, count, p))
    columns = {v: col[:count] for v, col in columns.items()}
    _reconstruct(plan, res, columns, p, count)
    return np.stack([columns[i] for i in range(n)], axis=1)


def sample_points(system, p, count, nvars=None):
    """Deterministic point sampling for large p < 2^31 (no full
    enumeration); `system` as for enumerate_points.

    Supports systems that reduce, after unit-linear elimination, to at
    most a plane curve.  Raises when it cannot produce `count` points.
    """
    return list(map(tuple, _sample_matrix(system, p, count, nvars).tolist()))


def _sample_plane(plan, res, p, count, across=False):
    """(columns, length) of the first points of a residual system in two
    free variables x < y, line by line: on x = t, t = 0, 1, ... below p,
    the common roots in y.  A line that no equation constrains lies in
    the curve and adds no points; the crossing lines sample it.  When
    these lines give fewer than count points, the lines y = t follow;
    `across` walks the lines y = t first."""
    xv, yv = plan.free
    lines = ((xv, yv), (yv, xv))
    found = {}  # ordered set: a point on lines of both kinds counts once
    for line, v in lines[::-1] if across else lines:
        for t in range(min(p, 60 * count + 120)):
            if len(found) >= count:
                break
            roots = _common_roots([_coeffs_in(g, v, res, p, {line: t})
                                   for g in plan.residual], p)
            for r in roots or ():
                found[(t, r) if line == xv else (r, t)] = None
    xs, ys = np.array(list(found), dtype=np.int64).reshape(-1, 2).T
    return {xv: xs, yv: ys}, len(found)
