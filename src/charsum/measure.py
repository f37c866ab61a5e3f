"""Counting-measure sweeps, the finite Fourier transform (an FFT), and
pushforward moments on the torus.

The leading-order measure of a variety at p is |D(F_p)| / p^dim; the
signed refinement compares two varieties at the sqrt(p) scale.  Dimension
is always the caller's declared dimension: a log-log slope estimate is
attached as a warning, never as a correction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial

import numpy as np

from .angles import character_sum
from .errors import BadPrimeError, BudgetError, CharsumError
from .parallel import pmap
from .points import (_CHUNK, DEFAULT_BUDGET, _check_budget, _free_grid,
                     _point_matrix, _system_nvars, count_points, lower)

FOURIER_BUDGET = 1 << 24

# the slope's distance from the declared dimension that sets dim_warning
_DIM_GAP = 0.25


@dataclass(frozen=True)
class MeasureSeries:
    declared_dim: int
    records: tuple          # (p, counts..., normalized) tuples
    skipped: tuple          # (p, reason)
    dim_estimate: float | None
    dim_warning: bool


def _slope(points):
    """Least-squares slope of log(count) against log(p)."""
    pts = [(math.log(p), math.log(c)) for p, c in points if c > 0]
    if len(pts) < 2:
        return None
    mx = sum(x for x, _ in pts) / len(pts)
    my = sum(y for _, y in pts) / len(pts)
    sxx = sum((x - mx) ** 2 for x, _ in pts)
    if sxx == 0:
        return None
    sxy = sum((x - mx) * (y - my) for x, y in pts)
    return sxy / sxx


def _count_worker(plans, budget, p):
    """(p, counts, None) with one count per lowered system, or
    (p, None, reason) when p is skipped."""
    try:
        counts = tuple(count_points(plan, p, budget=budget)
                       for plan in plans)
        return p, counts, None
    except BadPrimeError:
        return p, None, "bad prime"
    except BudgetError:
        return p, None, "budget exceeded"


def _count_series(systems, declared_dim, primes, budget, jobs, normalize):
    """Records (p, counts..., normalize(p, counts...)) along the primes;
    the dimension slope is taken from the first count.  Each system is
    lowered once, here, so the workers receive the plans.  A system in n
    variables with 2^n over the budget exceeds it at every prime, since
    p^n >= 2^n, and is refused before it is lowered."""
    for system, nvars in systems:
        _check_budget(2, _system_nvars(system, nvars), budget)
    plans = tuple(lower(system, nvars) for system, nvars in systems)
    worker = partial(_count_worker, plans, budget)
    records, skipped = [], []
    for p, counts, reason in sorted(pmap(worker, list(primes), jobs)):
        if reason is not None:
            skipped.append((p, reason))
            continue
        records.append((p, *counts, normalize(p, *counts)))
    slope = _slope([rec[:2] for rec in records])
    warn = slope is not None and abs(slope - declared_dim) >= _DIM_GAP
    return MeasureSeries(declared_dim=declared_dim, records=tuple(records),
                         skipped=tuple(skipped), dim_estimate=slope,
                         dim_warning=warn)


def mu0_sweep(system, declared_dim, primes, nvars=None,
              budget=DEFAULT_BUDGET, jobs=1) -> MeasureSeries:
    """|D(F_p)| / p^dim along the prime list; bad or over-budget primes are
    recorded as skipped, not silently dropped."""
    return _count_series([(system, nvars)], declared_dim, primes, budget,
                         jobs, lambda p, count: count / p ** declared_dim)


def mu1_sweep(system_x, system_xp, declared_dim, primes, nvars_x=None,
              nvars_xp=None, budget=DEFAULT_BUDGET, jobs=1) -> MeasureSeries:
    """p^(1/2 - dim) (|X| - |X'|): the sqrt-scale signed comparison of two
    varieties whose leading-order counts agree."""
    return _count_series([(system_x, nvars_x), (system_xp, nvars_xp)],
                         declared_dim, primes, budget, jobs,
                         lambda p, cx, cxp: p ** (0.5 - declared_dim)
                         * (cx - cxp))


def _check_table_size(p, n):
    if p ** n > FOURIER_BUDGET:
        raise BudgetError("table budget exceeded: %d^%d > %d"
                          % (p, n, FOURIER_BUDGET))


def _table_array(p, n, fill=0, dtype=np.float64):
    """A fresh (p,)*n array, real unless `dtype` says otherwise, refused
    before allocation when it would exceed FOURIER_BUDGET cells."""
    _check_table_size(p, n)
    arr = np.zeros((p,) * n, dtype=dtype)
    if fill:
        arr.fill(fill)
    return arr


class ValueTable:
    """A real- or complex-valued function on F_p^n, stored densely: a
    float64 table when every value is real, else complex128."""

    __slots__ = ("p", "n", "values")

    def __init__(self, p, n, values):
        """Wraps a complex copy of `values`, so the caller's array stays
        theirs."""
        values = np.array(values, dtype=np.complex128)
        if values.shape != (p,) * n:
            raise CharsumError("value table must have shape (p,)*n")
        values.setflags(write=False)
        self.p, self.n, self.values = p, n, values

    @classmethod
    def _adopt(cls, p, n, arr):
        """Wraps a fresh (p,)*n float64 or complex128 array without
        copying it; the array is made read-only, so no one may write to
        it afterwards."""
        arr.setflags(write=False)
        table = cls.__new__(cls)
        table.p, table.n, table.values = p, n, arr
        return table

    @classmethod
    def indicator(cls, p, n, points):
        """1 on the points (an (N, n) int array or a sequence of n-tuples,
        each coordinate taken mod p), 0 elsewhere; a real table."""
        arr = _table_array(p, n)
        pts = np.asarray(points, dtype=np.int64).reshape(-1, n) % p
        arr[tuple(pts.T)] = 1.0
        return cls._adopt(p, n, arr)

    def __getitem__(self, idx):
        if isinstance(idx, int):
            idx = (idx,)
        return complex(self.values[tuple(int(v) % self.p for v in idx)])

    def norm_sq_mean(self) -> float:
        """p^{-n} sum |phi|^2 (the measure-side Plancherel quantity)."""
        return sum_abs_sq(self.values) / self.p ** self.n


_BLOCK_CELLS = 1 << 14  # cells per block of a blockwise pass


def sum_abs_sq(values) -> float:
    """sum |v|^2 over a real or complex table: the squares of its real
    and imaginary parts, summed pairwise a block at a time, so no
    full-size temporary is made."""
    flat = np.ascontiguousarray(values).reshape(-1)
    if np.iscomplexobj(flat):
        flat = flat.view(np.float64)
    return float(np.sum([np.sum(np.square(flat[at:at + _BLOCK_CELLS]))
                         for at in range(0, flat.size, _BLOCK_CELLS)]))


def fourier_table(table: ValueTable) -> ValueTable:
    """F(phi)(y) = p^{-n} sum_x Psi_p(x.y) phi(x), the full complex table,
    for a real or complex phi.

    This is exactly numpy's inverse FFT, whose kernel is e(+x.y/p) with
    the factor p^{-n}: O(p^n log p) time, prime lengths taking
    Bluestein's chirp-z algorithm.  It allocates one output table: the
    first axis reads the input, and every later axis is transformed in
    place in the output, which the result then wraps without a copy.
    The defining sum, applied axis by axis, is kept in the tests as the
    oracle this is checked against.
    """
    p, n = table.p, table.n
    _check_table_size(p, n)
    out = np.empty(table.values.shape, dtype=np.complex128)
    np.fft.ifftn(table.values, out=out)
    return ValueTable._adopt(p, n, out)


def half_spectrum(table: ValueTable):
    """F(phi) of a real table on the half y_n in [0, p // 2], one complex
    array of p^(n-1) (p // 2 + 1) cells; the rest of F(phi) is
    F(-y) = conj F(y).  The real FFT of the last axis is the one
    allocation; every other axis is transformed in place, and the
    forward kernel e(-x.y/p) is turned into F's by conjugating, which
    for a real phi is exact."""
    p, n = table.p, table.n
    _check_table_size(p, n)
    half = np.fft.rfft(table.values, axis=-1)
    for axis in range(n - 1):
        np.fft.fft(half, axis=axis, out=half)
    np.conjugate(half, out=half)
    half /= p ** n
    return half


def fourier_check(table: ValueTable, verify=False):
    """(lhs, rhs, inversion error): the Plancherel sides p^{-n} sum|phi|^2
    and sum|F(phi)|^2, and with `verify` the `inversion_error` of
    F(F(phi)), else None.

    A complex phi takes the full transforms of `fourier_table`.  A real
    phi takes its half spectrum: there a column y_n stands for itself
    and its mirror -y_n, so it counts twice in rhs, except y_n = 0 and,
    at p = 2 only, y_n = 1, which are their own mirrors.
    F(F(phi)) = p^{-n} phi(-x) is real, so the second transform runs in
    place on the half spectrum and its real inverse FFT of the last axis
    makes one float64 table: at most three real-size tables are held at
    once."""
    p, n = table.p, table.n
    lhs = table.norm_sq_mean()
    back = None
    if np.iscomplexobj(table.values):
        out = fourier_table(table)
        rhs = sum_abs_sq(out.values)
        if verify:
            back = fourier_table(out)
    else:
        half = half_spectrum(table)
        lone = (0,) if p % 2 else (0, p // 2)
        rhs = 2 * sum_abs_sq(half) - sum(sum_abs_sq(half[..., k])
                                         for k in lone)
        if verify:
            for axis in range(n - 1):
                np.fft.ifft(half, axis=axis, out=half)
            back = ValueTable._adopt(p, n, np.fft.irfft(half, n=p, axis=-1))
    return lhs, rhs, None if back is None else inversion_error(table, back)


def inversion_error(table: ValueTable, back: ValueTable) -> float:
    """max_x |back(x) - phi(-x) / p^n|, where phi is `table` and `back`
    should be F(F(phi)).  Every cell is compared, a block of rows of the
    first axis at a time, so no third full-size table is made; the
    maximum of elementwise values is the same in any block order."""
    p, n = table.p, table.n
    neg = (-np.arange(p)) % p
    other = tuple(range(1, n))
    step = max(1, _BLOCK_CELLS // p ** (n - 1))
    dtype = np.result_type(table.values, back.values)
    worst = []
    for start in range(0, p, step):
        rows = table.values[neg[start:start + step]].astype(dtype, copy=False)
        if other:
            # flipping sends x to p - 1 - x, rolling by one to -x
            rows = np.roll(np.flip(rows, axis=other), 1, axis=other)
        rows /= p ** n
        np.subtract(back.values[start:start + step], rows, out=rows)
        worst.append(np.max(np.abs(rows)))
    return float(np.max(worst))


def delta_table(p, n, at=None) -> ValueTable:
    """A real table, 1 at `at` (the origin by default) and 0 elsewhere."""
    arr = _table_array(p, n)
    arr[tuple((at or (0,) * n))] = 1.0
    return ValueTable._adopt(p, n, arr)


def constant_table(p, n, value=1.0) -> ValueTable:
    """The constant `value`: a real table unless `value` is complex."""
    dtype = np.complex128 if np.iscomplexobj(value) else np.float64
    return ValueTable._adopt(p, n, _table_array(p, n, value, dtype))


@dataclass(frozen=True)
class PushforwardMoments:
    p: int
    npoints: int
    moments: tuple  # ((m, complex value), ...) with W_0 first, then lex


def pushforward_weyl(system, p, max_moment, nvars=None,
                     budget=DEFAULT_BUDGET) -> PushforwardMoments:
    """Moments W_m = |D|^{-1} sum_x Psi_p(m.x) of the pushforward of the
    normalized counting measure of D under x -> (Psi(x_1), ..., Psi(x_n)).

    The (2M+1)^n - 1 nonzero moment vectors m, |m_i| <= M = max_moment,
    meet the N points in one product of at most _CHUNK cells per block of
    moments; more than `budget` cells in all is refused before the first.
    """
    _check_table_size(p, 1)  # character_sum reads a table of p values
    mat = _point_matrix(system, p, nvars, None, budget)
    npts, n = mat.shape
    if not npts:
        raise CharsumError("no points mod %d" % p)
    side = 2 * max_moment + 1
    total = side ** n
    if (total - 1) * npts > budget:
        raise BudgetError("moment budget exceeded: %d moments x %d points "
                          "> %d" % (total - 1, npts, budget))
    moments = [((0,) * n, 1.0 + 0.0j)]
    step = max(1, _CHUNK // npts)
    for start in range(0, total, step):
        flat = np.arange(start, min(start + step, total), dtype=np.int64)
        flat = flat[flat != total // 2]  # the zero vector is the centre
        vecs = np.stack(_free_grid(n, side, flat), axis=1) - max_moment
        dots = (vecs % p) @ mat.T % p   # (moments, points)
        moments += [(vec, character_sum(row, p) / npts)
                    for vec, row in zip(map(tuple, vecs.tolist()), dots)]
    return PushforwardMoments(p=p, npoints=npts, moments=tuple(moments))
