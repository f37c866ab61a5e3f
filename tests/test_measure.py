import cmath
import math

import numpy as np
import pytest

from charsum import (ValueTable, constant_table, delta_table, fourier_table,
                     mu0_sweep, mu1_sweep, parse_polynomial, primes_in,
                     pushforward_weyl)
from charsum import measure
from charsum.errors import BudgetError, CharsumError
from charsum.measure import (fourier_check, half_spectrum, inversion_error,
                             sum_abs_sq)

TOL = 1e-9


def table_from_function(p, n, fn):
    """The table of fn at every index tuple of F_p^n."""
    vals = np.zeros((p,) * n, dtype=np.complex128)
    for idx in np.ndindex(*vals.shape):
        vals[idx] = fn(idx)
    return ValueTable(p, n, vals)


def poly(text, names=None):
    return parse_polynomial(text, variables=names).poly


# -- counting measures ---------------------------------------------------


def test_mu0_hyperbola_counts_exactly():
    system = [poly("x*y - 1", ("x", "y"))]
    primes = primes_in(100)
    series = mu0_sweep(system, 1, primes)
    assert len(series.records) == len(primes)
    for p, count, normalized in series.records:
        assert count == p - 1
        assert normalized == (p - 1) / p
    assert not series.dim_warning
    # the count is p - 1, not p, so the slope converges slowly from above
    assert abs(series.dim_estimate - 1) < 0.25


def test_mu0_wrong_declared_dimension_warns():
    system = [poly("x*y - 1", ("x", "y"))]
    series = mu0_sweep(system, 2, primes_in(100))
    assert series.dim_warning  # slope stays near 1, declared 2


def test_mu0_surface_dimension_estimate():
    # z = x * y is a graph over the plane: p^2 points
    system = [poly("z - x*y", ("x", "y", "z"))]
    series = mu0_sweep(system, 2, primes_in(60))
    for p, count, normalized in series.records:
        assert count == p * p
        assert normalized == 1.0
    assert not series.dim_warning


def test_mu0_skips_bad_primes():
    system = [poly("1/6*x - y", ("x", "y"))]
    series = mu0_sweep(system, 1, primes_in(30))
    skipped = dict(series.skipped)
    assert set(skipped) == {2, 3}
    assert all(reason == "bad prime" for reason in skipped.values())
    assert all(p not in skipped for p, _, _ in series.records)


def test_mu0_budget_is_reported_per_prime():
    system = [poly("x*y*z*w - 1", ("x", "y", "z", "w"))]
    series = mu0_sweep(system, 3, [3, 31], budget=10 ** 5)
    assert [(p, c) for p, c, _ in series.records] == [(3, 2 ** 3)]
    assert (31, "budget exceeded") in series.skipped


@pytest.mark.parametrize("nvars", [31, 40, 1200])
def test_mu0_refuses_a_system_that_fits_at_no_prime(nvars, monkeypatch):
    # p^n >= 2^n > budget at every prime, so the sweep is refused before
    # the system is lowered (1200 variables would exceed the recursion
    # limit there)
    monkeypatch.setattr(measure, "lower", None)
    names = ["a%d" % k for k in range(1, nvars + 1)]
    system = [poly("*".join(names))]
    with pytest.raises(BudgetError, match=r"exceeded: 2\^%d" % nvars):
        mu0_sweep(system, 1, primes_in(10))
    with pytest.raises(BudgetError):
        mu1_sweep(system, system, 1, primes_in(10))


def test_mu0_parallel_results_identical():
    system = [poly("y^2 - x^3 - x", ("x", "y"))]
    a = mu0_sweep(system, 1, primes_in(80), jobs=1)
    b = mu0_sweep(system, 1, primes_in(80), jobs=4)
    assert a == b


def test_mu1_cm_curve_satisfies_hasse():
    # y^2 = x^3 + x against the affine line; the trace vanishes at
    # p = 3 mod 4 and stays within 2 sqrt(p) always
    names = ("x", "y")
    curve = [poly("y^2 - x^3 - x", names)]
    line = [poly("y", names)]
    series = mu1_sweep(curve, line, 1, primes_in(200)[1:],
                       nvars_x=2, nvars_xp=2)
    for p, cx, cxp, normalized in series.records:
        assert cxp == p
        assert abs(normalized) <= 2 + TOL
        if p % 4 == 3:
            assert abs(normalized) < TOL


def test_mu1_equal_systems_give_zero():
    system = [poly("y - x^2", ("x", "y"))]
    series = mu1_sweep(system, system, 1, primes_in(50))
    assert all(r[-1] == 0 for r in series.records)


# -- value tables and the finite Fourier transform -----------------------


def test_value_table_shape_checks():
    with pytest.raises(CharsumError):
        ValueTable(5, 2, np.zeros((5, 4)))
    t = ValueTable(5, 1, np.arange(5))
    assert t[2] == 2
    assert t[(7,)] == 2  # indices reduce mod p
    assert t.values.flags.writeable is False


def test_from_function_and_indicator():
    t = table_from_function(7, 2, lambda idx: idx[0] + 1j * idx[1])
    assert t[(3, 4)] == 3 + 4j
    s = ValueTable.indicator(7, 1, [(1,), (5,), (8,)])
    assert s[1] == 1 and s[5] == 1 and s[0] == 0
    assert np.sum(s.values) == 2  # 8 = 1 mod 7 collapses


def test_fourier_of_delta_is_flat():
    p = 11
    out = fourier_table(delta_table(p, 1))
    assert np.allclose(out.values, np.full(p, 1 / p))
    out2 = fourier_table(delta_table(p, 2))
    assert np.allclose(out2.values, np.full((p, p), 1 / p ** 2))


def test_fourier_of_constant_is_delta():
    p = 13
    out = fourier_table(constant_table(p, 1, 1.0))
    expect = np.zeros(p, dtype=np.complex128)
    expect[0] = 1.0
    assert np.allclose(out.values, expect, atol=1e-12)


def test_fourier_of_shifted_delta_is_a_character():
    p = 7
    a = 3
    out = fourier_table(delta_table(p, 1, at=(a,)))
    for y in range(p):
        expect = cmath.exp(2j * cmath.pi * a * y / p) / p
        assert abs(out[y] - expect) < 1e-12


def defining_sum(values, p, n):
    """p^{-n} sum_x e(x.y/p) phi(x) read off the definition: the p x p
    kernel applied axis by axis, O(p^{n+1}) time and O(p^2) memory."""
    r = np.arange(p)
    kernel = np.exp(2j * np.pi * np.outer(r, r) / p)
    out = values
    for axis in range(n):
        out = np.moveaxis(np.tensordot(kernel, out, axes=([1], [axis])),
                          0, axis)
    return out / p ** n


def test_fourier_table_matches_the_defining_sum():
    rng = np.random.default_rng(2718)
    for p, n in ((97, 1), (13, 2), (7, 3)):
        vals = rng.standard_normal((p,) * n) \
            + 1j * rng.standard_normal((p,) * n)
        out = fourier_table(ValueTable(p, n, vals))
        assert np.max(np.abs(out.values - defining_sum(vals, p, n))) < 1e-12


def test_plancherel_identity():
    rng = np.random.default_rng(12345)
    for p, n in ((97, 1), (13, 2), (7, 3)):
        vals = rng.standard_normal((p,) * n) \
            + 1j * rng.standard_normal((p,) * n)
        t = ValueTable(p, n, vals)
        out = fourier_table(t)
        lhs = t.norm_sq_mean()
        rhs = float(np.sum(np.abs(out.values) ** 2))
        assert abs(lhs - rhs) < 1e-9 * max(1.0, lhs)


def test_double_transform_is_reflection_over_p_to_n():
    rng = np.random.default_rng(54321)
    for p, n in ((31, 1), (11, 2)):
        vals = rng.standard_normal((p,) * n) \
            + 1j * rng.standard_normal((p,) * n)
        t = ValueTable(p, n, vals)
        twice = fourier_table(fourier_table(t))
        flip = vals[tuple(np.ix_(*[(-np.arange(p)) % p
                                   for _ in range(n)]))]
        assert np.max(np.abs(twice.values - flip / p ** n)) < 1e-12


def test_fourier_table_equals_numpy_ifftn_bit_for_bit():
    rng = np.random.default_rng(1618)
    for p, n in ((101, 1), (1009, 1), (13, 2), (31, 2), (11, 3)):
        vals = rng.standard_normal((p,) * n) \
            + 1j * rng.standard_normal((p,) * n)
        t = ValueTable(p, n, vals)
        got = fourier_table(t).values
        assert np.array_equal(got.view(np.float64),
                              np.fft.ifftn(vals).view(np.float64))
        assert np.array_equal(t.values, vals)  # the input is untouched
        # a real table gives the bits of its complex copy
        real = ValueTable._adopt(p, n, vals.real.copy())
        assert np.array_equal(fourier_table(real).values.view(np.float64),
                              np.fft.ifftn(vals.real + 0j).view(np.float64))


def test_value_table_copies_and_adopted_tables_are_read_only():
    arr = np.arange(25, dtype=np.complex128).reshape(5, 5)
    t = ValueTable(5, 2, arr)
    assert not np.shares_memory(t.values, arr)
    arr[0, 0] = 7
    assert t[(0, 0)] == 0
    assert arr.flags.writeable  # the caller's array stays theirs
    for table in (t, fourier_table(t), delta_table(5, 2),
                  constant_table(5, 2), ValueTable.indicator(5, 1, [(2,)]),
                  table_from_function(5, 1, lambda idx: idx[0])):
        assert table.values.flags.writeable is False
        with pytest.raises(ValueError):
            table.values[(0,) * table.n] = 1
    fresh = np.zeros(5, dtype=np.complex128)
    adopted = ValueTable._adopt(5, 1, fresh)
    assert adopted.values is fresh and not fresh.flags.writeable


def test_inversion_error_matches_the_whole_table_difference(monkeypatch):
    rng = np.random.default_rng(3141)
    for p, n in ((101, 1), (31, 2), (7, 3)):
        vals = rng.standard_normal((p,) * n) \
            + 1j * rng.standard_normal((p,) * n)
        t = ValueTable(p, n, vals)
        back = ValueTable(p, n, vals[::-1] + rng.standard_normal((p,) * n)
                          * 1e-3)
        flip = vals[tuple(np.ix_(*[(-np.arange(p)) % p
                                   for _ in range(n)]))]
        expect = float(np.max(np.abs(back.values - flip / p ** n)))
        for cells in (1, 5, 64, 1 << 14):
            monkeypatch.setattr(measure, "_BLOCK_CELLS", cells)
            assert inversion_error(t, back) == expect
        twice = fourier_table(fourier_table(t))
        assert inversion_error(t, twice) < 1e-12


def full_transform_check(table):
    """(lhs, rhs, inversion error) read off numpy's full complex
    transforms, as the complex path takes them: the half spectrum's
    oracle."""
    p, n = table.p, table.n
    out = np.fft.ifftn(table.values)
    back = ValueTable(p, n, np.fft.ifftn(out))
    return (float(np.sum(np.abs(table.values) ** 2)) / p ** n,
            float(np.sum(np.abs(out) ** 2)),
            inversion_error(ValueTable(p, n, table.values), back))


def real_tables():
    rng = np.random.default_rng(4242)
    for p, n in ((97, 1), (1009, 1), (13, 2), (7, 3), (2, 1), (2, 3)):
        yield ValueTable._adopt(p, n, rng.standard_normal((p,) * n))
    yield ValueTable.indicator(13, 2, rng.integers(0, 13, (20, 2)))
    yield ValueTable.indicator(101, 1, [(3,), (50,)])
    yield delta_table(11, 2, at=(3, 5))
    yield constant_table(7, 3, 2.5)


def test_half_spectrum_check_matches_the_full_transform(monkeypatch):
    def full_table(table):
        raise AssertionError("a real table took the full transform")

    monkeypatch.setattr(measure, "fourier_table", full_table)
    for table in real_tables():
        p, n = table.p, table.n
        assert table.values.dtype == np.float64
        got = fourier_check(table, verify=True)
        expect = full_transform_check(table)
        assert max(abs(a - b) for a, b in zip(got, expect)) < 1e-12
        assert fourier_check(table) == got[:2] + (None,)
        half = half_spectrum(table)
        assert half.shape == (p,) * (n - 1) + (p // 2 + 1,)
        columns = defining_sum(table.values, p, n)[..., :p // 2 + 1]
        assert np.max(np.abs(half - columns)) < 1e-12


def test_complex_tables_keep_the_full_transform():
    rng = np.random.default_rng(2024)
    for p, n in ((97, 1), (13, 2), (7, 3)):
        vals = rng.standard_normal((p,) * n) \
            + 1j * rng.standard_normal((p,) * n)
        table = ValueTable(p, n, vals)
        got = fourier_check(table, verify=True)
        assert max(abs(a - b) for a, b in
                   zip(got, full_transform_check(table))) < 1e-12
    for table in real_tables():  # a real table against a complex F(F(phi))
        twice = fourier_table(fourier_table(table))
        assert inversion_error(table, twice) < 1e-12


def test_sum_abs_sq_in_blocks(monkeypatch):
    rng = np.random.default_rng(99)
    real = rng.standard_normal((31, 31))
    for values in (real, real + 1j * rng.standard_normal((31, 31)),
                   real[:, 0], (real + 0j)[:, 3]):
        expect = float(np.sum(np.abs(values) ** 2))
        for cells in (1, 5, 64, 1 << 14):
            monkeypatch.setattr(measure, "_BLOCK_CELLS", cells)
            assert abs(sum_abs_sq(values) - expect) <= 1e-12 * expect


def test_inversion_error_propagates_nan():
    vals = np.ones(11, dtype=np.complex128)
    vals[3] = complex("nan")
    t = ValueTable(11, 1, vals)
    assert math.isnan(inversion_error(t, constant_table(11, 1)))


def test_fourier_budget(monkeypatch):
    with pytest.raises(BudgetError):
        constant_table(499, 3)
    t = constant_table(257, 1)
    monkeypatch.setattr(measure, "FOURIER_BUDGET", 100)
    with pytest.raises(BudgetError):
        fourier_table(t)


# -- pushforward moments --------------------------------------------------


def test_pushforward_moments_of_a_shifted_diagonal():
    # on y = x + c the moment W_(h1,h2) is psi(h2 c) when h1 + h2 = 0
    # mod p and 0 otherwise
    p = 101
    c = 5
    system = [poly("y - x - 5", ("x", "y"))]
    res = pushforward_weyl(system, p, 2)
    assert res.npoints == p
    assert res.moments[0] == ((0, 0), 1.0 + 0.0j)
    for m, value in res.moments:
        h1, h2 = m
        if (h1 + h2) % p == 0:
            expect = cmath.exp(2j * cmath.pi * h2 * c / p)
            if m == (0, 0):
                expect = 1.0
            assert abs(value - expect) < 1e-9
        else:
            assert abs(value) < 1e-9


def test_pushforward_moment_count_and_order():
    system = [poly("y - x", ("x", "y"))]
    res = pushforward_weyl(system, 11, 1)
    ms = [m for m, _ in res.moments]
    assert ms[0] == (0, 0)
    assert len(ms) == 9
    assert ms[1:] == [(-1, -1), (-1, 0), (-1, 1), (0, -1), (0, 1),
                      (1, -1), (1, 0), (1, 1)]


def test_pushforward_requires_points():
    system = [poly("x", ("x",)), poly("x - 1", ("x",))]
    with pytest.raises(CharsumError):
        pushforward_weyl(system, 11, 1)
