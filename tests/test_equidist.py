import random
from fractions import Fraction
from unittest import mock

import pytest

from charsum import (dfi_extended_sweep, dfi_sweep, equidist, ks_statistic,
                     multi_weyl, nfield, sample_histogram, sp_check, weyl_sum)
from charsum.errors import CharsumError


def ks_brute(values):
    """Reference: sup over jump points of |F_n - x| on both sides."""
    xs = sorted(values)
    n = len(xs)
    best = 0.0
    for i, x in enumerate(xs):
        best = max(best, abs((i + 1) / n - x), abs(i / n - x))
    return best


def test_ks_statistic_matches_reference():
    rng = random.Random(5)
    for _ in range(40):
        values = [rng.random() for _ in range(rng.randint(1, 200))]
        assert abs(ks_statistic(values) - ks_brute(values)) < 1e-12


def test_ks_statistic_known_values():
    assert abs(ks_statistic([0.5]) - 0.5) < 1e-15
    # perfectly spaced midpoints minimize the distance
    n = 10
    mids = [(i + 0.5) / n for i in range(n)]
    assert abs(ks_statistic(mids) - 0.05) < 1e-15
    with pytest.raises(CharsumError):
        ks_statistic([])


def test_weyl_sum_exact_on_rotations():
    n = 60
    values = [i / n for i in range(n)]
    for h in (1, 2, 7, 59):
        assert abs(weyl_sum(values, h)) < 1e-12
    assert abs(weyl_sum(values, n) - 1.0) < 1e-12
    assert abs(weyl_sum(values, 0) - 1.0) < 1e-15


def test_weyl_sum_conjugate_symmetry_is_bitwise():
    rng = random.Random(7)
    values = [rng.random() for _ in range(500)]
    for h in (1, 2, 3, 9):
        assert weyl_sum(values, h).conjugate() == weyl_sum(values, -h)


def test_histogram_counts():
    samples = ((7, 1, Fraction(1, 7)), (7, 3, Fraction(3, 7)),
               (7, 6, Fraction(6, 7)))
    assert sample_histogram(samples, 2) == [2, 1]
    assert sum(sample_histogram(samples, 10)) == 3


def test_dfi_sweep_on_gaussian_integers():
    rep = dfi_sweep("x^2 + 1", 300)
    assert rep.command == "dfi"
    assert rep.params["certificate"] == "no rational roots (degree 2)"
    assert not rep.empty
    skipped = dict(rep.skipped)
    assert 2 in skipped  # divides the discriminant
    for p, r, angle in rep.samples:
        assert p % 4 == 1
        assert (r * r + 1) % p == 0
        assert angle == Fraction(r, p)
    # both square roots of -1 show up for each split prime
    per_prime = {}
    for p, r, _ in rep.samples:
        per_prime.setdefault(p, []).append(r)
    assert all(len(rs) == 2 for rs in per_prime.values())
    assert all(sum(rs) == p for p, rs in per_prime.items())


def test_dfi_congruence_filter():
    full = dfi_sweep("x^2 + 1", 300)
    filt = dfi_sweep("x^2 + 1", 300, congruence=(4, 1))
    assert filt.samples == full.samples  # only 1 mod 4 contributes anyway
    assert all(p % 4 == 1 for p, _ in filt.skipped) or not filt.skipped


def test_dfi_rejects_degenerate_inputs():
    with pytest.raises(CharsumError):
        dfi_sweep("5", 100)
    with pytest.raises(CharsumError):
        dfi_sweep("x - 3", 100)
    with pytest.raises(CharsumError):
        dfi_sweep("x^2 - 1", 100)
    with pytest.raises(CharsumError):
        dfi_sweep("x^2 - 2*x + 1", 100)


def test_dfi_empty_sweep():
    rep = dfi_sweep("x^2 + 1", 2)
    assert rep.empty and rep.ks is None and rep.weyl == ()


def test_dfi_rational_coefficients_clear_denominators():
    a = dfi_sweep("1/2*x^2 + 1/2", 200)
    b = dfi_sweep("x^2 + 1", 200)
    assert a.samples == b.samples


def test_dfi_weyl_ladder_depth():
    rep = dfi_sweep("x^2 + 1", 200, weyl_depth=3)
    assert [h for h, _ in rep.weyl] == [1, 2, 3]


def test_dfiext_with_identity_map_matches_dfi():
    base = dfi_sweep("x^3 - x - 1", 200)
    ext = dfi_extended_sweep("x^3 - x - 1", "x", 200)
    assert ext.samples == base.samples
    assert ext.command == "dfiext"


@pytest.mark.parametrize("poly,congruence", [("x^2 + 1", None),
                                             ("x^3 - 2", (3, 1))])
def test_dfi_is_the_identity_element_sweep(poly, congruence):
    base = dfi_sweep(poly, 2000, congruence)
    ext = dfi_extended_sweep(poly, "x", 2000, congruence)
    assert base.samples and ext.samples == base.samples
    assert ext.skipped == base.skipped
    assert ext.ks == base.ks
    assert ext.weyl == base.weyl
    assert "split_only" not in base.params
    assert ext.params["split_only"] is False


def test_reducible_non_monic_input_names_its_rational_factor():
    with pytest.raises(CharsumError, match="divisible by x - 1/2$"):
        dfi_sweep("2*x^2 - 3*x + 1", 100)
    with pytest.raises(CharsumError, match="divisible by x \\+ 1/2$"):
        dfi_extended_sweep("6*x^2 + x - 1", "x", 100)
    with pytest.raises(CharsumError, match="divisible by x$"):
        multi_weyl("x^3 - x^2", 100, (1,))


@pytest.mark.parametrize("poly", ["x^5 - x - 1", "2*x^4 + x + 1"])
def test_a_sweep_runs_one_rational_root_test(poly):
    test = mock.Mock(wraps=nfield._refuse_rational_root)
    with mock.patch.object(equidist, "_refuse_rational_root", test), \
            mock.patch.object(nfield, "_refuse_rational_root", test):
        assert dfi_sweep(poly, 100).params["certificate"].startswith(
            "irreducible mod ")
    assert test.call_count == 1


def test_dfiext_values_are_g_of_root():
    rep = dfi_extended_sweep("x^3 - 2", "x^2 + 3*x", 300)
    for p, v, angle in rep.samples:
        # v = r^2 + 3r for some cube root r of 2 mod p
        roots = [r for r in range(p) if pow(r, 3, p) == 2 % p]
        assert v in {(r * r + 3 * r) % p for r in roots}
        assert angle == Fraction(v, p)


def test_dfiext_rational_coefficients_reduce_mod_p():
    rep = dfi_extended_sweep("x^2 + 1", "5/6*x^2 + 1/4*x - 2/3", 300)
    assert rep.samples
    for p, v, _ in rep.samples:
        roots = [r for r in range(p) if (r * r + 1) % p == 0]
        assert v in {(5 * pow(6, -1, p) * r * r + pow(4, -1, p) * r
                      - 2 * pow(3, -1, p)) % p for r in roots}
    assert {2, 3} <= {p for p, _ in rep.skipped}


def test_dfiext_rational_element_rejected():
    with pytest.raises(CharsumError):
        dfi_extended_sweep("x^2 - 2", "x^2 - 2", 100)
    with pytest.raises(CharsumError):
        dfi_extended_sweep("x^2 - 2", "7", 100)
    # g = x^2 reduces to the rational 2 modulo x^2 - 2
    with pytest.raises(CharsumError):
        dfi_extended_sweep("x^2 - 2", "x^2", 100)


def test_dfiext_split_only_filters_partial_primes():
    loose = dfi_extended_sweep("x^3 - 2", "x", 200)
    strict = dfi_extended_sweep("x^3 - 2", "x", 200, split_only=True)
    assert set(strict.samples) <= set(loose.samples)
    split_primes = {p for p, _, _ in strict.samples}
    assert all(len([s for s in strict.samples if s[0] == p]) == 3
               for p in split_primes)
    assert any(reason == "not split" for _, reason in strict.skipped)


def test_dfiext_denominator_primes_are_skipped():
    rep = dfi_extended_sweep("x^2 + 1", "1/3*x", 100)
    skipped = dict(rep.skipped)
    assert 3 in skipped
    assert "denominator" in skipped[3]


def test_multiweyl_zero_vector_rejected():
    with pytest.raises(CharsumError):
        multi_weyl("x^2 + 1", 100, (0, 0))
    with pytest.raises(CharsumError):
        multi_weyl("x^2 + 1", 100, ())


def test_multiweyl_agrees_with_dfiext_bit_for_bit():
    f = "x^3 - x - 1"
    for hvec, g in (((2, 3), "2*x + 3*x^2"), ((1,), "x"),
                    ((0, 0, 5), "5*x^3")):
        mw = multi_weyl(f, 400, hvec)
        ext = dfi_extended_sweep(f, g, 400, weyl_depth=1)
        assert mw.samples == ext.samples
        assert len(mw.weyl) == 1
        (hgot, wgot), = mw.weyl
        assert hgot == hvec
        assert wgot == ext.weyl[0][1]  # identical floats, not just close
        assert mw.ks is None


def test_multiweyl_small_joint_sums():
    rep = multi_weyl("x^2 + 1", 10 ** 3, (1, 1))
    assert not rep.empty
    (_, w), = rep.weyl
    assert abs(w) < 0.5  # crude: far from full correlation


def test_sp_check_exact_records():
    rep = sp_check(3, 100)
    assert rep.all_ok
    rec = {r.p: r for r in rep.records}
    assert (3, "divides n") in rep.skipped
    r7 = rec[7]
    assert r7.residue == 5  # 3 * 5 = 15 = 1 mod 7
    assert r7.angle == Fraction(5, 7)
    assert r7.t == 2
    assert r7.dist == Fraction(1, 21)
    assert r7.k == 1
    assert r7.law_ok and r7.pairing_ok


def test_sp_check_various_moduli():
    for n in (1, 2, 4, 5, 6, 12):
        rep = sp_check(n, 500)
        assert rep.all_ok, n
        for r in rep.records:
            assert r.dist == Fraction(1, n * r.p)
            if n > 1:
                assert (r.t + pow(r.p % n, -1, n)) % n == 0
            else:
                assert r.t == 0


def test_sp_check_validation():
    with pytest.raises(CharsumError):
        sp_check(0, 100)
    with pytest.raises(CharsumError):
        sp_check(-3, 100)


def test_sweep_reports_are_picklable_and_deterministic():
    a = dfi_sweep("x^2 + 1", 400, jobs=1)
    b = dfi_sweep("x^2 + 1", 400, jobs=3)
    assert a.samples == b.samples
    assert a.ks == b.ks
    assert a.weyl == b.weyl
