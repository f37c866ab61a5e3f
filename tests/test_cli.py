import json
import re
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from charsum import equidist, primes_in
from charsum.cli import main

BASE = [sys.executable, "-m", "charsum"]


def run(*args):
    return subprocess.run(BASE + list(args), capture_output=True, text=True)


def test_version():
    r = run("--version")
    assert r.returncode == 0
    assert r.stdout.startswith("charsum ")


def test_usage_error_without_subcommand():
    r = run()
    assert r.returncode == 2


def test_weil_single_prime():
    r = run("weil", "--poly", "x^3 + x", "--prime", "101")
    assert r.returncode == 0
    assert "bound check: PASS" in r.stdout


def test_weil_needs_a_prime_or_a_limit():
    r = run("weil", "--poly", "x^2")
    assert r.returncode == 2
    assert "error:" in r.stderr
    both = run("weil", "--poly", "x^2", "--prime", "7", "--xlimit", "9")
    assert both.returncode == 2
    assert "not allowed with" in both.stderr


def test_jobs_only_on_pool_sweeps():
    r = run("weil", "--poly", "x", "--prime", "7", "--jobs", "2")
    assert r.returncode == 2
    assert "unrecognized arguments: --jobs" in r.stderr


def test_weil_wild_degree_single_prime_is_usage_error():
    r = run("weil", "--poly", "x^5", "--prime", "5")
    assert r.returncode == 2
    assert "wild degree" in r.stderr


def test_weil_sweep_skips_wild_primes(tmp_path):
    out = tmp_path / "weil.json"
    r = run("weil", "--poly", "x^3 + 2*x + 1", "--xlimit", "50",
            "--json", str(out))
    assert r.returncode == 0
    doc = json.loads(out.read_text())
    assert doc["command"] == "weil"
    assert doc["aggregate"]["all_passed"] is True
    skipped = {p for p, _ in doc["skipped"]}
    assert 3 in skipped  # gcd(3, 3) > 1
    assert all(rec["passed"] for rec in doc["records"])


def test_weil_trivial_character_single_prime_is_usage_error():
    r = run("weil", "--poly", "x^3 + x", "--prime", "7", "--twist", "0")
    assert r.returncode == 2
    assert "trivial character" in r.stderr


def test_weil_sweep_skips_primes_dividing_the_twist(tmp_path):
    out = tmp_path / "weil.json"
    r = run("weil", "--poly", "x^3 + x", "--xlimit", "50", "--twist", "7",
            "--json", str(out))
    assert r.returncode == 0
    doc = json.loads(out.read_text())
    skipped = dict(doc["skipped"])
    assert "trivial character" in skipped[7]
    assert 7 not in {rec["p"] for rec in doc["records"]}
    assert doc["aggregate"]["all_passed"] is True


def test_weil_constant_polynomial_has_degree_0(tmp_path):
    r = run("weil", "--poly", "5", "--prime", "7")
    assert r.returncode == 2
    assert r.stderr == "error: degree mod 7 is 0; need >= 1\n"
    # a sweep skips every prime with its reason, as it does for "0"; the
    # zero polynomial, 5 mod 5 among them, has degree -1
    for text in ("5", "0"):
        out = tmp_path / "weil.json"
        r = run("weil", "--poly", text, "--xlimit", "10", "--json", str(out))
        assert r.returncode == 0 and "Traceback" not in r.stderr
        doc = json.loads(out.read_text())
        assert doc["records"] == []
        assert doc["skipped"] == [
            [p, "degree mod %d is %d; need >= 1"
             % (p, 0 if int(text) % p else -1)] for p in (2, 3, 5, 7)]


def test_weil_and_dfi_read_an_unused_variable_alike(capsys):
    # "+ 0*x" names a variable the polynomial does not use
    for argv in (["weil", "--prime", "101"], ["weil", "--xlimit", "60"],
                 ["dfi", "--xlimit", "60"], ["latbasis", "--elems", "1; y"]):
        outs = []
        for text in ("y^3 + y + 1 + 0*x", "y^3 + y + 1"):
            assert main(argv + ["--poly", text]) == 0
            outs.append([line for line in capsys.readouterr().out
                         .splitlines() if not line.startswith("wall time:")])
        assert outs[0] == outs[1]


def test_weil_prime_over_budget_is_usage_error():
    r = run("weil", "--poly", "x^3 + x", "--prime", "1000000000000037")
    assert r.returncode == 2
    assert "budget exceeded" in r.stderr
    assert "Traceback" not in r.stderr


def run_capped(*args, cap=2 << 30):
    """run() in a child that caps its own address space at `cap` bytes,
    2 GiB unless given."""
    script = ("import resource, sys; "
              "resource.setrlimit(resource.RLIMIT_AS, (%d, %d)); "
              "from charsum.cli import main; sys.exit(main(sys.argv[1:]))"
              % (cap, cap))
    return subprocess.run([sys.executable, "-c", script, *args],
                          capture_output=True, text=True)


def test_out_of_memory_is_usage_error():
    # inside the point and table budgets, but the 10007^2 grid of the
    # plane is 764 MiB per int64 coordinate array
    r = run_capped("boxcount", "--system", "0", "--nvars", "2", "--prime",
                   "10007", "--box", "0:10007,0:10007", "--dim", "2",
                   "--flag-height", "0")
    assert r.returncode == 2
    assert r.stderr.startswith("error: out of memory: ")
    assert "Traceback" not in r.stderr


@pytest.mark.parametrize("argv", [
    ["weil", "--poly", "(x^4000000000)^4000000000", "--prime", "7"],
    ["dfi", "--poly", "(x^4000000000)^4000000000 + 1", "--xlimit", "10"],
    ["weil", "--poly", "x^4294967295", "--prime", "7"],
    ["mu0", "--system", "x^4000000000*y - 1", "--dim", "1", "--xlimit", "10"],
    ["weil", "--poly", "x^16777216", "--prime", "7"],
    ["mu0", "--system", "x^16777216*y - 1", "--dim", "1", "--xlimit", "10"],
], ids=["weil-overflow", "dfi-overflow", "weil-dense", "mu0-dense",
        "weil-2^24", "mu0-2^24"])
def test_huge_degree_is_refused_before_a_dense_form(argv):
    # each parses, but its dense coefficient list would not fit in memory
    r = run_capped(*argv, cap=1 << 30)
    assert r.returncode == 2
    assert "exceeds the dense-form cap 2^20" in r.stderr
    assert "Traceback" not in r.stderr
    assert "out of memory" not in r.stderr


@pytest.mark.parametrize("argv", [
    ["pushforward", "--system", "x^2-2", "--prime", "999999937"],
    ["axiom3", "--system", "x^2 - 2", "--laurent", "z1 + zb1", "--prime",
     "999999937"],
    ["pushforward", "--system", "0", "--nvars", "1", "--prime", "999999937"],
    ["axiom3", "--system", "0", "--nvars", "1", "--laurent", "z1 + zb1",
     "--prime", "999999937"],
    ["weil", "--poly", "x^3 + 1", "--prime", "50000017"],
], ids=["pushforward", "axiom3", "pushforward-line", "axiom3-line", "weil"])
def test_character_table_over_budget_is_refused_before_allocation(argv):
    # each passes the point budget, but the p-long table of character
    # values would take 14.9 GiB (763 MiB for weil); on the whole line the
    # check must also come before the p points are built
    r = run_capped(*argv, cap=1 << 30)
    assert r.returncode == 2
    assert "budget exceeded" in r.stderr
    assert "Traceback" not in r.stderr
    assert "out of memory" not in r.stderr


@pytest.mark.parametrize("argv", [
    ["dfi", "--poly", "x^65536 + 1", "--xlimit", "10"],
    ["latbasis", "--poly", "x^4096 + 3", "--elems", "x"],
    ["dfi", "--poly", "x^1025 + 1", "--xlimit", "10"],
    ["latbasis", "--poly", "x^1025 + 3", "--elems", "x"],
], ids=["dfi", "latbasis", "dfi-1025", "latbasis-1025"])
def test_sylvester_matrix_over_cap_is_refused_before_allocation(argv):
    # every degree over the number-field cap of 1024 is refused from the
    # degree alone
    r = run_capped(*argv, cap=1 << 30)
    assert r.returncode == 2
    assert "exceeds the number-field degree cap 1024" in r.stderr
    assert "Traceback" not in r.stderr
    assert "out of memory" not in r.stderr


@pytest.mark.parametrize("argv", [
    ["dfi", "--poly", "x^1024 - 1", "--xlimit", "10"],
    ["latbasis", "--poly", "x^1024 - 1", "--elems", "x"],
], ids=["dfi", "latbasis"])
def test_degree_at_the_cap_is_admitted(argv):
    r = run_capped(*argv, cap=1 << 30)
    assert r.returncode == 2
    assert r.stderr == "error: reducible: divisible by x + 1\n"


def test_trinomial_of_degree_512_fails_its_certificate_in_seconds():
    # reducible mod each of the 25 primes tried; its bad primes are read
    # mod p, with no Sylvester matrix of 1023^2 cells eliminated
    r = subprocess.run(BASE + ["dfi", "--poly", "x^512 + x + 1",
                               "--xlimit", "10"],
                       capture_output=True, text=True, timeout=10)
    assert r.returncode == 2
    assert "certificate not found" in r.stderr


def test_irreducibility_certificate_fails_in_seconds():
    # x^160 + x + 1 is reducible mod each of the 25 primes tried, and the
    # Frobenius walk stops at the first factor it meets at each
    r = subprocess.run(BASE + ["dfi", "--poly", "x^160 + x + 1",
                               "--xlimit", "10"],
                       capture_output=True, text=True, timeout=20)
    assert r.returncode == 2
    assert "certificate not found" in r.stderr


def test_pushforward_moment_count_is_refused_before_any_moment(tmp_path):
    # 36M nonzero moments against 1012 points, over the 10^9 budget
    out = tmp_path / "moments.json"
    r = run("pushforward", "--system", "x*y - 1", "--prime", "1013",
            "--max-moment", "3000", "--json", str(out))
    assert r.returncode == 2
    assert "moment budget exceeded" in r.stderr
    assert "Traceback" not in r.stderr
    assert not out.exists()


@pytest.mark.parametrize("source", [["--const", "1"], ["--delta"],
                                    ["--input", "table.csv"],
                                    ["--indicator", "x"]],
                         ids=["const", "delta", "input", "indicator"])
def test_fourier_table_over_budget_is_refused_before_allocation(tmp_path,
                                                                source):
    # 100003^2 and 31607^2 cells are 149 GiB and 14.9 GiB of complex128;
    # the size check must run before any table or point list is built
    table = tmp_path / "table.csv"
    table.write_text("0,0,1,0\n")
    source = [str(table) if a == "table.csv" else a for a in source]
    p = "31607" if source[0] == "--indicator" else "100003"
    r = run("fourier", "--prime", p, "--nvars", "2", *source)
    assert r.returncode == 2
    assert "budget exceeded" in r.stderr
    assert "Traceback" not in r.stderr


@pytest.mark.parametrize("argv", [["weil", "--poly", "x^3"],
                                  ["spcheck", "--n", "3"]],
                         ids=["weil", "spcheck"])
def test_huge_sweep_limit_is_refused_before_the_sieve(argv):
    r = run(*argv, "--xlimit", "1000000000000")
    assert r.returncode == 2
    assert "budget exceeded" in r.stderr
    assert "Traceback" not in r.stderr


def test_kappa_over_a_large_quadratic_extension():
    # the smallest modulus of F_{p^2}, p = 10^9 + 7 = 3 mod 4, is x^2 + 1;
    # the scan for it must not materialize the p candidate digits
    r = run("kappa", "--p-poly", "y^2 - b", "--q-poly", "y", "--point", "1",
            "--prime", "1000000007", "--ext", "2")
    assert r.returncode == 0, r.stderr
    assert "common value:" in r.stdout


def test_parse_error_is_exit_2():
    r = run("weil", "--poly", "2x", "--prime", "7")
    assert r.returncode == 2
    assert "error:" in r.stderr


def test_thousand_term_polynomial_runs():
    poly = " + ".join("x^%d" % k for k in range(1, 1001))
    r = run("weil", "--poly", poly, "--prime", "1000003")
    assert r.returncode == 0, r.stderr
    assert "Traceback" not in r.stderr


def test_non_decimal_exponent_is_a_parse_error():
    r = run("weil", "--poly", "x^\u00b2", "--prime", "7")
    assert r.returncode == 2
    assert "not a decimal number" in r.stderr
    assert "(at offset 2)" in r.stderr
    assert "Traceback" not in r.stderr


def test_sweep_of_a_system_that_fits_at_no_prime_is_refused():
    system = "*".join("a%d" % k for k in range(1, 1201))
    r = run("mu0", "--system", system, "--dim", "1", "--xlimit", "10")
    assert r.returncode == 2
    assert "budget exceeded" in r.stderr
    assert "Traceback" not in r.stderr


def test_congruence_flags_must_pair():
    r = run("dfi", "--poly", "x^2 + 1", "--xlimit", "50", "--mod", "4")
    assert r.returncode == 2


def test_axiom3_pass_and_fail():
    ok = run("axiom3", "--system", "x*y - 1",
             "--laurent", "z1*zb2 + zb1*z2", "--prime", "101")
    assert ok.returncode == 0
    assert "positivity check: PASS" in ok.stdout
    bad = run("axiom3", "--system", "x + 0*y",
              "--laurent", "0 - z1 - zb1", "--prime", "53")
    assert bad.returncode == 1
    assert "positivity check: FAIL" in bad.stdout


def test_axiom3_rejects_constant_term():
    r = run("axiom3", "--system", "x*y - 1", "--laurent", "z1*zb1",
            "--prime", "11")
    assert r.returncode == 2


def test_psisym_operations_verify():
    for op, extra in (("conj", []), ("add", ["--coeffs2", "2,3"]),
                      ("mul", ["--coeffs2", "2,3"])):
        r = run("psisym", "--prime", "13", "--coeffs", "1,5", "--op", op,
                "--verify", *extra)
        assert r.returncode == 0, r.stderr
        assert "PASS" in r.stdout


def test_psisym_needs_second_term_for_binary_ops():
    r = run("psisym", "--prime", "13", "--coeffs", "1,5", "--op", "add")
    assert r.returncode == 2


def test_psisym_extension_field():
    r = run("psisym", "--prime", "2", "--ext", "3", "--coeffs", "1,0,1",
            "--op", "conj", "--verify")
    assert r.returncode == 0
    assert "PASS" in r.stdout


def test_kappa_square_example():
    r = run("kappa", "--p-poly", "y^2 - b", "--q-poly", "y^2",
            "--point", "4", "--prime", "11")
    assert r.returncode == 0
    assert "common value: 4" in r.stdout
    r2 = run("kappa", "--p-poly", "y^2 - b", "--q-poly", "y",
             "--point", "4", "--prime", "11")
    assert "common value: 0" in r2.stdout


def test_kappa_root_var_flag():
    r = run("kappa", "--p-poly", "x - y^2", "--q-poly", "x + y",
            "--point", "3", "--prime", "5", "--root-var", "x")
    assert r.returncode == 0
    assert "root variable: x" in r.stdout
    bad = run("kappa", "--p-poly", "x - y^2", "--q-poly", "x + y",
              "--point", "3", "--prime", "5", "--root-var", "w")
    assert bad.returncode == 2


def test_boxcount_warns_on_hyperplane(tmp_path):
    r = run("boxcount", "--system", "x + 0*y", "--prime", "103",
            "--box", "0:103,0:52", "--dim", "1")
    assert r.returncode == 0
    assert "WARNING" in r.stdout
    assert "points in box: 52" in r.stdout
    clean = run("boxcount", "--system", "y - x^2", "--prime", "103",
                "--box", "0:52,0:52", "--dim", "1")
    assert clean.returncode == 0
    assert "WARNING" not in clean.stdout


def test_hyperplane_search_stops_when_the_samples_span_the_space():
    # the samples of the moment curve span F_q^5, so no candidate needs a
    # look; scanning every vector of height <= 20 takes about a minute
    start = time.perf_counter()
    r = subprocess.run(BASE + [
        "boxcount", "--system", "y - x^2; z - x^3; u - x^4; v - x^5",
        "--prime", "53", "--box", "0:20,0:20,0:20,0:20,0:20", "--dim", "1"],
        capture_output=True, text=True, timeout=30)
    assert time.perf_counter() - start < 5
    assert r.returncode == 0
    assert "WARNING" not in r.stdout


def test_boxcount_flags_a_cylinder_but_not_two_axes():
    # x*y = 0 is two lines through the origin, in no one line; the
    # cylinder (x - 1)^2 = 0 is the line x = 1
    axes = run("boxcount", "--system", "x*y", "--prime", "101",
               "--box", "0:50,0:50", "--dim", "1")
    assert axes.returncode == 0
    assert "WARNING" not in axes.stdout
    cylinder = run("boxcount", "--system", "(x-1)^2", "--nvars", "2",
                   "--prime", "101", "--box", "0:50,0:50", "--dim", "1")
    assert cylinder.returncode == 0
    assert "WARNING: variety lies in the hyperplane [1, 0] . x = 1 " \
        "(sampled over 3 large primes)" in cylinder.stdout


@pytest.mark.parametrize("height, code, warning", [
    ("21", 2, None), ("-3", 2, None), ("0", 0, None),
    ("5", 0, "[1, 0] . x = 0 (exact)")])
def test_boxcount_flag_height_range(capsys, height, code, warning):
    assert main(["boxcount", "--system", "x + 0*y", "--prime", "101",
                 "--box", "0:50,0:50", "--dim", "1",
                 "--flag-height", height]) == code
    out, err = capsys.readouterr()
    if code:
        assert "error: hyperplane height must be in [0, 20]" in err
        assert "points in box" not in out  # refused before counting
    else:
        assert ("WARNING" in out) == (warning is not None)
        assert warning is None or warning in out


def test_boxcount_box_format_errors():
    r = run("boxcount", "--system", "y - x", "--prime", "11",
            "--box", "0-5,0-5", "--dim", "1")
    assert r.returncode == 2


def test_mu0_json(tmp_path):
    out = tmp_path / "mu0.json"
    r = run("mu0", "--system", "x*y - 1", "--dim", "1", "--xlimit", "60",
            "--json", str(out))
    assert r.returncode == 0
    doc = json.loads(out.read_text())
    for p, count, normalized in doc["records"]:
        assert count == p - 1


def test_mu1_shares_the_variable_universe(tmp_path):
    out = tmp_path / "mu1.json"
    r = run("mu1", "--system", "y^2 - x^3 - x", "--system2", "y",
            "--dim", "1", "--xlimit", "200", "--json", str(out))
    assert r.returncode == 0
    doc = json.loads(out.read_text())
    for p, cx, cxp, normalized in doc["records"]:
        assert cxp == p  # the line y = 0 in the plane, not a point
        assert abs(normalized) <= 2 + 1e-9


def test_fourier_const_verify(tmp_path):
    out = tmp_path / "f.json"
    r = run("fourier", "--prime", "97", "--const", "1", "--verify",
            "--json", str(out))
    assert r.returncode == 0
    assert "inversion error" in r.stdout
    doc = json.loads(out.read_text())
    assert doc["aggregate"]["plancherel_diff"] <= 1e-9
    assert doc["aggregate"]["inversion_error"] <= 1e-9


@pytest.mark.parametrize("value", ["nan", "inf"])
def test_fourier_refuses_a_non_finite_const(tmp_path, capsys, value):
    report = tmp_path / "out.json"
    assert main(["fourier", "--prime", "7", "--nvars", "1", "--const", value,
                 "--verify", "--json", str(report)]) == 2
    assert "error: --const must be finite, got %s" % value \
        in capsys.readouterr().err
    assert not report.exists()


def test_fourier_verdict_and_exit_code_agree_on_nan(capsys, monkeypatch):
    from charsum import measure
    monkeypatch.setattr(measure, "inversion_error",
                        lambda *args: float("nan"))
    assert main(["fourier", "--prime", "7", "--const", "1",
                 "--verify"]) == 1
    assert "inversion error: nan -> FAIL" in capsys.readouterr().out


SCALES = ["1e-12", "1e-6", "1", "1e6", "1e12", "1e15"]


@pytest.mark.parametrize("const", SCALES)
def test_fourier_verify_passes_rounding_at_every_scale(const, capsys):
    # at 1e12 the inversion error is 3.6e-9, rounding of values near 1e6
    assert main(["fourier", "--prime", "1009", "--nvars", "2", "--const",
                 const, "--verify"]) == 0
    assert "-> PASS" in capsys.readouterr().out


@pytest.mark.parametrize("scale", SCALES)
def test_fourier_verify_passes_a_csv_table_at_every_scale(scale, tmp_path,
                                                          capsys):
    # a real table with values from 1 to 49 times the scale
    table = tmp_path / "t.csv"
    table.write_text("x1,x2,re,im\n" + "".join(
        "%d,%d,%r,0\n" % (i, j, (7 * i + j + 1) * float(scale))
        for i in range(7) for j in range(7)))
    assert main(["fourier", "--prime", "7", "--nvars", "2", "--input",
                 str(table), "--verify"]) == 0
    assert "-> PASS" in capsys.readouterr().out


def corrupt_one_back_cell(monkeypatch):
    """Make the inversion check see one cell of F(F(phi)) times
    1 + 1e-6."""
    from charsum import measure
    inversion_error = measure.inversion_error

    def corrupted(table, back):
        values = back.values.copy()
        values.flat[3] *= 1 + 1e-6
        return inversion_error(table, measure.ValueTable._adopt(
            back.p, back.n, values))
    monkeypatch.setattr(measure, "inversion_error", corrupted)


@pytest.mark.parametrize("const", SCALES)
def test_fourier_verify_fails_one_corrupted_cell_at_every_scale(
        const, capsys, monkeypatch):
    corrupt_one_back_cell(monkeypatch)
    assert main(["fourier", "--prime", "7", "--nvars", "2", "--const",
                 const, "--verify"]) == 1
    assert "-> FAIL" in capsys.readouterr().out


@pytest.mark.parametrize("p", [31, 37, 1009])
def test_fourier_verify_fails_one_corrupted_cell_of_a_large_table(
        p, capsys, monkeypatch):
    # the back transform's values are phi / p^n, so its rounding scale
    # shrinks with the table and a fixed relative error stays visible
    corrupt_one_back_cell(monkeypatch)
    assert main(["fourier", "--prime", str(p), "--nvars", "2", "--const",
                 "1", "--verify"]) == 1
    assert "-> FAIL" in capsys.readouterr().out


def test_fourier_verify_passes_a_zero_table(capsys):
    assert main(["fourier", "--prime", "1009", "--nvars", "2", "--const",
                 "0", "--verify"]) == 0
    assert "inversion error: 0 -> PASS" in capsys.readouterr().out


@pytest.mark.parametrize("op, field, coeffs2", [
    ("conj", ("13", "1"), None), ("add", ("13", "1"), "2,3"),
    ("mul", ("13", "1"), "2,3"), ("mul", ("3", "4"), "1,2")])
def test_psisym_verify_fails_an_identity_off_by_1e_12(op, field, coeffs2,
                                                      capsys, monkeypatch):
    from charsum import cli
    psi_sum = cli.psi_sum
    argv = ["psisym", "--prime", field[0], "--ext", field[1], "--coeffs",
            "1,5", "--op", op, "--verify"]
    argv += ["--coeffs2", coeffs2] if coeffs2 else []
    assert main(argv) == 0
    assert "-> PASS" in capsys.readouterr().out
    monkeypatch.setattr(cli, "psi_sum",
                        lambda roots, char: psi_sum(roots, char) + 1e-12)
    assert main(argv) == 1
    assert "-> FAIL" in capsys.readouterr().out


def test_every_catalogue_psisym_verify_passes(capsys, monkeypatch):
    # the root_angles benchmark's 168 --verify operations over F_2^6 and
    # F_3^4, whose identity errors reach 6.6 u max(1, roots)
    monkeypatch.syspath_prepend(str(Path(__file__).parents[1] / "bench"))
    workloads = pytest.importorskip("workloads")
    ops = [op for op in workloads.catalogue("root_angles")
           if op.argv[0] == "psisym" and "--verify" in op.argv]
    assert len(ops) == 168
    for op in ops:
        assert main(list(op.argv)) == 0, op.key
    assert capsys.readouterr().out.count("-> PASS") == 168


def test_weil_congruence_needs_a_limit(capsys):
    assert main(["weil", "--poly", "x^3+x+1", "--prime", "7", "--mod", "4",
                 "--res", "1"]) == 2
    assert "error: --mod and --res need --xlimit" in capsys.readouterr().err


def test_fourier_csv_round_trip(tmp_path):
    csv1 = tmp_path / "t1.csv"
    r = run("fourier", "--prime", "11", "--nvars", "2", "--delta",
            "--csv", str(csv1))
    assert r.returncode == 0
    # feeding the transform back in and transforming twice more returns
    # the (reflected, rescaled) delta; here just check the file reloads
    r2 = run("fourier", "--prime", "11", "--nvars", "2", "--input",
             str(csv1), "--verify")
    assert r2.returncode == 0


@pytest.mark.parametrize("cell", ["nan,0", "0,inf", "-inf,nan"])
def test_fourier_refuses_non_finite_csv_values(tmp_path, cell):
    table = tmp_path / "t.csv"
    rows = ["x1,x2,re,im"] + ["%d,%d,%s" % (i, j, "1,0")
                             for i in range(11) for j in range(11)]
    rows[1 + 3 * 11 + 4] = "3,4," + cell
    table.write_text("\n".join(rows) + "\n")
    report = tmp_path / "out.json"
    r = run("fourier", "--prime", "11", "--nvars", "2", "--input",
            str(table), "--verify", "--json", str(report))
    assert r.returncode == 2
    assert "row 39" in r.stderr and "not finite" in r.stderr
    assert "Traceback" not in r.stderr
    assert not report.exists()


@pytest.mark.parametrize("bad", ["2,1O,0", "4.5,1,0", "5,1", "6,1,0,0"])
def test_fourier_refuses_a_malformed_csv_row(tmp_path, bad):
    rows = ["x,re,im"] + ["%d,1,0" % x for x in range(7)] + [bad]
    table = tmp_path / "t.csv"
    table.write_text("\n".join(rows) + "\n")
    r = run("fourier", "--prime", "7", "--input", str(table))
    assert r.returncode == 2
    assert "row 9 of" in r.stderr and bad in r.stderr
    assert "Traceback" not in r.stderr


def test_fourier_reads_a_csv_without_header_and_with_blank_lines(tmp_path):
    table = tmp_path / "t.csv"
    table.write_text("0,1,0\n\n" + "".join("%d,1,0\n" % x
                                            for x in range(1, 7)) + "\n")
    r = run("fourier", "--prime", "7", "--input", str(table))
    assert r.returncode == 0, r.stderr
    assert "p^-n sum|f|^2 = 1," in r.stdout


def full_transform_aggregate(values):
    """The Plancherel sides and inversion error of a 1-D table as the full
    complex transforms give them."""
    p = len(values)
    out = np.fft.ifft(values)
    back = np.fft.ifft(out)
    lhs = float(np.sum(np.abs(values) ** 2)) / p
    rhs = float(np.sum(np.abs(out) ** 2))
    return {"plancherel_lhs": lhs, "plancherel_rhs": rhs,
            "plancherel_diff": abs(lhs - rhs),
            "inversion_error": float(np.max(np.abs(
                back - values[(-np.arange(p)) % p] / p)))}


@pytest.mark.parametrize("imag", [0.0, 1.0], ids=["real", "complex"])
def test_fourier_csv_input_takes_the_path_of_its_values(tmp_path,
                                                        monkeypatch, imag):
    # a real table never takes the full transform; a complex one does
    from charsum import measure
    full = measure.fourier_table
    calls = []
    monkeypatch.setattr(measure, "fourier_table",
                        lambda table: calls.append(table) or full(table))
    rng = np.random.default_rng(17)
    values = rng.standard_normal(13) + imag * 1j * rng.standard_normal(13)
    table = tmp_path / "t.csv"
    table.write_text("x,re,im\n" + "".join(
        "%d,%r,%r\n" % (x, float(v.real), float(v.imag))
        for x, v in enumerate(values)))
    report = tmp_path / "out.json"
    assert main(["fourier", "--prime", "13", "--input", str(table),
                 "--verify", "--json", str(report)]) == 0
    got = json.loads(report.read_text())["aggregate"]
    expect = full_transform_aggregate(values)
    assert got.keys() == expect.keys()
    for key in got:
        assert abs(got[key] - expect[key]) <= 1e-12
    assert len(calls) == (2 if imag else 0)


def test_fourier_csv_rows_are_the_full_complex_transform(tmp_path):
    from charsum.report import write_csv
    p = 7
    out = tmp_path / "out.csv"
    assert main(["fourier", "--prime", str(p), "--nvars", "2",
                 "--indicator", "x^2 + y^2 - 1", "--csv", str(out)]) == 0
    table = np.zeros((p, p), dtype=np.complex128)
    for x in range(p):
        for y in range(p):
            table[x, y] = (x * x + y * y - 1) % p == 0
    expect = tmp_path / "expect.csv"
    write_csv(expect, ["x1", "x2", "re", "im"],
              [idx + (v.real, v.imag)
               for idx, v in np.ndenumerate(np.fft.ifftn(table))])
    assert out.read_bytes() == expect.read_bytes()


def test_fourier_large_prime_const_runs(tmp_path):
    # p^n is inside the transform budget; no p x p kernel is built
    out = tmp_path / "f.json"
    r = run("fourier", "--prime", "1000003", "--nvars", "1", "--const", "1",
            "--json", str(out))
    assert r.returncode == 0, r.stderr
    agg = json.loads(out.read_text())["aggregate"]
    assert abs(agg["plancherel_lhs"] - 1) < 1e-9
    assert abs(agg["plancherel_rhs"] - 1) < 1e-9


def test_fourier_large_prime_delta_verify(tmp_path):
    p = 100003
    out = tmp_path / "f.json"
    r = run("fourier", "--prime", str(p), "--nvars", "1", "--delta",
            "--verify", "--json", str(out))
    assert r.returncode == 0, r.stderr
    agg = json.loads(out.read_text())["aggregate"]
    assert abs(agg["plancherel_lhs"] - 1 / p) <= 1e-9 / p
    assert abs(agg["plancherel_rhs"] - 1 / p) <= 1e-9 / p
    assert agg["inversion_error"] <= 1e-9


def test_fourier_verify_holds_at_most_three_tables(capsys):
    import tracemalloc
    from charsum.cli import main
    argv = ["fourier", "--nvars", "2", "--indicator", "x^2 + y^2 - 1",
            "--verify", "--prime"]
    assert main(argv + ["11"]) == 0  # imports and parser built outside
    p = 401
    tracemalloc.start()
    try:
        assert main(argv + [str(p)]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # three real-size tables: the input, its half spectrum, which the
    # second transform reuses, and F(F(phi)), plus the blockwise check
    assert peak <= 3.5 * 8 * p * p
    assert "inversion error" in capsys.readouterr().out


def test_main_calls_share_a_parser_without_leaking_arguments(tmp_path,
                                                             capsys):
    from charsum.cli import _build_parser, main
    paths = [tmp_path / ("%d.json" % i) for i in range(3)]
    assert main(["weil", "--poly", "x^4 + x", "--xlimit", "30",
                 "--twist", "3", "--seed", "9", "--json",
                 str(paths[0])]) == 0
    assert main(["fourier", "--prime", "11", "--const", "1",
                 "--json", str(paths[1])]) == 0
    assert main(["weil", "--poly", "x^4 + x", "--xlimit", "30",
                 "--json", str(paths[2])]) == 0
    assert _build_parser() is _build_parser()
    first, _, last = (json.loads(p.read_text()) for p in paths)
    assert first["params"]["twist"] == 3 and first["seed"] == 9
    assert last["params"]["twist"] is None and last["seed"] == 0
    assert [p for p, _ in first["skipped"]] == [2, 3]  # 3 divides twist
    assert [p for p, _ in last["skipped"]] == [2]


@pytest.mark.parametrize("power", ["(2*x)^4000000000",
                                   "(x+1)^4000000000"])
def test_power_too_large_to_expand_is_refused(power):
    r = subprocess.run(BASE + ["weil", "--poly", power, "--prime", "7"],
                       capture_output=True, text=True, timeout=60)
    assert r.returncode == 2
    assert "power too large to expand" in r.stderr
    assert "(at offset 6)" in r.stderr
    assert "Traceback" not in r.stderr


def test_parse_system_parses_each_polynomial_once(monkeypatch):
    from charsum import cli
    from charsum.errors import CharsumError, ParseError
    parse, texts = cli.parse_polynomial, []
    monkeypatch.setattr(cli, "parse_polynomial",
                        lambda text, variables=None:
                        texts.append(text) or parse(text, variables))
    systems, names = cli._parse_system("x*y - 1; x + z", "y", nvars=4)
    assert sorted(texts) == ["x + z", "x*y - 1", "y"]
    assert names == ["x", "y", "z", "_3"]
    assert systems[1] == [parse("y", names).poly]
    # a malformed polynomial is reported before a short --nvars
    with pytest.raises(ParseError, match="offset 5"):
        cli._parse_system("x*y + ", nvars=1)
    with pytest.raises(CharsumError, match="--nvars 1 is below the 2"):
        cli._parse_system("x*y", nvars=1)


def test_kappa_builds_each_polynomial_once(monkeypatch, capsys):
    from charsum import parser
    read, builds = parser._read, []

    def counting(tokens, index, nvars, build):
        builds.append(build)
        return read(tokens, index, nvars, build)

    monkeypatch.setattr(parser, "_read", counting)
    assert main(["kappa", "--p-poly", "y^3 - b*y - 1", "--q-poly", "y^2 + y",
                 "--point", "2", "--prime", "3", "--ext", "4"]) == 0
    assert builds.count(True) == 2
    assert "variables: b, y (root variable: y)" in capsys.readouterr().out


def test_fourier_needs_exactly_one_source():
    r = run("fourier", "--prime", "11", "--const", "1", "--delta")
    assert r.returncode == 2
    r2 = run("fourier", "--prime", "11")
    assert r2.returncode == 2


def test_pushforward_runs():
    r = run("pushforward", "--system", "y - x - 5", "--prime", "101",
            "--max-moment", "1")
    assert r.returncode == 0
    assert "points: 101" in r.stdout


def test_dfi_json_and_determinism_across_jobs(tmp_path):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    r1 = run("dfi", "--poly", "x^2 + 1", "--xlimit", "500",
             "--dump-samples", "--jobs", "1", "--json", str(a))
    r2 = run("dfi", "--poly", "x^2 + 1", "--xlimit", "500",
             "--dump-samples", "--jobs", "4", "--json", str(b))
    assert r1.returncode == 0 and r2.returncode == 0
    assert a.read_bytes() == b.read_bytes()
    doc = json.loads(a.read_text())
    assert doc["records"], "dump-samples must emit records"
    assert doc["aggregate"]["ks"] is not None


# one of each root-angle sweep on a congruence class: a quadratic, a
# split-only cubic and a quintic, whose roots take every path of the lanes
CLASS_SWEEPS = {
    "dfi": ("dfi", "--poly", "x^2 + 1", "--xlimit", "3000", "--mod", "4",
            "--res", "1"),
    "dfiext": ("dfiext", "--poly", "x^3 - 2", "--g", "2*x + 3*x^2",
               "--xlimit", "3000", "--split-only", "--mod", "3", "--res", "1"),
    "multiweyl": ("multiweyl", "--poly", "x^5 - x - 1", "--h", "1,0,2",
                  "--xlimit", "3000", "--mod", "5", "--res", "2"),
}


@pytest.mark.parametrize("name", sorted(CLASS_SWEEPS))
def test_sweep_reports_match_across_jobs_and_blocks(name, tmp_path,
                                                    monkeypatch, capsys):
    # one block runs in-process; with the blocks shrunk to a few lanes the
    # sweep takes the pool at --jobs 2, and every report is the same bytes
    def report(jobs):
        path = tmp_path / "out.json"
        assert main(list(CLASS_SWEEPS[name]) + [
            "--dump-samples", "--jobs", jobs, "--json", str(path)]) == 0
        return path.read_bytes()

    whole = report("1")
    assert json.loads(whole)["records"]
    blocks = []
    pmap = equidist.pmap
    monkeypatch.setattr(equidist, "_CHUNK", 96)
    monkeypatch.setattr(equidist, "pmap", lambda fn, items, jobs: (
        blocks.append(len(items)) or pmap(fn, items, jobs)))
    assert report("1") == whole
    assert report("2") == whole
    assert min(blocks) > 1
    capsys.readouterr()


def test_dfi_histogram_option():
    r = run("dfi", "--poly", "x^2 + 1", "--xlimit", "300",
            "--hist-bins", "4")
    assert r.returncode == 0
    assert "histogram (4 cells):" in r.stdout


def test_dfi_reducible_is_usage_error():
    r = run("dfi", "--poly", "x^2 - 1", "--xlimit", "100")
    assert r.returncode == 2
    assert "reducible" in r.stderr


def test_dfiext_and_multiweyl_agree(tmp_path):
    ext = tmp_path / "ext.csv"
    mw = tmp_path / "mw.csv"
    r1 = run("dfiext", "--poly", "x^3 - x - 1", "--g", "2*x + 3*x^2",
             "--xlimit", "300", "--csv", str(ext))
    r2 = run("multiweyl", "--poly", "x^3 - x - 1", "--h", "2,3",
             "--xlimit", "300", "--csv", str(mw))
    assert r1.returncode == 0 and r2.returncode == 0
    assert ext.read_bytes() == mw.read_bytes()


def test_spcheck_passes():
    r = run("spcheck", "--n", "3", "--xlimit", "500")
    assert r.returncode == 0
    assert "reciprocal-angle law: PASS" in r.stdout


def test_latbasis_output():
    r = run("latbasis", "--poly", "x^2 - 2", "--elems", "1 + x; 2*x; 1/2")
    assert r.returncode == 0
    assert "lattice rank: 2" in r.stdout


def test_valueset_sp_output():
    r = run("valueset", "--poly", "x + 2", "--elems", "1/2; 1/3; 5/6",
            "--sp")
    assert r.returncode == 0
    assert "E[0] = [3]" in r.stdout
    assert "E[1] = [2]" in r.stdout
    assert "E[2] = [5]" in r.stdout


def test_valueset_reducible_poly_rejected():
    r = run("valueset", "--poly", "x^2 - 1", "--elems", "x")
    assert r.returncode == 2
    assert "reducible" in r.stderr


def test_file_errors_are_usage_errors(tmp_path):
    missing = tmp_path / "no" / "such"
    for args in (("weil", "--poly", "x^2 + 1", "--prime", "7",
                  "--json", str(missing / "x.json")),
                 ("weil", "--poly", "x^2 + 1", "--prime", "7",
                  "--csv", str(missing / "x.csv")),
                 ("fourier", "--prime", "7", "--input",
                  str(missing / "t.csv"))):
        r = run(*args)
        assert r.returncode == 2, args
        assert "error:" in r.stderr
        assert "Traceback" not in r.stderr


def test_counts_must_be_positive():
    for args in (("fourier", "--prime", "7", "--nvars", "-1", "--const", "1"),
                 ("fourier", "--prime", "7", "--nvars", "0", "--const", "1"),
                 ("mu0", "--system", "x", "--dim", "1", "--xlimit", "20",
                  "--nvars", "0"),
                 ("psisym", "--prime", "7", "--ext", "0", "--coeffs", "1"),
                 ("kappa", "--p-poly", "y^2 - b", "--q-poly", "y",
                  "--point", "4", "--prime", "11", "--ext", "0"),
                 ("mu0", "--system", "x", "--dim", "0", "--xlimit", "20",
                  "--jobs", "0"),
                 ("dfi", "--poly", "x^2 + 1", "--xlimit", "50",
                  "--jobs", "-3")):
        r = run(*args)
        assert r.returncode == 2, args
        assert "must be at least 1" in r.stderr
        assert "Traceback" not in r.stderr


@pytest.mark.parametrize("args", [
    ("boxcount", "--system", "y - x^2", "--prime", "101",
     "--box", "0:50,0:50"),
    ("mu0", "--system", "x", "--xlimit", "20"),
    ("mu1", "--system", "x", "--system2", "x - 1", "--xlimit", "20")],
    ids=["boxcount", "mu0", "mu1"])
def test_dimension_must_not_be_negative(args):
    r = run(*args, "--dim", "-1")
    assert r.returncode == 2
    assert "--dim: must be at least 0" in r.stderr
    assert "Traceback" not in r.stderr


@pytest.mark.parametrize("p", ["0", "1", "4", "-3"])
@pytest.mark.parametrize("source", [["--const", "1"], ["--delta"],
                                    ["--input", "table.csv"],
                                    ["--indicator", "x"]],
                         ids=["const", "delta", "input", "indicator"])
def test_fourier_refuses_a_non_prime(tmp_path, capsys, p, source):
    table = tmp_path / "table.csv"
    table.write_text("0,1,0\n")
    source = [str(table) if a == "table.csv" else a for a in source]
    report = tmp_path / "out.json"
    assert main(["fourier", "--prime=" + p, *source,
                 "--json", str(report)]) == 2
    err = capsys.readouterr().err
    assert err == "error: %s is not prime\n" % p
    assert not report.exists()


@pytest.mark.parametrize("argv, option", [
    (["dfi", "--poly", "x^2+1", "--xlimit", "30", "--weyl-depth", "-1"],
     "--weyl-depth"),
    (["dfi", "--poly", "x^2+1", "--xlimit", "30", "--hist-bins", "-3"],
     "--hist-bins"),
    (["dfiext", "--poly", "x^2+1", "--g", "x", "--xlimit", "30",
      "--weyl-depth", "-2"], "--weyl-depth"),
    (["pushforward", "--system", "y - x", "--prime", "7",
      "--max-moment", "-1"], "--max-moment")])
def test_counts_must_be_nonnegative(capsys, argv, option):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "argument %s: must be at least 0, got -" % option in err


def test_zero_counts_keep_their_meaning(tmp_path):
    out = tmp_path / "dfi.json"
    assert main(["dfi", "--poly", "x^2+1", "--xlimit", "30",
                 "--weyl-depth", "0", "--hist-bins", "0",
                 "--json", str(out)]) == 0
    agg = json.loads(out.read_text())["aggregate"]
    assert agg["weyl"] == [] and agg["hist"] is None
    assert main(["pushforward", "--system", "y - x", "--prime", "7",
                 "--max-moment", "0", "--json", str(out)]) == 0
    assert [r["m"] for r in json.loads(out.read_text())["records"]] == [[0, 0]]


# One invocation of every subcommand and the header row of its CSV table.
CSV_CASES = [
    (["weil", "--poly", "x^3 + x", "--xlimit", "30"],
     "p,degree,magnitude,bound,normalized,passed"),
    (["axiom3", "--system", "x*y - 1", "--laurent", "z1*zb2 + zb1*z2",
      "--prime", "31"], "sup,tolerance,npoints,passed"),
    (["psisym", "--prime", "13", "--coeffs", "1,5", "--op", "conj",
      "--verify"], "nroots,re,im"),
    (["kappa", "--p-poly", "y^2 - b", "--q-poly", "y^2", "--point", "4",
      "--prime", "11"], "value,angle"),
    (["boxcount", "--system", "y - x^2", "--prime", "31", "--box",
      "0:16,0:16", "--dim", "1"], "count,fraction,expected"),
    (["mu0", "--system", "x*y - 1", "--dim", "1", "--xlimit", "30"],
     "p,count,normalized"),
    (["mu1", "--system", "y^2 - x^3 - x", "--system2", "y", "--dim", "1",
      "--xlimit", "30"], "p,count_x,count_xp,normalized"),
    (["fourier", "--prime", "5", "--nvars", "2", "--delta"], "x1,x2,re,im"),
    (["pushforward", "--system", "y - x - 5", "--prime", "31",
      "--max-moment", "1"], "m,re,im,abs"),
    (["dfi", "--poly", "x^2 + 1", "--xlimit", "100"], "p,residue,angle"),
    (["dfiext", "--poly", "x^3 - 2", "--g", "2*x + 3*x^2",
      "--xlimit", "100"], "p,residue,angle"),
    (["multiweyl", "--poly", "x^3 - 2", "--h", "2,3", "--xlimit", "100"],
     "p,residue,angle"),
    (["spcheck", "--n", "3", "--xlimit", "50"],
     "p,k,residue,angle,t,dist,law_ok,pairing_ok"),
    (["latbasis", "--poly", "x^2 - 2", "--elems", "1 + x; 2*x"],
     "kind,index,coords"),
    (["valueset", "--poly", "x + 2", "--elems", "1/2; 1/3"],
     "index,exponents"),
]


@pytest.mark.parametrize("argv,header", CSV_CASES,
                         ids=[argv[0] for argv, _ in CSV_CASES])
def test_every_subcommand_writes_json_and_csv(tmp_path, capsys, argv,
                                              header):
    from charsum.cli import main
    json_path, csv_path = tmp_path / "r.json", tmp_path / "r.csv"
    assert main(argv + ["--json", str(json_path),
                        "--csv", str(csv_path)]) == 0
    assert json.loads(json_path.read_text())["command"] == argv[0]
    assert csv_path.read_text().splitlines()[0] == header
    assert "wall time: " in capsys.readouterr().out


# The line x = 1 given as a system in one named variable plus --nvars 2,
# and where each subcommand reports its size.
NVARS_CASES = [
    (["mu0", "--system", "x - 1", "--dim", "1", "--xlimit", "30"],
     lambda doc: [r[1] for r in doc["records"]] == primes_in(30)),
    (["mu1", "--system", "x - 1", "--system2", "x", "--dim", "1",
      "--xlimit", "30"],
     lambda doc: [r[1] for r in doc["records"]] == primes_in(30)),
    (["axiom3", "--system", "x - 1", "--laurent", "z1*zb2 + zb1*z2",
      "--prime", "31"], lambda doc: doc["records"][0]["npoints"] == 31),
    (["boxcount", "--system", "x - 1", "--prime", "31", "--box",
      "0:16,0:16", "--dim", "1"],
     lambda doc: doc["records"][0]["count"] == 16),
    (["pushforward", "--system", "x - 1", "--prime", "31",
      "--max-moment", "1"], lambda doc: len(doc["records"]) == 9),
]


@pytest.mark.parametrize("argv,check", NVARS_CASES,
                         ids=[argv[0] for argv, _ in NVARS_CASES])
def test_nvars_adds_free_variables(tmp_path, capsys, argv, check):
    from charsum.cli import main
    out = tmp_path / "r.json"
    assert main(argv + ["--nvars", "2", "--json", str(out)]) == 0
    assert check(json.loads(out.read_text()))
    capsys.readouterr()
    system = argv.index("--system") + 1
    below = argv[:system] + ["x - y"] + argv[system + 1:]
    assert main(below + ["--nvars", "1"]) == 2
    assert "--nvars 1 is below the 2 variables" in capsys.readouterr().err


@pytest.mark.parametrize("extra", [[], ["--op", "mul", "--coeffs2", "1,0",
                                        "--verify"]], ids=["eval", "mul"])
def test_psisym_over_f_2_15_matches_the_split_path(tmp_path, capsys, extra):
    # x^3 + x^2 + 1 splits in F_8, a subfield of F_{2^15}; x^2 + x has
    # the roots 0 and 1.  The field is below the table limit, so the
    # command scans it, and the reference below splits instead.
    from unittest import mock
    from charsum import (build_extension, make_term, psisym_eval,
                         psisym_mul, rational_roots, standard_character)
    from charsum import polyroots
    from charsum.cli import main
    out = tmp_path / "r.json"
    assert main(["psisym", "--prime", "2", "--ext", "15", "--coeffs",
                 "1,0,1", "--json", str(out)] + extra) == 0
    wall = float(capsys.readouterr().out.split("wall time: ")[1].split()[0])
    assert wall < 2.0  # a scan in FqElem arithmetic took about 10 s
    (record,) = json.loads(out.read_text())["records"]
    field = build_extension(2, 15)
    with mock.patch.object(polyroots, "TABLE_LIMIT", 0):
        term = make_term(field, [1, 0, 1])
        if extra:
            term = psisym_mul(term, make_term(field, [1, 0]))
        nroots = len(rational_roots(term))
        value = psisym_eval(term, standard_character(field))
    assert nroots == (6 if extra else 3) == record["nroots"]
    assert record["coeffs"] == [list(c.coeffs) for c in term.coeffs]
    assert abs(complex(record["value"]["re"], record["value"]["im"])
               - value) < 1e-12


@pytest.mark.parametrize("args", [
    ("latbasis", "--poly", "x^2 - 1000000000000000000007", "--elems", "1; x"),
    ("dfi", "--poly", "x^2 - 1000000000000000000007", "--xlimit", "1000"),
])
def test_huge_constant_term_certifies_quickly(args):
    r = subprocess.run(BASE + list(args), capture_output=True, text=True,
                       timeout=60)
    assert r.returncode == 0, r.stderr
    assert "Traceback" not in r.stderr
    wall = float(re.search(r"^wall time: ([0-9.]+) s$", r.stdout, re.M)[1])
    assert wall < 1.0
