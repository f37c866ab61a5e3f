"""Command line front end.

Each `cmd_*` subcommand computes, prints a short human summary and
returns an `Outcome`: the report's params, records, aggregate and
skips, a CSV header with a rows function that only --csv calls, and
whether a checked property failed.  `main` is the one runner: it times
the command, writes the JSON report (--json) and CSV table (--csv),
prints the wall-clock time (never written to a file, so reruns diff
clean) and returns the exit code: 0 for success, 1 when a checked
inequality or law fails, 2 for usage, parsing, budget and file errors.
Library functions are looked up in this module's globals at call time,
so a tracer that rebinds those names sees every call.
"""

from __future__ import annotations

import argparse
import functools
import math
import sys
import time
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Sequence

import numpy as np

from .angles import standard_character, twisted_character
from .equidist import (dfi_extended_sweep, dfi_sweep, multi_weyl,
                       sample_histogram, sp_check)
from .errors import CharsumError
from .ffield import build_extension, prime_field
from .laurent import laurent_from_expression
from .measure import (ValueTable, _check_table_size, _table_array,
                      constant_table, delta_table, fourier_check,
                      fourier_table, mu0_sweep, mu1_sweep, pushforward_weyl)
from .mpoly import poly_rem
from .nfield import NFElem, lattice_basis, nf_build, value_set
from .parser import (parse_polynomial, print_polynomial, univariate,
                     variable_names)
from .points import DEFAULT_BUDGET, _point_matrix
from .primes import primes_in
from .report import build_report, write_csv, write_json
from .rootsums import (kappa_eval, make_term, psi_sum, psisym_add,
                       psisym_conj, psisym_eval, psisym_mul, rational_roots)
from .weil import HEIGHT_CAP, axiom3_sup, box_count, weil_check, weil_sweep
from ._version import __version__

CSV_TABLE_CAP = 10 ** 6
# A --verify error passes when it is at most VERIFY_SLACK times its
# rounding scale: u log2(p^n) max|phi| / p^n for the Fourier inversion,
# u max(1, roots) for a psisym identity, with u = 2^-53.  Over every
# catalogue and test case the error stays below 2.5 and 6.6 of those
# scales; one cell of a transform off by 1e-6 is about 10^8 of them.
VERIFY_SLACK = 128
UNIT_ROUNDOFF = 2.0 ** -53


@dataclass(frozen=True)
class Outcome:
    """What a subcommand hands to `main`."""
    params: dict
    csv_header: list
    csv_rows: Callable[[], list]
    records: Sequence = ()
    aggregate: dict | None = None
    skipped: Sequence = ()
    failed: bool = False


def _parse_system(*texts, nvars=None):
    """Semicolon-separated polynomial systems over one sorted variable
    universe, so "y" next to a system in x and y means the plane curve
    y = 0, not a point on a line.  `nvars` (--nvars) pads the universe
    with free variables after the named ones.  Returns (one list of MPoly
    per text, variable names)."""
    parts = [[s.strip() for s in text.split(";") if s.strip()]
             for text in texts]
    names = sorted(set().union(*(variable_names(s)
                                 for ps in parts for s in ps)))
    used = len(names)
    if nvars is not None:
        # "_k" cannot be written in a polynomial, so it names no input
        names += ["_%d" % k for k in range(used, nvars)]
    systems = [[parse_polynomial(s, variables=names).poly for s in ps]
               for ps in parts]
    # after the parse, so a malformed polynomial is reported first
    if nvars is not None and nvars < used:
        raise CharsumError("--nvars %d is below the %d variables the "
                           "system uses" % (nvars, used))
    return systems, names


def _systems_nvars(args, *texts):
    """The systems of `texts` over --nvars variables, else over their
    universe."""
    systems, names = _parse_system(*texts, nvars=args.nvars)
    if not names:
        raise CharsumError("empty system needs --nvars")
    return systems, len(names)


def _parse_box(text):
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition(":")
        if not _:
            raise CharsumError("box ranges look like lo:hi,lo:hi,...")
        out.append((int(lo), int(hi)))
    return out


def _congruence(args):
    if (args.mod is None) != (args.res is None):
        raise CharsumError("--mod and --res go together")
    if args.mod is None:
        return None
    return (args.mod, args.res)


def _int_list(text, what):
    try:
        return [int(t.strip()) for t in text.split(",") if t.strip() != ""]
    except ValueError:
        raise CharsumError("cannot read %s from %r" % (what, text))


def _element_repr(x):
    if x.field.e == 1:
        return x.coeffs[0]
    return list(x.coeffs)


# -- subcommands -------------------------------------------------------


def cmd_weil(args):
    pe = parse_polynomial(args.poly)
    if args.prime is not None:
        if args.mod is not None or args.res is not None:
            raise CharsumError("--mod and --res need --xlimit")
        char = None
        if args.twist is not None:
            char = twisted_character(prime_field(args.prime), args.twist)
        records, skipped = [weil_check(pe.poly, args.prime, char=char)], []
    else:
        records, skipped = weil_sweep(
            pe.poly, primes_in(args.xlimit, _congruence(args)),
            1 if args.twist is None else args.twist)
    all_passed = all(r.passed for r in records)
    worst = max((r.normalized for r in records), default=0.0)
    print("polynomial: %s" % print_polynomial(pe))
    print("checked %d primes (%d skipped)" % (len(records), len(skipped)))
    print("max |sum| / sqrt(p): %.12g" % worst)
    for r in records:
        if not r.passed:
            print("VIOLATION at p = %d: |sum| = %.12g > bound %.12g"
                  % (r.p, r.magnitude, r.bound))
    print("bound check: %s" % ("PASS" if all_passed else "FAIL"))
    return Outcome(
        {"poly": args.poly, "twist": args.twist, "prime": args.prime,
         "xlimit": args.xlimit},
        ["p", "degree", "magnitude", "bound", "normalized", "passed"],
        lambda: [(r.p, r.degree, r.magnitude, r.bound, r.normalized,
                  r.passed) for r in records],
        records=records,
        aggregate={"max_normalized": worst, "all_passed": all_passed},
        skipped=skipped, failed=not all_passed)


def cmd_axiom3(args):
    (system,), nvars = _systems_nvars(args, args.system)
    h = laurent_from_expression(args.laurent, nvars=nvars)
    res = axiom3_sup(system, h, args.prime, nvars=nvars, budget=args.budget)
    print("points on curve mod %d: %d" % (args.prime, res.npoints))
    print("sup of h on character image: %.12g" % res.sup)
    print("tolerance -b' sqrt(p) / N:   %.12g" % -res.tolerance)
    print("positivity check: %s" % ("PASS" if res.passed else "FAIL"))
    return Outcome(
        {"system": args.system, "laurent": args.laurent,
         "prime": args.prime, "nvars": nvars},
        ["sup", "tolerance", "npoints", "passed"],
        lambda: [(res.sup, res.tolerance, res.npoints, res.passed)],
        records=[res], aggregate={"passed": res.passed},
        failed=not res.passed)


def cmd_psisym(args):
    field = build_extension(args.prime, args.ext)
    char = (twisted_character(field, args.twist)
            if args.twist is not None else standard_character(field))
    t1 = make_term(field, _int_list(args.coeffs, "coefficients"))
    t2 = None
    if args.coeffs2:
        t2 = make_term(field, _int_list(args.coeffs2, "coefficients"))
    if args.op in ("add", "mul") and t2 is None:
        raise CharsumError("--op %s needs --coeffs2" % args.op)

    # each operation, and the value identity --verify checks it against
    if args.op == "eval":
        result, expect = t1, None
    elif args.op == "conj":
        result, expect = psisym_conj(t1), lambda v1: v1.conjugate()
    elif args.op == "add":
        result = psisym_add(t1, t2)
        expect = lambda v1: v1 + psisym_eval(t2, char)
    else:
        result = psisym_mul(t1, t2)
        expect = lambda v1: v1 * psisym_eval(t2, char)

    roots = rational_roots(result)
    value = psi_sum(roots, char)
    nroots = len(roots)
    print("result coefficients: %s"
          % [_element_repr(c) for c in result.coeffs])
    print("rational roots (with multiplicity): %d" % nroots)
    print("value: %.12g %+.12gi" % (value.real, value.imag))

    verified = None
    if args.verify and expect:
        err = abs(value - expect(psisym_eval(t1, char)))
        verified = err <= VERIFY_SLACK * UNIT_ROUNDOFF * max(1, nroots)
        print("identity error: %.3g -> %s"
              % (err, "PASS" if verified else "FAIL"))
    return Outcome(
        {"prime": args.prime, "ext": args.ext, "twist": args.twist,
         "op": args.op, "coeffs": args.coeffs, "coeffs2": args.coeffs2},
        ["nroots", "re", "im"],
        lambda: [(nroots, value.real, value.imag)],
        records=[{"coeffs": [_element_repr(c) for c in result.coeffs],
                  "nroots": nroots, "value": value}],
        aggregate={"verified": verified}, failed=verified is False)


def cmd_kappa(args):
    names = sorted(variable_names(args.p_poly) | variable_names(args.q_poly))
    P = parse_polynomial(args.p_poly, variables=names).poly
    Q = parse_polynomial(args.q_poly, variables=names).poly
    field = build_extension(args.prime, args.ext)
    b = _int_list(args.point, "the parameter point") if args.point else []
    root_var = None
    if args.root_var is not None:
        if args.root_var not in names:
            raise CharsumError("--root-var %r is not a variable of the "
                               "input" % args.root_var)
        root_var = names.index(args.root_var)
    value = kappa_eval(P, Q, b, field, root_var=root_var)
    angle = standard_character(field).psi(value)
    print("variables: %s (root variable: %s)"
          % (", ".join(names),
             names[root_var if root_var is not None else len(names) - 1]))
    print("common value: %s" % (_element_repr(value),))
    print("character angle: %s" % angle)
    return Outcome(
        {"p_poly": args.p_poly, "q_poly": args.q_poly, "point": args.point,
         "prime": args.prime, "ext": args.ext, "root_var": args.root_var},
        ["value", "angle"],
        lambda: [(_element_repr(value), angle)],
        records=[{"value": _element_repr(value), "angle": angle}])


def cmd_boxcount(args):
    (system,), nvars = _systems_nvars(args, args.system)
    box = _parse_box(args.box)
    res = box_count(system, args.prime, box, args.dim, nvars=nvars,
                    flag_height=args.flag_height, budget=args.budget)
    print("points in box: %d" % res.count)
    print("fraction of p^%d: %.12g" % (args.dim, res.fraction))
    print("random-model expectation: %.12g" % res.expected)
    if res.expected:
        print("ratio count / expected: %.12g" % (res.count / res.expected))
    if res.hyperplane is not None:
        hp = res.hyperplane
        print("WARNING: variety lies in the hyperplane %s . x = %s (%s)"
              % (list(hp.vector), hp.constant,
                 "exact" if hp.exact else "sampled over 3 large primes"))
    return Outcome(
        {"system": args.system, "prime": args.prime, "box": args.box,
         "dim": args.dim, "nvars": nvars, "flag_height": args.flag_height},
        ["count", "fraction", "expected"],
        lambda: [(res.count, res.fraction, res.expected)],
        records=[res])


def _series_outcome(series, label, params, csv_header):
    print("%s records: %d (skipped %d)"
          % (label, len(series.records), len(series.skipped)))
    if series.records:
        last = series.records[-1]
        print("last record: p = %d, normalized = %.12g" % (last[0], last[-1]))
    if series.dim_estimate is not None:
        print("log-log dimension estimate: %.4f (declared %d)"
              % (series.dim_estimate, series.declared_dim))
    if series.dim_warning:
        print("WARNING: dimension estimate is off by >= 0.25; the declared "
              "dimension looks wrong")
    return Outcome(params, csv_header, lambda: series.records,
                   records=series.records,
                   aggregate={"dim_estimate": series.dim_estimate,
                              "dim_warning": series.dim_warning},
                   skipped=series.skipped)


def cmd_mu0(args):
    (system,), nvars = _systems_nvars(args, args.system)
    primes = primes_in(args.xlimit, _congruence(args))
    series = mu0_sweep(system, args.dim, primes, nvars=nvars,
                       budget=args.budget, jobs=args.jobs)
    return _series_outcome(
        series, "leading-order measure",
        {"system": args.system, "dim": args.dim, "xlimit": args.xlimit,
         "nvars": nvars},
        ["p", "count", "normalized"])


def cmd_mu1(args):
    (system_x, system_xp), nvars = _systems_nvars(args, args.system,
                                                  args.system2)
    primes = primes_in(args.xlimit, _congruence(args))
    series = mu1_sweep(system_x, system_xp, args.dim, primes,
                       nvars_x=nvars, nvars_xp=nvars,
                       budget=args.budget, jobs=args.jobs)
    out = _series_outcome(
        series, "signed sqrt-scale comparison",
        {"system": args.system, "system2": args.system2, "dim": args.dim,
         "xlimit": args.xlimit},
        ["p", "count_x", "count_xp", "normalized"])
    if series.records:
        peak = max(abs(r[-1]) for r in series.records)
        print("max |normalized|: %.12g" % peak)
    return out


def _read_table_csv(path, p, n):
    """The table of rows x1..xn,re,im; blank lines are skipped, and so is
    a first line that is not such a row (a header).  The table is real
    until a row has a nonzero imaginary part."""
    import csv as _csv
    arr = _table_array(p, n)
    with open(path, newline="") as fh:
        for line, row in enumerate(_csv.reader(fh), start=1):
            try:
                if len(row) != n + 2:
                    raise ValueError(row)
                idx = tuple(int(v) % p for v in row[:n])
                value = complex(float(row[n]), float(row[n + 1]))
            except ValueError:
                if line == 1 or not any(v.strip() for v in row):
                    continue
                raise CharsumError("row %d of %s is not %d indices, re, "
                                   "im: %s" % (line, path, n, ",".join(row)))
            if not np.isfinite(value):
                raise CharsumError("row %d of %s is not finite: %s"
                                   % (line, path, ",".join(row)))
            if value.imag and not np.iscomplexobj(arr):
                arr = arr.astype(np.complex128)
            arr[idx] = value if np.iscomplexobj(arr) else value.real
    return ValueTable._adopt(p, n, arr)


def cmd_fourier(args):
    p, n = args.prime, args.nvars
    prime_field(p)  # refuses a non-prime before any table is built
    if args.const is not None:
        if not np.isfinite(args.const):
            raise CharsumError("--const must be finite, got %s" % args.const)
        table = constant_table(p, n, args.const)
    elif args.delta:
        table = delta_table(p, n)
    elif args.indicator is not None:
        (system,), _ = _parse_system(args.indicator, nvars=n)
        _check_table_size(p, n)
        table = ValueTable.indicator(
            p, n, _point_matrix(system, p, n, None, args.budget))
    else:
        table = _read_table_csv(args.input, p, n)
    lhs, rhs, inversion_err = fourier_check(table, args.verify)
    print("transform of a %d^%d table" % (p, n))
    print("plancherel: p^-n sum|f|^2 = %.12g, sum|F f|^2 = %.12g, "
          "diff = %.3g" % (lhs, rhs, abs(lhs - rhs)))
    failed = False
    if args.verify:
        # F(F(phi)) = phi(-x) / p^n, through two transforms of log2(p^n)
        # rounding steps each
        scale = float(np.abs(table.values).max(initial=0.0))
        failed = not inversion_err <= (VERIFY_SLACK * UNIT_ROUNDOFF
                                       * n * math.log2(p) * scale / p ** n)
        print("inversion error: %.3g -> %s"
              % (inversion_err, "FAIL" if failed else "PASS"))

    def rows():
        if p ** n > CSV_TABLE_CAP:
            raise CharsumError("table too large for CSV: %d^%d > %d"
                               % (p, n, CSV_TABLE_CAP))
        return [idx + (v.real, v.imag)
                for idx, v in np.ndenumerate(fourier_table(table).values)]

    return Outcome(
        {"prime": p, "nvars": n, "const": args.const, "delta": args.delta,
         "indicator": args.indicator, "input": args.input},
        ["x%d" % (i + 1) for i in range(n)] + ["re", "im"], rows,
        aggregate={"plancherel_lhs": lhs, "plancherel_rhs": rhs,
                   "plancherel_diff": abs(lhs - rhs),
                   "inversion_error": inversion_err},
        failed=failed)


def cmd_pushforward(args):
    (system,), nvars = _systems_nvars(args, args.system)
    res = pushforward_weyl(system, args.prime, args.max_moment,
                           nvars=nvars, budget=args.budget)
    print("points: %d, moments: %d" % (res.npoints, len(res.moments)))
    peak = max((abs(v) for m, v in res.moments if any(m)), default=0.0)
    print("max |W_m| over nonzero m: %.12g" % peak)
    return Outcome(
        {"system": args.system, "prime": args.prime,
         "max_moment": args.max_moment, "nvars": nvars},
        ["m", "re", "im", "abs"],
        lambda: [(" ".join(str(c) for c in m), v.real, v.imag, abs(v))
                 for m, v in res.moments],
        records=[{"m": m, "value": v} for m, v in res.moments],
        aggregate={"npoints": res.npoints, "max_nonzero": peak})


def _sweep_outcome(args, rep):
    print("samples: %d over %d primes (%d skipped)"
          % (rep.nsamples, len({p for p, _, _ in rep.samples}),
             len(rep.skipped)))
    if rep.empty:
        print("no samples; nothing to summarize")
    else:
        if rep.ks is not None:
            print("ks distance from uniform: %.6f" % rep.ks)
        for h, w in rep.weyl:
            print("weyl |W_%s|: %.6f" % (h, abs(w)))
    hist = None
    bins = getattr(args, "hist_bins", None)
    if bins and not rep.empty:
        hist = sample_histogram(rep.samples, bins)
        print("histogram (%d cells): %s" % (bins, hist))
    records = []
    if args.dump_samples:
        records = [{"p": p, "residue": r, "angle": a}
                   for p, r, a in rep.samples]
    return Outcome(
        rep.params, ["p", "residue", "angle"], lambda: rep.samples,
        records=records,
        aggregate={"nsamples": rep.nsamples, "ks": rep.ks,
                   "weyl": [{"h": h, "value": w} for h, w in rep.weyl],
                   "empty": rep.empty, "hist": hist},
        skipped=rep.skipped)


def cmd_dfi(args):
    rep = dfi_sweep(args.poly, args.xlimit, _congruence(args),
                    weyl_depth=args.weyl_depth, jobs=args.jobs)
    return _sweep_outcome(args, rep)


def cmd_dfiext(args):
    rep = dfi_extended_sweep(args.poly, args.g, args.xlimit,
                             _congruence(args), split_only=args.split_only,
                             weyl_depth=args.weyl_depth, jobs=args.jobs)
    return _sweep_outcome(args, rep)


def cmd_multiweyl(args):
    hvec = _int_list(args.h, "the exponent vector")
    rep = multi_weyl(args.poly, args.xlimit, hvec, _congruence(args),
                     split_only=args.split_only, jobs=args.jobs)
    return _sweep_outcome(args, rep)


def cmd_spcheck(args):
    rep = sp_check(args.n, args.xlimit)
    bad = [r for r in rep.records if not (r.law_ok and r.pairing_ok)]
    print("checked %d primes up to %d (skipped %d dividing n)"
          % (len(rep.records), args.xlimit, len(rep.skipped)))
    for r in bad[:5]:
        print("VIOLATION at p = %d: t = %d, dist = %s"
              % (r.p, r.t, r.dist))
    print("reciprocal-angle law: %s" % ("PASS" if rep.all_ok else "FAIL"))
    return Outcome(
        {"n": rep.n, "xlimit": rep.xlimit},
        ["p", "k", "residue", "angle", "t", "dist", "law_ok", "pairing_ok"],
        lambda: [(r.p, r.k, r.residue, r.angle, r.t, r.dist, r.law_ok,
                  r.pairing_ok) for r in rep.records],
        records=rep.records,
        aggregate={"all_ok": rep.all_ok, "violations": len(bad)},
        skipped=rep.skipped, failed=not rep.all_ok)


def _parse_elements(args):
    """The number field of --poly and the elements of --elems in it."""
    desc = nf_build(args.poly)
    elems = []
    fq = [Fraction(c) for c in desc.coeffs]
    for part in filter(None, map(str.strip, args.elems.split(";"))):
        rem = poly_rem(univariate(part), fq)
        elems.append(NFElem(desc, rem + [0] * (desc.degree - len(rem))))
    if not elems:
        raise CharsumError("no elements given")
    return desc, elems


def cmd_latbasis(args):
    desc, elems = _parse_elements(args)
    lat = lattice_basis(elems)
    print("field: %s" % (desc,))
    print("lattice rank: %d" % len(lat.basis))
    for i, b in enumerate(lat.basis):
        print("basis[%d] = %s" % (i, [str(c) for c in b.coords]))
    for i, row in enumerate(lat.expression):
        print("elem[%d] = %s . basis" % (i, list(row)))
    return Outcome(
        {"poly": args.poly, "elems": args.elems,
         "certificate": desc.certificate},
        ["kind", "index", "coords"],
        lambda: [("basis", i, " ".join(str(c) for c in b.coords))
                 for i, b in enumerate(lat.basis)]
        + [("expression", i, " ".join(str(c) for c in row))
           for i, row in enumerate(lat.expression)],
        records=[{"basis": [b.coords for b in lat.basis],
                  "expression": lat.expression}])


def cmd_valueset(args):
    desc, elems = _parse_elements(args)
    vs = value_set(elems, sp_mode=args.sp)
    lat = vs.lattice
    print("field: %s" % (desc,))
    print("value set: z_i = prod_j w_j^E[i][j] over %d basis values"
          % len(lat.basis))
    for i, row in enumerate(vs.exponents):
        print("E[%d] = %s" % (i, list(row)))
    for ann in vs.annotations:
        pairs = ", ".join("angle %s when k = %d" % (a, k)
                          for a, k in ann.values)
        print("basis[%d] is rational %s; allowed values: %s"
              % (ann.index, ann.value, pairs))
    return Outcome(
        {"poly": args.poly, "elems": args.elems, "sp": args.sp,
         "certificate": desc.certificate},
        ["index", "exponents"],
        lambda: [(i, " ".join(str(c) for c in row))
                 for i, row in enumerate(vs.exponents)],
        records=[{"basis": [b.coords for b in lat.basis],
                  "exponents": vs.exponents,
                  "annotations": vs.annotations}])


# -- parser and runner -------------------------------------------------


def positive_int(text):
    n = int(text)
    if n < 1:
        raise argparse.ArgumentTypeError("must be at least 1, got %d" % n)
    return n


def nonnegative_int(text):
    n = int(text)
    if n < 0:
        raise argparse.ArgumentTypeError("must be at least 0, got %d" % n)
    return n


@functools.cache
def _build_parser():
    """The argument parser, built once per process; parse_args leaves it
    unchanged, so every main() call can share it."""
    parser = argparse.ArgumentParser(
        prog="charsum",
        description="Verification and experiments for additive character "
                    "sums over finite fields.")
    parser.add_argument("--version", action="version",
                        version="charsum %s" % __version__)
    sub = parser.add_subparsers(dest="command", required=True)

    io = argparse.ArgumentParser(add_help=False)
    io.add_argument("--json", metavar="PATH",
                    help="write a canonical JSON report")
    io.add_argument("--csv", metavar="PATH", help="write a CSV table")
    io.add_argument("--seed", type=int, default=0,
                    help="recorded in reports (all runs are deterministic)")

    budget = argparse.ArgumentParser(add_help=False)
    budget.add_argument("--budget", type=int, default=DEFAULT_BUDGET,
                        help="point-enumeration budget")

    nvars = argparse.ArgumentParser(add_help=False)
    nvars.add_argument("--nvars", type=positive_int)

    congruence = argparse.ArgumentParser(add_help=False)
    congruence.add_argument("--mod", type=int,
                            help="congruence filter modulus")
    congruence.add_argument("--res", type=int,
                            help="congruence filter residue")

    sweep = argparse.ArgumentParser(add_help=False, parents=[congruence])
    sweep.add_argument("--xlimit", type=int, required=True,
                       help="walk primes up to this bound")
    sweep.add_argument("--jobs", type=positive_int, default=1,
                       help="worker processes for the sweep")

    roots = argparse.ArgumentParser(add_help=False, parents=[sweep])
    roots.add_argument("--poly", required=True)
    roots.add_argument("--dump-samples", dest="dump_samples",
                       action="store_true",
                       help="include every sample in the JSON report")

    def command(func, help, parents=()):
        s = sub.add_parser(func.__name__.removeprefix("cmd_"),
                           parents=[io, *parents], help=help)
        s.set_defaults(func=func)
        return s

    s = command(cmd_weil, "bound check for a one-variable character sum",
                [congruence])
    s.add_argument("--poly", required=True)
    one_or_all = s.add_mutually_exclusive_group(required=True)
    one_or_all.add_argument("--prime", type=int)
    one_or_all.add_argument("--xlimit", type=int)
    s.add_argument("--twist", type=int)

    s = command(cmd_axiom3, "positivity floor for a real Laurent polynomial "
                            "on a curve's character image", [budget, nvars])
    s.add_argument("--system", required=True)
    s.add_argument("--laurent", required=True)
    s.add_argument("--prime", type=int, required=True)

    s = command(cmd_psisym, "root-sum terms: evaluate and combine")
    s.add_argument("--prime", type=int, required=True)
    s.add_argument("--ext", type=positive_int, default=1)
    s.add_argument("--twist", type=int)
    s.add_argument("--coeffs", required=True,
                   help="c1,...,cn of x^n + c1 x^(n-1) + ... + cn")
    s.add_argument("--coeffs2")
    s.add_argument("--op", choices=["eval", "conj", "add", "mul"],
                   default="eval")
    s.add_argument("--verify", action="store_true",
                   help="check the value identity numerically")

    s = command(cmd_kappa, "common value of Q over the roots of P at a "
                           "parameter point")
    s.add_argument("--p-poly", required=True, dest="p_poly")
    s.add_argument("--q-poly", required=True, dest="q_poly")
    s.add_argument("--point", help="b1,...,bk parameter values")
    s.add_argument("--prime", type=int, required=True)
    s.add_argument("--ext", type=positive_int, default=1)
    s.add_argument("--root-var", dest="root_var",
                   help="variable to solve for (default: last)")

    s = command(cmd_boxcount, "points of a variety in a residue box vs the "
                              "random model", [budget, nvars])
    s.add_argument("--system", required=True)
    s.add_argument("--prime", type=int, required=True)
    s.add_argument("--box", required=True, help="lo:hi,lo:hi,...")
    s.add_argument("--dim", type=nonnegative_int, required=True)
    s.add_argument("--flag-height", dest="flag_height", type=int,
                   default=HEIGHT_CAP,
                   help="hyperplane search height (0 disables)")

    s = command(cmd_mu0, "leading-order measure sweep |D| / p^dim",
                [budget, nvars, sweep])
    s.add_argument("--system", required=True)
    s.add_argument("--dim", type=nonnegative_int, required=True)

    s = command(cmd_mu1, "sqrt-scale signed comparison of two varieties",
                [budget, nvars, sweep])
    s.add_argument("--system", required=True)
    s.add_argument("--system2", required=True)
    s.add_argument("--dim", type=nonnegative_int, required=True)

    s = command(cmd_fourier, "finite Fourier transform of a table on F_p^n",
                [budget])
    s.add_argument("--prime", type=int, required=True)
    s.add_argument("--nvars", type=positive_int, default=1)
    source = s.add_mutually_exclusive_group(required=True)
    source.add_argument("--const", type=float)
    source.add_argument("--delta", action="store_true")
    source.add_argument("--indicator", help="system whose zero set is the "
                                            "indicator's support")
    source.add_argument("--input", help="CSV of x1..xn,re,im rows")
    s.add_argument("--verify", action="store_true",
                   help="also check the inversion identity")

    s = command(cmd_pushforward, "torus moments of a variety's counting "
                                 "measure", [budget, nvars])
    s.add_argument("--system", required=True)
    s.add_argument("--prime", type=int, required=True)
    s.add_argument("--max-moment", type=nonnegative_int, default=3)

    s = command(cmd_dfi, "root-angle equidistribution sweep", [roots])
    s.add_argument("--weyl-depth", type=nonnegative_int, default=5)
    s.add_argument("--hist-bins", type=nonnegative_int)

    s = command(cmd_dfiext, "equidistribution of a derived element g(root)",
                [roots])
    s.add_argument("--g", required=True)
    s.add_argument("--split-only", dest="split_only", action="store_true")
    s.add_argument("--weyl-depth", type=nonnegative_int, default=5)
    s.add_argument("--hist-bins", type=nonnegative_int)

    s = command(cmd_multiweyl, "joint Weyl sum over root powers", [roots])
    s.add_argument("--h", required=True, help="h1,...,hk weighting r^1..r^k")
    s.add_argument("--split-only", dest="split_only", action="store_true")

    s = command(cmd_spcheck, "exact reciprocal-angle law check")
    s.add_argument("--n", type=int, required=True)
    s.add_argument("--xlimit", type=int, required=True)

    s = command(cmd_latbasis, "integer lattice basis for number field "
                              "elements")
    s.add_argument("--poly", required=True,
                   help="monic integer defining polynomial")
    s.add_argument("--elems", required=True,
                   help="semicolon-separated polynomials in the root")

    s = command(cmd_valueset, "multiplicative value-set description of "
                              "character values")
    s.add_argument("--poly", required=True)
    s.add_argument("--elems", required=True)
    s.add_argument("--sp", action="store_true",
                   help="annotate rational basis values with their allowed "
                        "angles and selecting residues")

    return parser


def main(argv=None):
    args = _build_parser().parse_args(argv)
    t0 = time.perf_counter()
    try:
        out = args.func(args)
        if args.json:
            write_json(args.json, build_report(
                args.command, out.params, records=out.records,
                aggregate=out.aggregate, skipped=out.skipped,
                seed=args.seed))
        if args.csv:
            write_csv(args.csv, out.csv_header, out.csv_rows())
    except (CharsumError, ValueError, OSError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    except MemoryError as exc:
        print("error: out of memory: %s" % exc, file=sys.stderr)
        return 2
    print("wall time: %.3f s" % (time.perf_counter() - t0))
    return 1 if out.failed else 0
