"""Command line front end.

Every subcommand prints a short human summary to stdout and optionally
writes a canonical JSON report (--json) and a CSV table (--csv).  Exit
codes: 0 for success, 1 when a checked inequality or law fails, 2 for
usage, parsing, and budget errors.  Wall-clock time is printed but never
written to a report, so reruns diff clean.
"""

from __future__ import annotations

import argparse
import functools
import sys
import time
from fractions import Fraction

import numpy as np

from .angles import standard_character, twisted_character
from .equidist import (dfi_extended_sweep, dfi_sweep, multi_weyl,
                       sample_histogram, sp_check)
from .errors import CharsumError
from .ffield import build_extension, prime_field
from .laurent import laurent_from_expression
from .measure import (ValueTable, constant_table, delta_table,
                      fourier_table, mu0_sweep, mu1_sweep, pushforward_weyl)
from .mpoly import poly_rem
from .nfield import NFElem, lattice_basis, nf_build, value_set
from .parser import parse_polynomial, print_polynomial
from .points import DEFAULT_BUDGET, enumerate_points
from .primes import primes_in
from .report import build_report, write_csv, write_json
from .rootsums import (kappa_eval, make_term, psisym_add, psisym_conj,
                       psisym_eval, psisym_mul, rational_roots)
from .weil import HEIGHT_CAP, axiom3_sup, box_count, weil_check, weil_sweep
from ._version import __version__

CSV_TABLE_CAP = 10 ** 6


def _parse_system(text, variables=None):
    """Semicolon-separated polynomial system over one sorted variable
    universe.  Returns (list of MPoly, variable names)."""
    parts = [s.strip() for s in text.split(";") if s.strip()]
    if not parts:
        return [], list(variables or [])
    if variables is None:
        names = set()
        for s in parts:
            names.update(parse_polynomial(s).variables)
        variables = sorted(names)
    polys = [parse_polynomial(s, variables=variables).poly for s in parts]
    return polys, list(variables)


def _parse_box(text):
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition(":")
        if not _:
            raise CharsumError("box ranges look like lo:hi,lo:hi,...")
        out.append((int(lo), int(hi)))
    return out


def _congruence(args):
    mod = getattr(args, "mod", None)
    res = getattr(args, "res", None)
    if (mod is None) != (res is None):
        raise CharsumError("--mod and --res go together")
    if mod is None:
        return None
    return (mod, res)


def _int_list(text, what):
    try:
        return [int(t.strip()) for t in text.split(",") if t.strip() != ""]
    except ValueError:
        raise CharsumError("cannot read %s from %r" % (what, text))


def _univariate_coeffs_of(text):
    """Parse a one-variable polynomial (or a bare rational) to a
    little-endian Fraction coefficient list."""
    poly = parse_polynomial(text).poly
    if not poly.variables_used():
        return [poly.constant_value()]
    reduced, _ = poly.drop_unused_variables()
    return reduced.univariate_coeffs(0)


def _field(args):
    ext = getattr(args, "ext", 1) or 1
    if ext > 1:
        return build_extension(args.prime, ext)
    return prime_field(args.prime)


def _fq_repr(x):
    if x.field.e == 1:
        return x.coeffs[0]
    return list(x.coeffs)


def _maybe_outputs(args, doc, csv_header=None, csv_rows=None):
    if args.json:
        write_json(args.json, doc)
    if args.csv:
        if csv_header is None:
            raise CharsumError("this subcommand has no CSV table")
        write_csv(args.csv, csv_header, csv_rows)


def _print_wall(t0):
    print("wall time: %.3f s" % (time.perf_counter() - t0))


# -- subcommands -------------------------------------------------------


def cmd_weil(args):
    t0 = time.perf_counter()
    pe = parse_polynomial(args.poly)
    poly = pe.poly
    if args.prime is not None:
        char = None
        if args.twist is not None:
            char = twisted_character(prime_field(args.prime), args.twist)
        records, skipped = [weil_check(poly, args.prime, char=char)], []
    elif args.xlimit is not None:
        records, skipped = weil_sweep(
            poly, primes_in(args.xlimit, _congruence(args)),
            1 if args.twist is None else args.twist)
    else:
        raise CharsumError("need --prime or --xlimit")
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
    doc = build_report(
        "weil",
        {"poly": args.poly, "twist": args.twist, "prime": args.prime,
         "xlimit": args.xlimit},
        records=records,
        aggregate={"max_normalized": worst, "all_passed": all_passed},
        skipped=skipped, seed=args.seed)
    _maybe_outputs(args, doc,
                   ["p", "degree", "magnitude", "bound", "normalized",
                    "passed"],
                   [(r.p, r.degree, r.magnitude, r.bound, r.normalized,
                     r.passed) for r in records])
    _print_wall(t0)
    return 0 if all_passed else 1


def cmd_axiom3(args):
    t0 = time.perf_counter()
    system, names = _parse_system(args.system)
    nvars = args.nvars or (len(names) if names else None)
    if nvars is None:
        raise CharsumError("empty system needs --nvars")
    h = laurent_from_expression(args.laurent, nvars=nvars)
    res = axiom3_sup(system, h, args.prime, nvars=nvars, budget=args.budget)
    print("points on curve mod %d: %d" % (args.prime, res.npoints))
    print("sup of h on character image: %.12g" % res.sup)
    print("tolerance -b' sqrt(p) / N:   %.12g" % -res.tolerance)
    print("positivity check: %s" % ("PASS" if res.passed else "FAIL"))
    doc = build_report(
        "axiom3",
        {"system": args.system, "laurent": args.laurent,
         "prime": args.prime, "nvars": nvars},
        records=[res], aggregate={"passed": res.passed}, seed=args.seed)
    _maybe_outputs(args, doc,
                   ["sup", "tolerance", "npoints", "passed"],
                   [(res.sup, res.tolerance, res.npoints, res.passed)])
    _print_wall(t0)
    return 0 if res.passed else 1


def cmd_psisym(args):
    t0 = time.perf_counter()
    field = _field(args)
    char = (twisted_character(field, args.twist)
            if args.twist is not None else standard_character(field))
    t1 = make_term(field, _int_list(args.coeffs, "coefficients"))
    t2 = None
    if args.coeffs2:
        t2 = make_term(field, _int_list(args.coeffs2, "coefficients"))
    if args.op in ("add", "mul") and t2 is None:
        raise CharsumError("--op %s needs --coeffs2" % args.op)

    if args.op == "eval":
        result = t1
    elif args.op == "conj":
        result = psisym_conj(t1)
    elif args.op == "add":
        result = psisym_add(t1, t2)
    else:
        result = psisym_mul(t1, t2)

    value = psisym_eval(result, char)
    nroots = len(rational_roots(result))
    print("result coefficients: %s" % [_fq_repr(c) for c in result.coeffs])
    print("rational roots (with multiplicity): %d" % nroots)
    print("value: %.12g %+.12gi" % (value.real, value.imag))

    verified = None
    if args.verify and args.op != "eval":
        v1 = psisym_eval(t1, char)
        if args.op == "conj":
            expect = v1.conjugate()
        elif args.op == "add":
            expect = v1 + psisym_eval(t2, char)
        else:
            expect = v1 * psisym_eval(t2, char)
        err = abs(value - expect)
        verified = err <= 1e-9
        print("identity error: %.3g -> %s"
              % (err, "PASS" if verified else "FAIL"))
    doc = build_report(
        "psisym",
        {"prime": args.prime, "ext": args.ext, "twist": args.twist,
         "op": args.op, "coeffs": args.coeffs, "coeffs2": args.coeffs2},
        records=[{"coeffs": [_fq_repr(c) for c in result.coeffs],
                  "nroots": nroots, "value": value}],
        aggregate={"verified": verified}, seed=args.seed)
    _maybe_outputs(args, doc, ["nroots", "re", "im"],
                   [(nroots, value.real, value.imag)])
    _print_wall(t0)
    if verified is False:
        return 1
    return 0


def cmd_kappa(args):
    t0 = time.perf_counter()
    names = set(parse_polynomial(args.p_poly).variables)
    names.update(parse_polynomial(args.q_poly).variables)
    names = sorted(names)
    P = parse_polynomial(args.p_poly, variables=names).poly
    Q = parse_polynomial(args.q_poly, variables=names).poly
    field = _field(args)
    b = _int_list(args.point, "the parameter point") if args.point else []
    root_var = None
    if args.root_var is not None:
        if args.root_var not in names:
            raise CharsumError("--root-var %r is not a variable of the "
                               "input" % args.root_var)
        root_var = names.index(args.root_var)
    value = kappa_eval(P, Q, b, field, root_var=root_var)
    char = standard_character(field)
    print("variables: %s (root variable: %s)"
          % (", ".join(names),
             names[root_var if root_var is not None else len(names) - 1]))
    print("common value: %s" % (_fq_repr(value),))
    print("character angle: %s" % char.psi(value))
    doc = build_report(
        "kappa",
        {"p_poly": args.p_poly, "q_poly": args.q_poly, "point": args.point,
         "prime": args.prime, "ext": args.ext, "root_var": args.root_var},
        records=[{"value": _fq_repr(value),
                  "angle": str(char.psi(value))}],
        seed=args.seed)
    _maybe_outputs(args, doc, ["value", "angle"],
                   [(_fq_repr(value), char.psi(value))])
    _print_wall(t0)
    return 0


def cmd_boxcount(args):
    t0 = time.perf_counter()
    system, names = _parse_system(args.system)
    nvars = args.nvars or (len(names) if names else None)
    if nvars is None:
        raise CharsumError("empty system needs --nvars")
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
    doc = build_report(
        "boxcount",
        {"system": args.system, "prime": args.prime, "box": args.box,
         "dim": args.dim, "nvars": nvars, "flag_height": args.flag_height},
        records=[res], seed=args.seed)
    _maybe_outputs(args, doc,
                   ["count", "fraction", "expected"],
                   [(res.count, res.fraction, res.expected)])
    _print_wall(t0)
    return 0


def _print_series(series, label):
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


def cmd_mu0(args):
    t0 = time.perf_counter()
    system, names = _parse_system(args.system)
    nvars = args.nvars or (len(names) if names else None)
    if nvars is None:
        raise CharsumError("empty system needs --nvars")
    primes = primes_in(args.xlimit, _congruence(args))
    series = mu0_sweep(system, args.dim, primes, nvars=nvars,
                       budget=args.budget, jobs=args.jobs)
    _print_series(series, "leading-order measure")
    doc = build_report(
        "mu0",
        {"system": args.system, "dim": args.dim, "xlimit": args.xlimit,
         "nvars": nvars},
        records=series.records,
        aggregate={"dim_estimate": series.dim_estimate,
                   "dim_warning": series.dim_warning},
        skipped=series.skipped, seed=args.seed)
    _maybe_outputs(args, doc, ["p", "count", "normalized"],
                   list(series.records))
    _print_wall(t0)
    return 0


def cmd_mu1(args):
    t0 = time.perf_counter()
    # both systems share one variable universe, so "y" next to a system
    # in x and y means the plane curve y = 0, not a point on a line
    names = set()
    for text in (args.system, args.system2):
        for part in text.split(";"):
            if part.strip():
                names.update(parse_polynomial(part.strip()).variables)
    names = sorted(names)
    system_x, _ = _parse_system(args.system, variables=names)
    system_xp, _ = _parse_system(args.system2, variables=names)
    nvars = args.nvars or (len(names) if names else None)
    if nvars is None:
        raise CharsumError("empty system needs --nvars")
    primes = primes_in(args.xlimit, _congruence(args))
    series = mu1_sweep(system_x, system_xp, args.dim, primes,
                       nvars_x=nvars, nvars_xp=nvars,
                       budget=args.budget, jobs=args.jobs)
    _print_series(series, "signed sqrt-scale comparison")
    if series.records:
        peak = max(abs(r[-1]) for r in series.records)
        print("max |normalized|: %.12g" % peak)
    doc = build_report(
        "mu1",
        {"system": args.system, "system2": args.system2, "dim": args.dim,
         "xlimit": args.xlimit},
        records=series.records,
        aggregate={"dim_estimate": series.dim_estimate,
                   "dim_warning": series.dim_warning},
        skipped=series.skipped, seed=args.seed)
    _maybe_outputs(args, doc, ["p", "count_x", "count_xp", "normalized"],
                   list(series.records))
    _print_wall(t0)
    return 0


def _read_table_csv(path, p, n):
    import csv as _csv
    arr = np.zeros((p,) * n, dtype=np.complex128)
    with open(path, newline="") as fh:
        for row in _csv.reader(fh):
            if not row:
                continue
            try:
                idx = tuple(int(v) % p for v in row[:n])
                re, im = float(row[n]), float(row[n + 1])
            except (ValueError, IndexError):
                continue  # header or ragged line
            arr[idx] = complex(re, im)
    return ValueTable(p, n, arr)


def cmd_fourier(args):
    t0 = time.perf_counter()
    p, n = args.prime, args.nvars
    sources = [args.const is not None, args.delta, bool(args.indicator),
               bool(args.input)]
    if sum(sources) != 1:
        raise CharsumError("need exactly one of --const, --delta, "
                           "--indicator, --input")
    if args.const is not None:
        table = constant_table(p, n, complex(args.const))
    elif args.delta:
        table = delta_table(p, n)
    elif args.indicator:
        system, names = _parse_system(args.indicator)
        pts = enumerate_points(system, p, nvars=n, budget=args.budget)
        table = ValueTable.indicator(p, n, pts)
    else:
        table = _read_table_csv(args.input, p, n)
    out = fourier_table(table)
    lhs = table.norm_sq_mean()
    rhs = float(np.sum(np.abs(out.values) ** 2).real)
    print("transform of a %d^%d table" % (p, n))
    print("plancherel: p^-n sum|f|^2 = %.12g, sum|F f|^2 = %.12g, "
          "diff = %.3g" % (lhs, rhs, abs(lhs - rhs)))
    inversion_err = None
    if args.verify:
        back = fourier_table(out)
        flipped = table.values[tuple(
            np.ix_(*[(-np.arange(p)) % p for _ in range(n)]))]
        inversion_err = float(np.max(np.abs(back.values
                                            - flipped / p ** n)))
        print("inversion error: %.3g -> %s"
              % (inversion_err, "PASS" if inversion_err <= 1e-9 else "FAIL"))
    doc = build_report(
        "fourier",
        {"prime": p, "nvars": n, "const": args.const, "delta": args.delta,
         "indicator": args.indicator, "input": args.input},
        aggregate={"plancherel_lhs": lhs, "plancherel_rhs": rhs,
                   "plancherel_diff": abs(lhs - rhs),
                   "inversion_error": inversion_err},
        seed=args.seed)
    if args.json:
        write_json(args.json, doc)
    if args.csv:
        if p ** n > CSV_TABLE_CAP:
            raise CharsumError("table too large for CSV: %d^%d > %d"
                               % (p, n, CSV_TABLE_CAP))
        rows = []
        for idx in np.ndindex(*out.values.shape):
            v = out.values[idx]
            rows.append(tuple(idx) + (v.real, v.imag))
        write_csv(args.csv, ["x%d" % (i + 1) for i in range(n)]
                  + ["re", "im"], rows)
    _print_wall(t0)
    if inversion_err is not None and inversion_err > 1e-9:
        return 1
    return 0


def cmd_pushforward(args):
    t0 = time.perf_counter()
    system, names = _parse_system(args.system)
    nvars = args.nvars or (len(names) if names else None)
    if nvars is None:
        raise CharsumError("empty system needs --nvars")
    res = pushforward_weyl(system, args.prime, args.max_moment,
                           nvars=nvars, budget=args.budget)
    print("points: %d, moments: %d" % (res.npoints, len(res.moments)))
    peak = max((abs(v) for m, v in res.moments if any(m)), default=0.0)
    print("max |W_m| over nonzero m: %.12g" % peak)
    doc = build_report(
        "pushforward",
        {"system": args.system, "prime": args.prime,
         "max_moment": args.max_moment, "nvars": nvars},
        records=[{"m": list(m), "value": v} for m, v in res.moments],
        aggregate={"npoints": res.npoints, "max_nonzero": peak},
        seed=args.seed)
    _maybe_outputs(args, doc,
                   ["m", "re", "im", "abs"],
                   [(" ".join(str(c) for c in m), v.real, v.imag, abs(v))
                    for m, v in res.moments])
    _print_wall(t0)
    return 0


def _emit_sweep(args, rep, aggregate_extra=None):
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
    aggregate = {"nsamples": rep.nsamples, "ks": rep.ks,
                 "weyl": [{"h": h, "value": w} for h, w in rep.weyl],
                 "empty": rep.empty, "hist": hist}
    if aggregate_extra:
        aggregate.update(aggregate_extra)
    records = []
    if getattr(args, "dump_samples", False):
        records = [{"p": p, "residue": r, "angle": a}
                   for p, r, a in rep.samples]
    doc = build_report(rep.command, rep.params, records=records,
                       aggregate=aggregate, skipped=rep.skipped,
                       seed=args.seed)
    _maybe_outputs(args, doc, ["p", "residue", "angle"],
                   [(p, r, a) for p, r, a in rep.samples])
    print("wall time: %.3f s" % rep.wall_time)


def cmd_dfi(args):
    rep = dfi_sweep(args.poly, args.xlimit, _congruence(args),
                    weyl_depth=args.weyl_depth, jobs=args.jobs)
    _emit_sweep(args, rep)
    return 0


def cmd_dfiext(args):
    rep = dfi_extended_sweep(args.poly, args.g, args.xlimit,
                             _congruence(args), split_only=args.split_only,
                             weyl_depth=args.weyl_depth, jobs=args.jobs)
    _emit_sweep(args, rep)
    return 0


def cmd_multiweyl(args):
    hvec = _int_list(args.h, "the exponent vector")
    rep = multi_weyl(args.poly, args.xlimit, hvec, _congruence(args),
                     split_only=args.split_only, jobs=args.jobs)
    _emit_sweep(args, rep)
    return 0


def cmd_spcheck(args):
    rep = sp_check(args.n, args.xlimit)
    bad = [r for r in rep.records if not (r.law_ok and r.pairing_ok)]
    print("checked %d primes up to %d (skipped %d dividing n)"
          % (len(rep.records), args.xlimit, len(rep.skipped)))
    for r in bad[:5]:
        print("VIOLATION at p = %d: t = %d, dist = %s"
              % (r.p, r.t, r.dist))
    print("reciprocal-angle law: %s" % ("PASS" if rep.all_ok else "FAIL"))
    doc = build_report(
        "spcheck", {"n": rep.n, "xlimit": rep.xlimit},
        records=rep.records,
        aggregate={"all_ok": rep.all_ok, "violations": len(bad)},
        skipped=rep.skipped, seed=args.seed)
    _maybe_outputs(args, doc,
                   ["p", "k", "residue", "angle", "t", "dist", "law_ok",
                    "pairing_ok"],
                   [(r.p, r.k, r.residue, r.angle, r.t, r.dist,
                     r.law_ok, r.pairing_ok) for r in rep.records])
    print("wall time: %.3f s" % rep.wall_time)
    return 0 if rep.all_ok else 1


def _parse_elements(text, desc):
    elems = []
    fq = [Fraction(c) for c in desc.coeffs]
    for part in text.split(";"):
        part = part.strip()
        if not part:
            continue
        coeffs = _univariate_coeffs_of(part)
        rem = poly_rem(coeffs, fq)
        rem = rem + [Fraction(0)] * (desc.degree - len(rem))
        elems.append(NFElem(desc, rem))
    if not elems:
        raise CharsumError("no elements given")
    return elems


def cmd_latbasis(args):
    t0 = time.perf_counter()
    desc = nf_build(_univariate_coeffs_of(args.poly))
    elems = _parse_elements(args.elems, desc)
    lat = lattice_basis(elems)
    print("field: %s" % (desc,))
    print("lattice rank: %d" % len(lat.basis))
    for i, b in enumerate(lat.basis):
        print("basis[%d] = %s" % (i, [str(c) for c in b.coords]))
    for i, row in enumerate(lat.expression):
        print("elem[%d] = %s . basis" % (i, list(row)))
    doc = build_report(
        "latbasis", {"poly": args.poly, "elems": args.elems,
                     "certificate": desc.certificate},
        records=[{"basis": [[c for c in b.coords] for b in lat.basis],
                  "expression": [list(r) for r in lat.expression]}],
        seed=args.seed)
    _maybe_outputs(args, doc,
                   ["kind", "index", "coords"],
                   [("basis", i, " ".join(str(c) for c in b.coords))
                    for i, b in enumerate(lat.basis)]
                   + [("expression", i, " ".join(str(c) for c in row))
                      for i, row in enumerate(lat.expression)])
    _print_wall(t0)
    return 0


def cmd_valueset(args):
    t0 = time.perf_counter()
    desc = nf_build(_univariate_coeffs_of(args.poly))
    elems = _parse_elements(args.elems, desc)
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
    doc = build_report(
        "valueset", {"poly": args.poly, "elems": args.elems, "sp": args.sp,
                     "certificate": desc.certificate},
        records=[{
            "basis": [[c for c in b.coords] for b in lat.basis],
            "exponents": [list(r) for r in vs.exponents],
            "annotations": [{"index": a.index, "value": a.value,
                             "values": [[ang, k] for ang, k in a.values]}
                            for a in vs.annotations]}],
        seed=args.seed)
    _maybe_outputs(args, doc,
                   ["index", "exponents"],
                   [(i, " ".join(str(c) for c in row))
                    for i, row in enumerate(vs.exponents)])
    _print_wall(t0)
    return 0


# -- parser ------------------------------------------------------------


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
    io.add_argument("--jobs", type=int, default=1,
                    help="worker processes for sweeps")

    budget = argparse.ArgumentParser(add_help=False)
    budget.add_argument("--budget", type=int, default=DEFAULT_BUDGET,
                        help="point-enumeration budget")

    sweep = argparse.ArgumentParser(add_help=False)
    sweep.add_argument("--xlimit", type=int, required=True,
                       help="walk primes up to this bound")
    sweep.add_argument("--mod", type=int, help="congruence filter modulus")
    sweep.add_argument("--res", type=int, help="congruence filter residue")

    s = sub.add_parser("weil", parents=[io],
                       help="bound check for a one-variable character sum")
    s.add_argument("--poly", required=True)
    s.add_argument("--prime", type=int)
    s.add_argument("--xlimit", type=int)
    s.add_argument("--mod", type=int)
    s.add_argument("--res", type=int)
    s.add_argument("--twist", type=int)
    s.set_defaults(func=cmd_weil)

    s = sub.add_parser("axiom3", parents=[io, budget],
                       help="positivity floor for a real Laurent polynomial "
                            "on a curve's character image")
    s.add_argument("--system", required=True)
    s.add_argument("--laurent", required=True)
    s.add_argument("--prime", type=int, required=True)
    s.add_argument("--nvars", type=int)
    s.set_defaults(func=cmd_axiom3)

    s = sub.add_parser("psisym", parents=[io],
                       help="root-sum terms: evaluate and combine")
    s.add_argument("--prime", type=int, required=True)
    s.add_argument("--ext", type=int, default=1)
    s.add_argument("--twist", type=int)
    s.add_argument("--coeffs", required=True,
                   help="c1,...,cn of x^n + c1 x^(n-1) + ... + cn")
    s.add_argument("--coeffs2")
    s.add_argument("--op", choices=["eval", "conj", "add", "mul"],
                   default="eval")
    s.add_argument("--verify", action="store_true",
                   help="check the value identity numerically")
    s.set_defaults(func=cmd_psisym)

    s = sub.add_parser("kappa", parents=[io],
                       help="common value of Q over the roots of P at a "
                            "parameter point")
    s.add_argument("--p-poly", required=True, dest="p_poly")
    s.add_argument("--q-poly", required=True, dest="q_poly")
    s.add_argument("--point", help="b1,...,bk parameter values")
    s.add_argument("--prime", type=int, required=True)
    s.add_argument("--ext", type=int, default=1)
    s.add_argument("--root-var", dest="root_var",
                   help="variable to solve for (default: last)")
    s.set_defaults(func=cmd_kappa)

    s = sub.add_parser("boxcount", parents=[io, budget],
                       help="points of a variety in a residue box vs the "
                            "random model")
    s.add_argument("--system", required=True)
    s.add_argument("--prime", type=int, required=True)
    s.add_argument("--box", required=True, help="lo:hi,lo:hi,...")
    s.add_argument("--dim", type=int, required=True)
    s.add_argument("--nvars", type=int)
    s.add_argument("--flag-height", dest="flag_height", type=int,
                   default=HEIGHT_CAP,
                   help="hyperplane search height (0 disables)")
    s.set_defaults(func=cmd_boxcount)

    s = sub.add_parser("mu0", parents=[io, budget, sweep],
                       help="leading-order measure sweep |D| / p^dim")
    s.add_argument("--system", required=True)
    s.add_argument("--dim", type=int, required=True)
    s.add_argument("--nvars", type=int)
    s.set_defaults(func=cmd_mu0)

    s = sub.add_parser("mu1", parents=[io, budget, sweep],
                       help="sqrt-scale signed comparison of two varieties")
    s.add_argument("--system", required=True)
    s.add_argument("--system2", required=True)
    s.add_argument("--dim", type=int, required=True)
    s.add_argument("--nvars", type=int)
    s.set_defaults(func=cmd_mu1)

    s = sub.add_parser("fourier", parents=[io, budget],
                       help="finite Fourier transform of a table on F_p^n")
    s.add_argument("--prime", type=int, required=True)
    s.add_argument("--nvars", type=int, default=1)
    s.add_argument("--const", type=float)
    s.add_argument("--delta", action="store_true")
    s.add_argument("--indicator", help="system whose zero set is the "
                                       "indicator's support")
    s.add_argument("--input", help="CSV of x1..xn,re,im rows")
    s.add_argument("--verify", action="store_true",
                   help="also check the inversion identity")
    s.set_defaults(func=cmd_fourier)

    s = sub.add_parser("pushforward", parents=[io, budget],
                       help="torus moments of a variety's counting measure")
    s.add_argument("--system", required=True)
    s.add_argument("--prime", type=int, required=True)
    s.add_argument("--max-moment", dest="max_moment", type=int, default=3)
    s.add_argument("--nvars", type=int)
    s.set_defaults(func=cmd_pushforward)

    s = sub.add_parser("dfi", parents=[io, sweep],
                       help="root-angle equidistribution sweep")
    s.add_argument("--poly", required=True)
    s.add_argument("--weyl-depth", dest="weyl_depth", type=int, default=5)
    s.add_argument("--hist-bins", dest="hist_bins", type=int)
    s.add_argument("--dump-samples", dest="dump_samples",
                   action="store_true",
                   help="include every sample in the JSON report")
    s.set_defaults(func=cmd_dfi)

    s = sub.add_parser("dfiext", parents=[io, sweep],
                       help="equidistribution of a derived element g(root)")
    s.add_argument("--poly", required=True)
    s.add_argument("--g", required=True)
    s.add_argument("--split-only", dest="split_only", action="store_true")
    s.add_argument("--weyl-depth", dest="weyl_depth", type=int, default=5)
    s.add_argument("--hist-bins", dest="hist_bins", type=int)
    s.add_argument("--dump-samples", dest="dump_samples",
                   action="store_true")
    s.set_defaults(func=cmd_dfiext)

    s = sub.add_parser("multiweyl", parents=[io, sweep],
                       help="joint Weyl sum over root powers")
    s.add_argument("--poly", required=True)
    s.add_argument("--h", required=True, help="h1,...,hk weighting r^1..r^k")
    s.add_argument("--split-only", dest="split_only", action="store_true")
    s.add_argument("--dump-samples", dest="dump_samples",
                   action="store_true")
    s.set_defaults(func=cmd_multiweyl)

    s = sub.add_parser("spcheck", parents=[io],
                       help="exact reciprocal-angle law check")
    s.add_argument("--n", type=int, required=True)
    s.add_argument("--xlimit", type=int, required=True)
    s.set_defaults(func=cmd_spcheck)

    s = sub.add_parser("latbasis", parents=[io],
                       help="integer lattice basis for number field "
                            "elements")
    s.add_argument("--poly", required=True,
                   help="monic integer defining polynomial")
    s.add_argument("--elems", required=True,
                   help="semicolon-separated polynomials in the root")
    s.set_defaults(func=cmd_latbasis)

    s = sub.add_parser("valueset", parents=[io],
                       help="multiplicative value-set description of "
                            "character values")
    s.add_argument("--poly", required=True)
    s.add_argument("--elems", required=True)
    s.add_argument("--sp", action="store_true",
                   help="annotate rational basis values with their allowed "
                        "angles and selecting residues")
    s.set_defaults(func=cmd_valueset)

    return parser


def main(argv=None):
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except CharsumError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    except ValueError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
