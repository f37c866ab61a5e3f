"""One pass of a workload, in a fresh interpreter so every cache starts
cold, as in a CLI session.

    python3 bench/passrun.py WORKLOAD SEED TRACE OUT [--quick]

The pass caps its own address space first, so an operation that tries a
huge allocation fails with MemoryError instead of exhausting the machine.
It then runs the operations through `charsum.cli.main` in-process,
timing each, records peak memory, checks every outcome against its
golden, and writes a JSON result to OUT.  With TRACE = 1 the functions
in tracer.TARGETS are wrapped and the per-layer figures are added; the
spans go to OUT with the suffix .spans.jsonl.
"""

from __future__ import annotations

import resource

ADDRESS_SPACE_CAP = 4 << 30

if __name__ == "__main__":
    resource.setrlimit(resource.RLIMIT_AS,
                       (ADDRESS_SPACE_CAP, ADDRESS_SPACE_CAP))

import contextlib
import io
import json
import shutil
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _calls(name):
    return lambda s: s["calls"].get(name, 0)


def _self(*names):
    return lambda s: sum(s["self_s"].get(n, 0.0) for n in names)


def _module_self(prefix):
    return lambda s: sum((v for n, v in s["self_s"].items()
                          if n.startswith(prefix + ".")), 0.0)


def _work(*names):
    return lambda s: sum(s["work"].get(n, 0) for n in names)


_ROOTS = ("polyroots.roots_mod_p.small_p", "polyroots.roots_mod_p.large_p",
          "polyroots.poly_roots_fq")
_POINTS = ("points.count_points", "points.enumerate_points",
           "points.sample_points")

# Per-layer metrics of a traced pass: (name, unit, value from the span
# summary).  trace.overhead_ratio needs an untraced pass and is added by
# run.py.
LAYER_METRICS = (
    ("weil.weil_check.calls", "count", _calls("weil.weil_check")),
    ("weil.weil_check.self_s", "s", _self("weil.weil_check")),
    ("weil.residues", "count", _work("weil.weil_check")),
    ("primes.is_prime.calls", "count", _calls("primes.is_prime")),
    ("primes.is_prime.self_s", "s", _self("primes.is_prime")),
    ("ffield.prime_field.self_s", "s", _self("ffield.prime_field")),
    ("ffield.build_extension.self_s", "s", _self("ffield.build_extension")),
    ("polyroots.roots_mod_p.small_p.calls", "count",
     _calls(_ROOTS[0])),
    ("polyroots.roots_mod_p.small_p.self_s", "s", _self(_ROOTS[0])),
    ("polyroots.roots_mod_p.large_p.calls", "count", _calls(_ROOTS[1])),
    ("polyroots.roots_mod_p.large_p.self_s", "s", _self(_ROOTS[1])),
    ("polyroots.poly_roots_fq.calls", "count", _calls(_ROOTS[2])),
    ("polyroots.poly_roots_fq.self_s", "s", _self(_ROOTS[2])),
    ("polyroots.eval_many.calls", "count", _calls("polyroots.eval_many")),
    ("polyroots.eval_many.self_s", "s", _self("polyroots.eval_many")),
    ("polyroots.roots_found", "count", _work(*_ROOTS)),
    ("mpoly.eval_mod_arrays.calls", "count",
     _calls("mpoly.eval_mod_arrays")),
    ("mpoly.eval_mod_arrays.self_s", "s", _self("mpoly.eval_mod_arrays")),
    ("points.count_points.calls", "count", _calls(_POINTS[0])),
    ("points.count_points.self_s", "s", _self(_POINTS[0])),
    ("points.enumerate_points.calls", "count", _calls(_POINTS[1])),
    ("points.enumerate_points.self_s", "s", _self(_POINTS[1])),
    ("points.sample_points.self_s", "s", _self(_POINTS[2])),
    ("points.points_out", "count", _work(*_POINTS)),
    ("measure.fourier_table.calls", "count",
     _calls("measure.fourier_table")),
    ("measure.fourier_table.self_s", "s", _self("measure.fourier_table")),
    ("measure.fourier_cells", "count", _work("measure.fourier_table")),
    # 16 bytes (one complex128) per table cell: computed, not measured
    ("measure.fourier_bytes", "computed_bytes",
     lambda s: 16 * _work("measure.fourier_table")(s)),
    ("measure.mu0_sweep.self_s", "s", _self("measure.mu0_sweep")),
    ("measure.mu1_sweep.self_s", "s", _self("measure.mu1_sweep")),
    ("measure.pushforward_weyl.self_s", "s",
     _self("measure.pushforward_weyl")),
    ("equidist.ks_statistic.self_s", "s", _self("equidist.ks_statistic")),
    ("equidist.weyl_sum.self_s", "s", _self("equidist.weyl_sum")),
    ("equidist.samples", "count", _work("equidist.ks_statistic")),
    ("parallel.pmap.calls", "count", _calls("parallel.pmap")),
    ("parallel.pmap.items", "count", _work("parallel.pmap")),
    ("parallel.pmap.wall_s", "s", lambda s: s["pmap_wall_s"]),
    ("parallel.pmap.worker_busy_s", "s", lambda s: s["pmap_busy_s"]),
    ("parallel.pmap.efficiency", "ratio",
     lambda s: (s["pmap_busy_s"] / s["pmap_capacity_s"]
                if s["pmap_capacity_s"] else 0.0)),
    ("report.build_report.self_s", "s", _self("report.build_report")),
    ("report.write_json.calls", "count", _calls("report.write_json")),
    ("report.write_json.self_s", "s", _self("report.write_json")),
    ("report.write_json.bytes", "bytes", _work("report.write_json")),
    ("parser.parse_polynomial.self_s", "s",
     _self("parser.parse_polynomial")),
    ("rootsums.self_s", "s", _module_self("rootsums")),
    ("nfield.self_s", "s", _module_self("nfield")),
    # operation wall time minus the spans inside it
    ("cli.self_s", "s", _self("cli")),
)


def _peak_rss_mb():
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    workers = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, workers) / 1024.0


def run_pass(workload, seed, trace, out, quick=False):
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    import charsum.cli
    if not Path(charsum.cli.__file__).resolve().is_relative_to(ROOT / "src"):
        raise SystemExit("charsum imported from outside this checkout: %s"
                         % charsum.cli.__file__)
    import golden
    import tracer as tracing
    from workloads import build

    ops = build(workload, seed, quick)
    tr = tracing.install() if trace else None
    main = charsum.cli.main
    reports = Path(str(out) + ".reports")
    shutil.rmtree(reports, ignore_errors=True)
    reports.mkdir(parents=True)

    outcomes, latency_ms = [], []
    first = time.perf_counter()
    for i, op in enumerate(ops):
        argv = op.command(reports / ("%d.json" % i))
        sink = io.StringIO()
        code, error = None, None
        t0 = time.perf_counter()
        sid = tr.open("cli") if tr else None
        try:
            with contextlib.redirect_stdout(sink), \
                    contextlib.redirect_stderr(sink):
                code = main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:  # an operation's crash is its outcome
            error = "%s: %s" % (type(exc).__name__, exc)
        finally:
            if tr:
                tr.close(sid)
        t1 = time.perf_counter()
        latency_ms.append((t1 - t0) * 1000.0)
        outcomes.append((code, error))
    wall_s = time.perf_counter() - first
    peak_rss_mb = _peak_rss_mb()

    expected = golden.load(workload)
    failures, units = [], 0
    for i, (op, (code, error)) in enumerate(zip(ops, outcomes)):
        why = golden.check(expected[op.key], code, error,
                           reports / ("%d.json" % i))
        if why:
            failures.append({"op": op.key, "why": why,
                             "known_defect": op.known_defect
                             if op.is_known_failure(why) else None})
        else:
            units += op.units
    shutil.rmtree(reports, ignore_errors=True)

    result = {"trace": bool(trace), "wall_s": wall_s,
              "latency_ms": latency_ms, "attempted": len(ops),
              "failures": failures, "units": units,
              "peak_rss_mb": peak_rss_mb}
    if tr:
        summary = tracing.summarize(tr)
        result["layers"] = {name: fn(summary)
                            for name, _, fn in LAYER_METRICS}
        result["absent"] = tr.absent
        tr.write(str(out) + ".spans.jsonl")
    Path(out).write_text(json.dumps(result))


if __name__ == "__main__":
    args = sys.argv[1:]
    quick = "--quick" in args
    args = [a for a in args if a != "--quick"]
    run_pass(args[0], int(args[1]), args[2] == "1", args[3], quick)
