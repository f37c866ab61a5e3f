"""Golden outcomes: the expected exit code and JSON report of every
catalogue operation, and the comparison the benchmark applies to them.

Integers, strings, booleans, exact "a/b" rationals and skip lists must
match exactly.  Floats match within 1e-9 (relative or absolute), so a
correct change of summation order or transform algorithm passes and a
wrong root does not.  Stored floats keep 12 significant digits, well
inside that tolerance.

Regenerate (from the repository root) with

    PYTHONPATH=src python3 bench/golden.py

which runs every catalogue operation at --jobs 1 and rewrites
bench/golden/<workload>.json.xz.
"""

from __future__ import annotations

import contextlib
import io
import json
import lzma
import math
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
GOLDEN_DIR = HERE / "golden"
FLOAT_TOL = 1e-9


def path_for(workload):
    return GOLDEN_DIR / ("%s.json.xz" % workload)


def load(workload):
    with lzma.open(path_for(workload), "rt") as fh:
        return json.load(fh)["ops"]


def _numeric(x):
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def compare(expected, actual, where="$", out=None, limit=5):
    """Mismatch descriptions (at most `limit`) between two decoded JSON
    documents."""
    if out is None:
        out = []
    if len(out) >= limit:
        return out
    if isinstance(expected, float) or isinstance(actual, float):
        if not (_numeric(expected) and _numeric(actual)
                and math.isclose(expected, actual, rel_tol=FLOAT_TOL,
                                 abs_tol=FLOAT_TOL)):
            out.append("%s: expected %r, got %r" % (where, expected, actual))
    elif isinstance(expected, dict):
        if not isinstance(actual, dict) or set(expected) != set(actual):
            out.append("%s: keys differ" % where)
        else:
            for k in sorted(expected):
                compare(expected[k], actual[k], "%s.%s" % (where, k), out,
                        limit)
    elif isinstance(expected, list):
        if not isinstance(actual, list) or len(expected) != len(actual):
            out.append("%s: length differs" % where)
        else:
            for i, (e, a) in enumerate(zip(expected, actual)):
                compare(e, a, "%s[%d]" % (where, i), out, limit)
    elif type(expected) is not type(actual) or expected != actual:
        out.append("%s: expected %r, got %r" % (where, expected, actual))
    return out


def check(golden, exit_code, error, report_path):
    """Mismatches of one operation's outcome against its golden entry."""
    if error is not None:
        return ["raised %s" % error]
    if exit_code != golden["exit"]:
        return ["exit code %r, expected %r" % (exit_code, golden["exit"])]
    if golden["report"] is None:
        return []
    try:
        with open(report_path) as fh:
            report = json.load(fh)
    except (OSError, ValueError) as exc:
        return ["no readable report: %s" % exc]
    return compare(golden["report"], report)


def _rounded(obj):
    if isinstance(obj, float):
        return float("%.12g" % obj)
    if isinstance(obj, dict):
        return {k: _rounded(v) for k, v in obj.items()}
    if isinstance(obj, list):
        return [_rounded(v) for v in obj]
    return obj


def _run(main, op, tmp):
    path = Path(tmp) / "report.json"
    if path.exists():
        path.unlink()
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        code = main(op.command(path, jobs=1 if op.jobs else 0))
    report = None
    if path.exists():
        report = json.loads(path.read_text())
    return {"exit": code, "report": report}


def _delta_transform(p):
    """Expected outcome of `fourier --prime p --nvars 1 --delta --verify`
    from the transform's definition: F(delta_0) is the constant 1/p, so
    both Plancherel sides are 1/p and inversion is exact."""
    from charsum.report import build_report
    return {"exit": 0, "report": json.loads(json.dumps(build_report(
        "fourier", {"prime": p, "nvars": 1, "const": None, "delta": True,
                    "indicator": None, "input": None},
        aggregate={"plancherel_lhs": 1 / p, "plancherel_rhs": 1 / p,
                   "plancherel_diff": 0.0, "inversion_error": 0.0})))}


def generate(workload):
    from charsum.cli import main
    from workloads import Op, catalogue
    ops = {}
    with tempfile.TemporaryDirectory() as tmp:
        # the analytic delta outcome must agree with the code where the
        # code still runs
        probe = Op("probe", ("fourier", "--prime", "1009", "--nvars", "1",
                             "--delta", "--verify"))
        got = _run(main, probe, tmp)
        bad = compare(_delta_transform(1009)["report"], got["report"])
        if got["exit"] != 0 or bad:
            raise SystemExit("analytic delta transform disagrees: %s" % bad)
        for op in catalogue(workload):
            if op.key in ops:
                continue
            if op.known_defect:
                p = int(op.argv[op.argv.index("--prime") + 1])
                ops[op.key] = _delta_transform(p)
            else:
                ops[op.key] = _run(main, op, tmp)
    GOLDEN_DIR.mkdir(exist_ok=True)
    doc = {"workload": workload, "ops": _rounded(ops)}
    with lzma.open(path_for(workload), "wt", preset=9) as fh:
        json.dump(doc, fh, sort_keys=True, separators=(",", ":"))
    return len(ops)


def main(argv=None):
    from workloads import WHY
    names = (argv if argv is not None else sys.argv[1:]) or sorted(WHY)
    for name in names:
        print("%s: %d golden outcomes" % (name, generate(name)))


if __name__ == "__main__":
    sys.path.insert(0, str(HERE))
    main()
