"""Quick self-check of the benchmark, at reduced size.

    python3 bench/selfcheck.py

For every workload it runs run.py with --quick (one operation of each
kind per pass) untraced once and traced twice, and asserts that:

  * the last stdout line is the result object with exactly the keys
    correct, attempted, failed and metrics, and correct is true;
  * every end-to-end metric (untraced) and every per-layer metric
    (traced) named in BENCHMARK.json is emitted, with its unit, and no
    other metric is;
  * the exact work counts of the two traced runs are identical.

It also checks that a known defect excuses only the failure it is
listed with, and that the benchmark refuses to run, without printing a
result, in a directory holding only BENCHMARK.json and bench/.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
EXACT_UNITS = ("count", "bytes", "computed_bytes")


def _run(workload, trace, cwd=ROOT):
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed",
           "7", "--seconds", "1", "--trace", str(trace), "--quick"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                          timeout=300)


def _result(workload, trace, spec):
    proc = _run(workload, trace)
    if proc.returncode != 0:
        raise AssertionError("%s trace %d exited %d:\n%s"
                             % (workload, trace, proc.returncode,
                                proc.stderr))
    doc = json.loads(proc.stdout.strip().splitlines()[-1])
    if set(doc) != {"correct", "attempted", "failed", "metrics"}:
        raise AssertionError("result keys: %s" % sorted(doc))
    if doc["correct"] is not True or doc["attempted"] < 1:
        raise AssertionError("%s trace %d: %s" % (workload, trace,
                                                  proc.stdout))
    want = {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}
    got = {name: m["unit"] for name, m in doc["metrics"].items()}
    if got != want:
        raise AssertionError("%s trace %d: metric names or units differ: "
                             "missing %s, extra %s"
                             % (workload, trace,
                                sorted(set(want.items()) - set(got.items())),
                                sorted(set(got.items()) - set(want.items()))))
    return doc


def _known_failure_only():
    sys.path.insert(0, str(HERE))
    from workloads import catalogue
    op = next(op for op in catalogue("point_tables") if op.known_defect)
    if not op.is_known_failure(["raised MemoryError: Unable to allocate"]):
        raise AssertionError("listed failure not recognised: %s" % op.key)
    for why in (["exit code 1, expected 0"], ["raised ValueError: bad"],
                ["$.aggregate.plancherel_lhs: expected 1e-05, got 2e-05"]):
        if op.is_known_failure(why):
            raise AssertionError("%s excused for %s" % (op.key, why))


def _bare_directory_fails():
    bare = ROOT / ".bench_work" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(HERE, bare / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("weil_corpus", 0, cwd=bare)
    shutil.rmtree(bare)
    if proc.returncode == 0 or proc.stdout.strip():
        raise AssertionError("benchmark ran without the program: %r"
                             % proc.stdout)


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for w in spec["workloads"]:
        name = w["name"]
        _result(name, 0, spec)
        first = _result(name, 1, spec)["metrics"]
        second = _result(name, 1, spec)["metrics"]
        for metric, m in first.items():
            if m["unit"] in EXACT_UNITS and m["value"] != \
                    second[metric]["value"]:
                raise AssertionError("%s: %s not exact: %r vs %r"
                                     % (name, metric, m["value"],
                                        second[metric]["value"]))
        print("ok %s" % name)
    _known_failure_only()
    print("ok known defect matched on its failure")
    _bare_directory_fails()
    print("ok bare directory refused")


if __name__ == "__main__":
    main()
