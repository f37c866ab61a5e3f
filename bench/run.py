"""The charsum benchmark: one workload, one seed, one timed run.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; charsum is imported from its `src`.
The run first times `setup_s` (a fresh interpreter importing charsum.cli
and building its parser) several times.  It then runs passes of the
workload, each in a fresh child process (passrun.py), until the next
pass would end more than S seconds after the run began, set-up included.  With --trace 0 every pass is untraced
and the end-to-end metrics are printed; with --trace 1 traced and
untraced passes alternate and the per-layer metrics are printed.  Every
operation's outcome is checked against its golden.  The last line of
stdout is one JSON object: correct, attempted, failed, metrics.

Scratch files go to .bench_work/ in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".bench_work"
SETUP_REPEATS = 11
# a run must end well inside three minutes, whatever a pass does
RUN_LIMIT_S = 170
SETUP_SNIPPET = "from charsum.cli import main; main(['--version'])"

sys.path.insert(0, str(HERE))
from passrun import LAYER_METRICS  # noqa: E402
from workloads import WHY  # noqa: E402

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "primes_per_s": "1/s",
                    "op_p50_ms": "ms", "op_p90_ms": "ms",
                    "peak_rss_mb": "MB", "ok_ratio": "ratio"}


def _env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def machine():
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        import numpy
        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    return {"nproc": os.cpu_count(), "cpu": cpu,
            "python": platform.python_version(), "numpy": numpy_version}


def measure_setup(repeats):
    """Seconds from spawning an interpreter until charsum.cli is imported
    and its parser has printed the version; one untimed warm-up first."""
    times = []
    for i in range(repeats + 1):
        t0 = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-u", "-c", SETUP_SNIPPET],
                                stdout=subprocess.PIPE, env=_env(), cwd=ROOT)
        try:
            line = proc.stdout.readline()
            t1 = time.perf_counter()
            code = proc.wait(timeout=60)
        finally:
            proc.stdout.close()
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        if code != 0 or not line.startswith(b"charsum"):
            raise RuntimeError("charsum did not start: %r" % line)
        if i:
            times.append(t1 - t0)
    return statistics.median(times)


def run_pass(workload, seed, trace, index, quick, timeout):
    """One pass in a child process of its own session, so that on a
    timeout the child and its pool workers are killed together."""
    out = WORK / ("%s-seed%d-trace%d-pass%d.json"
                  % (workload, seed, int(trace), index))
    cmd = [sys.executable, str(HERE / "passrun.py"), workload, str(seed),
           "1" if trace else "0", str(out)] + (["--quick"] if quick else [])
    proc = subprocess.Popen(cmd, env=_env(), cwd=ROOT,
                            stdout=subprocess.DEVNULL,
                            stderr=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        _, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise RuntimeError("pass did not finish in %.0f s" % timeout)
    if proc.returncode != 0:
        raise RuntimeError("pass failed (exit %d):\n%s"
                           % (proc.returncode, err[-2000:]))
    return json.loads(out.read_text())


def run_passes(workload, seed, seconds, trace, quick, start, deadline):
    """Passes until the next one would end more than `seconds` after
    `start`.  A traced run alternates untraced and traced passes and has
    at least one of each."""
    passes = []
    longest = 0.0
    while True:
        traced = trace and len(passes) % 2 == 1
        t0 = time.perf_counter()
        passes.append(run_pass(workload, seed, traced, len(passes), quick,
                               deadline - t0))
        longest = max(longest, time.perf_counter() - t0)
        enough = len(passes) >= (2 if trace else 1)
        if enough and time.perf_counter() - start + longest > seconds:
            return passes


def end_to_end(passes, setup_s):
    plain = [p for p in passes if not p["trace"]]
    lat = sorted(x for p in plain for x in p["latency_ms"])
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(len(p["failures"]) for p in passes)
    return {
        "setup_s": setup_s,
        "wall_s": statistics.median(p["wall_s"] for p in plain),
        "primes_per_s": statistics.median(p["units"] / p["wall_s"]
                                          for p in plain),
        "op_p50_ms": statistics.median(lat),
        "op_p90_ms": statistics.quantiles(lat, n=10)[8],
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in plain),
        "ok_ratio": (attempted - failed) / attempted,
    }, len(lat)


def per_layer(passes):
    traced = [p for p in passes if p["trace"]]
    plain = [p for p in passes if not p["trace"]]
    out = {}
    for name, unit, _ in LAYER_METRICS:
        values = [p["layers"][name] for p in traced]
        if unit in ("count", "bytes", "computed_bytes"):
            if len(set(values)) != 1:
                print("note: %s differs between traced passes: %s"
                      % (name, values))
            out[name] = values[0]
        else:
            out[name] = statistics.median(values)
    out["trace.overhead_ratio"] = (
        statistics.median(p["wall_s"] for p in traced)
        / statistics.median(p["wall_s"] for p in plain) - 1.0)
    return out


def layer_units():
    units = {name: unit for name, unit, _ in LAYER_METRICS}
    units["trace.overhead_ratio"] = "ratio"
    return units


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WHY))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--quick", action="store_true",
                    help="reduced passes, for the self-check only")
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "charsum" / "cli.py").is_file():
        print("error: no charsum sources under %s" % (ROOT / "src"),
              file=sys.stderr)
        return 2
    start = time.perf_counter()
    deadline = start + RUN_LIMIT_S
    WORK.mkdir(exist_ok=True)
    try:
        setup_s = measure_setup(2 if args.quick else SETUP_REPEATS)
        passes = run_passes(args.workload, args.seed, args.seconds,
                            bool(args.trace), args.quick, start, deadline)
    except (RuntimeError, OSError, subprocess.SubprocessError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1

    attempted = sum(p["attempted"] for p in passes)
    failures = [f for p in passes for f in p["failures"]]
    unexpected = [f for f in failures if not f["known_defect"]]
    reproduce = ("python3 bench/run.py --workload %s --seed %d --seconds %g "
                 "--trace %d" % (args.workload, args.seed, args.seconds,
                                 args.trace))
    record = {"workload": args.workload, "seed": args.seed,
              "why": WHY[args.workload], "machine": machine(),
              "reproduce": reproduce, "passes": passes}
    print("workload %s, seed %d: %s" % (args.workload, args.seed,
                                         WHY[args.workload]))
    print("machine: %s" % json.dumps(record["machine"], sort_keys=True))
    print("reproduce: %s" % reproduce)
    print("passes: %d (%d traced), operations per pass: %d"
          % (len(passes), sum(p["trace"] for p in passes),
             passes[0]["attempted"]))
    print("failed_ratio: %d/%d = %.6f" % (len(failures), attempted,
                                          len(failures) / attempted))
    for op in sorted({f["op"] for f in failures}):
        f = next(f for f in failures if f["op"] == op)
        print("failed: %s: %s%s" % (op, "; ".join(f["why"]),
                                    " (known defect: %s)" % f["known_defect"]
                                    if f["known_defect"] else ""))

    if args.trace:
        metrics = per_layer(passes)
        units = layer_units()
        absent = sorted({a for p in passes for a in p.get("absent", [])})
        if absent:
            print("absent (metrics read 0): %s" % ", ".join(absent))
    else:
        metrics, samples = end_to_end(passes, setup_s)
        units = END_TO_END_UNITS
        print("op latency samples: %d" % samples)
    for name, value in metrics.items():
        print("%s: %.6g %s" % (name, value, units[name]))
    record["metrics"] = metrics
    (WORK / ("%s-seed%d-trace%d.run.json"
             % (args.workload, args.seed, args.trace))).write_text(
        json.dumps(record, indent=1))
    print(json.dumps({
        "correct": not unexpected, "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
