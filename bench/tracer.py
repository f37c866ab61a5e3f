"""Outside-in tracer: spans around charsum's public functions, recorded
from the benchmark without touching the package's code.

`install()` wraps each function in TARGETS and rebinds every alias of it
across the loaded `charsum.*` modules, because `cli`, `equidist` and
`weil` import by name and would otherwise keep calling the original.
Spans (id, parent, name, start, end, work, remote) stay in memory; the
pass writes them out when it ends.  `work` is an exact count derived
from the call's arguments or result (residues, roots, cells, items,
samples, points, bytes), so it repeats exactly from run to run.

Work done in pool workers is invisible to the parent process, so the
wrapped `pmap` hands the workers a callable that records the item's
spans in the worker and returns them with the result.  A missing target
(say, a function a later change deleted) is listed in `absent` and its
metrics read 0 instead of crashing the run.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import sys
import time

clock = time.perf_counter
SMALL_P = 1 << 16


def _arg(args, kwargs, index, name):
    if name in kwargs:
        return kwargs[name]
    return args[index] if len(args) > index else None


def _size(obj):
    return len(obj) if hasattr(obj, "__len__") else 0


def _roots_name(args, kwargs):
    p = _arg(args, kwargs, 1, "p")
    return ("polyroots.roots_mod_p.small_p" if p < SMALL_P
            else "polyroots.roots_mod_p.large_p")


def _fourier_cells(args, kwargs, result):
    table = _arg(args, kwargs, 0, "table")
    return table.p ** table.n


def _file_bytes(args, kwargs, result):
    return os.path.getsize(_arg(args, kwargs, 0, "path"))


# (module, attribute, span name, work counter).  A span name of None means
# "pick the name per call" (roots_mod_p is split by the size of p).
TARGETS = (
    ("charsum.weil", "weil_check", "weil.weil_check",
     lambda a, k, r: _arg(a, k, 1, "p")),
    ("charsum.primes", "is_prime", "primes.is_prime", None),
    ("charsum.ffield", "prime_field", "ffield.prime_field", None),
    ("charsum.ffield", "build_extension", "ffield.build_extension", None),
    ("charsum.polyroots", "roots_mod_p", None, lambda a, k, r: len(r)),
    ("charsum.polyroots", "poly_roots_fq", "polyroots.poly_roots_fq",
     lambda a, k, r: len(r)),
    ("charsum.polyroots", "eval_many", "polyroots.eval_many", None),
    ("charsum.mpoly", "MPoly.eval_mod_arrays", "mpoly.eval_mod_arrays",
     None),
    ("charsum.points", "count_points", "points.count_points",
     lambda a, k, r: r),
    ("charsum.points", "enumerate_points", "points.enumerate_points",
     lambda a, k, r: len(r)),
    ("charsum.points", "sample_points", "points.sample_points",
     lambda a, k, r: len(r)),
    ("charsum.measure", "fourier_table", "measure.fourier_table",
     _fourier_cells),
    ("charsum.measure", "mu0_sweep", "measure.mu0_sweep", None),
    ("charsum.measure", "mu1_sweep", "measure.mu1_sweep", None),
    ("charsum.measure", "pushforward_weyl", "measure.pushforward_weyl",
     None),
    ("charsum.equidist", "ks_statistic", "equidist.ks_statistic",
     lambda a, k, r: _size(_arg(a, k, 0, "values"))),
    ("charsum.equidist", "weyl_sum", "equidist.weyl_sum", None),
    ("charsum.report", "build_report", "report.build_report", None),
    ("charsum.report", "write_json", "report.write_json", _file_bytes),
    ("charsum.parser", "parse_polynomial", "parser.parse_polynomial", None),
)
# Every public function of these modules is wrapped; their self time is
# reported per module.
WHOLE_MODULES = ("rootsums", "nfield")
PMAP = ("charsum.parallel", "pmap")

# Work counters taken from arguments (known even when the call raises).
_COUNT_ON_ENTRY = {"weil.weil_check", "measure.fourier_table"}


class Tracer:
    def __init__(self):
        self.pid = os.getpid()
        self.spans = []     # [id, parent, name, t0, t1, work, remote]
        self.stack = []
        self.absent = []
        self.jobs = {}      # pmap span id -> worker count it ran with

    def open(self, name):
        sid = len(self.spans)
        self.spans.append([sid, self.stack[-1] if self.stack else None,
                           name, clock(), None, 0, False])
        self.stack.append(sid)
        return sid

    def close(self, sid, work=0):
        span = self.spans[sid]
        span[4] = clock()
        span[5] = work
        self.stack.pop()

    def call(self, fn, name, work, args, kwargs):
        sid = self.open(name)
        result, done = None, False
        try:
            result = fn(*args, **kwargs)
            done = True
            return result
        finally:
            w = 0
            if work is not None and (done or name in _COUNT_ON_ENTRY):
                w = work(args, kwargs, result)
            self.close(sid, w)

    def adopt(self, spans, parent):
        """Add spans recorded in a pool worker under the pmap span."""
        base = len(self.spans)
        for sid, par, name, t0, t1, work, _ in spans:
            self.spans.append([base + sid,
                               parent if par is None else base + par,
                               name, t0, t1, work, par is None])

    def write(self, path):
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span, separators=(",", ":")) + "\n")


TRACER = None


class _Item:
    """The callable pmap receives: runs one item under a span.  In a
    pool worker it records into a fresh buffer and returns the spans."""

    def __init__(self, fn):
        self.fn = fn

    def __call__(self, item):
        tr = TRACER
        if os.getpid() == tr.pid:
            sid = tr.open("parallel.pmap.item")
            try:
                return self.fn(item), None
            finally:
                tr.close(sid)
        tr.spans, tr.stack = [], []
        sid = tr.open("parallel.pmap.item")
        result = self.fn(item)
        tr.close(sid)
        return result, tr.spans


def _wrapper(tr, fn, name, work):
    if name is None:
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return tr.call(fn, _roots_name(args, kwargs), work, args, kwargs)
    else:
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return tr.call(fn, name, work, args, kwargs)
    return wrapper


def _pmap_wrapper(tr, pmap):
    @functools.wraps(pmap)
    def traced_pmap(fn, items, jobs=1):
        items = list(items)
        sid = tr.open("parallel.pmap")
        try:
            out = pmap(_Item(fn), items, jobs)
        finally:
            tr.close(sid, len(items))
        tr.jobs[sid] = jobs if jobs and jobs > 1 and len(items) > 1 else 1
        results = []
        for result, spans in out:
            results.append(result)
            if spans:
                tr.adopt(spans, sid)
        return results
    return traced_pmap


def _rebind(orig, repl):
    for modname, mod in list(sys.modules.items()):
        if modname != "charsum" and not modname.startswith("charsum."):
            continue
        for attr, value in list(vars(mod).items()):
            if value is orig:
                setattr(mod, attr, repl)


def install():
    """Wrap every target; returns the tracer that records their spans."""
    global TRACER
    tr = TRACER = Tracer()
    importlib.import_module("charsum.cli")
    targets = list(TARGETS)
    for short in WHOLE_MODULES:
        mod = importlib.import_module("charsum." + short)
        for attr, value in sorted(vars(mod).items()):
            if (inspect.isfunction(value) and not attr.startswith("_")
                    and value.__module__ == mod.__name__):
                targets.append((mod.__name__, attr,
                                "%s.%s" % (short, attr), None))
    for modname, attr, name, work in targets:
        mod = importlib.import_module(modname)
        owner_name, _, fname = attr.rpartition(".")
        owner = getattr(mod, owner_name) if owner_name else mod
        orig = getattr(owner, fname, None)
        if orig is None:
            tr.absent.append("%s.%s" % (modname, attr))
            continue
        repl = _wrapper(tr, orig, name, work)
        if owner_name:
            setattr(owner, fname, repl)
        else:
            _rebind(orig, repl)
    mod = importlib.import_module(PMAP[0])
    orig = getattr(mod, PMAP[1], None)
    if orig is None:
        tr.absent.append(".".join(PMAP))
    else:
        _rebind(orig, _pmap_wrapper(tr, orig))
    return tr


def summarize(tr):
    """Per-name totals of one traced pass: calls, self seconds, work, and
    the pmap figures.  Self time is a span's duration minus the time its
    direct children in the same process cover; worker spans are not
    subtracted from the pmap span that waited for them."""
    covered = {}
    for sid, par, name, t0, t1, work, remote in tr.spans:
        if par is not None and not remote:
            covered[par] = covered.get(par, 0.0) + (t1 - t0)
    calls, self_s, work_sum = {}, {}, {}
    names = {span[0]: span[2] for span in tr.spans}
    busy = pmap_wall = pmap_capacity = 0.0
    for sid, par, name, t0, t1, work, remote in tr.spans:
        dur = t1 - t0
        calls[name] = calls.get(name, 0) + 1
        self_s[name] = self_s.get(name, 0.0) + dur - covered.get(sid, 0.0)
        # roots and points count once, at the outermost call of their
        # layer (poly_roots_fq calls roots_mod_p, count_points calls
        # enumerate_points)
        layer = name.split(".")[0]
        if (layer not in ("polyroots", "points")
                or names.get(par, "").split(".")[0] != layer):
            work_sum[name] = work_sum.get(name, 0) + work
        if name == "parallel.pmap.item":
            busy += dur
        elif name == "parallel.pmap":
            pmap_wall += dur
            pmap_capacity += tr.jobs.get(sid, 1) * dur
    return {"calls": calls, "self_s": self_s, "work": work_sum,
            "pmap_busy_s": busy,
            "pmap_wall_s": pmap_wall, "pmap_capacity_s": pmap_capacity}
