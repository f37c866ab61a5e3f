"""Order-preserving parallel map.

Results come back in input order regardless of the job count, so every
sweep is byte-identical between serial and parallel runs.  Workers must
be picklable module-level callables (functools.partial is fine).
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor


def pmap(fn, items, jobs=1):
    """[fn(it) for it in items] on at most `jobs` worker processes, and
    never more than one per item or per CPU: the pool starts all of its
    workers at once."""
    items = list(items)
    workers = min(jobs or 1, len(items), os.cpu_count() or 1)
    if workers <= 1:
        return [fn(it) for it in items]
    chunksize = max(1, len(items) // (4 * workers))
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, items, chunksize=chunksize))
