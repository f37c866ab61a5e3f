"""pmap starts no more workers than it has jobs, items or CPUs."""

import os

import pytest

from charsum import parallel


class RecordingPool:
    """Stands in for ProcessPoolExecutor: records `max_workers` and maps
    in this process, so no test starts a pool."""
    sizes = []

    def __init__(self, max_workers):
        self.sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, items, chunksize=1):
        return map(fn, items)


# workers = min(jobs, items, CPUs); None where that is one or fewer and
# pmap maps serially
@pytest.mark.parametrize("jobs, nitems, cpus, workers", [
    (5000, 4, 2, 2), (5000, 4, 8, 4), (3, 100, 8, 3), (2, 100, 2, 2),
    (5000, 1, 8, None), (4, 100, 1, None), (1, 100, 8, None),
    (0, 100, 8, None)])
def test_pool_size_is_bounded(monkeypatch, jobs, nitems, cpus, workers):
    monkeypatch.setattr(parallel, "ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(os, "cpu_count", lambda: cpus)
    RecordingPool.sizes = []
    items = list(range(nitems))
    assert parallel.pmap(abs, items, jobs) == items
    assert RecordingPool.sizes == ([] if workers is None else [workers])
