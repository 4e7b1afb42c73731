"""Deterministic fork-join execution over static partitions.

A "parallel region" runs a fixed list of tasks -- one per worker -- and
returns their results in task order.  Work is pre-assigned before the
region starts (static scheduling); workers never exchange state, so the
result of a region is bit-identical no matter how the OS schedules the
threads.  Numpy releases the GIL inside its kernels, which is where all
the heavy lifting happens.

Nested regions serialize: a region opened from inside a pool worker runs
its tasks inline on that worker's thread.  This both avoids pool starvation
and mirrors the usual nested-parallelism-off runtime default.  A one-task
region is no fork at all: its task runs on the caller's thread without
marking it, so a region the task opens still fans out to the pool.
"""

from __future__ import annotations

import threading
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, Sequence, TypeVar

from .instrumentation import counters

T = TypeVar("T")

_pools: dict[int, ThreadPoolExecutor] = {}
_pools_lock = threading.Lock()
_tls = threading.local()


def partition(n: int, workers: int) -> list[tuple[int, int]]:
    """Split range(n) into `workers` contiguous blocks.

    The first n % workers blocks take one extra element, so block sizes
    differ by at most one and the layout is a pure function of (n, workers).
    Blocks may be empty when workers > n.
    """
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    base, extra = divmod(n, workers)
    bounds = []
    start = 0
    for w in range(workers):
        size = base + (1 if w < extra else 0)
        bounds.append((start, start + size))
        start += size
    return bounds


def _pool(size: int) -> ThreadPoolExecutor:
    with _pools_lock:
        pool = _pools.get(size)
        if pool is None:
            pool = ThreadPoolExecutor(max_workers=size, thread_name_prefix=f"region{size}")
            _pools[size] = pool
        return pool


def _run_wrapped(task: Callable[[], T]) -> T:
    # restore rather than clear: a nested region that runs inline on a worker
    # must leave the worker marked, or the next nested region would submit to
    # the saturated pool and wait on itself
    outer = getattr(_tls, "inside_region", False)
    _tls.inside_region = True
    try:
        return task()
    finally:
        _tls.inside_region = outer


def run_region(tasks: Sequence[Callable[[], T]]) -> list[T]:
    """Execute one parallel region; results are returned in task order.

    The region closes only when every task has finished.  If tasks raise,
    the first exception in task order propagates after that, so no task of
    a failed region is still running when the caller sees the error.
    """
    counters.add_region()
    if len(tasks) == 1 or getattr(_tls, "inside_region", False):
        return [t() for t in tasks]
    pool = _pool(len(tasks))
    futures = [pool.submit(_run_wrapped, t) for t in tasks]
    for f in futures:
        f.exception()  # blocks until done without raising, so every task finishes
    return [f.result() for f in futures]
