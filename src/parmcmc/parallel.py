"""Deterministic fork-join execution over static partitions.

A "parallel region" runs a fixed list of tasks -- one per worker -- and
returns their results in task order.  Work is pre-assigned before the
region starts (static scheduling); workers never exchange state, so the
result of a region is bit-identical no matter how the OS schedules the
threads.  Numpy releases the GIL inside most of its kernels, which is
where all the heavy lifting happens; a few, such as `x.T @ r`, hold it
for the whole call (README, "Notes on scope").

The caller is a member of the team, as the thread that opens an OpenMP
region is: it runs task 0 itself while the pool runs the rest, so an
n-task region needs n - 1 pool threads and pays for one hand-off fewer.

Nested regions serialize: a region opened from inside a region task --
on a pool thread, or in task 0 on the caller -- runs its tasks inline on
that thread.  This both avoids pool starvation and mirrors the usual
nested-parallelism-off runtime default.  A one-task region is no fork at
all: its task runs on the caller's thread without marking it, so a region
the task opens still fans out to the pool.  One pool, made at import,
serves every region.  It has no thread cap, since a capped pool would
serialize a region's tasks; it starts a thread only when none is idle,
so it holds about as many threads as the largest region seen, less the
caller's task.  `concurrent.futures` joins its threads at exit.

`submit` hands that pool one task without a region and returns its
future, so the caller can keep working and join later.  From inside a
region task it runs the task inline, as a nested region does: a region
task on a saturated pool would otherwise wait on itself.
"""

from __future__ import annotations

import sys
import threading
from concurrent.futures import Future, ThreadPoolExecutor
from typing import Callable, Sequence, TypeVar

from .instrumentation import counters

__all__ = ["partition", "run_region", "submit"]

T = TypeVar("T")

_pool = ThreadPoolExecutor(max_workers=sys.maxsize, thread_name_prefix="region")
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


def _submit(tasks: Sequence[Callable[[], T]]) -> list[Future]:
    return [_pool.submit(_run_wrapped, t) for t in tasks]


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

    tasks[1:] go to the pool and tasks[0] runs on the calling thread,
    marked as inside the region while it runs.  The region closes only
    when every task has finished, task 0's failure included.  If tasks
    raise, the first exception in task order propagates after that, so no
    task of a failed region is still running when the caller sees the
    error.
    """
    counters.add_region()
    if len(tasks) <= 1 or getattr(_tls, "inside_region", False):
        return [t() for t in tasks]
    futures = _submit(tasks[1:])
    try:
        head = _run_wrapped(tasks[0])
    finally:
        for f in futures:
            f.exception()  # blocks until done without raising, so every task finishes
    return [head] + [f.result() for f in futures]


def submit(task: Callable[[], T]) -> Future:
    """Start one task on the pool and return its future.

    Inside a region task the task runs inline and the future comes back
    done, holding its result or its exception.  This is no region: it
    counts none and its task is not split.
    """
    if not getattr(_tls, "inside_region", False):
        return _submit([task])[0]
    done: Future = Future()
    try:
        done.set_result(task())
    except Exception as exc:
        done.set_exception(exc)
    return done
