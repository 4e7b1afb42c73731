"""In-memory span tracing installed from outside the library.

`Tracer.wrap` replaces a function or method at the place its caller looks
it up (a module global or a class attribute) with a wrapper that records
one span per call: id, parent id, name, start and end (ns).  The parent is
the innermost open span on the calling thread.  `wrap_region` does the
same for a region runner such as `parallel.run_region` and also wraps each
task, so every task records a `parallel.task` span whose parent is its
region, whichever thread runs it.

Wrappers are installed only inside `Tracer.installed()`, so untraced work
runs the library's own functions.  Spans are appended to per-thread
int64 arrays, kept in memory, and written out once by `save`.
"""

from __future__ import annotations

import itertools
import threading
import time
from array import array
from contextlib import contextmanager

import numpy as np

TASK = "parallel.task"


class TraceTargetMissing(RuntimeError):
    """A name the tracer wraps no longer exists in the library."""


def _describe(owner, attr: str) -> str:
    if isinstance(owner, type):
        return f"{owner.__module__}.{owner.__qualname__}.{attr}"
    return f"{owner.__name__}.{attr}"


class Tracer:
    def __init__(self):
        self._ids = itertools.count(1)
        self._tls = threading.local()
        self._lock = threading.Lock()
        self._buffers: list[array] = []
        self.names: dict[str, int] = {}
        self._targets: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _local(self):
        tls = self._tls
        if not hasattr(tls, "stack"):
            tls.stack = []
            tls.spans = array("q")
            with self._lock:
                self._buffers.append(tls.spans)
        return tls

    def name_id(self, name: str) -> int:
        nid = self.names.get(name)
        if nid is None:
            with self._lock:
                nid = self.names.setdefault(name, len(self.names))
        return nid

    def _record(self, nid: int, parent: int | None, fn, args, kwargs, sid: int | None = None):
        tls = self._local()
        stack = tls.stack
        if parent is None:
            parent = stack[-1] if stack else 0
        if sid is None:
            sid = next(self._ids)
        stack.append(sid)
        t0 = time.perf_counter_ns()
        try:
            return fn(*args, **kwargs)
        finally:
            t1 = time.perf_counter_ns()
            stack.pop()
            tls.spans.extend((sid, parent, nid, t0, t1))

    @contextmanager
    def span(self, name: str):
        """A span around the benchmark's own code, e.g. one phase of a unit."""
        tls = self._local()
        parent = tls.stack[-1] if tls.stack else 0
        sid = next(self._ids)
        tls.stack.append(sid)
        t0 = time.perf_counter_ns()
        try:
            yield sid
        finally:
            t1 = time.perf_counter_ns()
            tls.stack.pop()
            tls.spans.extend((sid, parent, self.name_id(name), t0, t1))

    # -- installation ------------------------------------------------------

    @staticmethod
    def _lookup(owner, attr: str):
        # read the owner's own namespace, so a name that only survives
        # through inheritance or a module-level re-import is still caught
        table = owner.__dict__ if isinstance(owner, type) else vars(owner)
        if attr not in table:
            raise TraceTargetMissing(
                f"traced name {_describe(owner, attr)} no longer exists; update the "
                "benchmark's layer boundaries together with the library")
        return table[attr]

    def wrap(self, owner, attr: str, name, observe=None) -> None:
        """Record a span for every call of owner.attr while installed.

        `name` is a string or a function of the call's (args, kwargs);
        `observe`, if given, sees each call's (args, kwargs) first.
        """
        original = self._lookup(owner, attr)
        record, name_id = self._record, self.name_id

        def wrapper(*args, **kwargs):
            if observe is not None:
                observe(args, kwargs)
            nid = name_id(name(args, kwargs) if callable(name) else name)
            return record(nid, None, original, args, kwargs)

        self._targets.append((owner, attr, wrapper))

    def wrap_region(self, owner, attr: str, name: str) -> None:
        """Wrap a runner taking a task list; each task gets a TASK span."""
        original = self._lookup(owner, attr)
        record = self._record
        region_nid, task_nid = self.name_id(name), self.name_id(TASK)
        ids = self._ids

        def wrap_task(task, region_sid):
            return lambda: record(task_nid, region_sid, task, (), {})

        def wrapper(tasks, *args, **kwargs):
            sid = next(ids)
            return record(region_nid, None, original,
                          ([wrap_task(t, sid) for t in tasks], *args), kwargs, sid)

        self._targets.append((owner, attr, wrapper))

    @contextmanager
    def installed(self):
        saved = [(owner, attr, self._lookup(owner, attr)) for owner, attr, _ in self._targets]
        try:
            for owner, attr, wrapper in self._targets:
                setattr(owner, attr, wrapper)
            yield self
        finally:
            for owner, attr, original in saved:
                setattr(owner, attr, original)

    # -- output ------------------------------------------------------------

    def table(self) -> np.ndarray:
        """All spans so far as an (n, 5) int64 array: sid, parent, name, t0, t1."""
        with self._lock:
            parts = [np.frombuffer(b, dtype=np.int64).reshape(-1, 5).copy()
                     for b in self._buffers]
        return np.concatenate(parts) if parts else np.empty((0, 5), dtype=np.int64)

    def save(self, path) -> None:
        t = self.table()
        names = sorted(self.names, key=self.names.get)
        np.savez(path, names=np.array(names), sid=t[:, 0], parent=t[:, 1], name=t[:, 2],
                 start_ns=t[:, 3], end_ns=t[:, 4])


class SpanSummary:
    """Per-name call counts and total and self times of a span table.

    Self time is the span's duration minus its children's.  Children of a
    span run one after another on its thread, except the tasks of a region,
    which overlap; a region's self time is therefore its duration minus its
    longest task, as the overhead of opening and joining it.
    """

    def __init__(self, table: np.ndarray, names: dict[str, int], region: str):
        self.names = names
        sid, parent, nid, t0, t1 = table.T
        n = len(sid)
        dur = (t1 - t0).astype(np.float64)
        row_of = np.full(int(sid.max(initial=0)) + 1, -1)
        row_of[sid] = np.arange(n)
        prow = row_of[parent]          # parent 0 (a root) maps to row -1
        has_parent = prow >= 0
        pidx = prow[has_parent]
        child_sum = np.bincount(pidx, weights=dur[has_parent], minlength=n)
        is_task = nid == names.get(TASK, -1)
        task_parent = prow[is_task & has_parent]
        self.task_max = np.zeros(n)
        np.maximum.at(self.task_max, task_parent, dur[is_task & has_parent])
        self.task_sum = np.bincount(task_parent, weights=dur[is_task & has_parent], minlength=n)
        self.task_count = np.bincount(task_parent, minlength=n)
        is_region = nid == names.get(region, -1)
        self_ns = np.where(is_region, dur - self.task_max, dur - child_sum)
        k = len(names)
        self.calls = np.bincount(nid, minlength=k)
        self.total_ns = np.bincount(nid, weights=dur, minlength=k)
        self.self_ns = np.bincount(nid, weights=self_ns, minlength=k)
        self.sid, self.parent, self.nid, self.dur, self.is_region = sid, parent, nid, dur, is_region

    def count(self, name: str) -> int:
        i = self.names.get(name)
        return int(self.calls[i]) if i is not None else 0

    def total_ns_of(self, name: str) -> float:
        i = self.names.get(name)
        return float(self.total_ns[i]) if i is not None else 0.0

    def mean_total_us(self, name: str) -> float:
        n = self.count(name)
        return self.total_ns_of(name) / n / 1e3 if n else 0.0

    def mean_self_us(self, name: str) -> float:
        n = self.count(name)
        return float(self.self_ns[self.names[name]]) / n / 1e3 if n else 0.0

    def regions_under(self, parent_name: str) -> np.ndarray:
        """Row indices of region spans whose direct parent has the given name."""
        pid = self.names.get(parent_name, -1)
        return np.flatnonzero(self.is_region & np.isin(self.parent, self.sid[self.nid == pid]))
