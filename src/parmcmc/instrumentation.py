"""Software counters for kernel structure and cost accounting.

Hardware performance counters are out of reach for a portable library, so
the kernels report what they *do* instead: how many parallel regions each
evaluation opens, how many worker accumulators are merged into shared
results, and an analytic floating-op count per kernel invocation.

Flop accounting convention: one multiply, add, divide, exp or log counts
as one op.  The counts are analytic (derived from N, K and the kernel
formula), not sampled from hardware, which makes them exact and
machine-independent.  Tests and the benchmark harness read these
counters; production code paths never branch on them.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass

__all__ = ["KernelCounters", "counters"]


@dataclass
class KernelCounters:
    """Cumulative counters; reset before a measurement window."""

    parallel_regions: int = 0
    merge_events: int = 0
    flops: int = 0

    def reset(self) -> None:
        with _LOCK:
            self.parallel_regions = 0
            self.merge_events = 0
            self.flops = 0

    def add_region(self) -> None:
        with _LOCK:
            self.parallel_regions += 1

    def add_merges(self, n: int) -> None:
        with _LOCK:
            self.merge_events += n

    def add_flops(self, n: int) -> None:
        with _LOCK:
            self.flops += n

    def snapshot(self) -> "KernelCounters":
        with _LOCK:
            return KernelCounters(self.parallel_regions, self.merge_events, self.flops)


_LOCK = threading.Lock()

#: Process-global counters. Concurrent evaluations interleave their
#: increments; reset + read around a single evaluation to attribute costs.
counters = KernelCounters()
