"""Roofline bounds, CPR records, and the benchmark grid runner.

CPR (clock cycles per row) is wall time per evaluation expressed in
nominal CPU cycles and divided by the row count: the workload-native
throughput metric all benchmarks here share.  Bounds come from the
paper's reference machine, a dual-socket 2.6 GHz host with 8 cores per
socket, 256-bit FMA vector units and four 8-byte DDR channels per socket
at 1.6 GHz, fixed here as three constants:

* compute bound  2K flops per row against peak FMA throughput,
* memory bound   8(K+1) bytes per row against peak DRAM bandwidth.

Measured CPR can never beat the compute bound (the grid runner enforces
this); the memory bound is reported for context only, since cache-resident
working sets legitimately beat DRAM bandwidth.

Timing uses the monotonic wall clock converted at the reference clock,
`REFERENCE_CLOCK_GHZ`, read at call time.  Hardware event counters are
deliberately out of scope; structural facts (regions, merges, flops) come
from `instrumentation` instead.
"""

from __future__ import annotations

import csv
import statistics
import time
from dataclasses import dataclass, field
from itertools import product

import numpy as np

from . import parallel
from .glm import ExecPlan, Strategy, loglike, loglike_grad, synthetic_logistic

__all__ = [
    "REFERENCE_CLOCK_GHZ", "BenchRecord", "GridConfig",
    "RooflineViolation", "compute_min_cpr", "memory_min_cpr", "run_grid",
    "write_bench_csv", "region_overhead_probe",
]


#: the reference machine's nominal CPU clock; CPR counts cycles at this rate
REFERENCE_CLOCK_GHZ = 2.6
#: peak flops per CPU cycle: 2 sockets x 8 cores x 4 float64 lanes x 2 (FMA)
_PEAK_FLOPS_PER_CYCLE = 128.0
#: peak DRAM bytes per ns: 2 sockets x 4 channels x 8 B x 1.6 GHz
_DRAM_BYTES_PER_NS = 102.4

_WARMUP = 3  # untimed evaluations per grid cell, to reach a steady cache state


def compute_min_cpr(n_cols: int) -> float:
    """Lower CPR bound from peak flop rate: 2K flops/row over machine flops/cycle."""
    if n_cols < 1:
        raise ValueError("n_cols must be >= 1")
    return 2.0 * n_cols / _PEAK_FLOPS_PER_CYCLE


def memory_min_cpr(n_cols: int) -> float:
    """Lower CPR bound from DRAM bandwidth: 8(K+1) bytes/row over bytes/CPU-cycle."""
    if n_cols < 1:
        raise ValueError("n_cols must be >= 1")
    return REFERENCE_CLOCK_GHZ * 8.0 * (n_cols + 1) / _DRAM_BYTES_PER_NS


@dataclass
class BenchRecord:
    """One timed measurement; cpr is wall time in reference-machine cycles per row."""

    label: str
    n_rows: int
    n_cols: int
    workers: int
    n_chunks: int
    cpr: float
    wall_seconds: float
    evals: int

    @classmethod
    def from_wall(cls, label: str, n_rows: int, n_cols: int, workers: int,
                  n_chunks: int, wall_seconds: float, evals: int) -> "BenchRecord":
        cpr = REFERENCE_CLOCK_GHZ * 1e9 * wall_seconds / (evals * n_rows)
        return cls(label, n_rows, n_cols, workers, n_chunks, cpr, wall_seconds, evals)


class RooflineViolation(AssertionError):
    """A measurement claimed to beat the compute-based hardware bound."""


@dataclass
class GridConfig:
    """Axes and protocol for the benchmark grid, timed against the reference machine."""

    n_rows: list[int] = field(default_factory=lambda: [10_000])
    n_cols: list[int] = field(default_factory=lambda: [10])
    strategies: list[Strategy] = field(default_factory=lambda: [Strategy.PLF])
    workers: list[int] = field(default_factory=lambda: [1])
    chunks: list[int] = field(default_factory=lambda: [1])  # per worker block, any strategy
    op: str = "loglike"          # or "grad"
    evals: int = 5               # evaluations per repetition; beta refreshed each
    reps: int = 5                # repetitions; the median is reported
    seed: int = 0

    def __post_init__(self):
        if self.op not in ("loglike", "grad"):
            raise ValueError(f"op must be 'loglike' or 'grad', got {self.op!r}")
        for key, value in (("evals", self.evals), ("reps", self.reps)):
            if value < 1:
                raise ValueError(f"{key} must be >= 1, got {value}")
        for key in ("n_rows", "n_cols", "workers", "chunks"):
            bad = [v for v in getattr(self, key) if v < 1]
            if bad:
                raise ValueError(f"{key} values must be >= 1, got {bad[0]}")


def _cell_seed(seed: int, *parts: int) -> int:
    return int(np.random.SeedSequence((seed,) + parts).generate_state(1)[0])


def run_grid(cfg: GridConfig) -> tuple[list[BenchRecord], list[tuple[str, str]]]:
    """Run every (strategy, workers, chunks, N, K) cell; continue past failures.

    chunks counts the pieces per worker block, crossed with every strategy.
    Returns (records, failures); a failure is (cell label, error message).
    The cells of one (N, K) share its data and beta refresh sequence, so CPRs compare.
    """
    records: list[BenchRecord] = []
    failures: list[tuple[str, str]] = []
    for n, k in product(cfg.n_rows, cfg.n_cols):
        data, _ = synthetic_logistic(n, k, seed=_cell_seed(cfg.seed, n, k))
        betas = np.random.default_rng(_cell_seed(cfg.seed, n, k, 1)).normal(
            0.0, 0.5, (cfg.evals, k))
        for strategy, workers, chunks in product(cfg.strategies, cfg.workers, cfg.chunks):
            label = f"{cfg.op}/{strategy.value}"
            try:
                records.append(_run_cell(cfg, data, betas, label, strategy,
                                         workers, chunks, n, k))
            except Exception as exc:  # record and continue with the grid
                failures.append((f"{label} N={n} K={k} workers={workers} chunks={chunks}",
                                 str(exc)))
    return records, failures


def _median_wall(reps: int, fn, setup=tuple) -> float:
    """Median wall seconds of `reps` timed calls fn(*setup()); setup runs untimed."""
    walls = []
    for _ in range(reps):
        args = setup()
        t0 = time.perf_counter()
        fn(*args)
        walls.append(time.perf_counter() - t0)
    return statistics.median(walls)


def _run_cell(cfg, data, betas, label, strategy, workers, chunks, n, k) -> BenchRecord:
    plan = ExecPlan(strategy, workers=workers, n_chunks=chunks)
    fn = loglike if cfg.op == "loglike" else loglike_grad
    for i in range(_WARMUP):
        fn(data, betas[i % cfg.evals], plan)
    def evals():
        for beta in betas:
            fn(data, beta, plan)

    rec = BenchRecord.from_wall(label, n, k, workers, chunks,
                                _median_wall(cfg.reps, evals), cfg.evals)
    bound = compute_min_cpr(k)
    if rec.cpr < bound:
        raise RooflineViolation(
            f"measured cpr {rec.cpr:.4g} beats the compute bound {bound:.4g}")
    return rec


def write_bench_csv(records: list[BenchRecord], path,
                    failures: list[tuple[str, str]] | None = None) -> None:
    """CSV rows plus one reference-machine roofline sidecar comment per distinct K.

    Failed cells become rows with empty metric fields and a `[failed: ...]`
    marker appended to the label, which csv.writer quotes where needed.
    """
    with open(path, "w", newline="") as fh:
        fh.write("label,n_rows,n_cols,workers,n_chunks,cpr,wall_seconds,evals\n")
        for k in sorted({r.n_cols for r in records}):
            fh.write(f"# roofline n_cols={k} "
                     f"compute_min_cpr={compute_min_cpr(k):.6g} "
                     f"memory_min_cpr={memory_min_cpr(k):.6g}\n")
        for r in records:
            fh.write(f"{r.label},{r.n_rows},{r.n_cols},{r.workers},{r.n_chunks},"
                     f"{r.cpr:.6g},{r.wall_seconds:.6g},{r.evals}\n")
        writer = csv.writer(fh, lineterminator="\n")
        for cell, msg in failures or []:
            writer.writerow([f"{cell} [failed: {msg}]"] + [""] * 7)


def region_overhead_probe(workers: int, reps: int = 200) -> float:
    """Median wall seconds to open and close one empty region of `workers` tasks."""
    if workers < 1 or reps < 1:
        raise ValueError(f"workers and reps must be >= 1, got workers={workers}, reps={reps}")
    tasks = [lambda: None] * workers
    parallel.run_region(tasks)  # warm the pool
    return _median_wall(reps, parallel.run_region, lambda: (tasks,))
