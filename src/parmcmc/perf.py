"""Roofline bounds, CPR records, and the benchmark grid runner.

CPR (clock cycles per row) is wall time per evaluation expressed in
nominal CPU cycles and divided by the row count: the workload-native
throughput metric all benchmarks here share.  Bounds come from a
HardwareDescriptor:

* compute bound  2K flops per row against peak FMA throughput,
* memory bound   8(K+1) bytes per row against peak DRAM bandwidth.

Measured CPR can never beat the compute bound (the grid runner enforces
this); the memory bound is reported for context only, since cache-resident
working sets legitimately beat DRAM bandwidth.

Timing uses the monotonic wall clock converted with the descriptor's
nominal frequency.  Hardware event counters are deliberately out of
scope; structural facts (regions, merges, flops) come from
`instrumentation` instead.
"""

from __future__ import annotations

import csv
import statistics
import time
from dataclasses import dataclass, field, fields, replace
from itertools import product

import numpy as np

from . import parallel
from .glm import ExecPlan, Strategy, loglike, loglike_grad, synthetic_logistic

__all__ = [
    "HardwareDescriptor", "REFERENCE_MACHINE", "BenchRecord", "GridConfig",
    "RooflineViolation", "compute_min_cpr", "memory_min_cpr", "run_grid",
    "write_bench_csv", "parse_grid_config", "region_overhead_probe",
]


@dataclass(frozen=True)
class HardwareDescriptor:
    """Machine parameters for the bound formulas.

    Defaults describe the reference machine: dual-socket 2.6 GHz, 8 cores
    per socket, 256-bit vector units with FMA, four 8-byte DDR channels
    per socket at 1.6 GHz.
    """

    cpu_clock_ghz: float = 2.6
    sockets: int = 2
    cores_per_socket: int = 8
    vector_bits: int = 256
    flops_per_lane_per_clock: int = 2
    mem_channels_per_socket: int = 4
    bytes_per_channel_per_mem_clock: int = 8
    mem_clock_ghz: float = 1.6

    def __post_init__(self):
        for f in fields(self):
            if getattr(self, f.name) <= 0:
                raise ValueError(f"{f.name} must be positive")


REFERENCE_MACHINE = HardwareDescriptor()


def compute_min_cpr(hw: HardwareDescriptor, n_cols: int) -> float:
    """Lower CPR bound from peak flop rate: 2K flops/row over machine flops/cycle."""
    if n_cols < 1:
        raise ValueError("n_cols must be >= 1")
    lanes = hw.vector_bits / 64
    return 2.0 * n_cols / (hw.flops_per_lane_per_clock * lanes
                           * hw.cores_per_socket * hw.sockets)


def memory_min_cpr(hw: HardwareDescriptor, n_cols: int) -> float:
    """Lower CPR bound from DRAM bandwidth: 8(K+1) bytes/row over bytes/CPU-cycle."""
    if n_cols < 1:
        raise ValueError("n_cols must be >= 1")
    bandwidth_per_clock = (hw.bytes_per_channel_per_mem_clock * hw.mem_channels_per_socket
                           * hw.sockets * hw.mem_clock_ghz)
    return hw.cpu_clock_ghz * 8.0 * (n_cols + 1) / bandwidth_per_clock


@dataclass
class BenchRecord:
    """One timed measurement; cpr is derived from wall time by construction."""

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
                  n_chunks: int, wall_seconds: float, evals: int,
                  clock_ghz: float) -> "BenchRecord":
        cpr = clock_ghz * 1e9 * wall_seconds / (evals * n_rows)
        return cls(label, n_rows, n_cols, workers, n_chunks, cpr, wall_seconds, evals)


class RooflineViolation(AssertionError):
    """A measurement claimed to beat the compute-based hardware bound."""


@dataclass
class GridConfig:
    """Axes and protocol for the benchmark grid."""

    n_rows: list[int] = field(default_factory=lambda: [10_000])
    n_cols: list[int] = field(default_factory=lambda: [10])
    strategies: list[Strategy] = field(default_factory=lambda: [Strategy.PLF])
    workers: list[int] = field(default_factory=lambda: [1])
    chunks: list[int] = field(default_factory=lambda: [1])
    op: str = "loglike"          # or "grad"
    evals: int = 5               # evaluations per repetition; beta refreshed each
    reps: int = 5                # repetitions; the median is reported
    warmup: int = 3              # untimed evaluations to reach steady cache state
    seed: int = 0
    hw: HardwareDescriptor = REFERENCE_MACHINE

    def __post_init__(self):
        if self.op not in ("loglike", "grad"):
            raise ValueError(f"op must be 'loglike' or 'grad', got {self.op!r}")
        if min(self.evals, self.reps) < 1 or self.warmup < 0:
            raise ValueError("evals, reps must be >= 1 and warmup >= 0")


def _cell_seed(seed: int, *parts: int) -> int:
    return int(np.random.SeedSequence((seed,) + parts).generate_state(1)[0])


def run_grid(cfg: GridConfig) -> tuple[list[BenchRecord], list[tuple[str, str]]]:
    """Run every (strategy, workers, N, K, chunks) cell; continue past failures.

    Returns (records, failures); a failure is (cell label, error message).
    The same (N, K) cell data and beta refresh sequence are shared across
    strategy and worker axes so CPRs are directly comparable.
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


def _run_cell(cfg, data, betas, label, strategy, workers, chunks, n, k) -> BenchRecord:
    plan = ExecPlan(strategy, workers=workers, n_chunks=chunks)
    fn = loglike if cfg.op == "loglike" else loglike_grad
    for i in range(cfg.warmup):
        fn(data, betas[i % cfg.evals], plan)
    walls = []
    for _ in range(cfg.reps):
        t0 = time.perf_counter()
        for e in range(cfg.evals):
            fn(data, betas[e], plan)
        walls.append(time.perf_counter() - t0)
    rec = BenchRecord.from_wall(label, n, k, workers, chunks,
                                statistics.median(walls), cfg.evals,
                                cfg.hw.cpu_clock_ghz)
    bound = compute_min_cpr(cfg.hw, k)
    if rec.cpr < bound:
        raise RooflineViolation(
            f"measured cpr {rec.cpr:.4g} beats the compute bound {bound:.4g}")
    return rec


def write_bench_csv(records: list[BenchRecord], path,
                    hw: HardwareDescriptor = REFERENCE_MACHINE,
                    failures: list[tuple[str, str]] | None = None) -> None:
    """CSV rows plus one roofline sidecar comment per distinct K.

    Failed cells become rows with empty metric fields and a `[failed: ...]`
    marker appended to the label, which csv.writer quotes where needed.
    """
    with open(path, "w", newline="") as fh:
        fh.write("label,n_rows,n_cols,workers,n_chunks,cpr,wall_seconds,evals\n")
        for k in sorted({r.n_cols for r in records}):
            fh.write(f"# roofline n_cols={k} compute_min_cpr={compute_min_cpr(hw, k):.6g} "
                     f"memory_min_cpr={memory_min_cpr(hw, k):.6g}\n")
        for r in records:
            fh.write(f"{r.label},{r.n_rows},{r.n_cols},{r.workers},{r.n_chunks},"
                     f"{r.cpr:.6g},{r.wall_seconds:.6g},{r.evals}\n")
        writer = csv.writer(fh, lineterminator="\n")
        for cell, msg in failures or []:
            writer.writerow([f"{cell} [failed: {msg}]"] + [""] * 7)


_LIST_KEYS = {"n_rows", "n_cols", "workers", "chunks", "strategies"}
_KEY_ALIASES = {"n": "n_rows", "k": "n_cols", "strategy": "strategies", "nchunks": "chunks"}
_HW_KEYS = {f.name for f in fields(HardwareDescriptor)}


def parse_grid_config(path) -> GridConfig:
    """Plain key=value grid file; comma-separated lists for axis keys.

    Example::

        n_rows = 1000, 100000
        n_cols = 10
        strategies = som, plf, plf_chunked
        workers = 1, 2, 4
        chunks = 8
        evals = 5
        cpu_clock_ghz = 2.6
    """
    cfg_kwargs: dict = {}
    hw_kwargs: dict = {}
    with open(path) as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected key = value, got {raw.rstrip()!r}")
            key, value = (part.strip() for part in line.split("=", 1))
            key = _KEY_ALIASES.get(key.lower(), key.lower())
            if key in _HW_KEYS:
                hw_kwargs[key] = float(value) if "." in value or "ghz" in key else int(value)
            elif key == "strategies":
                cfg_kwargs[key] = [Strategy(v.strip().lower()) for v in value.split(",")]
            elif key in _LIST_KEYS:
                cfg_kwargs[key] = [int(v) for v in value.split(",")]
            elif key == "op":
                cfg_kwargs[key] = value.lower()
            elif key in ("evals", "reps", "warmup", "seed"):
                cfg_kwargs[key] = int(value)
            else:
                raise ValueError(f"{path}:{lineno}: unknown key {key!r}")
    if hw_kwargs:
        cfg_kwargs["hw"] = replace(REFERENCE_MACHINE, **hw_kwargs)
    return GridConfig(**cfg_kwargs)


def region_overhead_probe(workers: int, reps: int = 200) -> float:
    """Median wall seconds to open and close one empty region of `workers` tasks."""
    def noop():
        return None

    tasks = [noop] * workers
    parallel.run_region(tasks)  # warm the pool
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        parallel.run_region(tasks)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)
