"""Roofline bounds, CPR records, and the benchmark grid runner.

CPR (clock cycles per row) is wall time per evaluation expressed in
nominal CPU cycles and divided by the row count: the workload-native
throughput metric all benchmarks here share.  Bounds come from the
paper's reference machine, `REFERENCE_MACHINE`:

* compute bound  2K flops per row against peak FMA throughput,
* memory bound   8(K+1) bytes per row against peak DRAM bandwidth.

Measured CPR can never beat the compute bound (the grid runner enforces
this); the memory bound is reported for context only, since cache-resident
working sets legitimately beat DRAM bandwidth.

Timing uses the monotonic wall clock converted with the reference
machine's nominal frequency.  Hardware event counters are deliberately
out of scope; structural facts (regions, merges, flops) come from
`instrumentation` instead.
"""

from __future__ import annotations

import csv
import statistics
import time
from dataclasses import dataclass, field, fields
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

_WARMUP = 3  # untimed evaluations per grid cell, to reach a steady cache state


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
        cpr = REFERENCE_MACHINE.cpu_clock_ghz * 1e9 * wall_seconds / (evals * n_rows)
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
    chunks: list[int] = field(default_factory=lambda: [1])  # plf_chunked's chunk counts
    op: str = "loglike"          # or "grad"
    evals: int = 5               # evaluations per repetition; beta refreshed each
    reps: int = 5                # repetitions; the median is reported
    seed: int = 0

    def __post_init__(self):
        if self.op not in ("loglike", "grad"):
            raise ValueError(f"op must be 'loglike' or 'grad', got {self.op!r}")
        if min(self.evals, self.reps) < 1:
            raise ValueError("evals, reps must be >= 1")


def _cell_seed(seed: int, *parts: int) -> int:
    return int(np.random.SeedSequence((seed,) + parts).generate_state(1)[0])


def run_grid(cfg: GridConfig) -> tuple[list[BenchRecord], list[tuple[str, str]]]:
    """Run every (strategy, workers, N, K) cell; continue past failures.

    plf_chunked runs one cell per chunk count, the other strategies one at
    n_chunks=1.  Returns (records, failures); a failure is (cell label,
    error message).  The same (N, K) cell data and beta refresh sequence
    are shared across strategy and worker axes so CPRs are comparable.
    """
    records: list[BenchRecord] = []
    failures: list[tuple[str, str]] = []
    for n, k in product(cfg.n_rows, cfg.n_cols):
        data, _ = synthetic_logistic(n, k, seed=_cell_seed(cfg.seed, n, k))
        betas = np.random.default_rng(_cell_seed(cfg.seed, n, k, 1)).normal(
            0.0, 0.5, (cfg.evals, k))
        for strategy, workers in product(cfg.strategies, cfg.workers):
            label = f"{cfg.op}/{strategy.value}"
            for chunks in cfg.chunks if strategy is Strategy.PLF_CHUNKED else [1]:
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
    for i in range(_WARMUP):
        fn(data, betas[i % cfg.evals], plan)
    walls = []
    for _ in range(cfg.reps):
        t0 = time.perf_counter()
        for e in range(cfg.evals):
            fn(data, betas[e], plan)
        walls.append(time.perf_counter() - t0)
    rec = BenchRecord.from_wall(label, n, k, workers, chunks,
                                statistics.median(walls), cfg.evals)
    bound = compute_min_cpr(REFERENCE_MACHINE, k)
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
                     f"compute_min_cpr={compute_min_cpr(REFERENCE_MACHINE, k):.6g} "
                     f"memory_min_cpr={memory_min_cpr(REFERENCE_MACHINE, k):.6g}\n")
        for r in records:
            fh.write(f"{r.label},{r.n_rows},{r.n_cols},{r.workers},{r.n_chunks},"
                     f"{r.cpr:.6g},{r.wall_seconds:.6g},{r.evals}\n")
        writer = csv.writer(fh, lineterminator="\n")
        for cell, msg in failures or []:
            writer.writerow([f"{cell} [failed: {msg}]"] + [""] * 7)


def _items(text: str) -> list[str]:
    """The stripped items of a comma-separated list; an empty item raises ValueError."""
    items = [v.strip() for v in text.split(",")]
    if "" in items:
        raise ValueError(f"empty item in {text!r}")
    return items


def _ints(text: str) -> list[int]:
    return [int(v) for v in _items(text)]


def _words(text: str) -> list[str]:
    return [v.lower() for v in _items(text)]


#: each grid key's one text parser, shared by grid files and `parmcmc bench` flags;
#: `_ints` and `_words` also parse the other commands' list flags
_PARSERS = {
    "n_rows": _ints, "n_cols": _ints, "workers": _ints, "chunks": _ints,
    "strategies": lambda text: [Strategy(v) for v in _words(text)],
    "op": str.lower, "evals": int, "reps": int, "seed": int,
}
_KEY_ALIASES = {"n": "n_rows", "k": "n_cols"}


def _read_grid_file(path) -> dict[str, str]:
    """A grid file's settings as {grid key: value text}, aliases resolved."""
    settings = {}
    with open(path) as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected key = value, got {raw.rstrip()!r}")
            key, value = (part.strip() for part in line.split("=", 1))
            key = _KEY_ALIASES.get(key.lower(), key.lower())
            if key not in _PARSERS:
                raise ValueError(f"{path}:{lineno}: unknown key {key!r}")
            settings[key] = value
    return settings


def _grid_config(settings: dict[str, str]) -> GridConfig:
    """A GridConfig from {grid key: value text}; its defaults fill the other keys."""
    kwargs = {}
    for key, text in settings.items():
        try:
            kwargs[key] = _PARSERS[key](text)
        except ValueError as exc:
            raise ValueError(f"{key} = {text!r}: {exc}") from None
    return GridConfig(**kwargs)


def parse_grid_config(path) -> GridConfig:
    """Plain key=value grid file; comma-separated lists for axis keys.

    Example::

        n_rows = 1000, 100000
        n_cols = 10
        strategies = som, plf, plf_chunked
        workers = 1, 2, 4
        chunks = 8
        evals = 5
    """
    return _grid_config(_read_grid_file(path))


def region_overhead_probe(workers: int, reps: int = 200) -> float:
    """Median wall seconds to open and close one empty region of `workers` tasks."""
    if workers < 1 or reps < 1:
        raise ValueError(f"workers and reps must be >= 1, got workers={workers}, reps={reps}")

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
