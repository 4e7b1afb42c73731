"""Buffered (batch) random-number generation with a deterministic stream contract.

A DeviateBuffer pre-generates blocks of uniform or standard-normal deviates
from a counter-based Philox stream and hands them out one (or many) at a
time.  The consumed sequence is *exactly* the base stream's output order,
independent of buffer capacity, so a sampler built on buffers is
reproducible from (seed, owner, consumption trace) alone.  Concurrent
consumers take independent streams via SeedSequence spawn keys -- nothing
is ever shared.

Normal deviates come from Box-Muller applied to consecutive uniform pairs
of the buffer's own stream.  Pairs are always generated together; when a
refill needs an odd count the spare value is carried into the next refill,
which is what keeps the consumed sequence invariant under any capacity,
including capacity 1.

A buffer can also fill its next block ahead, on the region pool
(`prefetch`), while the caller works: at most one such fill at a time,
joined by the next read of the generator, so the stream is the same as
without it and a fill's error reaches the caller at that read.  A take()
past the buffer's block returns a look-ahead block of its size as it is,
and generates a large remainder straight into its result: at 131072
deviates a take is then a join, not a copy through capacity-sized blocks.
Ising sweeps fill each color's deviates ahead this way; `next()`'s path
within a block does no more work for it.

The one-at-a-time samplers below are the per-call baseline for the batch
benchmark.  They run on the identical stream contract, so a sampler fed
from buffers and one fed from per-call sources produce identical draws.
"""

from __future__ import annotations

import math
import time
from concurrent.futures import Future
from dataclasses import dataclass
from enum import Enum
from functools import partial
from typing import Sequence

import numpy as np

from . import parallel, perf

__all__ = [
    "BufferKind", "RngDrainError", "DeviateBuffer", "OneAtATimeUniform", "OneAtATimeNormal",
    "GammaParams", "gamma_sample", "dirichlet_sample",
    "BenchDist", "BenchMode", "RngBenchRecord", "rng_bench", "write_rng_bench_csv",
]


class BufferKind(Enum):
    UNIFORM01 = "uniform01"
    STD_NORMAL = "std_normal"


class RngDrainError(RuntimeError):
    """A bounded rejection loop exhausted its iteration cap (broken stream)."""


def _make_generator(seed: int, owner: Sequence[int]) -> np.random.Generator:
    ss = np.random.SeedSequence(seed, spawn_key=tuple(owner))
    return np.random.Generator(np.random.Philox(ss))


def _box_muller_pairs(gen: np.random.Generator, n_pairs: int) -> np.ndarray:
    """2*n_pairs standard normals from n_pairs uniform pairs, interleaved."""
    u = gen.random((n_pairs, 2))
    # 1-u lies in (0,1], so the log never sees zero.
    r = np.sqrt(-2.0 * np.log1p(-u[:, 0]))
    theta = (2.0 * np.pi) * u[:, 1]
    out = np.empty(2 * n_pairs)
    out[0::2] = r * np.cos(theta)
    out[1::2] = r * np.sin(theta)
    return out


class DeviateBuffer:
    """Refillable block of pre-generated deviates with deterministic order.

    Parameters
    ----------
    kind : BufferKind
        Uniform [0,1) or standard normal.
    capacity : int
        Deviates generated per refill (default 8192 doubles).
    seed, owner : stream identity
        owner is a tuple of ints spawning an independent substream, e.g.
        (group_index,) for per-group chains.

    `generated` counts every deviate put into a block or straight into a
    take() result, `consumed` every deviate handed out.
    """

    def __init__(self, kind: BufferKind, capacity: int = 8192, seed: int = 0,
                 owner: Sequence[int] = ()):
        if not isinstance(kind, BufferKind):
            raise TypeError(f"kind must be a BufferKind, got {kind!r}")
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.kind = kind
        self.capacity = int(capacity)
        self.data = np.empty(self.capacity)
        self.cursor = self._end = self.capacity  # exhausted; first next() refills
        self.refills = 0
        self.generated = 0
        self.consumed = 0
        self._gen = _make_generator(seed, owner)
        self._carry: float | None = None
        self._ahead: np.ndarray | None = None  # the stream's block after data
        self._pending: Future | None = None    # the fill of _ahead, until joined

    def refill(self, out: np.ndarray | None = None) -> None:
        """Generate the next deviates of the base stream.

        Without `out`, data[0:capacity] receives the next block and becomes
        the buffer's block; whatever was left unread, a look-ahead block
        included, is skipped.  With `out` (non-empty), the next out.size
        deviates go into it and the buffer's block is left alone: that is
        how take() fills its result and prefetch() its look-ahead block.
        Each call counts one refill.
        """
        own = out is None
        if own:
            self.join()
            self._ahead = None
            if self.data.size != self.capacity:
                self.data = np.empty(self.capacity)
            out = self.data
        if self.kind is BufferKind.UNIFORM01:
            self._gen.random(out=out)
        else:
            pos = 0
            if self._carry is not None:
                out[0] = self._carry
                self._carry = None
                pos = 1
            remaining = out.size - pos
            if remaining > 0:
                n_pairs = (remaining + 1) // 2
                block = _box_muller_pairs(self._gen, n_pairs)
                out[pos:] = block[:remaining]
                if 2 * n_pairs > remaining:
                    self._carry = float(block[remaining])
        if own:
            self.cursor, self._end = 0, self.capacity
        self.refills += 1
        self.generated += out.size

    def prefetch(self, n: int) -> None:
        """Start generating the stream's next n deviates on the region pool.

        They form the block after the buffer's own, filled by `refill`
        while the caller works.  Every later read of the generator joins
        the fill first, and a take(n) that finds the buffer's block drained
        returns the look-ahead block as it is.  A buffer holds at most one
        look-ahead block: while one is queued, or for n < 1, this does
        nothing.
        """
        if self._ahead is not None or n < 1:
            return
        self._ahead = np.empty(n)
        self._pending = parallel.submit(partial(self.refill, self._ahead))

    def join(self) -> None:
        """Wait for the look-ahead fill, if one is running.

        A fill that raised re-raises here, with its own type, and its block
        is dropped; the stream after a failed fill is undefined.
        """
        pending, self._pending = self._pending, None
        if pending is not None:
            try:
                pending.result()
            except BaseException:
                self._ahead = None
                raise

    def _advance(self) -> None:
        """Make the stream's next block the buffer's: the look-ahead block, or a refill."""
        self.join()
        if self._ahead is None:
            self.refill()
        else:
            self.data, self._ahead = self._ahead, None
            self.cursor, self._end = 0, self.data.size

    def next(self) -> float:
        """Return the next deviate of the stream, refilling as needed."""
        if self.cursor == self._end:
            self._advance()
        v = self.data[self.cursor]
        self.cursor += 1
        self.consumed += 1
        return float(v)

    def take(self, n: int) -> np.ndarray:
        """Return the next n deviates as an array (same order as n next() calls).

        Past the buffer's block, a look-ahead block of exactly n is the
        result itself, and n - filled >= capacity deviates still to come
        are generated straight into the result: neither is copied.
        """
        if self._pending is not None:
            self.join()
        if self.cursor == self._end and self._ahead is not None and self._ahead.size == n:
            out, self._ahead = self._ahead, None
        else:
            out = np.empty(n)
            filled = 0
            while filled < n:
                if self.cursor == self._end:
                    if self._ahead is None and n - filled >= self.capacity:
                        self.refill(out[filled:])
                        break
                    self._advance()
                m = min(n - filled, self._end - self.cursor)
                out[filled:filled + m] = self.data[self.cursor:self.cursor + m]
                self.cursor += m
                filled += m
        self.consumed += n
        return out

    @property
    def waste_fraction(self) -> float:
        """(generated - consumed) / generated: the unread rest of the blocks."""
        if self.generated == 0:
            return 0.0
        return (self.generated - self.consumed) / self.generated


class OneAtATimeUniform:
    """Per-call scalar generation on the same stream as a Uniform01 buffer."""

    def __init__(self, seed: int = 0, owner: Sequence[int] = ()):
        self._gen = _make_generator(seed, owner)

    def next(self) -> float:
        return float(self._gen.random())


class OneAtATimeNormal:
    """Per-call Box-Muller on the same stream as a StdNormal buffer.

    Each underlying generation produces a pair; the spare is cached so the
    emitted sequence matches the buffered stream exactly.
    """

    def __init__(self, seed: int = 0, owner: Sequence[int] = ()):
        self._gen = _make_generator(seed, owner)
        self._carry: float | None = None

    def next(self) -> float:
        if self._carry is not None:
            v = self._carry
            self._carry = None
            return v
        block = _box_muller_pairs(self._gen, 1)
        self._carry = float(block[1])
        return float(block[0])


@dataclass(frozen=True)
class GammaParams:
    """Shape/rate parameterization; mean = alpha/rate, var = alpha/rate**2."""

    alpha: float
    rate: float

    def __post_init__(self):
        if not (self.alpha > 0 and self.rate > 0):
            raise ValueError(f"alpha and rate must be > 0, got {self.alpha}, {self.rate}")


_GAMMA_MAX_REJECT = 10_000


def _gamma_std(alpha: float, u_src, n_src) -> float:
    """Gamma(alpha, 1) via Marsaglia-Tsang squeeze rejection (alpha >= 1)."""
    d = alpha - 1.0 / 3.0
    c = 1.0 / math.sqrt(9.0 * d)
    for _ in range(_GAMMA_MAX_REJECT):
        x = n_src.next()
        v = 1.0 + c * x
        if v <= 0.0:
            continue
        v = v * v * v
        u = u_src.next()
        x2 = x * x
        if u < 1.0 - 0.0331 * x2 * x2:
            return d * v
        if math.log(u) < 0.5 * x2 + d * (1.0 - v + math.log(v)):
            return d * v
    raise RngDrainError(f"gamma rejection failed to accept after {_GAMMA_MAX_REJECT} rounds")


def _gamma_shape(alpha: float, u_src, n_src) -> float:
    """Gamma(alpha, 1) for any alpha > 0; alpha < 1 boosted via U**(1/alpha)."""
    if alpha < 1.0:
        y = _gamma_std(alpha + 1.0, u_src, n_src)
        u = u_src.next()
        return y * u ** (1.0 / alpha)
    return _gamma_std(alpha, u_src, n_src)


def gamma_sample(params: GammaParams, u_src, n_src) -> float:
    """One Gamma(alpha, rate) deviate from buffered (or per-call) base streams.

    alpha < 1 is boosted through Gamma(alpha+1) times U**(1/alpha), which
    consumes one extra uniform per draw.
    """
    return _gamma_shape(params.alpha, u_src, n_src) / params.rate


def dirichlet_sample(alphas, u_src, n_src) -> np.ndarray:
    """Dirichlet(alphas) via normalized Gamma(alpha_i, 1) draws."""
    alphas = np.asarray(alphas, dtype=float)
    if alphas.ndim != 1 or alphas.size < 1:
        raise ValueError("alphas must be a non-empty 1-D vector")
    if not np.all(alphas > 0):
        raise ValueError("all alphas must be > 0")
    for _ in range(2):  # one retry on total underflow (tiny alphas)
        y = np.array([_gamma_shape(float(a), u_src, n_src) for a in alphas])
        total = y.sum()
        if total > 0.0:
            return y / total
    raise RngDrainError("dirichlet gamma components underflowed to zero twice")


# ---------------------------------------------------------------------------
# batch vs one-at-a-time benchmark
# ---------------------------------------------------------------------------

class BenchDist(Enum):
    UNIFORM = "uniform"
    NORMAL = "normal"
    GAMMA = "gamma"
    DIRICHLET = "dirichlet"


class BenchMode(Enum):
    ONE_AT_A_TIME = "oaat"
    BATCH = "batch"


@dataclass
class RngBenchRecord:
    """One timed cell of the generation benchmark (CSV schema order)."""

    dist: str
    mode: str
    n: int
    cycles_per_sample: float
    waste_fraction: float


_BENCH_GAMMA = GammaParams(alpha=2.0, rate=3.0)
_BENCH_DIRICHLET_K = 100  # LDA-style topic count; cycles normalized per Gamma draw


def rng_bench(dist: BenchDist, mode: BenchMode, n: int, seed: int = 0) -> RngBenchRecord:
    """Time generating n deviates and report cycles per sample.

    Batch mode consumes default-capacity buffers; one-at-a-time mode invokes
    the generator per deviate.  Cycles count at `perf.REFERENCE_CLOCK_GHZ`,
    read at call time.  Dirichlet draws are K=100 vectors and the per-sample
    normalization is per Gamma component generated.
    """
    if not isinstance(dist, BenchDist):
        raise TypeError(f"dist must be a BenchDist, got {dist!r}")
    if not isinstance(mode, BenchMode):
        raise TypeError(f"mode must be a BenchMode, got {mode!r}")
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    waste = 0.0
    if dist in (BenchDist.UNIFORM, BenchDist.NORMAL):
        kind = BufferKind.UNIFORM01 if dist is BenchDist.UNIFORM else BufferKind.STD_NORMAL
        if mode is BenchMode.BATCH:
            buf = DeviateBuffer(kind, seed=seed)
            sink = 0.0
            t0 = time.perf_counter()
            left = n
            while left > 0:
                block = buf.take(min(left, buf.capacity))
                sink += float(block[-1])
                left -= block.size
            wall = time.perf_counter() - t0
            waste = buf.waste_fraction
        else:
            src = OneAtATimeUniform(seed) if dist is BenchDist.UNIFORM else OneAtATimeNormal(seed)
            sink = 0.0
            t0 = time.perf_counter()
            for _ in range(n):
                sink += src.next()
            wall = time.perf_counter() - t0
        samples = n
    else:
        u_src, n_src = _bench_sources(mode, seed)
        t0 = time.perf_counter()
        if dist is BenchDist.GAMMA:
            for _ in range(n):
                gamma_sample(_BENCH_GAMMA, u_src, n_src)
            samples = n
        else:
            alphas = np.ones(_BENCH_DIRICHLET_K)
            for _ in range(n):
                dirichlet_sample(alphas, u_src, n_src)
            samples = n * _BENCH_DIRICHLET_K
        wall = time.perf_counter() - t0
        if mode is BenchMode.BATCH:
            gen = u_src.generated + n_src.generated
            used = u_src.consumed + n_src.consumed
            waste = (gen - used) / gen if gen else 0.0
    cps = wall * perf.REFERENCE_CLOCK_GHZ * 1e9 / samples
    return RngBenchRecord(dist.value, mode.value, n, cps, waste)


def _bench_sources(mode: BenchMode, seed: int):
    if mode is BenchMode.BATCH:
        return (DeviateBuffer(BufferKind.UNIFORM01, seed=seed, owner=(0,)),
                DeviateBuffer(BufferKind.STD_NORMAL, seed=seed, owner=(1,)))
    return OneAtATimeUniform(seed, owner=(0,)), OneAtATimeNormal(seed, owner=(1,))


def write_rng_bench_csv(records: Sequence[RngBenchRecord], path) -> None:
    with open(path, "w") as fh:
        fh.write("dist,mode,n,cycles_per_sample,waste_fraction\n")
        for r in records:
            fh.write(f"{r.dist},{r.mode},{r.n},{r.cycles_per_sample:.6g},{r.waste_fraction:.6g}\n")
