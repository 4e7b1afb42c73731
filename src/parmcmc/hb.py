"""Hierarchical Bayesian logistic regression across independent groups.

M regression groups share a fixed Gaussian hyperprior on their coefficient
vectors.  With the hyperprior fixed, the group coefficients are
conditionally independent, so a Gibbs sweep may update all groups
concurrently.  The two worker mappings differ only in where the workers
go; one sweep path serves both:

* COARSE  the slice updates run on the calling thread at any worker count:
          each bucket of equal-size groups is stepped in lockstep, with
          (active, n) block evaluations per slice-sampler round.  The
          workers only share out the extra `neval` passes across groups.
* FINE    the groups are walked in order on the calling thread; each
          group's likelihood is row-parallel across up to the policy's
          workers (with one worker, FINE steps the buckets in lockstep
          too).  diff_loglike forks only once each worker gets
          glm._DIFF_MIN_ROWS rows, so a smaller group is evaluated as one
          block on the calling thread, with the same bits as COARSE.

Stepping a bucket in one thread beats splitting it: both halves would run
the same Python-heavy rounds and serialize on the GIL.

Each group consumes an independent uniform stream keyed by
(master seed, group index), so draws never depend on lockstep batching or
scheduling order, and while every group has fewer than
2 * glm._DIFF_MIN_ROWS rows they depend on neither the mapping nor the
worker count either: every evaluation is then one row block, the two
modes are bit-identical, and a single group's chain reproduces
`sampler.run_chain` run on the same stream.  A group with more rows is
summed by FINE over up to `workers` blocks of at least _DIFF_MIN_ROWS
rows but by COARSE over one, so the two modes, and FINE at different
worker counts, round differently: their draws agree only to floating-point
tolerance and a stored L never passes between them.

The per-sweep `neval` knob issues extra full log-likelihood evaluations
per group before the sweep's updates, mimicking samplers that touch the group's
data several times per iteration (the data-reuse axis of the mapping
trade-off).  It consumes no randomness and therefore never changes draws.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from . import parallel
from .glm import (DesignMatrix, ExecPlan, GlmWorkspace, _coord_slope, _shifted_loglike,
                  commit_update, loglike, synthetic_logistic)
from .perf import BenchRecord, _median_wall
from .rng import BufferKind, DeviateBuffer
from .sampler import ChainConfig, GaussianPrior, SliceStats, slice_moves, slice_sample_coord

__all__ = [
    "MappingMode", "MappingPolicy", "HbDataset", "HbState",
    "synthetic_hb_dataset", "hb_sweep", "hb_benchmark",
]


class MappingMode(Enum):
    COARSE = "coarse"
    FINE = "fine"


@dataclass(frozen=True)
class MappingPolicy:
    mode: MappingMode
    workers: int = 1
    neval: int = 1

    def __post_init__(self):
        if not isinstance(self.mode, MappingMode):
            raise TypeError(f"mode must be a MappingMode, got {self.mode!r}")
        if self.workers < 1:
            raise ValueError(f"workers must be >= 1, got {self.workers}")
        if self.neval < 1:
            raise ValueError(f"neval must be >= 1, got {self.neval}")


class HbDataset:
    """M design matrices sharing K; group sizes may differ."""

    def __init__(self, groups: list[DesignMatrix]):
        if not groups:
            raise ValueError("need at least one group")
        k = groups[0].n_cols
        for m, g in enumerate(groups):
            if g.n_cols != k:
                raise ValueError(f"group {m} has {g.n_cols} columns, expected {k}")
        self.groups = list(groups)

    @property
    def m_groups(self) -> int:
        return len(self.groups)

    @property
    def n_cols(self) -> int:
        return self.groups[0].n_cols

    @property
    def n_rows_total(self) -> int:
        return sum(g.n_rows for g in self.groups)


def synthetic_hb_dataset(m_groups: int, n_cols: int, navg: int, seed: int = 0):
    """Uniform-size groups with beta_m drawn from the standard normal hyperprior.

    Returns (HbDataset, betas_true) with betas_true of shape (M, K).
    """
    groups = []
    betas = np.empty((m_groups, n_cols))
    for m in range(m_groups):
        ss = np.random.SeedSequence(seed, spawn_key=(m,))
        gen = np.random.default_rng(ss)
        beta_m = gen.standard_normal(n_cols)
        child_seed = int(gen.integers(2 ** 63))
        data, _ = synthetic_logistic(navg, n_cols, seed=child_seed, beta=beta_m)
        groups.append(data)
        betas[m] = beta_m
    return HbDataset(groups), betas


class _Bucket:
    """Equal-size groups stored as contiguous blocks.

    X.beta is (G, n), the transposed X is (K, G, n) and y is (G, n); each
    member workspace (holding its group as `data`) is built straight into row
    views of these blocks, so per-group calls (diff_loglike, commit_update,
    validate) and the lockstep driver read and write the same memory.
    """

    def __init__(self, ds: HbDataset, members: list[int], beta0: np.ndarray,
                 buffers: list[DeviateBuffer]):
        groups = [ds.groups[m] for m in members]
        shape = (len(groups), groups[0].n_rows)
        self.members = members
        self.buffers = [buffers[m] for m in members]
        self.xbeta = np.empty(shape)
        self.xt = np.empty((ds.n_cols, *shape))
        self.y = np.stack([g.y for g in groups])
        self.workspaces = [GlmWorkspace._in_storage(g, beta0, self.xbeta[i], self.xt[:, i])
                           for i, g in enumerate(groups)]
        self.xt_dy = np.stack([ws.xt_dy for ws in self.workspaces], axis=1)  # (K, G)


class HbState:
    """Per-group workspaces and RNG streams persisting across sweeps.

    A state belongs to the dataset it was built for; `hb_sweep` refuses
    any other.  `stats` counts every sweep's evaluations and the first
    answers taken from a stored L instead, whichever path ran.
    """

    def __init__(self, ds: HbDataset, prior: GaussianPrior, seed: int = 0):
        if prior.mu.shape != (ds.n_cols,):
            raise ValueError("prior dimension does not match dataset")
        self.ds = ds
        # a sweep draws about 4.6 deviates per coordinate, so a refill
        # covers about three sweeps; the stream does not depend on capacity
        self.buffers = [DeviateBuffer(BufferKind.UNIFORM01, capacity=16 * ds.n_cols,
                                      seed=seed, owner=(m,))
                        for m in range(ds.m_groups)]
        sizes = dict.fromkeys(g.n_rows for g in ds.groups)
        self.buckets = [_Bucket(ds, [m for m, g in enumerate(ds.groups) if g.n_rows == n],
                                prior.mu, self.buffers)
                        for n in sizes]
        by_group = {m: ws for b in self.buckets for m, ws in zip(b.members, b.workspaces)}
        self.workspaces = [by_group[m] for m in range(ds.m_groups)]
        self.stats = SliceStats()

    @property
    def total_evals(self) -> int:
        return self.stats.evals

    @property
    def betas(self) -> list[np.ndarray]:
        return [ws.beta_current.copy() for ws in self.workspaces]


#: one slice update per coordinate and sweep, at the sampler's default settings
_SWEEP_CFG = ChainConfig(n_iter=1, n_burnin=0)

#: elements per block evaluation: a lockstep round evaluates its groups in
#: blocks of at most this many elements (at least one group), so each
#: temporary stays at 256 KiB; 20 groups x 20000 rows as one block ran 3-4x
#: slower per element than blocks of 10 groups or fewer (README, "Block sizes")
_BLOCK_ELEMS = 1 << 15


def _sweep_lockstep(bucket: _Bucket, prior: GaussianPrior, stats: SliceStats) -> None:
    """Sweep one bucket in lockstep, counting into `stats`.

    For each coordinate every group runs its own `slice_moves`, started with
    the slope of its conditional at the current point: the slopes of all
    groups come from (G, n) blocks through glm._coord_slope before any
    generator starts, as slice_sample_coord computes each on its own.  A
    group whose workspace stores a one-block L at beta_current answers its
    first point, x0, from it, and may finish in its hull with no evaluation.
    Each round evaluates the points the groups' hulls could not decide, for
    all groups still stepping out or shrinking, as (active, n) blocks of at most
    _BLOCK_ELEMS elements through glm._shifted_loglike, the kernel
    diff_loglike runs per group.  So each group sees the same bits, draws,
    evaluation count and stored values on either path.  A group leaves the
    round set when it commits its draw, so the rows still read from the live
    X.beta block are never mid-update.
    """
    wss, xb, y = bucket.workspaces, bucket.xbeta, bucket.y
    rows = max(1, _BLOCK_ELEMS // y.shape[1])
    for k, xk in enumerate(bucket.xt):
        x0 = np.array([ws.beta_current[k] for ws in wss])
        slope0 = prior.slope_coord(k, x0)
        for j in range(0, len(wss), rows):
            slope0[j:j + rows] += _coord_slope(xb[j:j + rows], xk[j:j + rows],
                                               bucket.xt_dy[k, j:j + rows])
        moves = [slice_moves(float(b), k, buf, _SWEEP_CFG, float(s))
                 for b, buf, s in zip(x0, bucket.buffers, slope0)]
        x = np.array([next(mv) for mv in moves])
        d = np.zeros(len(wss))
        ll = np.array([ws.stored_loglike(1) for ws in wss], dtype=float)  # NaN: none stored
        active, fresh = np.arange(len(wss)), np.flatnonzero(np.isnan(ll))
        stats.reused += len(wss) - fresh.size
        while active.size:
            for j in range(0, fresh.size, rows):
                part = fresh[j:j + rows]
                ll[part] = _shifted_loglike(xb, xk, y, part, d[part, None])
            stats.evals += fresh.size
            stepping = []
            for i, fi in zip(active, prior.logpdf_coord(k, x0[active] + d[active]) + ll[active]):
                try:
                    x[i] = moves[i].send(fi)
                    stepping.append(i)
                except StopIteration as done:
                    commit_update(wss[i], k, done.value - x0[i])
                    if done.value == x[i]:
                        wss[i].store_loglike(ll[i], 1)
            active = fresh = np.array(stepping, dtype=np.intp)
            d[active] = x[active] - x0[active]


def hb_sweep(ds: HbDataset, state: HbState, prior: GaussianPrior,
             policy: MappingPolicy) -> list[np.ndarray]:
    """One Gibbs sweep: every group's coefficient vector updated once.

    COARSE puts the workers across groups (outer = workers), FINE inside
    each likelihood (inner = workers).  That mapping only places the
    `neval` - 1 extra loglike passes, run in one region of `outer` tasks,
    task w taking groups w, w + outer, ...; with neval == 1 no region
    opens.  The slice updates then run on the calling thread: with
    single-worker likelihoods (COARSE, or FINE at 1 worker) each bucket of
    equal-size groups is stepped in lockstep, otherwise group by group with
    likelihoods of up to `inner` workers, each worker taking at least
    glm._DIFF_MIN_ROWS rows.  Raises ValueError if `state` was built for
    another dataset or `prior` has another dimension than the dataset.
    Returns the post-sweep coefficient vectors (copies).
    """
    if ds is not state.ds:
        raise ValueError("state was built for a different dataset")
    if prior.mu.shape != (ds.n_cols,):
        raise ValueError("prior dimension does not match dataset")
    coarse = policy.mode is MappingMode.COARSE
    outer, inner = (policy.workers, 1) if coarse else (1, policy.workers)
    if policy.neval > 1:
        inner_plan = ExecPlan(workers=inner)
        def passes(w: int) -> None:
            for m in range(w, ds.m_groups, outer):
                for _ in range(policy.neval - 1):
                    loglike(ds.groups[m], state.workspaces[m].beta_current, inner_plan)

        parallel.run_region([lambda w=w: passes(w) for w in range(outer)])
    stats = state.stats
    if inner == 1:
        for b in state.buckets:
            _sweep_lockstep(b, prior, stats)
    else:
        for ws, buf in zip(state.workspaces, state.buffers):
            for k in range(ds.n_cols):
                slice_sample_coord(ws, prior, k, buf, _SWEEP_CFG, inner, stats=stats)
    return state.betas


def hb_benchmark(ds: HbDataset, prior: GaussianPrior, policies: list[MappingPolicy],
                 n_sweeps: int = 3, reps: int = 3, seed: int = 0) -> list[BenchRecord]:
    """Time hb_sweep under each policy; one record per policy.

    The wall time is the median of `reps` repetitions, each restarting from
    a fresh state with the same seed, built untimed, so the draw streams are
    identical across repetitions and across policies with equivalent
    schedules (only the timings vary).  The declared `evals` is n_sweeps *
    neval (the per-group full-likelihood passes), making cpr a
    cycles-per-group-row throughput figure at the reference machine's clock.
    """
    for name, value in (("n_sweeps", n_sweeps), ("reps", reps)):
        if value < 1:
            raise ValueError(f"{name} must be >= 1, got {value}")
    records = []
    for policy in policies:
        def sweeps(state):
            for _ in range(n_sweeps):
                hb_sweep(ds, state, prior, policy)

        wall = _median_wall(reps, sweeps, lambda: (HbState(ds, prior, seed=seed),))
        records.append(BenchRecord.from_wall(
            label=f"hb/{policy.mode.value}/neval{policy.neval}", n_rows=ds.n_rows_total,
            n_cols=ds.n_cols, workers=policy.workers, n_chunks=1,
            wall_seconds=wall, evals=n_sweeps * policy.neval))
    return records
