"""Hierarchical Bayesian logistic regression across independent groups.

M regression groups share a fixed Gaussian hyperprior on their coefficient
vectors.  With the hyperprior fixed, the group coefficients are
conditionally independent, so a Gibbs sweep may update all groups
concurrently.  The two worker mappings differ only in where the workers
go; one sweep path serves both:

* COARSE  workers are spread across groups (static round-robin by group
          index); each worker steps its equal-size groups in lockstep, one
          single-worker (active, n) block evaluation per round.
* FINE    one task walks the groups in order; each group's likelihood is
          row-parallel across the policy's workers.

Each group consumes an independent uniform stream keyed by
(master seed, group index), so draws never depend on the mapping, the
worker count, lockstep batching or scheduling order -- with one worker
the two modes are bit-identical, and a single group's chain reproduces
`sampler.run_chain` run on the same stream.

The per-sweep `neval` knob issues extra full log-likelihood evaluations
per group before its update, mimicking samplers that touch the group's
data several times per iteration (the data-reuse axis of the mapping
trade-off).  It consumes no randomness and therefore never changes draws.
"""

from __future__ import annotations

import statistics
import time
from dataclasses import dataclass
from enum import Enum

import numpy as np

from . import parallel
from .glm import (_DIFF_FLOPS, DesignMatrix, ExecPlan, GlmWorkspace, Strategy, _nll_sum,
                  commit_update, loglike, synthetic_logistic)
from .instrumentation import counters
from .perf import REFERENCE_MACHINE, BenchRecord
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
        if self.workers < 1:
            raise ValueError("workers must be >= 1")
        if self.neval < 1:
            raise ValueError("neval must be >= 1")


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


def synthetic_hb_dataset(m_groups: int, n_cols: int, navg: int, seed: int = 0,
                         prior: GaussianPrior | None = None):
    """Uniform-size groups with beta_m drawn from the hyperprior.

    Returns (HbDataset, betas_true) with betas_true of shape (M, K).
    """
    if prior is None:
        prior = GaussianPrior.isotropic(n_cols)
    groups = []
    betas = np.empty((m_groups, n_cols))
    for m in range(m_groups):
        ss = np.random.SeedSequence(seed, spawn_key=(m,))
        gen = np.random.default_rng(ss)
        beta_m = prior.mu + prior.sigma * gen.standard_normal(n_cols)
        child_seed = int(gen.integers(2 ** 63))
        data, _ = synthetic_logistic(navg, n_cols, seed=child_seed, beta=beta_m)
        groups.append(data)
        betas[m] = beta_m
    return HbDataset(groups), betas


class HbState:
    """Per-group workspaces and RNG streams persisting across sweeps."""

    def __init__(self, ds: HbDataset, prior: GaussianPrior, seed: int = 0):
        if prior.mu.shape != (ds.n_cols,):
            raise ValueError("prior dimension does not match dataset")
        self.workspaces = [GlmWorkspace(g, prior.mu) for g in ds.groups]
        self.buffers = [DeviateBuffer(BufferKind.UNIFORM01, seed=seed, owner=(m,))
                        for m in range(ds.m_groups)]
        self.total_evals = 0

    @property
    def betas(self) -> list[np.ndarray]:
        return [ws.beta_current.copy() for ws in self.workspaces]


#: one slice update per coordinate and sweep, at the sampler's default settings
_SWEEP_CFG = ChainConfig(n_iter=1, n_burnin=0)


def _sweep_lockstep(ds: HbDataset, state: HbState, prior: GaussianPrior,
                    members: list[int]) -> int:
    """Sweep equal-size groups in lockstep; returns the number of evaluations.

    For each coordinate every group runs its own `slice_moves`.  Each round
    evaluates the points of all groups still stepping out or shrinking as
    one (active, n) block, with the expression diff_loglike and
    log_posterior_coord use per group, so each group sees the same bits.
    """
    wss = [state.workspaces[m] for m in members]
    y = np.stack([ds.groups[m].y for m in members])
    evals = 0
    for k in range(ds.n_cols):
        xb = np.stack([ws.xbeta for ws in wss])
        xk = np.stack([ws.xt[k] for ws in wss])
        x0 = np.array([ws.beta_current[k] for ws in wss])
        moves = [slice_moves(float(b), k, state.buffers[m], _SWEEP_CFG)
                 for b, m in zip(x0, members)]
        x = np.array([next(mv) for mv in moves])
        active = np.arange(len(members))
        while active.size:
            d = x[active] - x0[active]
            f = (_nll_sum(xb[active] + d[:, None] * xk[active], y[active])
                 + prior.logpdf_coord(k, x0[active] + d))
            counters.add_flops(active.size * y.shape[1] * _DIFF_FLOPS)
            evals += active.size
            stepping = []
            for i, fi in zip(active, f):
                try:
                    x[i] = moves[i].send(fi)
                    stepping.append(i)
                except StopIteration as done:
                    commit_update(wss[i], k, done.value - x0[i])
            active = np.array(stepping, dtype=np.intp)
    return evals


def hb_sweep(ds: HbDataset, state: HbState, prior: GaussianPrior,
             policy: MappingPolicy) -> list[np.ndarray]:
    """One Gibbs sweep: every group's coefficient vector updated once.

    One region runs `outer` tasks, task w sweeping groups w, w + outer, ...
    with `inner`-worker likelihoods: COARSE puts the workers across groups
    (outer = workers), FINE inside each likelihood (inner = workers).  With
    single-worker likelihoods a task steps its equal-size groups in lockstep.
    Returns the post-sweep coefficient vectors (copies).
    """
    coarse = policy.mode is MappingMode.COARSE
    outer, inner = (policy.workers, 1) if coarse else (1, policy.workers)
    inner_plan = ExecPlan(Strategy.PLF, workers=inner)

    def sweep(members: range) -> int:
        for m in members:
            for _ in range(policy.neval - 1):
                loglike(ds.groups[m], state.workspaces[m].beta_current, inner_plan)
        if inner == 1:
            sizes = dict.fromkeys(ds.groups[m].n_rows for m in members)
            return sum(_sweep_lockstep(ds, state, prior,
                                       [m for m in members if ds.groups[m].n_rows == n])
                       for n in sizes)
        stats = SliceStats()
        for m in members:
            for k in range(ds.n_cols):
                slice_sample_coord(state.workspaces[m], ds.groups[m], prior, k,
                                   state.buffers[m], _SWEEP_CFG, inner_plan, stats=stats)
        return stats.evals

    state.total_evals += sum(parallel.run_region(
        [lambda w=w: sweep(range(w, ds.m_groups, outer)) for w in range(outer)]))
    return state.betas


def hb_benchmark(ds: HbDataset, prior: GaussianPrior, policies: list[MappingPolicy],
                 n_sweeps: int = 3, reps: int = 3, seed: int = 0) -> list[BenchRecord]:
    """Time hb_sweep under each policy; one record per policy.

    Every repetition restarts from a fresh state with the same seed, so the
    draw streams are identical across repetitions and across policies with
    equivalent schedules (only the timings vary).  The declared `evals` is
    n_sweeps * neval (the per-group full-likelihood passes), making cpr a
    cycles-per-group-row throughput figure at the reference machine's clock.
    """
    for name, value in (("n_sweeps", n_sweeps), ("reps", reps)):
        if value < 1:
            raise ValueError(f"{name} must be >= 1, got {value}")
    records = []
    for policy in policies:
        walls = []
        for _ in range(reps):
            state = HbState(ds, prior, seed=seed)
            t0 = time.perf_counter()
            for _ in range(n_sweeps):
                hb_sweep(ds, state, prior, policy)
            walls.append(time.perf_counter() - t0)
        label = f"hb/{policy.mode.value}/neval{policy.neval}"
        records.append(BenchRecord.from_wall(
            label=label, n_rows=ds.n_rows_total, n_cols=ds.n_cols,
            workers=policy.workers, n_chunks=1,
            wall_seconds=statistics.median(walls),
            evals=n_sweeps * policy.neval, clock_ghz=REFERENCE_MACHINE.cpu_clock_ghz))
    return records
