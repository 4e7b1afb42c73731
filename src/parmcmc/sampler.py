"""Univariate slice-within-Gibbs sampling for Bayesian logistic regression.

Coordinates are swept in fixed ascending order; each coordinate draw uses
Neal's stepping-out/shrinkage slice sampler on the conditional posterior,
written once as the `slice_moves` generator, which yields the points to
evaluate and is sent their log posteriors.  `slice_sample_coord` drives it
with the differential-update fast path (O(N) per evaluation instead of
O(N*K)), `hb` drives many groups in lockstep; the tests keep a full
recompute as the oracle that chains must match draw for draw.

All randomness is consumed from a DeviateBuffer, so a chain is a pure
function of (data, prior, config, plan) and the buffer's stream identity.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from .glm import DesignMatrix, ExecPlan, GlmWorkspace, commit_update, diff_loglike
from .rng import BufferKind, DeviateBuffer

__all__ = [
    "GaussianPrior", "ChainConfig", "ChainOutput", "SliceStats",
    "SliceShrinkError", "SliceWidenError", "log_posterior_coord", "slice_moves",
    "slice_sample_coord", "run_chain", "write_draws_csv",
]


class SliceWidenError(RuntimeError):
    """Stepping-out exceeded slice_max_steps: the target is pathological."""


class SliceShrinkError(RuntimeError):
    """Shrinkage found no point above the slice level: the target is pathological."""


@dataclass(frozen=True)
class GaussianPrior:
    """Diagonal Gaussian prior: independent N(mu_k, sigma_k^2) per coordinate."""

    mu: np.ndarray
    sigma: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "mu", np.ascontiguousarray(self.mu, dtype=np.float64))
        object.__setattr__(self, "sigma", np.ascontiguousarray(self.sigma, dtype=np.float64))
        if self.mu.ndim != 1 or self.mu.shape != self.sigma.shape:
            raise ValueError("mu and sigma must be 1-D vectors of equal length")
        if not np.all(self.sigma > 0):
            raise ValueError("all prior sigmas must be > 0")

    @classmethod
    def isotropic(cls, n_cols: int, mu: float = 0.0, sigma: float = 1.0) -> "GaussianPrior":
        return cls(np.full(n_cols, mu), np.full(n_cols, sigma))

    def logpdf_coord(self, k: int, value: float) -> float:
        """Log density at one coordinate, dropping beta_k-independent constants."""
        z = (value - self.mu[k]) / self.sigma[k]
        return -0.5 * z * z


@dataclass(frozen=True)
class ChainConfig:
    n_iter: int
    n_burnin: int
    seed: int = 0
    slice_width: float = 1.0
    slice_max_steps: int = 50

    def __post_init__(self):
        if self.n_iter < 1:
            raise ValueError("n_iter must be >= 1")
        if not 0 <= self.n_burnin < self.n_iter:
            raise ValueError("need 0 <= n_burnin < n_iter")
        if not self.slice_width > 0:
            raise ValueError("slice_width must be > 0")
        if self.slice_max_steps < 1:
            raise ValueError("slice_max_steps must be >= 1")


@dataclass
class ChainOutput:
    draws: np.ndarray        # (n_iter - n_burnin, K)
    accept_evals: int        # total conditional-posterior evaluations
    wall_time: float


@dataclass
class SliceStats:
    evals: int = 0


def log_posterior_coord(ws: GlmWorkspace, data: DesignMatrix, prior: GaussianPrior,
                        k: int, delta: float = 0.0, plan: ExecPlan = ExecPlan()) -> float:
    """Conditional log posterior of beta_k at beta_current[k] + delta.

    Likelihood through diff_loglike, plus the prior's k-term; constants in
    beta_k are dropped.  Of `plan` only workers is read, as an upper bound;
    strategy and n_chunks do not apply to a one-column update.
    """
    ll = diff_loglike(ws, data, k, delta, plan)
    return ll + prior.logpdf_coord(k, ws.beta_current[k] + delta)


_MAX_SHRINK = 1000


def slice_moves(x0: float, k: int, rng: DeviateBuffer, cfg: ChainConfig):
    """Neal's stepping-out and shrinkage for coordinate k, as a generator.

    Yields each point to evaluate, starting with x0, and must be sent the
    log posterior there; returns the draw.  Stepping-out starts from width
    cfg.slice_width and takes at most cfg.slice_max_steps expansions per
    side, else raises SliceWidenError; shrinkage that accepts no point in
    _MAX_SHRINK tries raises SliceShrinkError.  Only the slice_* fields of
    cfg are read here.  The generator owns every read of `rng`, so any
    driver that sends the same values consumes the stream identically.
    """
    # 1 - u lies in (0,1], keeping the level strictly below f0 almost surely
    level = (yield x0) + math.log(1.0 - rng.next())

    width = cfg.slice_width
    left = x0 - rng.next() * width
    ends = [left, left + width]
    for side, step in ((0, -width), (1, width)):
        steps = 0
        while (yield ends[side]) > level:
            ends[side] += step
            steps += 1
            if steps > cfg.slice_max_steps:
                raise SliceWidenError(
                    f"stepping-out exceeded {cfg.slice_max_steps} steps (coordinate {k})")
    left, right = ends

    for _ in range(_MAX_SHRINK):
        x1 = left + rng.next() * (right - left)
        if (yield x1) > level:
            return x1
        if x1 < x0:
            left = x1
        else:
            right = x1
        if right - left < 1e-12 * (1.0 + abs(x0)):
            return x0  # degenerate slice; keep the current point
    raise SliceShrinkError(f"slice shrinkage failed to accept (coordinate {k})")


def slice_sample_coord(ws: GlmWorkspace, data: DesignMatrix, prior: GaussianPrior,
                       k: int, rng: DeviateBuffer, cfg: ChainConfig,
                       plan: ExecPlan = ExecPlan(),
                       stats: SliceStats | None = None) -> float:
    """Draw beta_k from its conditional posterior and commit it to the workspace.

    Drives `slice_moves` with one log_posterior_coord evaluation per point;
    of `plan` only workers is read (an upper bound), never strategy or n_chunks.
    """
    stats = stats if stats is not None else SliceStats()
    x0 = float(ws.beta_current[k])
    moves = slice_moves(x0, k, rng, cfg)
    x = next(moves)
    try:
        while True:
            stats.evals += 1
            x = moves.send(log_posterior_coord(ws, data, prior, k, x - x0, plan))
    except StopIteration as done:
        commit_update(ws, k, done.value - x0)
        return done.value


def run_chain(data: DesignMatrix, prior: GaussianPrior, cfg: ChainConfig,
              plan: ExecPlan = ExecPlan(), rng: DeviateBuffer | None = None,
              debug: bool = False) -> ChainOutput:
    """Systematic-scan Gibbs chain; burn-in draws are discarded.

    The chain starts at the prior mean.  `rng` overrides the default
    cfg.seed-keyed uniform buffer (used to splice a chain into an
    externally managed stream, e.g. a hierarchical per-group stream).
    With debug=True the workspace is recomputed every 100 iterations and
    checked to 1e-8 per element.  Of `plan` only workers is read, as an
    upper bound; strategy and n_chunks do not apply to one-column updates.
    """
    if prior.mu.shape != (data.n_cols,):
        raise ValueError(f"prior has {prior.mu.shape[0]} coordinates, data has {data.n_cols}")
    if rng is None:
        rng = DeviateBuffer(BufferKind.UNIFORM01, seed=cfg.seed)
    ws = GlmWorkspace(data, prior.mu)
    stats = SliceStats()
    kept = cfg.n_iter - cfg.n_burnin
    draws = np.empty((kept, data.n_cols))
    t0 = time.perf_counter()
    for it in range(cfg.n_iter):
        for k in range(data.n_cols):
            slice_sample_coord(ws, data, prior, k, rng, cfg, plan, stats)
        if it >= cfg.n_burnin:
            draws[it - cfg.n_burnin] = ws.beta_current
        if debug and (it + 1) % 100 == 0:
            ws.validate(data, tol=1e-8)
    wall = time.perf_counter() - t0
    if not np.isfinite(draws).all():
        raise RuntimeError("chain produced non-finite draws")
    return ChainOutput(draws=draws, accept_evals=stats.evals, wall_time=wall)


def write_draws_csv(output: ChainOutput, path) -> None:
    """One row per retained draw; header row carries the coordinate indices."""
    k = output.draws.shape[1]
    with open(path, "w") as fh:
        fh.write(",".join(str(i) for i in range(k)) + "\n")
        np.savetxt(fh, output.draws, delimiter=",", fmt="%.17g")
