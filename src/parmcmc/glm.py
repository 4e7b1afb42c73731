"""Logistic-regression log-likelihood and gradient kernels.

The same two reductions,

    L(beta)   = -sum_n [ (1 - y_n) t_n + log(1 + exp(-t_n)) ],  t_n = x_n . beta
    g(beta)   = X' gf,   gf_n = y_n - 1 / (1 + exp(-t_n)),

are offered under interchangeable execution strategies.  A strategy is only
a block layout, the (x, y) row blocks each worker walks; one evaluator runs
them all:

* SOM          sequence of maps: a full-length X.beta intermediate is
               materialized in a region of its own before a second region
               runs the transcendental reduction over it.
* MOS          map of sequences: each worker walks its rows one at a time
               with scalar math (the fully fused, cache-oblivious reference).
* PLF          partial loop fusion: each worker runs the whole map sequence
               over its contiguous row block.
* PLF_CHUNKED  PLF with each worker's block processed in n_chunks
               cache-sized pieces (chunked matvec -> fused transcendental ->
               chunked transposed matvec), still merging once per worker.
* SHARDED      PLF over per-worker views of a DesignMatrix; a make_sharded()
               view walks private per-shard copies instead, the portable
               essence of a socket-local data split.

All strategies produce the same values up to floating-point reassociation
(<= 1e-8 relative), and a fixed plan on fixed input is bit-deterministic:
blocks are static, worker accumulators are private, and merges happen in
ascending worker order.

The differential-update fast path (GlmWorkspace / diff_loglike /
commit_update) maintains X.beta so a single-coordinate change costs O(N)
instead of O(N*K), reading only the touched column of an eagerly built
transposed copy of X.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from enum import Enum

import numpy as np
from scipy.special import expit

from . import parallel
from .instrumentation import counters

__all__ = [
    "Strategy", "ExecPlan", "DesignMatrix", "Shard", "ShardedMatrix",
    "GradResult", "GlmWorkspace", "make_sharded", "loglike", "loglike_grad",
    "diff_loglike", "commit_update", "load_design_csv", "synthetic_logistic",
]


class Strategy(Enum):
    SOM = "som"
    MOS = "mos"
    PLF = "plf"
    PLF_CHUNKED = "plf_chunked"
    SHARDED = "sharded"


@dataclass(frozen=True)
class ExecPlan:
    """How an evaluation maps onto workers (and chunks, for PLF_CHUNKED)."""

    strategy: Strategy = Strategy.PLF
    workers: int = 1
    n_chunks: int = 1

    def __post_init__(self):
        if self.workers < 1:
            raise ValueError(f"workers must be >= 1, got {self.workers}")
        if self.n_chunks < 1:
            raise ValueError(f"n_chunks must be >= 1, got {self.n_chunks}")


class DesignMatrix:
    """Row-major N x K observation matrix with a binary response vector.

    Immutable after construction and safely shareable read-only across
    workers; the constructor copies and validates.
    """

    def __init__(self, x, y):
        x = np.ascontiguousarray(x, dtype=np.float64)
        y = np.ascontiguousarray(y, dtype=np.float64)
        if x.ndim != 2:
            raise ValueError(f"x must be 2-D, got shape {x.shape}")
        if x.shape[0] < 1 or x.shape[1] < 1:
            raise ValueError(f"need N >= 1 and K >= 1, got shape {x.shape}")
        if y.shape != (x.shape[0],):
            raise ValueError(f"y has shape {y.shape}, expected ({x.shape[0]},)")
        if not np.isfinite(x).all():
            raise ValueError("x contains non-finite entries")
        if not np.isin(y, (0.0, 1.0)).all():
            raise ValueError("y entries must be exactly 0 or 1")
        self.x = x
        self.y = y
        self.x.setflags(write=False)
        self.y.setflags(write=False)

    @property
    def n_rows(self) -> int:
        return self.x.shape[0]

    @property
    def n_cols(self) -> int:
        return self.x.shape[1]


@dataclass(frozen=True)
class Shard:
    """One contiguous row block, privately allocated."""

    x: np.ndarray
    y: np.ndarray
    row_offset: int


class ShardedMatrix:
    """Row partition of a DesignMatrix into per-shard private copies."""

    def __init__(self, shards: list[Shard], n_cols: int):
        self.shards = shards
        self._n_cols = n_cols

    @property
    def n_shards(self) -> int:
        return len(self.shards)

    @property
    def n_rows(self) -> int:
        return sum(s.x.shape[0] for s in self.shards)

    @property
    def n_cols(self) -> int:
        return self._n_cols


def make_sharded(data: DesignMatrix, n_shards: int) -> ShardedMatrix:
    """Copy contiguous, near-equal row blocks into per-shard allocations.

    Sizes differ by at most one row; the larger shards come first.
    """
    if not 1 <= n_shards <= data.n_rows:
        raise ValueError(f"n_shards must be in [1, {data.n_rows}], got {n_shards}")
    shards = []
    for start, stop in parallel.partition(data.n_rows, n_shards):
        # explicit copies: each shard owns its block, never the master array
        shards.append(Shard(
            x=data.x[start:stop].copy(),
            y=data.y[start:stop].copy(),
            row_offset=start,
        ))
    return ShardedMatrix(shards, data.n_cols)


@dataclass
class GradResult:
    """Log-likelihood value and its gradient."""

    f: float
    g: np.ndarray


# ---------------------------------------------------------------------------
# block kernels, strategy layouts and the evaluator
# ---------------------------------------------------------------------------

# analytic flops per row (mul/add/div/exp/log each count 1); see instrumentation
_TR_FLOPS = 6        # (1-y)*t, softplus split, accumulate
_TR_GRAD_FLOPS = 8   # adds the sigmoid and its subtraction
_DIFF_FLOPS = 8      # fused axpy + transcendental


def _nll_sum(t: np.ndarray, y: np.ndarray) -> float:
    """sum_n (1-y)t + log(1+exp(-t)), negated.

    log(1+exp(-t)) splits into max(-t,0) + log1p(exp(-|t|)) so every lane
    stays in exact arithmetic range; the expression is straight-line over
    contiguous data.
    """
    a = np.abs(t)
    s_abs = a.sum()
    np.negative(a, out=a)
    np.exp(a, out=a)
    np.log1p(a, out=a)
    s_t = t.sum()
    return -(s_t - np.dot(y, t) + 0.5 * (s_abs - s_t) + a.sum())


def _nll_row(t: float, y: float) -> float:
    if t >= 0.0:
        lse = math.log1p(math.exp(-t))
    else:
        lse = -t + math.log1p(math.exp(t))
    return -((1.0 - y) * t + lse)


def _sigmoid_row(t: float) -> float:
    if t >= 0.0:
        return 1.0 / (1.0 + math.exp(-t))
    e = math.exp(t)
    return e / (1.0 + e)


def _check_beta(beta, n_cols: int) -> np.ndarray:
    beta = np.ascontiguousarray(beta, dtype=np.float64)
    if beta.shape != (n_cols,):
        raise ValueError(f"beta has shape {beta.shape}, expected ({n_cols},)")
    if not np.isfinite(beta).all():
        raise ValueError("beta contains non-finite entries")
    return beta


def _chunk_bounds(start: int, stop: int, n_chunks: int) -> list[tuple[int, int]]:
    """Split [start, stop) into n_chunks pieces; the last absorbs the remainder.

    n_chunks is clamped to the block's row count.
    """
    size = stop - start
    if size == 0:
        return []
    n_chunks = min(n_chunks, size)
    base = size // n_chunks
    bounds = [(start + i * base, start + (i + 1) * base) for i in range(n_chunks)]
    bounds[-1] = (bounds[-1][0], stop)
    return bounds


def _block_eval(x, y, beta, g, t=None) -> float:
    """f partial of one row block; adds its gradient partial into g unless None.

    `t` is the block's X.beta when SOM has already materialized it.
    """
    if t is None:
        t = x @ beta
    if g is not None:
        g += x.T @ (y - expit(t))
    return _nll_sum(t, y)


def _rows_eval(x, y, beta, g, t=None) -> float:
    """MOS twin of _block_eval: one row at a time with scalar math (t unused)."""
    f = 0.0
    for i in range(x.shape[0]):
        ti = float(np.dot(x[i], beta))
        f += _nll_row(ti, y[i])
        if g is not None:
            g += (y[i] - _sigmoid_row(ti)) * x[i]
    return f


def _worker_blocks(data, plan: ExecPlan) -> list[list[tuple[np.ndarray, np.ndarray]]]:
    """Each worker's list of (x, y) row blocks, all views of the data.

    A ShardedMatrix deals its shards round-robin: worker w holds shards w,
    w + workers, ...  A DesignMatrix gives each worker its static partition
    block, cut into n_chunks cache-sized pieces under PLF_CHUNKED.  Workers
    beyond the row count get an empty list.
    """
    if isinstance(data, ShardedMatrix):
        return [[(s.x, s.y) for s in data.shards[w::plan.workers]]
                for w in range(plan.workers)]
    n_chunks = plan.n_chunks if plan.strategy is Strategy.PLF_CHUNKED else 1
    return [[(data.x[a:b], data.y[a:b]) for a, b in _chunk_bounds(start, stop, n_chunks)]
            for start, stop in parallel.partition(data.n_rows, plan.workers)]


def _region_merge(tasks, n_cols: int | None = None) -> tuple[float, np.ndarray | None]:
    """Run one region of per-worker (f, g) tasks; fold them in ascending worker order.

    One merge per worker.  g stays None when n_cols is None (value only).
    """
    partials = parallel.run_region(tasks)
    counters.add_merges(len(partials))
    f = 0.0
    g = None if n_cols is None else np.zeros(n_cols)
    for pf, pg in partials:
        f += pf
        if g is not None:
            g += pg
    return f, g


def _evaluate(data, beta, plan: ExecPlan, grad: bool) -> tuple[float, np.ndarray | None]:
    """L(beta), and its gradient if `grad`, over the plan's block layout.

    One region with private per-worker accumulators; SOM first spends a region
    of its own materializing X.beta.  A ShardedMatrix always evaluates fused,
    shard by shard, whatever the plan's strategy.
    """
    blocks = _worker_blocks(data, plan)
    strategy = plan.strategy if isinstance(data, DesignMatrix) else Strategy.SHARDED
    kernel = _rows_eval if strategy is Strategy.MOS else _block_eval
    ts = [[None] * len(bl) for bl in blocks]
    if strategy is Strategy.SOM:
        # sequence of maps: the full X.beta intermediate gets a region of its own
        ts = parallel.run_region([lambda bl=bl: [x @ beta for x, _ in bl] for bl in blocks])

    def task(bl, bl_ts):
        def run():
            g = np.zeros(data.n_cols) if grad else None
            f = 0.0
            for (x, y), t in zip(bl, bl_ts):
                f += kernel(x, y, beta, g, t)
            return f, g
        return run

    return _region_merge([task(bl, bl_ts) for bl, bl_ts in zip(blocks, ts)],
                         data.n_cols if grad else None)


def loglike(data, beta, plan: ExecPlan = ExecPlan()) -> float:
    """L(beta) under the plan's strategy; value is strategy-invariant.

    `data` may be a DesignMatrix or a ShardedMatrix (the latter always
    evaluates shard-wise).
    """
    beta = _check_beta(beta, data.n_cols)
    counters.add_flops(data.n_rows * (2 * data.n_cols + _TR_FLOPS))
    return _evaluate(data, beta, plan, grad=False)[0]


def loglike_grad(data, beta, plan: ExecPlan = ExecPlan()) -> GradResult:
    """L(beta) and its gradient X' (y - sigmoid(X beta)); strategy-invariant."""
    beta = _check_beta(beta, data.n_cols)
    counters.add_flops(data.n_rows * (4 * data.n_cols + _TR_GRAD_FLOPS))
    return GradResult(*_evaluate(data, beta, plan, grad=True))


# ---------------------------------------------------------------------------
# differential update
# ---------------------------------------------------------------------------

class GlmWorkspace:
    """Maintained X.beta plus the transposed copy backing column access.

    The transpose is built eagerly (X is immutable, so it never refreshes).
    Quiescence invariant: xbeta equals a fresh X.beta_current to 1e-10 per
    element whenever no commit is in flight; `validate` checks it.
    """

    def __init__(self, data: DesignMatrix, beta0):
        beta0 = _check_beta(beta0, data.n_cols)
        self.beta_current = beta0.copy()
        self.xbeta = data.x @ beta0
        self.xt = np.ascontiguousarray(data.x.T)
        self._shape = (data.n_rows, data.n_cols)

    @property
    def n_rows(self) -> int:
        return self._shape[0]

    @property
    def n_cols(self) -> int:
        return self._shape[1]

    def validate(self, data: DesignMatrix, tol: float = 1e-10) -> float:
        """Max |xbeta - X.beta_current|; raises if above tol."""
        err = float(np.max(np.abs(self.xbeta - data.x @ self.beta_current)))
        if err > tol:
            raise AssertionError(f"workspace desynchronized: max error {err:g} > {tol:g}")
        return err


def _check_coord(ws: GlmWorkspace, k: int) -> None:
    if not 0 <= k < ws.n_cols:
        raise IndexError(f"coordinate {k} out of range [0, {ws.n_cols})")


def diff_loglike(ws: GlmWorkspace, data: DesignMatrix, k: int, delta_beta_k: float,
                 plan: ExecPlan = ExecPlan()) -> float:
    """L at beta_current with coordinate k shifted by delta, touching only column k.

    Reads the maintained X.beta and one contiguous row of the transpose;
    never mutates the workspace.
    """
    _check_coord(ws, k)
    if not math.isfinite(delta_beta_k):
        raise ValueError("delta_beta_k must be finite")
    if data.n_rows != ws.n_rows or data.n_cols != ws.n_cols:
        raise ValueError("workspace/data shape mismatch")
    counters.add_flops(ws.n_rows * _DIFF_FLOPS)
    xk = ws.xt[k]
    y = data.y

    def task(a, b):
        def run():
            return _nll_sum(ws.xbeta[a:b] + delta_beta_k * xk[a:b], y[a:b]), None
        return run

    blocks = parallel.partition(ws.n_rows, plan.workers)
    return _region_merge([task(a, b) for a, b in blocks])[0]


def commit_update(ws: GlmWorkspace, k: int, delta_beta_k: float) -> None:
    """Materialize a coordinate move: xbeta += delta * X_k, beta_k += delta.

    Exclusive access assumed; restores the quiescence invariant on return.
    The O(N) axpy is memory-bound, so it runs unpartitioned on the calling
    thread.
    """
    _check_coord(ws, k)
    if not math.isfinite(delta_beta_k):
        raise ValueError("delta_beta_k must be finite")
    if delta_beta_k != 0.0:
        ws.xbeta += delta_beta_k * ws.xt[k]
    ws.beta_current[k] += delta_beta_k
    counters.add_flops(2 * ws.n_rows)


# ---------------------------------------------------------------------------
# input formats
# ---------------------------------------------------------------------------

def load_design_csv(path) -> DesignMatrix:
    """Read `K covariate columns + one 0/1 response column` plain CSV."""
    rows: list[list[float]] = []
    with open(path, newline="") as fh:
        for i, row in enumerate(csv.reader(fh)):
            if not row or all(not c.strip() for c in row):
                continue
            vals = []
            for j, cell in enumerate(row):
                try:
                    vals.append(float(cell))
                except ValueError:
                    raise ValueError(
                        f"{path}: row {i + 1}, column {j + 1}: not a number: {cell!r}")
            rows.append(vals)
    if not rows:
        raise ValueError(f"{path}: no data rows")
    width = len(rows[0])
    for i, r in enumerate(rows):
        if len(r) != width:
            raise ValueError(f"{path}: row {i + 1}: expected {width} columns, got {len(r)}")
    if width < 2:
        raise ValueError(f"{path}: need at least one covariate column plus a response column")
    arr = np.asarray(rows)
    y = arr[:, -1]
    bad = np.nonzero((y != 0.0) & (y != 1.0))[0]
    if bad.size:
        raise ValueError(
            f"{path}: row {bad[0] + 1}, column {width}: response must be 0 or 1, got {y[bad[0]]!r}")
    return DesignMatrix(arr[:, :-1], y)


def synthetic_logistic(n_rows: int, n_cols: int, seed: int = 0,
                       beta=None, beta_scale: float = 1.0):
    """Seeded synthetic instance: X ~ N(0,1), y ~ Bernoulli(sigmoid(X beta)).

    Returns (DesignMatrix, beta_true).
    """
    gen = np.random.default_rng(seed)
    x = gen.standard_normal((n_rows, n_cols))
    if beta is None:
        beta = gen.normal(0.0, beta_scale, n_cols)
    else:
        beta = _check_beta(beta, n_cols)
    y = (gen.random(n_rows) < expit(x @ beta)).astype(np.float64)
    return DesignMatrix(x, y), np.asarray(beta, dtype=np.float64)
