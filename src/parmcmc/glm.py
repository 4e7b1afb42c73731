"""Logistic-regression log-likelihood and gradient kernels.

The same two reductions,

    L(beta)   = -sum_n [ (1 - y_n) t_n + log(1 + exp(-t_n)) ],  t_n = x_n . beta
    g(beta)   = X' gf,   gf_n = y_n - 1 / (1 + exp(-t_n)),

are offered under interchangeable execution strategies.  A strategy is only
a block layout, the (x, y) row blocks each worker walks, all views of one
DesignMatrix; one evaluator runs them all:

* SOM          sequence of maps: a full-length X.beta intermediate is
               materialized in a region of its own before a second region
               runs the transcendental reduction over it.
* PLF          partial loop fusion: each worker runs the whole map sequence
               over its contiguous row block.
* PLF_CHUNKED  PLF with each worker's block processed in n_chunks
               cache-sized pieces (chunked matvec -> fused transcendental ->
               chunked transposed matvec), still merging once per worker.
* SHARDED      PLF under another name: one contiguous block per worker.

No memory is placed per socket: every worker reads the caller's X, since a
shard copy made by the calling thread would be first-touched onto its node.

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
    "Strategy", "ExecPlan", "DesignMatrix", "GradResult", "GlmWorkspace",
    "loglike", "loglike_grad", "diff_loglike", "commit_update", "load_design_csv",
    "synthetic_logistic",
]


class Strategy(Enum):
    """A block layout of the full evaluation; SHARDED is PLF under another name."""

    SOM = "som"
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
_SLOPE_FLOPS = 4     # halving, tanh, dot multiply-add

#: rows each diff_loglike worker must get before the evaluation forks; at
#: K=10 on 2 vCPUs one worker beat two up to 40k-50k total rows, and two
#: won from about 60k
_DIFF_MIN_ROWS = 1 << 15


def _nll_sum(t: np.ndarray, y: np.ndarray) -> float | np.ndarray:
    """sum_n (1-y)t + log(1+exp(-t)) over the last axis, negated.

    log(1+exp(-t)) splits into max(-t,0) + log1p(exp(-|t|)) so every lane
    stays in exact arithmetic range; the expression is straight-line over
    contiguous data.  A (G, n) block returns G values, each bit-identical
    to the 1-D call on its row; the 1-D path keeps np.dot, which is faster
    there than np.vecdot and gives the same bits.
    """
    a = np.abs(t)
    s_abs = a.sum(axis=-1)
    np.negative(a, out=a)
    np.exp(a, out=a)
    np.log1p(a, out=a)
    s_t = t.sum(axis=-1)
    yt = np.dot(y, t) if t.ndim == 1 else np.vecdot(y, t)
    return -(s_t - yt + 0.5 * (s_abs - s_t) + a.sum(axis=-1))


def _shifted_loglike(xbeta, xk, y, rows, d) -> float | np.ndarray:
    """L over `rows` with coordinate k moved by d, counting its flops.

    The one kernel of diff_loglike's row slices and hb's lockstep (G, n) blocks
    (d a (G, 1) column); it gathers the rows itself, freeing the copies before _nll_sum.
    """
    t = xbeta[rows] + d * xk[rows]
    counters.add_flops(t.size * _DIFF_FLOPS)
    return _nll_sum(t, y[rows])


def _coord_slope(xbeta, xk, xt_dy_k) -> float | np.ndarray:
    """dL/dbeta_k = x_k . (y - sigmoid(X.beta)) at the maintained X.beta, counting its flops.

    y - sigmoid(t) = (y - 1/2) - tanh(t/2) / 2, so with x_k . (y - 1/2) fixed at
    workspace build (`xt_dy_k`, GlmWorkspace.xt_dy[k]) one tanh pass and one dot
    remain.  A (G, n) block with xt_dy_k of shape (G,) returns G slopes, each
    bit-identical to the 1-D call on its row, as _nll_sum's values are.
    """
    h = np.multiply(xbeta, 0.5)
    counters.add_flops(h.size * _SLOPE_FLOPS)
    np.tanh(h, out=h)
    return xt_dy_k - 0.5 * (np.dot(xk, h) if h.ndim == 1 else np.vecdot(xk, h))


def _check_beta(beta, n_cols: int) -> np.ndarray:
    beta = np.ascontiguousarray(beta, dtype=np.float64)
    if beta.shape != (n_cols,):
        raise ValueError(f"beta has shape {beta.shape}, expected ({n_cols},)")
    if not np.isfinite(beta).all():
        raise ValueError("beta contains non-finite entries")
    return beta


def _block_eval(x, y, beta, g, t=None) -> float:
    """f partial of one row block; adds its gradient partial into g unless None.

    `t` is the block's X.beta when SOM has already materialized it.
    """
    if t is None:
        t = x @ beta
    if g is not None:
        g += x.T @ (y - expit(t))
    return _nll_sum(t, y)


def _worker_blocks(data, plan: ExecPlan) -> list[list[tuple[np.ndarray, np.ndarray]]]:
    """Each worker's list of (x, y) row blocks, all views of the data.

    Each worker gets its parallel.partition block, which PLF_CHUNKED cuts
    again with parallel.partition into n_chunks cache-sized pieces.  Both
    cuts follow one rule, so a worker block, like a chunk, is empty wherever
    the pieces outnumber the rows.
    """
    n_chunks = plan.n_chunks if plan.strategy is Strategy.PLF_CHUNKED else 1
    return [[(data.x[start + a:start + b], data.y[start + a:start + b])
             for a, b in parallel.partition(stop - start, n_chunks)]
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
    of its own materializing X.beta.
    """
    blocks = _worker_blocks(data, plan)
    ts = [[None] * len(bl) for bl in blocks]
    if plan.strategy is Strategy.SOM:
        # sequence of maps: the full X.beta intermediate gets a region of its own
        ts = parallel.run_region([lambda bl=bl: [x @ beta for x, _ in bl] for bl in blocks])

    def task(bl, bl_ts):
        def run():
            g = np.zeros(data.n_cols) if grad else None
            f = 0.0
            for (x, y), t in zip(bl, bl_ts):
                f += _block_eval(x, y, beta, g, t)
            return f, g
        return run

    return _region_merge([task(bl, bl_ts) for bl, bl_ts in zip(blocks, ts)],
                         data.n_cols if grad else None)


def loglike(data: DesignMatrix, beta, plan: ExecPlan = ExecPlan()) -> float:
    """L(beta) under the plan's strategy; value is strategy-invariant."""
    beta = _check_beta(beta, data.n_cols)
    counters.add_flops(data.n_rows * (2 * data.n_cols + _TR_FLOPS))
    return _evaluate(data, beta, plan, grad=False)[0]


def loglike_grad(data: DesignMatrix, beta, plan: ExecPlan = ExecPlan()) -> GradResult:
    """L(beta) and its gradient X' (y - sigmoid(X beta)); strategy-invariant."""
    beta = _check_beta(beta, data.n_cols)
    counters.add_flops(data.n_rows * (4 * data.n_cols + _TR_GRAD_FLOPS))
    return GradResult(*_evaluate(data, beta, plan, grad=True))


# ---------------------------------------------------------------------------
# differential update
# ---------------------------------------------------------------------------

class GlmWorkspace:
    """Maintained X.beta plus the transposed copy backing column access.

    The transpose is built eagerly (X is immutable, so it never refreshes),
    and with it xt_dy = X'(y - 1/2), the fixed part of each coordinate's slope.
    Quiescence invariant: xbeta equals a fresh X.beta_current to 1e-10 per
    element whenever no commit is in flight; `validate` checks it.

    A slice driver stores L at beta_current and its number of row blocks when
    it accepted the last point it evaluated, as the commit's axpy repeats that
    evaluation's bit for bit; a nonzero commit clears it.  It answers only an
    evaluation over as many blocks, since another split rounds differently.
    """

    def __init__(self, data: DesignMatrix, beta0):
        self._build(data, beta0, np.empty(data.n_rows), np.empty((data.n_cols, data.n_rows)))

    @classmethod
    def _in_storage(cls, data: DesignMatrix, beta0, xbeta: np.ndarray,
                    xt: np.ndarray) -> GlmWorkspace:
        """A workspace built into caller-owned views: X.beta (n,) and the transpose (K, n).

        Each row xt[k] must be contiguous; the views are filled, never copied.
        """
        ws = cls.__new__(cls)
        ws._build(data, beta0, xbeta, xt)
        return ws

    def _build(self, data, beta0, xbeta, xt) -> None:
        beta0 = _check_beta(beta0, data.n_cols)
        self.beta_current = beta0.copy()
        xbeta[:] = data.x @ beta0
        xt[:] = data.x.T
        self.xbeta, self.xt = xbeta, xt
        self.xt_dy = xt @ (data.y - 0.5)
        self._shape = (data.n_rows, data.n_cols)
        self._stored = None

    def store_loglike(self, value: float, blocks: int) -> None:
        """Keep L at beta_current, summed over `blocks` row blocks, until a commit moves it."""
        self._stored = (value, blocks)

    def stored_loglike(self, blocks: int) -> float | None:
        """The kept L at beta_current if it was summed over `blocks` row blocks, else None."""
        stored = self._stored
        return stored[0] if stored is not None and stored[1] == blocks else None

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


def _diff_blocks(n_rows: int, workers: int) -> int:
    """Row blocks of a diff_loglike: up to `workers`, each of at least _DIFF_MIN_ROWS rows."""
    return min(workers, max(1, n_rows // _DIFF_MIN_ROWS))


def diff_loglike(ws: GlmWorkspace, data: DesignMatrix, k: int, delta_beta_k: float,
                 plan: ExecPlan = ExecPlan()) -> float:
    """L at beta_current with coordinate k shifted by delta, touching only column k.

    Reads the maintained X.beta and one contiguous row of the transpose;
    never mutates the workspace.  Of the plan only workers is read, as an
    upper bound (strategy and n_chunks do not apply to a one-column update):
    the rows split only as far as every worker gets _DIFF_MIN_ROWS of them,
    so a smaller evaluation runs as one block on the calling thread, where
    a fork would cost more than the rows it shares out.
    """
    _check_coord(ws, k)
    if not math.isfinite(delta_beta_k):
        raise ValueError("delta_beta_k must be finite")
    if data.n_rows != ws.n_rows or data.n_cols != ws.n_cols:
        raise ValueError("workspace/data shape mismatch")
    xk = ws.xt[k]
    y = data.y

    def task(a, b):
        def run():
            return _shifted_loglike(ws.xbeta, xk, y, slice(a, b), delta_beta_k), None
        return run

    blocks = parallel.partition(ws.n_rows, _diff_blocks(ws.n_rows, plan.workers))
    return _region_merge([task(a, b) for a, b in blocks])[0]


def commit_update(ws: GlmWorkspace, k: int, delta_beta_k: float) -> None:
    """Materialize a coordinate move: xbeta += delta * X_k, beta_k += delta.

    Exclusive access assumed; restores the quiescence invariant on return.
    The O(N) axpy is memory-bound, so it runs unpartitioned on the calling
    thread.  A nonzero move clears the stored L at beta_current.
    """
    _check_coord(ws, k)
    if not math.isfinite(delta_beta_k):
        raise ValueError("delta_beta_k must be finite")
    if delta_beta_k != 0.0:
        ws.xbeta += delta_beta_k * ws.xt[k]
        ws._stored = None
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


def synthetic_logistic(n_rows: int, n_cols: int, seed: int = 0, beta=None):
    """Seeded synthetic instance: X ~ N(0,1), y ~ Bernoulli(sigmoid(X beta)).

    Returns (DesignMatrix, beta_true).
    """
    gen = np.random.default_rng(seed)
    x = gen.standard_normal((n_rows, n_cols))
    if beta is None:
        beta = gen.normal(0.0, 1.0, n_cols)
    else:
        beta = _check_beta(beta, n_cols)
    y = (gen.random(n_rows) < expit(x @ beta)).astype(np.float64)
    return DesignMatrix(x, y), np.asarray(beta, dtype=np.float64)
