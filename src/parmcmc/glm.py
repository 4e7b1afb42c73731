"""Logistic-regression log-likelihood and gradient kernels.

The same two reductions,

    L(beta)   = -sum_n [ (1 - y_n) t_n + log(1 + exp(-t_n)) ],  t_n = x_n . beta
    g(beta)   = X' r,    r_n = y_n - sigmoid(t_n) = (y_n - 1/2) - tanh(t_n / 2) / 2,

are offered under interchangeable execution plans.  A plan is a block
layout, the (x, y) row blocks each worker walks, all views of one
DesignMatrix: one contiguous block per worker, cut into n_chunks pieces
whatever the strategy.  One evaluator runs every plan:

* SOM  sequence of maps: a full-length X.beta intermediate is materialized
       in a region of its own before a second region runs the
       transcendental reduction over it.
* PLF  partial loop fusion: each worker runs the whole map sequence
       (matvec -> fused transcendental -> transposed matvec) over its
       blocks, merging once per worker.

X is stored once, feature-major (DesignMatrix.xt, C-ordered (K, N)), so a
row block is a Fortran-ordered view whose forward product X.beta streams K
contiguous columns.  No memory is placed per socket: every worker reads the
DesignMatrix's X, since a shard copy made by the calling thread would be
first-touched onto its node.

All strategies produce the same values up to floating-point reassociation
(<= 1e-8 relative), and a fixed plan on fixed input is bit-deterministic
under a fixed BLAS thread count: blocks are static, worker accumulators
are private, and merges happen in ascending worker order.  OpenBLAS's own
threads may reorder a matvec's sums, so the same plan under another
OPENBLAS_NUM_THREADS can differ in the last bits (README, "Strategy
invariance").

The differential-update fast path (GlmWorkspace / diff_loglike /
commit_update) maintains X.beta so a single-coordinate change costs O(N)
instead of O(N*K), reading only the touched column of X, one contiguous row
of DesignMatrix.xt.
"""

from __future__ import annotations

import csv
import math
import sys
from dataclasses import dataclass
from enum import Enum

import numpy as np

from . import parallel
from .instrumentation import counters

__all__ = [
    "Strategy", "ExecPlan", "DesignMatrix", "GradResult", "GlmWorkspace",
    "loglike", "loglike_grad", "diff_loglike", "commit_update", "load_design_csv",
    "synthetic_logistic",
]


class Strategy(Enum):
    """SOM gives X.beta a region of its own; PLF_CHUNKED and SHARDED are PLF by other names.

    Those two are kept only as names for the benchmark's cells.
    """

    SOM = "som"
    PLF = "plf"
    PLF_CHUNKED = "plf_chunked"
    SHARDED = "sharded"


@dataclass(frozen=True)
class ExecPlan:
    """How an evaluation maps onto workers, and each worker's block onto n_chunks pieces."""

    strategy: Strategy = Strategy.PLF
    workers: int = 1
    n_chunks: int = 1

    def __post_init__(self):
        if not isinstance(self.strategy, Strategy):
            raise TypeError(f"strategy must be a Strategy, got {self.strategy!r}")
        if self.workers < 1:
            raise ValueError(f"workers must be >= 1, got {self.workers}")
        if self.n_chunks < 1:
            raise ValueError(f"n_chunks must be >= 1, got {self.n_chunks}")


#: elements of X per block of DesignMatrix's transposed copy (256 KiB), so
#: each block is still in cache while its K rows are written; at 200k x 10
#: the copy took 1.8-2.3 ms, against 5.5-6.7 ms for np.ascontiguousarray(x.T)
_COPY_ELEMS = 1 << 15


class DesignMatrix:
    """An N x K observation matrix, stored once feature-major, with a binary response vector.

    `xt` is the read-only C-ordered (K, N) copy of X, whatever the input's
    layout, and `x` its (N, K) transposed view, so a row block of `x` is
    Fortran-ordered and its K columns are contiguous runs of `xt`.  The
    constructor validates, copies y and makes exactly that one transposed
    copy of X, in blocks of _COPY_ELEMS elements, so it never freezes or
    shares the caller's arrays.  Immutable after construction and safely
    shareable read-only across workers.
    """

    def __init__(self, x, y):
        x = np.asarray(x, dtype=np.float64)
        y = np.array(y, dtype=np.float64)
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
        n, k = x.shape
        self.xt = np.empty((k, n))
        step = max(1, _COPY_ELEMS // k)
        for a in range(0, n, step):
            self.xt[:, a:a + step] = x[a:a + step].T
        self.xt.setflags(write=False)
        self.x = self.xt.T
        self.y = y
        self.y.setflags(write=False)

    @property
    def n_rows(self) -> int:
        return self.xt.shape[1]

    @property
    def n_cols(self) -> int:
        return self.xt.shape[0]


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
_TR_GRAD_FLOPS = 11  # adds the residual: halve, tanh, scale, add y, subtract 1/2
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

    The residual y - sigmoid(t) is formed as (y - 1/2) - tanh(t/2) / 2, the
    identity _coord_slope uses.  `t` is the block's X.beta when SOM has
    already materialized it.  `x` is a Fortran-ordered row block, so `x @ beta`
    streams its columns; the transposed product is np.einsum over the block's
    (K, n) rows, because `x.T @ r`, np.matvec and np.vecmat hold the GIL and
    np.dot copies the strided block (README, "Notes on scope").
    """
    if t is None:
        t = x @ beta
    if g is not None:
        r = np.multiply(t, 0.5)
        np.tanh(r, out=r)
        r *= -0.5
        r += y
        r -= 0.5
        g += np.einsum("kn,n->k", x.T, r)
    return _nll_sum(t, y)


def _worker_blocks(data, plan: ExecPlan) -> list[list[tuple[np.ndarray, np.ndarray]]]:
    """Each worker's list of (x, y) row blocks, all views of the data.

    Each worker gets its parallel.partition block, cut again by that rule
    into plan.n_chunks pieces whatever the strategy, so a worker block, like
    a chunk, is empty wherever the pieces outnumber the rows.
    """
    return [[(data.x[start + a:start + b], data.y[start + a:start + b])
             for a, b in parallel.partition(stop - start, plan.n_chunks)]
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
    """Maintained X.beta plus the feature-major X backing column access.

    `data` is the DesignMatrix it was built from, kept by reference (it is
    immutable), and `xt` is its data.xt, shared, not copied.  Built with it is
    xt_dy = X'(y - 1/2), the fixed part of each coordinate's slope.
    Quiescence invariant: xbeta equals a fresh X.beta_current to 1e-10 per
    element whenever no commit is in flight; `validate` checks it.

    A slice driver stores L at beta_current and its number of row blocks when
    it accepted the last point it evaluated, as the commit's axpy repeats that
    evaluation's bit for bit; a nonzero commit clears it.  It answers only an
    evaluation over as many blocks, since another split rounds differently.
    """

    def __init__(self, data: DesignMatrix, beta0):
        self._build(data, beta0, np.empty(data.n_rows), data.xt)

    @classmethod
    def _in_storage(cls, data: DesignMatrix, beta0, xbeta: np.ndarray,
                    xt: np.ndarray) -> GlmWorkspace:
        """A workspace built into caller-owned views: X.beta (n,) and a copy of data.xt (K, n).

        Each row xt[k] must be contiguous; the views are filled, never replaced.
        """
        xt[:] = data.xt
        ws = cls.__new__(cls)
        ws._build(data, beta0, xbeta, xt)
        return ws

    def _build(self, data, beta0, xbeta, xt) -> None:
        beta0 = _check_beta(beta0, data.n_cols)
        self.beta_current = beta0.copy()
        xbeta[:] = data.x @ beta0
        self.xbeta, self.xt = xbeta, xt
        self.xt_dy = xt @ (data.y - 0.5)
        self.data = data
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
        return self.xbeta.shape[0]

    @property
    def n_cols(self) -> int:
        return self.xt.shape[0]

    def validate(self, tol: float = 1e-10) -> float:
        """Max |xbeta - X.beta_current| for the workspace's data; raises if above tol."""
        err = float(np.max(np.abs(self.xbeta - self.data.x @ self.beta_current)))
        if err > tol:
            raise AssertionError(f"workspace desynchronized: max error {err:g} > {tol:g}")
        return err


def _check_coord(ws: GlmWorkspace, k: int) -> None:
    if not 0 <= k < ws.n_cols:
        raise IndexError(f"coordinate {k} out of range [0, {ws.n_cols})")


def _diff_blocks(n_rows: int, workers: int) -> int:
    """Row blocks of a diff_loglike: up to `workers`, each of at least _DIFF_MIN_ROWS rows."""
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    return min(workers, max(1, n_rows // _DIFF_MIN_ROWS))


def diff_loglike(ws: GlmWorkspace, k: int, delta_beta_k: float, workers: int = 1) -> float:
    """L at beta_current with coordinate k shifted by delta, touching only column k.

    Reads the maintained X.beta, one contiguous row of the transpose and the
    workspace's own y; never mutates the workspace.  `workers` is an upper
    bound, the one parallel choice of a one-column update: the rows split
    only as far as every worker gets _DIFF_MIN_ROWS of them, so a smaller
    evaluation runs as one block on the calling thread, where a fork would
    cost more than the rows it shares out.
    """
    _check_coord(ws, k)
    if not math.isfinite(delta_beta_k):
        raise ValueError("delta_beta_k must be finite")
    xk = ws.xt[k]
    y = ws.data.y

    def task(a, b):
        def run():
            return _shifted_loglike(ws.xbeta, xk, y, slice(a, b), delta_beta_k), None
        return run

    blocks = parallel.partition(ws.n_rows, _diff_blocks(ws.n_rows, workers))
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


#: largest z whose libm exp(z) is finite; math.exp raises OverflowError above it
_EXP_MAX = math.log(sys.float_info.max)


def _sigmoid(z) -> np.ndarray | np.float64:
    """1 / (1 + e), e = exp(-z) by C libm's exp, element by element; float64.

    This is scipy.special.expit's formula and libm's exp, so the bits are
    expit's; numpy's own exp differs from libm in the last few bits of about
    2% of values.  Past _EXP_MAX, where math.exp would raise, e is inf, so
    z -> -inf gives 0.0 as expit does; nan stays nan.  A scalar or 0-d z
    gives a scalar, any other z an array of its shape.  About 70 ns an element.
    """
    z = np.asarray(z, dtype=np.float64)
    neg = -z.ravel()
    over = neg > _EXP_MAX
    neg[over] = 0.0
    e = np.fromiter(map(math.exp, neg.tolist()), np.float64, neg.size)
    e[over] = np.inf
    return 1.0 / (1.0 + e.reshape(z.shape))


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
    y = (gen.random(n_rows) < _sigmoid(x @ beta)).astype(np.float64)
    return DesignMatrix(x, y), np.asarray(beta, dtype=np.float64)
