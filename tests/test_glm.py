import ast
import inspect
import math
import textwrap
import tracemalloc

import numpy as np
import pytest
from scipy.special import expit

from parmcmc import glm
from parmcmc.glm import (_DIFF_MIN_ROWS, DesignMatrix, ExecPlan, GlmWorkspace,
                         Strategy, _coord_slope, _nll_sum, _worker_blocks,
                         commit_update, diff_loglike, load_design_csv, loglike, loglike_grad,
                         synthetic_logistic)
from parmcmc.instrumentation import counters

from naive import fd_gradient, naive_grad, naive_loglike

ALL_STRATEGIES = list(Strategy)


def rel_err(a, b):
    return abs(a - b) / max(abs(a), abs(b), 1.0)


def oracle_cases(n, workers):
    """Each strategy at (n, workers), then at 3 rows over 8 workers.

    The second set leaves five workers without a row block; the first keeps
    the plain strategy ids.
    """
    return ([pytest.param(s, n, workers, id=str(s)) for s in ALL_STRATEGIES]
            + [pytest.param(s, 3, 8, id=f"{s}-n3-workers8") for s in ALL_STRATEGIES])


def random_instance(n, k, seed):
    gen = np.random.default_rng(seed)
    x = gen.standard_normal((n, k)) * gen.uniform(0.5, 2.0)
    y = (gen.random(n) < 0.5).astype(float)
    beta = gen.normal(0.0, 1.0, k)
    return DesignMatrix(x, y), beta


# ---------------------------------------------------------------------------
# value oracles
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("strategy", ALL_STRATEGIES)
def test_loglike_zero_beta_is_minus_n_log2(strategy):
    data, _ = synthetic_logistic(37, 4, seed=0)
    v = loglike(data, np.zeros(4), ExecPlan(strategy, workers=2, n_chunks=3))
    assert v == pytest.approx(-37 * math.log(2), rel=1e-12)


def test_loglike_single_point():
    data = DesignMatrix([[1.0]], [1.0])
    assert loglike(data, np.zeros(1)) == pytest.approx(-math.log(2), rel=1e-14)


@pytest.mark.parametrize("strategy, n, workers", oracle_cases(16, 3))
def test_loglike_matches_naive_double_loop(strategy, n, workers):
    data, beta = random_instance(n, 3, seed=11)
    expected = naive_loglike(data.x, data.y, beta)
    got = loglike(data, beta, ExecPlan(strategy, workers=workers, n_chunks=2))
    assert rel_err(got, expected) < 1e-12


def test_grad_zero_beta_closed_form():
    data, _ = random_instance(25, 4, seed=3)
    res = loglike_grad(data, np.zeros(4))
    expected = data.x.T @ (data.y - 0.5)
    np.testing.assert_allclose(res.g, expected, rtol=1e-12)
    assert res.f == pytest.approx(-25 * math.log(2), rel=1e-12)


def test_grad_single_row_example():
    data = DesignMatrix([[1.0, 2.0]], [1.0])
    res = loglike_grad(data, np.zeros(2))
    assert res.f == pytest.approx(-math.log(2), rel=1e-14)
    np.testing.assert_allclose(res.g, [0.5, 1.0], rtol=1e-14)


@pytest.mark.parametrize("strategy, n, workers", oracle_cases(23, 2))
def test_grad_matches_naive(strategy, n, workers):
    data, beta = random_instance(n, 5, seed=7)
    res = loglike_grad(data, beta, ExecPlan(strategy, workers=workers, n_chunks=4))
    np.testing.assert_allclose(res.g, naive_grad(data.x, data.y, beta), rtol=1e-10)


def test_grad_matches_finite_differences():
    for seed in range(20):
        data, beta = random_instance(32, 5, seed=100 + seed)
        res = loglike_grad(data, beta)
        fd = fd_gradient(lambda b: loglike(data, b), beta)
        for k, est in fd.items():
            denom = max(abs(est), 1.0)
            assert abs(res.g[k] - est) / denom < 1e-5


# ---------------------------------------------------------------------------
# strategy and worker invariance
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("seed", range(8))
def test_strategy_invariance(seed):
    gen = np.random.default_rng(2000 + seed)
    n = int(gen.integers(16, 3000))
    k = int(gen.integers(1, 24))
    data, beta = random_instance(n, k, seed=3000 + seed)
    ref_f = loglike(data, beta, ExecPlan(Strategy.PLF, workers=1))
    ref_g = loglike_grad(data, beta, ExecPlan(Strategy.PLF, workers=1)).g
    for strategy in ALL_STRATEGIES:
        for workers in (1, 2, 4, 8):
            plan = ExecPlan(strategy, workers=workers, n_chunks=5)
            f = loglike(data, beta, plan)
            assert rel_err(f, ref_f) < 1e-8, (strategy, workers)
            res = loglike_grad(data, beta, plan)
            assert rel_err(res.f, ref_f) < 1e-8
            scale = np.maximum(np.abs(ref_g), 1.0)
            assert np.max(np.abs(res.g - ref_g) / scale) < 1e-8, (strategy, workers)


@pytest.mark.parametrize("strategy", ALL_STRATEGIES)
def test_fixed_plan_is_bit_deterministic(strategy):
    data, beta = random_instance(501, 7, seed=42)
    plan = ExecPlan(strategy, workers=4, n_chunks=3)
    f1, f2 = loglike(data, beta, plan), loglike(data, beta, plan)
    assert f1 == f2
    g1, g2 = loglike_grad(data, beta, plan), loglike_grad(data, beta, plan)
    assert g1.f == g2.f and np.array_equal(g1.g, g2.g)


@pytest.mark.parametrize("workers", [1, 2, 3, 8])
def test_sharded_is_plf_bit_for_bit(workers):
    data, beta = random_instance(501, 7, seed=42)
    sharded = ExecPlan(Strategy.SHARDED, workers=workers)
    plf = ExecPlan(Strategy.PLF, workers=workers)
    assert loglike(data, beta, sharded) == loglike(data, beta, plf)
    g1, g2 = loglike_grad(data, beta, sharded), loglike_grad(data, beta, plf)
    assert g1.f == g2.f and np.array_equal(g1.g, g2.g)


@pytest.mark.parametrize("n, k, seed", [(10009, 60, 9), (32768, 8, 4)], ids=["10009x60", "32768x8"])
def test_n_chunks_cuts_every_strategys_worker_blocks(n, k, seed):
    # 10009 rows over 2 workers: blocks of 5005 and 5004 rows, and at three
    # chunks the worker cut and the first block's chunk cut leave a remainder
    data, beta = random_instance(n, k, seed=seed)
    one = loglike_grad(data, beta, ExecPlan(Strategy.PLF_CHUNKED, workers=2, n_chunks=1))
    three = ExecPlan(Strategy.PLF_CHUNKED, workers=2, n_chunks=3)
    f3, g3 = loglike(data, beta, three), loglike_grad(data, beta, three)
    for strategy in (Strategy.PLF, Strategy.SHARDED, Strategy.SOM):
        assert [len(bl) for bl in _worker_blocks(data, ExecPlan(strategy, workers=2))] == [1, 1]
        res = loglike_grad(data, beta, ExecPlan(strategy, workers=2))
        assert res.f == one.f and np.array_equal(res.g, one.g), strategy
        plan = ExecPlan(strategy, workers=2, n_chunks=3)
        assert loglike(data, beta, plan) == f3, strategy
        res = loglike_grad(data, beta, plan)
        assert res.f == g3.f and np.array_equal(res.g, g3.g), strategy
    for strategy in ALL_STRATEGIES:
        blocks = _worker_blocks(data, ExecPlan(strategy, workers=2, n_chunks=3))
        assert [len(bl) for bl in blocks] == [3, 3], strategy


@pytest.mark.parametrize("separated", [False, True], ids=["mixed", "separated"])
def test_residual_at_extreme_margins(separated):
    # |t| from 30 to 800, past exp's overflow at 709: the tanh residual must
    # stay finite and exact to rounding, for the gradient and the slope alike
    gen = np.random.default_rng(17)
    n = 240
    t = np.geomspace(30.0, 800.0, n) * np.tile([1.0, -1.0], n // 2)
    beta = np.array([1.0, 1e-3, -2e-3])
    x = np.column_stack([np.zeros(n), gen.standard_normal(n), gen.standard_normal(n)])
    x[:, 0] = t - x[:, 1:] @ beta[1:]
    y = (t > 0).astype(float) if separated else np.tile([1.0, 1.0, 0.0, 0.0], n // 4)
    data = DesignMatrix(x, y)
    tol = 1e-12 * np.abs(x).sum(axis=0)
    want = naive_grad(x, y, beta)
    for strategy in ALL_STRATEGIES:
        g = loglike_grad(data, beta, ExecPlan(strategy, workers=2, n_chunks=3)).g
        assert np.isfinite(g).all(), strategy
        assert (np.abs(g - want) <= tol).all(), (strategy, g - want)
    g = loglike_grad(data, beta).g
    ws = GlmWorkspace(data, beta)
    for k in range(3):
        assert abs(_coord_slope(ws.xbeta, ws.xt[k], ws.xt_dy[k]) - g[k]) <= tol[k], k


@pytest.mark.parametrize("op", [loglike, loglike_grad], ids=["loglike", "grad"])
@pytest.mark.parametrize("strategy", ALL_STRATEGIES)
def test_no_strategy_copies_x_on_design_matrix(op, strategy):
    data, beta = random_instance(2000, 50, seed=10)
    plan = ExecPlan(strategy, workers=2, n_chunks=4)
    op(data, beta, plan)  # warm up: thread pool, BLAS buffers
    tracemalloc.start()
    try:
        op(data, beta, plan)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 0.5 * data.x.nbytes, (peak, data.x.nbytes)


# ---------------------------------------------------------------------------
# differential update
# ---------------------------------------------------------------------------

def test_diff_loglike_zero_delta_equals_loglike():
    data, beta = random_instance(64, 6, seed=5)
    ws = GlmWorkspace(data, beta)
    assert diff_loglike(ws, 2, 0.0) == pytest.approx(loglike(data, beta), rel=1e-12)


def test_diff_loglike_equals_full_recompute():
    data, beta = random_instance(200, 8, seed=6)
    ws = GlmWorkspace(data, beta)
    gen = np.random.default_rng(1)
    for _ in range(20):
        k = int(gen.integers(8))
        delta = float(gen.normal())
        perturbed = beta.copy()
        perturbed[k] += delta
        assert rel_err(diff_loglike(ws, k, delta),
                       loglike(data, perturbed)) < 1e-8


def test_diff_loglike_does_not_mutate():
    data, beta = random_instance(50, 3, seed=2)
    ws = GlmWorkspace(data, beta)
    before = ws.xbeta.copy()
    diff_loglike(ws, 1, 2.5)
    np.testing.assert_array_equal(ws.xbeta, before)
    np.testing.assert_array_equal(ws.beta_current, beta)


def test_diff_loglike_requires_transpose_and_valid_coord():
    data, beta = random_instance(10, 3, seed=2)
    ws = GlmWorkspace(data, beta)
    with pytest.raises(IndexError):
        diff_loglike(ws, 3, 0.1)
    with pytest.raises(IndexError):
        commit_update(ws, -1, 0.1)


def test_diff_loglike_rejects_zero_workers():
    data, beta = random_instance(10, 3, seed=2)
    ws = GlmWorkspace(data, beta)
    assert ws.data is data
    with pytest.raises(ValueError, match="workers must be >= 1, got 0"):
        diff_loglike(ws, 0, 0.1, workers=0)


def test_diff_loglike_below_the_row_floor_runs_as_one_block():
    # a worker would get fewer than _DIFF_MIN_ROWS rows: no fork, so any
    # worker count gives the one-worker bits from one merge
    data, beta = random_instance(2 * _DIFF_MIN_ROWS - 1, 3, seed=9)
    ws = GlmWorkspace(data, beta)
    ref = diff_loglike(ws, 1, 0.4)
    for workers in (2, 4):
        counters.reset()
        assert diff_loglike(ws, 1, 0.4, workers) == ref
        assert counters.snapshot().merge_events == 1


def test_diff_loglike_forks_at_the_row_floor():
    # 2 * _DIFF_MIN_ROWS rows fill two workers, however many are offered
    data, beta = random_instance(2 * _DIFF_MIN_ROWS, 3, seed=10)
    ws = GlmWorkspace(data, beta)
    ref = diff_loglike(ws, 2, -0.3)
    for workers in (2, 4):
        counters.reset()
        assert rel_err(diff_loglike(ws, 2, -0.3, workers), ref) < 1e-8
        assert counters.snapshot().merge_events == 2


@pytest.mark.parametrize("n", [1, 997, 1000, 4099])
def test_nll_sum_block_rows_match_one_row_calls_bitwise(n):
    # lockstep hb sweeps evaluate many groups as one (G, n) block; each row
    # must give the bits diff_loglike's 1-D call gives
    gen = np.random.default_rng(n)
    t = gen.standard_normal((7, n)) * 3.0
    y = (gen.random((7, n)) < 0.5).astype(float)
    rows = np.array([5, 0, 3, 6])
    singles = np.array([_nll_sum(t[i], y[i]) for i in range(7)])
    assert np.array_equal(_nll_sum(t, y), singles)
    assert np.array_equal(_nll_sum(t[rows], y[rows]), singles[rows])


@pytest.mark.parametrize("n", [1, 300, 4099])
def test_coord_slope_equals_the_gradient_after_commits(n):
    # the slice sampler's hull reads dL/dbeta_k off the maintained X.beta
    data, beta = random_instance(n, 6, seed=n)
    ws = GlmWorkspace(data, beta)
    gen = np.random.default_rng(n + 1)
    for _ in range(4):
        commit_update(ws, int(gen.integers(6)), float(gen.normal(0, 0.7)))
    g = loglike_grad(data, ws.beta_current).g
    for k in range(6):
        got = _coord_slope(ws.xbeta, ws.xt[k], ws.xt_dy[k])
        assert abs(got - g[k]) <= 1e-10 * max(abs(g[k]), 1.0), k


@pytest.mark.parametrize("n", [1, 997, 4099])
def test_coord_slope_block_rows_match_one_row_calls_bitwise(n):
    # hb's lockstep takes the slopes of a (G, n) block, slice_sample_coord
    # one row's; both must hand the hull the same bits
    gen = np.random.default_rng(n)
    xbeta = gen.standard_normal((7, n)) * 3.0
    xk = gen.standard_normal((7, n))
    xt_dy = gen.standard_normal(7)
    singles = np.array([_coord_slope(xbeta[i], xk[i], xt_dy[i]) for i in range(7)])
    assert np.array_equal(_coord_slope(xbeta, xk, xt_dy), singles)


def test_diff_flop_count_is_small_fraction_of_full():
    data, beta = random_instance(2000, 50, seed=8)
    ws = GlmWorkspace(data, beta)
    counters.reset()
    loglike(data, beta)
    full_flops = counters.snapshot().flops
    counters.reset()
    diff_loglike(ws, 7, 0.3)
    diff_flops = counters.snapshot().flops
    assert diff_flops <= full_flops / 10


def test_commit_zero_delta_is_identity():
    data, beta = random_instance(40, 4, seed=3)
    ws = GlmWorkspace(data, beta)
    before = ws.xbeta.copy()
    commit_update(ws, 1, 0.0)
    np.testing.assert_array_equal(ws.xbeta, before)


def test_stored_loglike_outlives_reads_and_zero_moves_only():
    # the stored L at beta_current answers only its own row split, and a
    # commit that moves X.beta clears it
    data, beta = random_instance(40, 4, seed=3)
    ws = GlmWorkspace(data, beta)
    assert ws.stored_loglike(1) is None
    ws.store_loglike(-7.5, 1)
    diff_loglike(ws, 2, 0.3)
    commit_update(ws, 1, 0.0)
    assert ws.stored_loglike(1) == -7.5 and ws.stored_loglike(2) is None
    commit_update(ws, 1, 0.2)
    assert ws.stored_loglike(1) is None


def test_commit_sequence_stays_quiescent():
    data, beta = random_instance(300, 6, seed=4)
    ws = GlmWorkspace(data, beta)
    gen = np.random.default_rng(12)
    for _ in range(100):
        k = int(gen.integers(6))
        delta = float(gen.normal(0, 0.5))
        if gen.random() < 0.5:
            diff_loglike(ws, k, delta)  # read-only interleaving
        else:
            commit_update(ws, k, delta)
    assert ws.validate(tol=1e-10) <= 1e-10


def test_commit_then_revert_restores_xbeta():
    data, beta = random_instance(120, 5, seed=5)
    ws = GlmWorkspace(data, beta)
    before = ws.xbeta.copy()
    commit_update(ws, 3, 0.7)
    commit_update(ws, 3, -0.7)
    assert np.max(np.abs(ws.xbeta - before)) < 1e-10


# ---------------------------------------------------------------------------
# structural instrumentation
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("op", ["loglike", "grad"])
def test_region_counts_plf_vs_som(op):
    data, beta = random_instance(256, 5, seed=6)
    fn = loglike if op == "loglike" else loglike_grad
    for strategy, expected in ((Strategy.PLF, 1), (Strategy.PLF_CHUNKED, 1),
                               (Strategy.SOM, 2)):
        counters.reset()
        fn(data, beta, ExecPlan(strategy, workers=4, n_chunks=4))
        assert counters.snapshot().parallel_regions == expected, strategy


def test_merge_count_equals_workers_not_rows():
    data, beta = random_instance(512, 8, seed=7)
    for workers in (1, 2, 4, 8):
        counters.reset()
        loglike_grad(data, beta, ExecPlan(Strategy.PLF, workers=workers))
        assert counters.snapshot().merge_events == workers


@pytest.mark.parametrize("fn", [glm._block_eval, glm._evaluate], ids=lambda f: f.__name__)
def test_region_task_products_release_the_gil(fn):
    """No region task runs `@` or matmul on a transposed operand, or np.matvec,
    np.vecmat or np.vecdot, all of which hold the GIL (README, "Notes on
    scope"); the gradient's X'r is np.einsum("kn,n->k", x.T, r), which
    releases it without copying the block."""
    def transposed(node):
        return isinstance(node, ast.Attribute) and node.attr == "T"

    def called(node, names):
        return (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr in names)

    tree = ast.parse(textwrap.dedent(inspect.getsource(fn)))
    first = fn.__code__.co_firstlineno - 1
    held = [first + node.lineno for node in ast.walk(tree)
            if isinstance(node, ast.BinOp) and isinstance(node.op, ast.MatMult)
            and (transposed(node.left) or transposed(node.right))
            or called(node, {"matmul"}) and any(map(transposed, node.args))]
    assert not held, (f"glm.py lines {held} ({fn.__name__}) multiply a transposed operand "
                      "with `@` or matmul, which holds the GIL; use np.einsum")
    vector = [first + node.lineno for node in ast.walk(tree)
              if called(node, {"matvec", "vecmat", "vecdot"})]
    assert not vector, (f"glm.py lines {vector} ({fn.__name__}) call np.matvec, np.vecmat "
                        "or np.vecdot, which hold the GIL; use np.einsum")


# ---------------------------------------------------------------------------
# validation and input formats
# ---------------------------------------------------------------------------

def test_design_matrix_stores_x_once_feature_major():
    gen = np.random.default_rng(21)
    x = gen.standard_normal((3000, 7))
    y = (gen.random(3000) < 0.5).astype(float)
    tracemalloc.start()
    try:
        data = DesignMatrix(x, y)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert x.nbytes <= peak < 1.5 * x.nbytes, (peak, x.nbytes)   # one transposed copy
    assert data.xt.shape == (7, 3000) and data.xt.flags.c_contiguous
    assert not data.xt.flags.writeable
    assert data.x.shape == (3000, 7) and not data.x.flags.writeable
    assert np.shares_memory(data.x, data.xt) and np.array_equal(data.x, x)
    assert x.flags.writeable and y.flags.writeable    # copied, never frozen
    assert np.shares_memory(GlmWorkspace(data, np.zeros(7)).xt, data.xt)


@pytest.mark.parametrize("workers", [1, 2])
def test_design_matrix_normalizes_its_input_layout(workers):
    gen = np.random.default_rng(22)
    x = gen.standard_normal((301, 6)) * 1.5
    y = (gen.random(301) < 0.5).astype(float)
    beta = gen.normal(0.0, 1.0, 6)
    wide = np.zeros((6, 602))
    wide[:, ::2] = x.T
    layouts = {"C": np.ascontiguousarray(x), "F": np.asfortranarray(x),
               "transposed view": wide[:, ::2].T}
    results = {}
    for name, xin in layouts.items():
        data = DesignMatrix(xin, y)
        out = []
        for strategy in ALL_STRATEGIES:
            plan = ExecPlan(strategy, workers=workers, n_chunks=3)
            res = loglike_grad(data, beta, plan)
            out += [loglike(data, beta, plan), res.f, *res.g]
        ws = GlmWorkspace(data, beta)
        out += [diff_loglike(ws, k, 0.25 * (k - 2), workers) for k in range(6)]
        results[name] = np.array(out)
    for name, got in results.items():
        assert np.array_equal(got, results["C"]), name


def test_design_matrix_validation():
    with pytest.raises(ValueError):
        DesignMatrix([[1.0]], [2.0])          # non-binary response
    with pytest.raises(ValueError):
        DesignMatrix([[np.nan]], [1.0])       # non-finite covariate
    with pytest.raises(ValueError):
        DesignMatrix(np.empty((0, 2)), [])    # empty data
    with pytest.raises(ValueError):
        DesignMatrix([[1.0], [2.0]], [1.0])   # length mismatch


def test_beta_validation():
    data, _ = random_instance(5, 3, seed=0)
    with pytest.raises(ValueError):
        loglike(data, np.zeros(4))
    with pytest.raises(ValueError):
        loglike(data, np.array([0.0, np.inf, 0.0]))


def test_plan_validation():
    with pytest.raises(ValueError):
        ExecPlan(workers=0)
    with pytest.raises(ValueError):
        ExecPlan(n_chunks=0)


def test_plan_rejects_a_strategy_name():
    # a plain string must raise, not fall through to the PLF path
    for name in ("som", "plf"):
        with pytest.raises(TypeError, match=f"strategy must be a Strategy, got '{name}'"):
            ExecPlan(name, workers=2)


def test_csv_round_trip(tmp_path):
    data, _ = random_instance(12, 3, seed=13)
    path = tmp_path / "d.csv"
    rows = np.column_stack([data.x, data.y])
    np.savetxt(path, rows, delimiter=",", fmt="%.17g")
    loaded = load_design_csv(path)
    np.testing.assert_allclose(loaded.x, data.x)
    np.testing.assert_array_equal(loaded.y, data.y)


def test_csv_diagnostics(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("1.0,2.0,1\n3.0,oops,0\n")
    with pytest.raises(ValueError, match=r"row 2, column 2"):
        load_design_csv(bad)
    nb = tmp_path / "nonbinary.csv"
    nb.write_text("1.0,2.0,1\n3.0,4.0,2\n")
    with pytest.raises(ValueError, match=r"row 2.*response"):
        load_design_csv(nb)
    ragged = tmp_path / "ragged.csv"
    ragged.write_text("1.0,2.0,1\n3.0,1\n")
    with pytest.raises(ValueError, match=r"row 2"):
        load_design_csv(ragged)
    empty = tmp_path / "empty.csv"
    empty.write_text("\n")
    with pytest.raises(ValueError, match="no data rows"):
        load_design_csv(empty)


# ---------------------------------------------------------------------------
# synthetic data
# ---------------------------------------------------------------------------

def expit_redraw(n, k, seed, beta=None):
    gen = np.random.default_rng(seed)
    x = gen.standard_normal((n, k))
    beta = gen.normal(0.0, 1.0, k) if beta is None else np.asarray(beta, dtype=np.float64)
    return x, (gen.random(n) < expit(x @ beta)).astype(np.float64), beta


@pytest.mark.parametrize("n, k, seeds, beta", [
    (5000, 5, range(50), None),
    (200_000, 10, range(3), None),
    (5000, 5, range(50, 60), [0.8, -0.5, 0.3, 0.0, -1.0]),
    # margins past +-709.78, where exp(-t) overflows
    (5000, 5, range(60, 65), [400.0, -300.0, 200.0, 0.0, -500.0]),
])
def test_synthetic_logistic_draws_y_as_expit_does(n, k, seeds, beta):
    for seed in seeds:
        data, beta_true = synthetic_logistic(n, k, seed=seed, beta=beta)
        x, y, b = expit_redraw(n, k, seed, beta)
        assert np.array_equal(data.x, x) and np.array_equal(beta_true, b)
        assert data.y.dtype == y.dtype and np.array_equal(data.y, y), seed
