import math
import tracemalloc

import numpy as np
import pytest

from parmcmc.glm import (_DIFF_MIN_ROWS, DesignMatrix, ExecPlan, GlmWorkspace, Strategy,
                         _coord_slope, _nll_sum, commit_update, diff_loglike, load_design_csv, loglike,
                         loglike_grad, synthetic_logistic)
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
    assert diff_loglike(ws, data, 2, 0.0) == pytest.approx(loglike(data, beta), rel=1e-12)


def test_diff_loglike_equals_full_recompute():
    data, beta = random_instance(200, 8, seed=6)
    ws = GlmWorkspace(data, beta)
    gen = np.random.default_rng(1)
    for _ in range(20):
        k = int(gen.integers(8))
        delta = float(gen.normal())
        perturbed = beta.copy()
        perturbed[k] += delta
        assert rel_err(diff_loglike(ws, data, k, delta),
                       loglike(data, perturbed)) < 1e-8


def test_diff_loglike_does_not_mutate():
    data, beta = random_instance(50, 3, seed=2)
    ws = GlmWorkspace(data, beta)
    before = ws.xbeta.copy()
    diff_loglike(ws, data, 1, 2.5)
    np.testing.assert_array_equal(ws.xbeta, before)
    np.testing.assert_array_equal(ws.beta_current, beta)


def test_diff_loglike_requires_transpose_and_valid_coord():
    data, beta = random_instance(10, 3, seed=2)
    ws = GlmWorkspace(data, beta)
    with pytest.raises(IndexError):
        diff_loglike(ws, data, 3, 0.1)
    with pytest.raises(IndexError):
        commit_update(ws, -1, 0.1)


def test_diff_loglike_below_the_row_floor_runs_as_one_block():
    # a worker would get fewer than _DIFF_MIN_ROWS rows: no fork, so any
    # worker count gives the one-worker bits from one merge
    data, beta = random_instance(2 * _DIFF_MIN_ROWS - 1, 3, seed=9)
    ws = GlmWorkspace(data, beta)
    ref = diff_loglike(ws, data, 1, 0.4)
    for workers in (2, 4):
        counters.reset()
        assert diff_loglike(ws, data, 1, 0.4, ExecPlan(workers=workers)) == ref
        assert counters.snapshot().merge_events == 1


def test_diff_loglike_forks_at_the_row_floor():
    # 2 * _DIFF_MIN_ROWS rows fill two workers, however many the plan offers
    data, beta = random_instance(2 * _DIFF_MIN_ROWS, 3, seed=10)
    ws = GlmWorkspace(data, beta)
    ref = diff_loglike(ws, data, 2, -0.3)
    for workers in (2, 4):
        counters.reset()
        assert rel_err(diff_loglike(ws, data, 2, -0.3, ExecPlan(workers=workers)), ref) < 1e-8
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
    diff_loglike(ws, data, 7, 0.3)
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
    diff_loglike(ws, data, 2, 0.3)
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
            diff_loglike(ws, data, k, delta)  # read-only interleaving
        else:
            commit_update(ws, k, delta)
    assert ws.validate(data, tol=1e-10) <= 1e-10


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


# ---------------------------------------------------------------------------
# validation and input formats
# ---------------------------------------------------------------------------

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
