import re

import numpy as np
import pytest
from scipy.special import expit

from parmcmc import sampler
from parmcmc.glm import DesignMatrix, ExecPlan, GlmWorkspace, loglike, synthetic_logistic
from parmcmc.rng import BufferKind, DeviateBuffer
from parmcmc.sampler import (ChainConfig, GaussianPrior, SliceShrinkError, SliceStats,
                             SliceWidenError, log_posterior_coord, run_chain, slice_moves,
                             slice_sample_coord, write_draws_csv)

from naive import full_recompute_loglike, naive_loglike, no_hull_slice_moves


def small_problem(n=120, k=4, seed=0):
    data, beta_true = synthetic_logistic(n, k, seed=seed)
    prior = GaussianPrior.isotropic(k, sigma=5.0)
    return data, beta_true, prior


# ---------------------------------------------------------------------------
# conditional posterior
# ---------------------------------------------------------------------------

def test_log_posterior_matches_full_recompute_oracle():
    data, beta, prior = small_problem(seed=3)
    ws = GlmWorkspace(data, beta)
    gen = np.random.default_rng(0)
    for _ in range(15):
        k = int(gen.integers(data.n_cols))
        delta = float(gen.normal())
        got = log_posterior_coord(ws, prior, k, delta)
        value = beta[k] + delta
        expected = (naive_loglike(data.x, data.y, np.r_[beta[:k], value, beta[k + 1:]])
                    - 0.5 * ((value - prior.mu[k]) / prior.sigma[k]) ** 2)
        assert abs(got - expected) / max(abs(expected), 1.0) < 1e-8


def test_log_posterior_flat_prior_is_nearly_loglike():
    data, beta, _ = small_problem(seed=4)
    flat = GaussianPrior.isotropic(data.n_cols, sigma=1e6)
    ws = GlmWorkspace(data, beta)
    lp = log_posterior_coord(ws, flat, 0, 0.0)
    ll = loglike(data, beta)
    assert abs(lp - ll) < 1e-9


def test_empty_likelihood_is_rejected_at_construction():
    with pytest.raises(ValueError):
        DesignMatrix(np.empty((0, 1)), np.empty(0))


def test_diff_and_full_paths_agree(monkeypatch):
    data, beta, prior = small_problem(seed=5)
    ws = GlmWorkspace(data, beta)
    diff = [log_posterior_coord(ws, prior, k, 0.3) for k in range(data.n_cols)]
    monkeypatch.setattr(sampler, "diff_loglike", full_recompute_loglike)
    for k, a in enumerate(diff):
        b = log_posterior_coord(ws, prior, k, 0.3)
        assert abs(a - b) / max(abs(a), 1.0) < 1e-12


# ---------------------------------------------------------------------------
# slice sampler
# ---------------------------------------------------------------------------

def _unit_gaussian_target():
    # one row with x = 0 makes the likelihood constant; the N(0,1) prior is
    # then the exact conditional target of the single coordinate
    data = DesignMatrix([[0.0]], [1.0])
    prior = GaussianPrior.isotropic(1, sigma=1.0)
    return data, prior


def test_slice_sampler_standard_normal_statistics():
    data, prior = _unit_gaussian_target()
    cfg = ChainConfig(n_iter=100_000, n_burnin=0, seed=123)
    out = run_chain(data, prior, cfg)
    draws = out.draws[:, 0]
    assert abs(draws.mean()) < 0.05
    assert 0.9 < draws.var() < 1.1
    # invariant-target surrogate: empirical quantiles sit on the exact ones
    from scipy.stats import norm
    for q in (0.1, 0.25, 0.5, 0.75, 0.9):
        assert abs(np.quantile(draws, q) - norm.ppf(q)) < 0.05


def test_logistic_marginal_quantiles_match_reference_chain():
    # two independent long chains must agree on posterior marginal quantiles
    data, _, prior = small_problem(n=600, k=3, seed=21)
    qs = (0.1, 0.5, 0.9)
    quantiles = []
    for seed in (401, 402):
        out = run_chain(data, prior, ChainConfig(n_iter=4000, n_burnin=500, seed=seed))
        quantiles.append(np.quantile(out.draws, qs, axis=0))
    spread = np.max(np.abs(quantiles[0] - quantiles[1]))
    posterior_sd = np.std(np.vstack(quantiles))
    assert spread < 0.15 * max(posterior_sd, 1.0) + 0.03


def test_slice_sampler_determinism():
    data, _, prior = small_problem(seed=6)
    cfg = ChainConfig(n_iter=60, n_burnin=10, seed=77)
    a = run_chain(data, prior, cfg)
    b = run_chain(data, prior, cfg)
    assert np.array_equal(a.draws, b.draws)
    assert a.accept_evals == b.accept_evals


def test_slice_sampler_narrow_target_stays_near_mode():
    # near-Dirac prior pins the draw to the mode within one slice width
    data = DesignMatrix([[0.0]], [1.0])
    prior = GaussianPrior(np.array([2.0]), np.array([1e-8]))
    cfg = ChainConfig(n_iter=20, n_burnin=0, seed=5, slice_width=0.5)
    out = run_chain(data, prior, cfg)
    assert np.max(np.abs(out.draws - 2.0)) < 0.5


def test_stepping_out_abort_on_pathological_target():
    data, prior = _unit_gaussian_target()
    wide = GaussianPrior.isotropic(1, sigma=1e9)
    ws = GlmWorkspace(data, wide.mu)
    buf = DeviateBuffer(BufferKind.UNIFORM01, seed=1)
    cfg = ChainConfig(n_iter=1, n_burnin=0, slice_width=1.0, slice_max_steps=5)
    with pytest.raises(SliceWidenError):
        slice_sample_coord(ws, wide, 0, buf, cfg)
    assert prior is not wide


def test_failed_shrinkage_raises_a_typed_error():
    # only x0 lies on the slice; a slice this wide cannot shrink to the
    # degenerate width within _MAX_SHRINK tries, so shrinkage gives up
    buf = DeviateBuffer(BufferKind.UNIFORM01, seed=4)
    cfg = ChainConfig(n_iter=1, n_burnin=0, slice_width=1e300)
    moves = slice_moves(0.0, 2, buf, cfg, slope0=0.0)
    assert next(moves) == 0.0
    sent = 0
    with pytest.raises(SliceShrinkError, match="coordinate 2"):
        moves.send(0.0)
        while True:
            moves.send(-np.inf)
            sent += 1
    assert sent == 2 + sampler._MAX_SHRINK - 1  # both ends, then every shrink try
    assert issubclass(SliceShrinkError, RuntimeError)


def _quadratic(a, m):
    return lambda x: -0.5 * a * (x - m) ** 2, lambda x: -a * (x - m)


def _truncated_quadratic(lo, hi):
    # log of a Gaussian cut to [lo, hi]: concave, -inf outside
    f, slope = _quadratic(1.0, 0.4)
    return (lambda x: f(x) if lo <= x <= hi else -np.inf), slope


def _logistic_1d(seed):
    # one coefficient of a logistic regression under a N(0.2, 3^2) prior
    gen = np.random.default_rng(seed)
    z = gen.standard_normal(200) * 2.0
    y = (gen.random(200) < expit(0.7 * z)).astype(float)

    def f(x):
        t = x * z
        return -float(np.sum((1.0 - y) * t + np.logaddexp(0.0, -t))) - 0.5 * ((x - 0.2) / 3.0) ** 2

    def slope(x):
        return float(np.dot(z, y - expit(x * z))) - (x - 0.2) / 9.0

    return f, slope


@pytest.mark.parametrize("target, width", [
    (_quadratic(1.0, 0.3), 1.0), (_quadratic(400.0, -2.0), 1.0), (_quadratic(0.04, 5.0), 1.0),
    (_truncated_quadratic(-0.5, 1.2), 1.0), (_logistic_1d(3), 0.5)],
    ids=["unit", "narrow", "wide", "truncated", "logistic"])
def test_hull_decisions_equal_the_exact_comparison(monkeypatch, target, width):
    # every test the hull decides must come out as comparing the value the
    # target would have been sent; the draws and the stream are then the
    # no-hull oracle's, with fewer values sent
    f, slope = target
    cfg = ChainConfig(n_iter=1, n_burnin=0, slice_width=width)
    decided = []
    decide = sampler._Hull.decide

    def spy(hull, p):
        verdict = decide(hull, p)
        if verdict is not None:
            decided.append((p, hull.level, verdict))
        return verdict

    monkeypatch.setattr(sampler._Hull, "decide", spy)
    runs = []
    for moves_fn in (slice_moves, no_hull_slice_moves):
        buf = DeviateBuffer(BufferKind.UNIFORM01, seed=17)
        x, draws, sent = 0.1, [], 0
        for _ in range(2000):
            moves = moves_fn(x, 0, buf, cfg, slope(x))
            p = next(moves)
            try:
                while True:
                    sent += 1
                    p = moves.send(f(p))
            except StopIteration as done:
                x = done.value
            draws.append(x)
        runs.append((draws, buf.consumed, sent))
    (draws, used, sent), (oracle, oracle_used, oracle_sent) = runs
    assert all((f(p) > level) == verdict for p, level, verdict in decided)
    assert len(decided) == oracle_sent - sent > 0.1 * oracle_sent
    assert draws == oracle and used == oracle_used


def test_hull_leaves_a_near_tie_to_the_evaluation():
    # a concave f with a kink at x0 = 0 (slope -0.5 left of it, -1 right):
    # f(2) is computed 2 ulps high, so the chord at 1 clears the level by
    # less than rounding while f(1), computed as -1.0, does not clear it
    level = np.nextafter(-1.0, 0.0)
    fb = np.nextafter(np.nextafter(-2.0, 0.0), 0.0)
    hull = sampler._Hull(0.0, 0.0, -0.5, level)
    hull.add(2.0, fb)
    assert fb / 2.0 > level and not -1.0 > level
    assert hull.decide(1.0) is None
    hull.add(3.0, -np.inf)
    hull.add(-1.0, np.nan)
    assert hull.xs == [0.0, 2.0]  # -inf and NaN add no knot


def test_eval_counter_accumulates():
    data, _, prior = small_problem(seed=7)
    ws = GlmWorkspace(data, prior.mu)
    buf = DeviateBuffer(BufferKind.UNIFORM01, seed=3)
    cfg = ChainConfig(n_iter=1, n_burnin=0)
    stats = SliceStats()
    slice_sample_coord(ws, prior, 0, buf, cfg, stats=stats)
    assert stats.evals >= 3  # f0, level checks, acceptance


# ---------------------------------------------------------------------------
# chains
# ---------------------------------------------------------------------------

def test_chain_stores_expected_draw_count():
    data, _, prior = small_problem()
    out = run_chain(data, prior, ChainConfig(n_iter=11, n_burnin=10, seed=1))
    assert out.draws.shape == (1, data.n_cols)
    assert out.accept_evals > 0 and out.wall_time >= 0


def test_chain_diff_vs_full_recompute_identical(monkeypatch):
    data, _, prior = small_problem(n=400, k=5, seed=8)
    cfg = ChainConfig(n_iter=150, n_burnin=50, seed=31)
    d = run_chain(data, prior, cfg)
    monkeypatch.setattr(sampler, "diff_loglike", full_recompute_loglike)
    f = run_chain(data, prior, cfg)
    assert np.max(np.abs(d.draws - f.draws)) <= 1e-6


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("n, k, sigma, seed", [(400, 5, 5.0, 8), (2000, 3, 10.0, 11)])
def test_chain_matches_no_hull_oracle(monkeypatch, n, k, sigma, seed, workers):
    data, _ = synthetic_logistic(n, k, seed=seed)
    prior = GaussianPrior.isotropic(k, sigma=sigma)
    cfg = ChainConfig(n_iter=120, n_burnin=20, seed=seed)
    runs = []
    for moves_fn in (slice_moves, no_hull_slice_moves):
        monkeypatch.setattr(sampler, "slice_moves", moves_fn)
        rng = DeviateBuffer(BufferKind.UNIFORM01, seed=seed)
        runs.append((run_chain(data, prior, cfg, workers, rng=rng),
                     rng.consumed))
    (hull, used), (oracle, oracle_used) = runs
    assert np.array_equal(hull.draws, oracle.draws)
    assert used == oracle_used
    assert hull.accept_evals < 0.75 * oracle.accept_evals


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("n, k, sigma, seed", [(400, 5, 5.0, 8), (2000, 3, 10.0, 11)])
def test_chain_matches_forced_miss_oracle(monkeypatch, n, k, sigma, seed, workers):
    # with nothing ever stored, every draw evaluates its x0 afresh; answering
    # x0 from the stored L instead changes no draw and no deviate
    data, _ = synthetic_logistic(n, k, seed=seed)
    prior = GaussianPrior.isotropic(k, sigma=sigma)
    cfg = ChainConfig(n_iter=120, n_burnin=20, seed=seed)
    runs = []
    for store in (GlmWorkspace.store_loglike, lambda ws, value, blocks: None):
        monkeypatch.setattr(GlmWorkspace, "store_loglike", store)
        rng = DeviateBuffer(BufferKind.UNIFORM01, seed=seed)
        runs.append((run_chain(data, prior, cfg, workers, rng=rng),
                     rng.consumed))
    (stored, used), (oracle, oracle_used) = runs
    assert np.array_equal(stored.draws, oracle.draws)
    assert used == oracle_used
    assert oracle.reused == 0 < stored.reused
    assert stored.accept_evals + stored.reused == oracle.accept_evals
    assert stored.accept_evals <= 0.9 * oracle.accept_evals


def test_a_draw_that_keeps_x0_keeps_the_stored_loglike(monkeypatch):
    def stay(x0, k, rng, cfg, slope0):
        yield x0
        return x0

    data, _, prior = small_problem(seed=7)
    ws = GlmWorkspace(data, prior.mu)
    buf = DeviateBuffer(BufferKind.UNIFORM01, seed=3)
    monkeypatch.setattr(sampler, "slice_moves", stay)
    stats = SliceStats()
    for k in (0, 1, 0):
        slice_sample_coord(ws, prior, k, buf, ChainConfig(n_iter=1, n_burnin=0),
                           stats=stats)
        assert ws.stored_loglike(1) == sampler.diff_loglike(ws, 0, 0.0)
    assert (stats.evals, stats.reused) == (1, 2)


def test_chain_draws_independent_of_plan():
    data, _, prior = small_problem(n=300, k=4, seed=9)
    cfg = ChainConfig(n_iter=80, n_burnin=20, seed=13)
    ref = run_chain(data, prior, cfg, workers=1)
    for workers in (2, 3, 4):
        other = run_chain(data, prior, cfg, workers)
        assert np.max(np.abs(other.draws - ref.draws)) <= 1e-6, workers


def test_chain_refuses_an_exec_plan():
    # a one-column update has no strategy or chunks to choose; only a worker count
    data, _, prior = small_problem(n=50, k=2)
    with pytest.raises(TypeError):
        run_chain(data, prior, ChainConfig(n_iter=2, n_burnin=0), ExecPlan(workers=2))


def test_zero_workers_is_rejected():
    data, _, prior = small_problem(n=50, k=2)
    msg = "workers must be >= 1, got 0"
    with pytest.raises(ValueError, match=msg):
        run_chain(data, prior, ChainConfig(n_iter=2, n_burnin=0), workers=0)
    ws = GlmWorkspace(data, prior.mu)
    buf = DeviateBuffer(BufferKind.UNIFORM01, seed=1)
    with pytest.raises(ValueError, match=msg):
        slice_sample_coord(ws, prior, 0, buf, ChainConfig(n_iter=1, n_burnin=0), workers=0)
    assert buf.consumed == 0 and ws.stored_loglike(1) is None


def test_samplers_refuse_a_normal_buffer():
    # every deviate is read as a uniform, so a normal buffer must raise before any is read
    data, _, prior = small_problem(n=50, k=2)
    cfg = ChainConfig(n_iter=2, n_burnin=0)
    ws = GlmWorkspace(data, prior.mu)
    buf = DeviateBuffer(BufferKind.STD_NORMAL, seed=1)
    with pytest.raises(TypeError, match="rng must be a UNIFORM01 buffer"):
        slice_sample_coord(ws, prior, 0, buf, cfg)
    with pytest.raises(TypeError, match="rng must be a UNIFORM01 buffer"):
        run_chain(data, prior, cfg, rng=buf)
    assert buf.generated == buf.consumed == 0
    np.testing.assert_array_equal(ws.beta_current, prior.mu)



def test_samplers_refuse_a_source_that_is_no_uniform_buffer(refused_source):
    # a per-call source or a numpy Generator has no buffer kind to check, so
    # it must raise TypeError, not AttributeError, before any deviate is read
    src, untouched = refused_source
    data, _, prior = small_problem(n=50, k=2)
    cfg = ChainConfig(n_iter=2, n_burnin=0)
    ws = GlmWorkspace(data, prior.mu)
    with pytest.raises(TypeError, match="rng must be a UNIFORM01 buffer"):
        slice_sample_coord(ws, prior, 0, src, cfg)
    with pytest.raises(TypeError, match="rng must be a UNIFORM01 buffer"):
        run_chain(data, prior, cfg, rng=src)
    assert untouched()
    np.testing.assert_array_equal(ws.beta_current, prior.mu)

def test_chain_debug_mode_validates_workspace():
    data, _, prior = small_problem(n=150, k=3, seed=10)
    out = run_chain(data, prior, ChainConfig(n_iter=120, n_burnin=0, seed=2), debug=True)
    assert out.draws.shape[0] == 120


def test_chain_debug_mode_checks_the_slope(monkeypatch):
    data, _, prior = small_problem(n=150, k=3, seed=10)
    coord_slope = sampler._coord_slope
    monkeypatch.setattr(sampler, "_coord_slope", lambda *args: coord_slope(*args) * (1 + 1e-6))
    cfg = ChainConfig(n_iter=100, n_burnin=0, seed=2)
    run_chain(data, prior, cfg)  # a wrong slope goes unnoticed without debug
    with pytest.raises(AssertionError, match="slope of coordinate"):
        run_chain(data, prior, cfg, debug=True)


def test_chain_debug_mode_checks_the_stored_loglike(monkeypatch):
    data, _, prior = small_problem(n=150, k=3, seed=10)
    store = GlmWorkspace.store_loglike
    monkeypatch.setattr(GlmWorkspace, "store_loglike",
                        lambda ws, value, blocks: store(ws, value * (1 + 1e-6), blocks))
    cfg = ChainConfig(n_iter=100, n_burnin=0, seed=2)
    run_chain(data, prior, cfg)  # a wrong stored value goes unnoticed without debug
    with pytest.raises(AssertionError, match="stored L at beta_current"):
        run_chain(data, prior, cfg, debug=True)


def test_chain_posterior_recovery_moderate():
    data, beta_true, _ = small_problem(n=2500, k=3, seed=11)
    prior = GaussianPrior.isotropic(3, sigma=10.0)
    out = run_chain(data, prior, ChainConfig(n_iter=800, n_burnin=200, seed=3))
    mean = out.draws.mean(axis=0)
    sd = out.draws.std(axis=0)
    assert np.all(np.abs(mean - beta_true) < 4 * sd + 0.1)


def test_config_validation():
    for bad, message in (
            (dict(n_iter=0, n_burnin=0), "n_iter must be >= 1, got 0"),
            (dict(n_iter=5, n_burnin=5), "need 0 <= n_burnin < n_iter, got n_burnin=5, n_iter=5"),
            (dict(n_iter=5, n_burnin=-1), "need 0 <= n_burnin < n_iter, got n_burnin=-1, n_iter=5"),
            (dict(n_iter=5, n_burnin=0, slice_width=0.0), "slice_width must be finite and > 0, got 0.0"),
            (dict(n_iter=5, n_burnin=0, slice_width=np.inf), "slice_width must be finite and > 0, got inf"),
            (dict(n_iter=5, n_burnin=0, slice_max_steps=0), "slice_max_steps must be >= 1, got 0")):
        with pytest.raises(ValueError, match=re.escape(message)):
            ChainConfig(**bad)
    with pytest.raises(ValueError):
        GaussianPrior(np.zeros(2), np.array([1.0, 0.0]))


def test_prior_rejects_non_finite_mu_and_sigma():
    # an infinite sigma would silently run a flat, improper prior
    for name, bad in (("mu", np.inf), ("mu", np.nan), ("sigma", np.inf), ("sigma", np.nan)):
        fields = {"mu": np.zeros(2), "sigma": np.ones(2)}
        fields[name][1] = bad
        with pytest.raises(ValueError, match=f"prior {name} must be finite, got {bad}"):
            GaussianPrior(**fields)
    GaussianPrior.isotropic(2, sigma=1e9)


def test_prior_dimension_checked():
    data, _, _ = small_problem(k=4)
    with pytest.raises(ValueError):
        run_chain(data, GaussianPrior.isotropic(3), ChainConfig(n_iter=2, n_burnin=0))


def test_write_draws_csv(tmp_path):
    data, _, prior = small_problem(k=3)
    out = run_chain(data, prior, ChainConfig(n_iter=12, n_burnin=2, seed=4))
    path = tmp_path / "draws.csv"
    write_draws_csv(out, path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "0,1,2"
    assert len(lines) == 11
    back = np.loadtxt(path, delimiter=",", skiprows=1)
    np.testing.assert_allclose(back, out.draws)
