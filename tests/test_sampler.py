import numpy as np
import pytest

from parmcmc import sampler
from parmcmc.glm import DesignMatrix, ExecPlan, GlmWorkspace, Strategy, loglike, synthetic_logistic
from parmcmc.rng import BufferKind, DeviateBuffer
from parmcmc.sampler import (ChainConfig, GaussianPrior, SliceStats, SliceWidenError,
                             log_posterior_coord, run_chain, slice_sample_coord,
                             write_draws_csv)

from naive import full_recompute_loglike, naive_loglike


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
        got = log_posterior_coord(ws, data, prior, k, delta)
        value = beta[k] + delta
        expected = (naive_loglike(data.x, data.y, np.r_[beta[:k], value, beta[k + 1:]])
                    - 0.5 * ((value - prior.mu[k]) / prior.sigma[k]) ** 2)
        assert abs(got - expected) / max(abs(expected), 1.0) < 1e-8


def test_log_posterior_flat_prior_is_nearly_loglike():
    data, beta, _ = small_problem(seed=4)
    flat = GaussianPrior.isotropic(data.n_cols, sigma=1e6)
    ws = GlmWorkspace(data, beta)
    lp = log_posterior_coord(ws, data, flat, 0, 0.0)
    ll = loglike(data, beta)
    assert abs(lp - ll) < 1e-9


def test_empty_likelihood_is_rejected_at_construction():
    with pytest.raises(ValueError):
        DesignMatrix(np.empty((0, 1)), np.empty(0))


def test_diff_and_full_paths_agree(monkeypatch):
    data, beta, prior = small_problem(seed=5)
    ws = GlmWorkspace(data, beta)
    diff = [log_posterior_coord(ws, data, prior, k, 0.3) for k in range(data.n_cols)]
    monkeypatch.setattr(sampler, "diff_loglike", full_recompute_loglike)
    for k, a in enumerate(diff):
        b = log_posterior_coord(ws, data, prior, k, 0.3)
        assert abs(a - b) / max(abs(a), 1.0) < 1e-12


# ---------------------------------------------------------------------------
# slice sampler
# ---------------------------------------------------------------------------

def _unit_gaussian_target():
    # one row with x = 0 makes the likelihood constant; the N(0,1) prior is
    # then the exact conditional target of the single coordinate
    data = DesignMatrix([[0.0]], [1.0])
    prior = GaussianPrior.isotropic(1, mu=0.0, sigma=1.0)
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
        slice_sample_coord(ws, data, wide, 0, buf, cfg)
    assert prior is not wide


def test_eval_counter_accumulates():
    data, _, prior = small_problem(seed=7)
    ws = GlmWorkspace(data, prior.mu)
    buf = DeviateBuffer(BufferKind.UNIFORM01, seed=3)
    cfg = ChainConfig(n_iter=1, n_burnin=0)
    stats = SliceStats()
    slice_sample_coord(ws, data, prior, 0, buf, cfg, stats=stats)
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


def test_chain_draws_independent_of_plan():
    data, _, prior = small_problem(n=300, k=4, seed=9)
    cfg = ChainConfig(n_iter=80, n_burnin=20, seed=13)
    ref = run_chain(data, prior, cfg, ExecPlan(Strategy.PLF, workers=1))
    for plan in (ExecPlan(Strategy.PLF, workers=4),
                 ExecPlan(Strategy.SOM, workers=2),
                 ExecPlan(Strategy.PLF_CHUNKED, workers=2, n_chunks=3)):
        other = run_chain(data, prior, cfg, plan)
        assert np.max(np.abs(other.draws - ref.draws)) <= 1e-6, plan


def test_chain_debug_mode_validates_workspace():
    data, _, prior = small_problem(n=150, k=3, seed=10)
    out = run_chain(data, prior, ChainConfig(n_iter=120, n_burnin=0, seed=2), debug=True)
    assert out.draws.shape[0] == 120


def test_chain_posterior_recovery_moderate():
    data, beta_true, _ = small_problem(n=2500, k=3, seed=11)
    prior = GaussianPrior.isotropic(3, sigma=10.0)
    out = run_chain(data, prior, ChainConfig(n_iter=800, n_burnin=200, seed=3))
    mean = out.draws.mean(axis=0)
    sd = out.draws.std(axis=0)
    assert np.all(np.abs(mean - beta_true) < 4 * sd + 0.1)


def test_config_validation():
    for bad in (dict(n_iter=0, n_burnin=0), dict(n_iter=5, n_burnin=5),
                dict(n_iter=5, n_burnin=0, slice_width=0.0),
                dict(n_iter=5, n_burnin=0, slice_max_steps=0)):
        with pytest.raises(ValueError):
            ChainConfig(**bad)
    with pytest.raises(ValueError):
        GaussianPrior(np.zeros(2), np.array([1.0, 0.0]))


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
