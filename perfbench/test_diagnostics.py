"""Checks of the ESS and split-R-hat helpers against series with known answers.

Run with: python3 -m pytest perfbench
"""

import numpy as np
import pytest

from diagnostics import bulk_ess, ess, split_rhat


def ar1(phi: float, n: int, chains: int, seed: int) -> np.ndarray:
    """Stationary AR(1) chains x_t = phi x_{t-1} + e_t, shaped (chains, n)."""
    gen = np.random.default_rng(seed)
    e = gen.standard_normal((chains, n))
    x = np.empty((chains, n))
    x[:, 0] = e[:, 0] / np.sqrt(1.0 - phi * phi)
    for t in range(1, n):
        x[:, t] = phi * x[:, t - 1] + e[:, t]
    return x


@pytest.mark.parametrize("phi", [0.0, 0.5, 0.9])
def test_ess_matches_ar1_closed_form(phi):
    chains, n = 4, 50_000
    x = ar1(phi, n, chains, seed=int(phi * 10))
    expected = chains * n * (1.0 - phi) / (1.0 + phi)
    assert ess(x) == pytest.approx(expected, rel=0.1)
    assert bulk_ess(x) == pytest.approx(expected, rel=0.1)


def test_single_chain_is_accepted():
    x = ar1(0.5, 40_000, 1, seed=3)[0]
    assert ess(x) == pytest.approx(40_000 / 3.0, rel=0.1)


def test_split_rhat_near_one_for_mixed_chains():
    assert split_rhat(ar1(0.5, 5_000, 4, seed=4)) < 1.01


def test_split_rhat_flags_disagreeing_chains():
    x = ar1(0.5, 5_000, 4, seed=5)
    x[0] += 1.0
    assert split_rhat(x) > 1.05


def test_split_rhat_flags_a_drifting_chain():
    x = ar1(0.5, 5_000, 1, seed=6)
    x[0] += np.linspace(0.0, 2.0, x.shape[1])
    assert split_rhat(x) > 1.05


def test_constant_draws_are_rejected():
    with pytest.raises(ValueError):
        ess(np.ones((2, 100)))
