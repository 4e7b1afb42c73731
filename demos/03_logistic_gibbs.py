"""Slice-within-Gibbs for Bayesian logistic regression.

A univariate slice sampler sweeps the coordinates of beta; every
conditional evaluation rides the differential-update fast path.  Draws are
a pure function of the seed.
"""

import numpy as np

from parmcmc import ChainConfig, GaussianPrior, run_chain, synthetic_logistic

beta_true = np.array([1.2, -0.7, 0.0, 0.5])
data, _ = synthetic_logistic(4000, 4, seed=3, beta=beta_true)
prior = GaussianPrior.isotropic(4, sigma=10.0)
cfg = ChainConfig(n_iter=3000, n_burnin=500, seed=11)

out = run_chain(data, prior, cfg)
mean = out.draws.mean(axis=0)
sd = out.draws.std(axis=0)

print(f"chain: {cfg.n_iter} iterations ({cfg.n_burnin} burn-in), "
      f"{out.accept_evals} conditional evaluations, {out.wall_time:.2f}s")
print(f"{'coord':>5}{'truth':>9}{'mean':>9}{'sd':>9}{'z':>7}")
for k in range(4):
    z = (mean[k] - beta_true[k]) / sd[k]
    print(f"{k:>5}{beta_true[k]:>9.3f}{mean[k]:>9.3f}{sd[k]:>9.3f}{z:>7.2f}")

# same seed, same draws; a debug re-run recomputes X.beta from scratch every
# 100 iterations, checks the maintained copy against it, and draws the same
again = run_chain(data, prior, cfg, debug=True)
assert np.array_equal(out.draws, again.draws)
print("\ndebug re-run: maintained X.beta validated, draws identical")
