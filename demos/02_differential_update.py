"""The differential-update fast path.

A Gibbs sampler changes one coordinate of beta at a time.  Maintaining
X.beta turns each conditional evaluation from an O(N*K) matrix-vector
product into an O(N) column update -- the single biggest win for wide data.
"""

import statistics
import time

import numpy as np

from parmcmc import GlmWorkspace, commit_update, diff_loglike, loglike, synthetic_logistic
from parmcmc.instrumentation import counters

N, K = 200_000, 50
data, beta = synthetic_logistic(N, K, seed=1)
ws = GlmWorkspace(data, beta)   # builds X.beta; shares the DesignMatrix's feature-major X


def median_ms(fn, reps=15):
    fn()
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times) * 1e3


perturbed = beta.copy()
perturbed[7] += 0.25
t_full = median_ms(lambda: loglike(data, perturbed))
t_diff = median_ms(lambda: diff_loglike(ws, 7, 0.25))
print(f"full recompute : {t_full:7.2f} ms/eval")
print(f"diff update    : {t_diff:7.2f} ms/eval   ({t_full / t_diff:.1f}x faster)")

counters.reset()
loglike(data, perturbed)
full_flops = counters.snapshot().flops
counters.reset()
diff_loglike(ws, 7, 0.25)
diff_flops = counters.snapshot().flops
print(f"analytic flops : {full_flops / 1e6:.1f}M vs {diff_flops / 1e6:.1f}M "
      f"({full_flops / diff_flops:.0f}x fewer)")

# the two paths agree exactly, and commits keep the workspace quiescent
assert abs(diff_loglike(ws, 7, 0.25) - loglike(data, perturbed)) < 1e-8
gen = np.random.default_rng(2)
for _ in range(200):
    commit_update(ws, int(gen.integers(K)), float(gen.normal(0, 0.05)))
print(f"after 200 commits, max |X.beta drift| = {ws.validate():.2e}")
