"""Interchangeable execution strategies for one log-likelihood.

The same reduction runs as a sequence of maps (SOM), partial loop fusion
(PLF), cache-chunked PLF, and SHARDED (PLF under another name) -- same
value, different movement of data and workers.
"""

import statistics
import time

import numpy as np

from parmcmc import ExecPlan, Strategy, loglike, loglike_grad, perf, synthetic_logistic
from parmcmc.perf import compute_min_cpr, memory_min_cpr

N, K = 200_000, 50
EVALS = 5  # timed evaluations per cell; the median is printed
data, beta = synthetic_logistic(N, K, seed=0)

print(f"logistic log-likelihood, N={N}, K={K}")
print(f"roofline context: compute bound {compute_min_cpr(K):.2f} CPR, "
      f"memory bound {memory_min_cpr(K):.2f} CPR\n")

reference = loglike(data, beta)
print(f"{'strategy':<14}{'workers':>8}{'value':>18}{'ms/eval':>10}{'CPR*':>8}")
for strategy in Strategy:
    for workers in (1, 4):
        plan = ExecPlan(strategy, workers=workers,
                        n_chunks=8 if strategy is Strategy.PLF_CHUNKED else 1)
        loglike(data, beta, plan)  # warm-up
        walls = []
        for _ in range(EVALS):
            t0 = time.perf_counter()
            value = loglike(data, beta, plan)
            walls.append(time.perf_counter() - t0)
        wall = statistics.median(walls)
        cpr = perf.BenchRecord.from_wall(strategy.value, N, K, workers, plan.n_chunks,
                                         wall, 1).cpr
        drift = abs(value - reference) / abs(reference)
        assert drift < 1e-8
        print(f"{strategy.value:<14}{workers:>8}{value:>18.6f}{wall * 1e3:>10.2f}{cpr:>8.1f}")

print(f"\n(median of {EVALS} evaluations; *nominal {perf.REFERENCE_CLOCK_GHZ} GHz "
      "cycles per row; every strategy agrees to 1e-8 relative)")

g = loglike_grad(data, beta, ExecPlan(Strategy.PLF_CHUNKED, workers=4, n_chunks=16))
print(f"\ngradient under chunked PLF: f={g.f:.4f}, ||g||={np.linalg.norm(g.g):.4f}")
