"""Coarse vs fine worker mapping for hierarchical Bayesian regression.

With a fixed hyperprior, the M group coefficient vectors are conditionally
independent, so equal-size groups can be sampled as one SIMD block.
Coarse steps those blocks in lockstep on the calling thread, and its
workers only share out the extra `neval` likelihood passes across groups;
fine puts the workers inside each group's likelihood.  Which wins is a
cache-geometry question -- the grid below measures it instead of assuming.
"""

from parmcmc import (GaussianPrior, HbState, MappingMode, MappingPolicy,
                     hb_benchmark, hb_sweep, synthetic_hb_dataset)

M, K = 12, 10
prior = GaussianPrior.isotropic(K)

# draws never depend on the mapping: with one worker the two modes match bitwise
ds, _ = synthetic_hb_dataset(M, K, navg=400, seed=4)
coarse_state, fine_state = HbState(ds, prior, seed=7), HbState(ds, prior, seed=7)
for _ in range(5):
    bc = hb_sweep(ds, coarse_state, prior, MappingPolicy(MappingMode.COARSE, workers=1))
    bf = hb_sweep(ds, fine_state, prior, MappingPolicy(MappingMode.FINE, workers=1))
assert all((a == b).all() for a, b in zip(bc, bf))
print("workers=1: coarse and fine draw streams are bit-identical\n")

print(f"{'navg':>7}{'neval':>7}{'mode':>9}{'CPR/row':>10}{'wall(s)':>9}")
for navg in (1000, 8000):
    ds, _ = synthetic_hb_dataset(M, K, navg, seed=4)
    policies = [MappingPolicy(mode, workers=4, neval=ne)
                for ne in (1, 10) for mode in (MappingMode.COARSE, MappingMode.FINE)]
    for rec in hb_benchmark(ds, prior, policies, n_sweeps=2, reps=2, seed=7):
        mode = rec.label.split("/")[1]
        neval = rec.label.rsplit("neval", 1)[1]
        print(f"{navg:>7}{neval:>7}{mode:>9}{rec.cpr:>10.1f}{rec.wall_seconds:>9.3f}")

print("\n(no fixed winner asserted: the crossover tracks this machine's caches)")
