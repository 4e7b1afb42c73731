"""Batch RNG: pre-generated deviate buffers vs per-call generation.

Buffers amortize generation into vectorized blocks while emitting the
exact same stream as one-at-a-time calls; the Gamma sampler consumes
the buffers, so an entire MCMC run is reproducible from its seeds.
"""

import numpy as np

from parmcmc import DeviateBuffer, GammaParams, gamma_sample
from parmcmc.rng import (BenchDist, BenchMode, BufferKind, OneAtATimeNormal,
                         rng_bench)

# identical streams no matter the buffer capacity (or none at all)
ref = DeviateBuffer(BufferKind.STD_NORMAL, capacity=4096, seed=8).take(1000)
tiny = DeviateBuffer(BufferKind.STD_NORMAL, capacity=3, seed=8).take(1000)
per_call = OneAtATimeNormal(seed=8)
oaat = np.array([per_call.next() for _ in range(1000)])
assert np.array_equal(ref, tiny) and np.array_equal(oaat, ref)
print("stream contract: capacity 3 == capacity 4096 == per-call, exactly\n")

print(f"{'dist':<9}{'mode':<7}{'cycles/sample':>14}{'waste':>8}")
for dist, n in ((BenchDist.UNIFORM, 2_000_000), (BenchDist.NORMAL, 500_000),
                (BenchDist.GAMMA, 30_000)):
    for mode in (BenchMode.ONE_AT_A_TIME, BenchMode.BATCH):
        r = rng_bench(dist, mode, n, seed=9)
        print(f"{r.dist:<9}{r.mode:<7}{r.cycles_per_sample:>14.1f}{r.waste_fraction:>8.3f}")

# a buffered sampler for a distribution that cannot be pre-generated
u = DeviateBuffer(BufferKind.UNIFORM01, seed=10, owner=(0,))
z = DeviateBuffer(BufferKind.STD_NORMAL, seed=10, owner=(1,))
g = np.array([gamma_sample(GammaParams(2.0, 3.0), u, z) for _ in range(200_000)])
print(f"\nGamma(2,3): mean {g.mean():.4f} (exact 2/3), var {g.var():.4f} (exact 2/9)")
print(f"base-deviate waste this run: {(u.waste_fraction + z.waste_fraction) / 2:.4%}")
