"""Acceptance suite: one test per exit criterion, each printing a verdict line.

Run with `pytest tests/test_acceptance.py -v -s`.  Statistical checks use
frozen seeds; timing checks use conservative desk-scale bounds.
"""

import statistics
import time

import numpy as np

import parmcmc as pm
from parmcmc.glm import ExecPlan, GlmWorkspace, Strategy, loglike, loglike_grad, synthetic_logistic
from parmcmc.instrumentation import counters
from parmcmc.ising import IsingLattice, color_lattice, denoise, flip_noise, gibbs_sweep, synthetic_binary_image
from parmcmc.perf import REFERENCE_MACHINE, compute_min_cpr, memory_min_cpr, write_bench_csv
from parmcmc.rng import (BenchDist, BenchMode, BufferKind, DeviateBuffer, GammaParams,
                         gamma_sample, rng_bench)
from parmcmc.sampler import ChainConfig, GaussianPrior, log_posterior_coord, run_chain

from naive import enumerate_boltzmann, fd_gradient, full_recompute_loglike


def _report(num: int, name: str, ok: bool, detail: str = "") -> None:
    verdict = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[acceptance {num}] {name}: {verdict}{suffix}")
    assert ok, f"criterion {num} {name}: {detail}"


# ---------------------------------------------------------------------------
# 1. roofline reproduction
# ---------------------------------------------------------------------------

def test_criterion_1_roofline_reproduction():
    c = compute_min_cpr(REFERENCE_MACHINE, 64)
    m = memory_min_cpr(REFERENCE_MACHINE, 50)
    ok = abs(c - 1.000) < 5e-4 and abs(m - 10.35) <= 0.05
    _report(1, "roofline reproduction", ok, f"compute(64)={c:.6g} memory(50)={m:.6g}")


# ---------------------------------------------------------------------------
# 2. strategy oracle equivalence + finite differences
# ---------------------------------------------------------------------------

def _instance_sizes(n_instances=200, seed=1):
    gen = np.random.default_rng(seed)
    sizes = []
    for i in range(n_instances):
        if i % 14 == 13:  # every 14th instance is large
            sizes.append((int(gen.integers(20_000, 100_001)), int(gen.integers(41, 101))))
        else:
            sizes.append((int(gen.integers(16, 2_001)), int(gen.integers(1, 41))))
    return sizes


def test_criterion_2_strategy_oracle_equivalence():
    worst_strategy = 0.0
    worst_fd = 0.0
    fd_plan = ExecPlan(Strategy.PLF, workers=1)
    for idx, (n, k) in enumerate(_instance_sizes()):
        gen = np.random.default_rng(10_000 + idx)
        data, _ = synthetic_logistic(n, k, seed=20_000 + idx)
        beta = gen.normal(0.0, 1.0, k)
        ref_f = loglike(data, beta, fd_plan)
        ref = loglike_grad(data, beta, fd_plan)
        gscale = np.maximum(np.abs(ref.g), 1.0)
        for strategy in Strategy:
            for workers in (1, 2, 4):
                plan = ExecPlan(strategy, workers=workers, n_chunks=4)
                f = loglike(data, beta, plan)
                res = loglike_grad(data, beta, plan)
                worst_strategy = max(
                    worst_strategy,
                    abs(f - ref_f) / max(abs(ref_f), 1.0),
                    abs(res.f - ref_f) / max(abs(ref_f), 1.0),
                    float(np.max(np.abs(res.g - ref.g) / gscale)))
        coords = None if n * k <= 200_000 else list(
            np.random.default_rng(idx).choice(k, size=min(5, k), replace=False))
        fd = fd_gradient(lambda b: loglike(data, b, fd_plan), beta, coords=coords)
        for kk, est in fd.items():
            worst_fd = max(worst_fd, abs(ref.g[kk] - est) / max(abs(est), 1.0))
    ok = worst_strategy < 1e-8 and worst_fd < 1e-5
    _report(2, "strategy oracle equivalence",
            ok, f"max strategy rel err={worst_strategy:.3g}, max fd rel err={worst_fd:.3g}")


# ---------------------------------------------------------------------------
# 3. differential update: identical chains, >= 2x faster evaluation
# ---------------------------------------------------------------------------

def test_criterion_3_diff_update_correctness_and_benefit(monkeypatch):
    data, _ = synthetic_logistic(2000, 10, seed=300)
    prior = GaussianPrior.isotropic(10, sigma=5.0)
    cfg = ChainConfig(n_iter=200, n_burnin=50, seed=17)
    d = run_chain(data, prior, cfg)
    with monkeypatch.context() as m:
        m.setattr(pm.sampler, "diff_loglike", full_recompute_loglike)
        f = run_chain(data, prior, cfg)
    max_gap = float(np.max(np.abs(d.draws - f.draws)))

    big, _ = synthetic_logistic(200_000, 50, seed=301)
    prior50 = GaussianPrior.isotropic(50, sigma=5.0)
    beta0 = np.random.default_rng(302).normal(0.0, 0.3, 50)
    ws = GlmWorkspace(big, beta0)
    plan = ExecPlan(Strategy.PLF, workers=1)

    def timed() -> float:
        gen = np.random.default_rng(303)
        for _ in range(3):  # warm-up
            log_posterior_coord(ws, big, prior50, 7, 0.1, plan)
        times = []
        for _ in range(15):
            k = int(gen.integers(50))
            delta = float(gen.normal(0.0, 0.1))
            t0 = time.perf_counter()
            log_posterior_coord(ws, big, prior50, k, delta, plan)
            times.append(time.perf_counter() - t0)
        return statistics.median(times)

    with monkeypatch.context() as m:
        m.setattr(pm.sampler, "diff_loglike", full_recompute_loglike)
        t_full = timed()
    t_diff = timed()
    speedup = t_full / t_diff
    ok = max_gap <= 1e-6 and speedup >= 2.0
    _report(3, "differential update correctness and benefit", ok,
            f"max draw gap={max_gap:.3g}, eval speedup={speedup:.2f}x "
            f"(full {t_full * 1e3:.2f}ms vs diff {t_diff * 1e3:.2f}ms)")


# ---------------------------------------------------------------------------
# 4. Ising exactness on the 3x3 lattice
# ---------------------------------------------------------------------------

def test_criterion_4_ising_exactness():
    gen = np.random.default_rng(42)
    b = gen.uniform(-0.5, 0.5, size=(3, 3))
    w = 0.4
    lat = IsingLattice(gen.choice([-1, 1], size=(3, 3)).astype(np.int8), b, w)
    part = color_lattice(lat)
    buf = DeviateBuffer(BufferKind.UNIFORM01, seed=43)
    weights = (1 << np.arange(9)).astype(np.int64)
    counts = np.zeros(512, dtype=np.int64)
    sweeps = 1_000_000
    for _ in range(sweeps):
        gibbs_sweep(lat, part, buf)
        counts[int(((lat.s.ravel() > 0) * weights).sum())] += 1
    exact = np.zeros(512)
    for state, p in enumerate_boltzmann(b, w).items():
        exact[sum(1 << i for i, v in enumerate(state) if v > 0)] = p
    tv = 0.5 * float(np.abs(counts / sweeps - exact).sum())
    _report(4, "ising exactness (3x3 total variation)", tv < 0.05, f"tv={tv:.4f}")


# ---------------------------------------------------------------------------
# 5. denoising efficacy
# ---------------------------------------------------------------------------

def test_criterion_5_denoising_efficacy():
    img = synthetic_binary_image(128, 128)
    noisy = flip_noise(img, 0.10, seed=51)
    restored = denoise(noisy, w=1.0, bias_scale=2.0, sweeps=40, burnin=15, seed=52)
    in_err = float((noisy != img).mean())
    out_err = float((restored != img).mean())
    ok = out_err < in_err and out_err < 0.03
    _report(5, "denoising efficacy", ok, f"input err={in_err:.3f}, restored err={out_err:.4f}")


# ---------------------------------------------------------------------------
# 6. posterior recovery
# ---------------------------------------------------------------------------

def test_criterion_6_posterior_recovery():
    beta_true = np.array([0.8, -0.5, 0.3, 0.0, -1.0])
    data, _ = synthetic_logistic(5000, 5, seed=600, beta=beta_true)
    prior = GaussianPrior.isotropic(5, sigma=10.0)
    cfg = ChainConfig(n_iter=20_000, n_burnin=5_000, seed=601)
    out = run_chain(data, prior, cfg)
    mean = out.draws.mean(axis=0)
    sd = out.draws.std(axis=0)
    z = np.abs(mean - beta_true) / sd
    ok = bool(np.all(z < 3.0))
    _report(6, "posterior recovery", ok,
            "z=" + "/".join(f"{v:.2f}" for v in z) + f", evals={out.accept_evals}")


# ---------------------------------------------------------------------------
# 7. batch RNG
# ---------------------------------------------------------------------------

def test_criterion_7_batch_rng():
    invariant = True
    for kind, caps in ((BufferKind.UNIFORM01, (1, 500, 8192)),
                       (BufferKind.STD_NORMAL, (1, 7, 4096))):
        ref = DeviateBuffer(kind, capacity=1024, seed=70).take(10_000)
        for cap in caps:
            got = DeviateBuffer(kind, capacity=cap, seed=70).take(10_000)
            invariant = invariant and bool(np.array_equal(ref, got))

    u = DeviateBuffer(BufferKind.UNIFORM01, seed=71, owner=(0,))
    nb = DeviateBuffer(BufferKind.STD_NORMAL, seed=71, owner=(1,))
    params = GammaParams(2.0, 3.0)
    draws = np.fromiter((gamma_sample(params, u, nb) for _ in range(10_000_000)),
                        dtype=np.float64, count=10_000_000)
    mean_err = abs(draws.mean() - 2.0 / 3.0) / (2.0 / 3.0)
    var_err = abs(draws.var() - 2.0 / 9.0) / (2.0 / 9.0)

    su = (rng_bench(BenchDist.UNIFORM, BenchMode.ONE_AT_A_TIME, 1_000_000, seed=72).cycles_per_sample
          / rng_bench(BenchDist.UNIFORM, BenchMode.BATCH, 1_000_000, seed=72).cycles_per_sample)
    sn = (rng_bench(BenchDist.NORMAL, BenchMode.ONE_AT_A_TIME, 300_000, seed=73).cycles_per_sample
          / rng_bench(BenchDist.NORMAL, BenchMode.BATCH, 300_000, seed=73).cycles_per_sample)
    ok = invariant and mean_err < 0.01 and var_err < 0.01 and su > 1.5 and sn > 2.0
    _report(7, "batch RNG", ok,
            f"invariance={invariant}, gamma mean err={mean_err:.4%}, var err={var_err:.4%}, "
            f"uniform speedup={su:.1f}x, normal speedup={sn:.1f}x")


# ---------------------------------------------------------------------------
# 8. parallel-region accounting
# ---------------------------------------------------------------------------

def test_criterion_8_parallel_region_accounting():
    data, beta = synthetic_logistic(4096, 8, seed=800)
    checks = []
    for fn in (loglike, loglike_grad):
        for strategy, regions in ((Strategy.PLF, 1), (Strategy.PLF_CHUNKED, 1),
                                  (Strategy.SOM, 2)):
            counters.reset()
            fn(data, beta, ExecPlan(strategy, workers=4, n_chunks=4))
            snap = counters.snapshot()
            checks.append(snap.parallel_regions == regions)
            checks.append(snap.merge_events == 4)  # workers, not N
    ok = all(checks)
    _report(8, "parallel-region accounting", ok,
            "PLF=1 region, SOM=2 regions, merges=workers")


# ---------------------------------------------------------------------------
# 9. HB mapping
# ---------------------------------------------------------------------------

def test_criterion_9_hb_mapping(tmp_path):
    prior = GaussianPrior.isotropic(4)
    ds_small, _ = pm.synthetic_hb_dataset(6, 4, 500, seed=900)

    def draws(mode):
        state = pm.HbState(ds_small, prior, seed=901)
        out = None
        for _ in range(10):
            out = pm.hb_sweep(ds_small, state, prior, pm.MappingPolicy(mode, workers=1))
        return out

    coarse = draws(pm.MappingMode.COARSE)
    fine = draws(pm.MappingMode.FINE)
    identical = all(np.array_equal(a, b) for a, b in zip(coarse, fine))

    prior10 = GaussianPrior.isotropic(10)
    records = []
    for navg in (2_000, 20_000):
        ds, _ = pm.synthetic_hb_dataset(20, 10, navg, seed=902)
        policies = [pm.MappingPolicy(mode, workers=4, neval=ne)
                    for mode in (pm.MappingMode.COARSE, pm.MappingMode.FINE)
                    for ne in (1, 10)]
        records.extend(pm.hb_benchmark(ds, prior10, policies, n_sweeps=2, reps=2, seed=903))
    out_csv = tmp_path / "hb_grid.csv"
    write_bench_csv(records, out_csv)
    rows = [l for l in out_csv.read_text().splitlines()[1:] if l and not l.startswith("#")]
    complete = len(records) == 8 and len(rows) == 8
    finite = all(r.cpr > 0 and np.isfinite(r.cpr) for r in records)
    labels = {(r.label, r.n_rows) for r in records}
    grid_ok = all((f"hb/{m}/neval{ne}", 20 * navg) in labels
                  for m in ("coarse", "fine") for ne in (1, 10)
                  for navg in (2_000, 20_000))
    ok = identical and complete and finite and grid_ok
    _report(9, "HB mapping", ok,
            f"workers=1 coarse==fine: {identical}; grid records: {len(records)}/8 cells")
