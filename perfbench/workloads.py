"""The four benchmark workloads, driven through parmcmc's public API.

A workload builds its inputs and library state from a seed (`build`), then
runs units of work (`unit`) until the run's time is spent.  Every unit
checks its own outputs; `pooled_gates` checks what needs all units (the
chain's posterior recovery and R-hat).  `headline` turns the units into the
workload's end-to-end numbers.

Operations, the things counted as attempted and failed: coordinate draws
(logit-chain), sweeps (hb-sweep, ising-denoise) and kernel evaluations
(glm-kernels).  An operation fails when it raises or when a gate covering
it fails.
"""

from __future__ import annotations

import statistics
import time
from contextlib import nullcontext
from dataclasses import dataclass, field

import numpy as np

from parmcmc import glm, hb, ising, perf, sampler
from parmcmc.glm import ExecPlan, Strategy
from parmcmc.hb import MappingMode, MappingPolicy

from diagnostics import bulk_ess, split_rhat


def derive_seed(seed: int, *parts: int) -> int:
    return int(np.random.SeedSequence([seed, *parts]).generate_state(1)[0])


@dataclass
class Unit:
    """One unit of work: its wall time, operation counts and outputs."""

    traced: bool
    wall: float = 0.0
    attempted: int = 0
    failed: int = 0
    errors: list[str] = field(default_factory=list)
    info: dict = field(default_factory=dict)

    def fail(self, n_ops: int, message: str) -> None:
        self.failed = min(self.attempted, self.failed + n_ops)
        self.errors.append(message)


# ---------------------------------------------------------------------------
# logit-chain
# ---------------------------------------------------------------------------

def _logistic_mle(x: np.ndarray, y: np.ndarray):
    """Maximum-likelihood beta and its standard errors, by Newton's method."""
    beta = np.zeros(x.shape[1])
    for _ in range(50):
        p = 1.0 / (1.0 + np.exp(-(x @ beta)))
        hess = (x * (p * (1.0 - p))[:, None]).T @ x
        step = np.linalg.solve(hess, x.T @ (y - p))
        beta += step
        if np.max(np.abs(step)) < 1e-12:
            break
    return beta, np.sqrt(np.diag(np.linalg.inv(hess)))


class LogitChain:
    """Slice-within-Gibbs chains on a 5000 x 5 synthetic logistic regression."""

    name = "logit-chain"
    op = "coordinate draw"
    n_rows, n_cols = 5000, 5
    beta_true = np.array([0.8, -0.5, 0.3, 0.0, -1.0])
    prior_sigma = 10.0
    n_iter, n_burnin = 1000, 100
    # A posterior mean sits more than 3 sd from beta_true on about 1.3% of
    # datasets whatever the sampler does.  Datasets whose maximum-likelihood
    # estimate (computed here, not by the library) is over SCREEN_Z sd from
    # beta_true are redrawn, so the 3-sd gate can only fail on the sampler.
    SCREEN_Z = 2.5
    Z_GATE, RHAT_GATE = 3.0, 1.05

    def build(self, seed: int):
        for attempt in range(100):
            data, _ = glm.synthetic_logistic(self.n_rows, self.n_cols,
                                             seed=derive_seed(seed, 0, attempt),
                                             beta=self.beta_true)
            mle, se = _logistic_mle(data.x, data.y)
            if np.max(np.abs(mle - self.beta_true) / se) < self.SCREEN_Z:
                break
        prior = sampler.GaussianPrior.isotropic(self.n_cols, sigma=self.prior_sigma)
        ws = glm.GlmWorkspace(data, prior.mu)
        sampler.run_chain(data, prior, sampler.ChainConfig(3, 1, seed=derive_seed(seed, 2)))
        return {"seed": seed, "data": data, "prior": prior,
                "working_set_bytes": data.x.nbytes + data.y.nbytes + ws.xt.nbytes
                + ws.xbeta.nbytes}

    def unit(self, st, index: int, tracer) -> Unit:
        u = Unit(traced=tracer is not None, attempted=self.n_iter * self.n_cols)
        cfg = sampler.ChainConfig(self.n_iter, self.n_burnin, seed=derive_seed(st["seed"], 1, index))
        t0 = time.perf_counter()
        try:
            out = sampler.run_chain(st["data"], st["prior"], cfg)
        except Exception as exc:  # counted as failed draws, reported, never hidden
            u.wall = time.perf_counter() - t0
            u.fail(u.attempted, f"{type(exc).__name__}: {exc}")
            return u
        u.wall = time.perf_counter() - t0
        if not np.isfinite(out.draws).all():
            u.fail(u.attempted, "non-finite draws")
        u.info = {"draws": out.draws, "evals": out.accept_evals}
        return u

    def chain_stats(self, units) -> dict:
        """Posterior and mixing figures over the retained draws of every good chain."""
        ok = [u for u in units if not u.failed]
        if not ok:
            return {}
        draws = np.stack([u.info["draws"] for u in ok])          # (chains, kept, K)
        flat = draws.reshape(-1, self.n_cols)
        ess_min = min(bulk_ess(draws[:, :, k]) for k in range(self.n_cols))
        # a median chain time is robust to a chain slowed by the machine
        chain_s = statistics.median([u.wall for u in ok])
        return {
            "z_max": float(np.max(np.abs(flat.mean(axis=0) - self.beta_true) / flat.std(axis=0))),
            "split_rhat_max": max(split_rhat(draws[:, :, k]) for k in range(self.n_cols)),
            "ess_per_s": ess_min / (len(ok) * chain_s),
            "draws_per_s": self.n_iter / chain_s,
            "ess_per_draw": ess_min / flat.shape[0],
            "evals_per_draw": sum(u.info["evals"] for u in ok) / sum(u.attempted for u in ok),
        }

    def pooled_gates(self, units) -> dict:
        s = self.chain_stats(units)
        if not s:
            return {}
        gates = {
            "posterior_z_max": (s["z_max"], s["z_max"] < self.Z_GATE, f"< {self.Z_GATE}"),
            "split_rhat_max": (s["split_rhat_max"], s["split_rhat_max"] < self.RHAT_GATE,
                               f"< {self.RHAT_GATE}"),
        }
        if not all(g[1] for g in gates.values()):
            for u in units:
                u.fail(u.attempted, "pooled posterior gate failed")
        return gates

    def layer_figures(self, units, spans) -> dict:
        s = self.chain_stats(units)
        return {"sampler.evals_per_draw": s["evals_per_draw"],
                "sampler.ess_per_draw": s["ess_per_draw"],
                "sampler.split_rhat_max": s["split_rhat_max"]} if s else {}

    def headline(self, units) -> dict:
        s = self.chain_stats(units)
        return {"primary_per_s": s["ess_per_s"], "secondary_per_s": s["draws_per_s"],
                "named": {"ess_per_s": (s["ess_per_s"], "1/s"),
                          "draws_per_s": (s["draws_per_s"], "1/s")}}


# ---------------------------------------------------------------------------
# hb-sweep
# ---------------------------------------------------------------------------

class HbSweep:
    """COARSE then FINE sweeps of a 20-group hierarchical regression, 2 workers."""

    name = "hb-sweep"
    op = "sweep"
    m_groups, n_cols, navg = 20, 10, 1000
    n_rows = navg            # rows per glm call: one group
    workers, sweeps = 2, 10

    def build(self, seed: int):
        ds, _ = hb.synthetic_hb_dataset(self.m_groups, self.n_cols, self.navg,
                                        seed=derive_seed(seed, 0))
        prior = sampler.GaussianPrior.isotropic(self.n_cols)
        state = hb.HbState(ds, prior, seed=derive_seed(seed, 2))
        perf.region_overhead_probe(self.workers, reps=5)
        for mode in MappingMode:
            hb.hb_sweep(ds, hb.HbState(ds, prior, seed=derive_seed(seed, 2)), prior,
                        MappingPolicy(mode, workers=self.workers))
        ws_bytes = sum(g.x.nbytes + g.y.nbytes for g in ds.groups) + sum(
            w.xt.nbytes + w.xbeta.nbytes for w in state.workspaces)
        return {"seed": seed, "ds": ds, "prior": prior, "working_set_bytes": ws_bytes}

    def unit(self, st, index: int, tracer) -> Unit:
        u = Unit(traced=tracer is not None)
        ds, prior = st["ds"], st["prior"]
        seed = derive_seed(st["seed"], 1, index)
        finals, times, evals = {}, {}, {}
        t_unit = time.perf_counter()
        for mode in (MappingMode.COARSE, MappingMode.FINE):
            policy = MappingPolicy(mode, workers=self.workers)
            state = hb.HbState(ds, prior, seed=seed)
            times[mode.value] = []
            with tracer.span(f"hb.{mode.value}") if tracer else nullcontext():
                for _ in range(self.sweeps):
                    u.attempted += 1
                    t0 = time.perf_counter()
                    try:
                        finals[mode] = hb.hb_sweep(ds, state, prior, policy)
                    except Exception as exc:
                        u.fail(1, f"{mode.value}: {type(exc).__name__}: {exc}")
                        break
                    times[mode.value].append(time.perf_counter() - t0)
            evals[mode.value] = state.total_evals
        u.wall = time.perf_counter() - t_unit
        u.info = {"sweep_s": times, "evals": evals}
        u.info["identical"] = len(finals) == 2 and all(
            np.array_equal(a, b) for a, b in zip(finals[MappingMode.COARSE],
                                                 finals[MappingMode.FINE]))
        if not u.failed and not u.info["identical"]:
            u.fail(u.attempted, "COARSE and FINE final betas differ")
        return u

    def pooled_gates(self, units) -> dict:
        same = sum(u.info.get("identical", False) for u in units)
        return {"coarse_fine_identical_units": (same, same == len(units), "every unit")}

    def sweep_times(self, units, mode: str) -> list[float]:
        return [t for u in units if not u.failed for t in u.info["sweep_s"][mode]]

    def layer_figures(self, units, spans) -> dict:
        ok = [u for u in units if not u.failed]
        evals = sum(sum(u.info["evals"].values()) for u in ok)
        group_sweeps = sum(u.attempted for u in ok) * self.m_groups
        figs = {"sampler.evals_per_draw": evals / (group_sweeps * self.n_cols) if ok else 0.0,
                "hb.evals_per_group_sweep": evals / group_sweeps if ok else 0.0}
        # sweep latency from the untraced units, so tracing does not inflate it
        plain = [u for u in units if not u.traced]
        for mode in ("coarse", "fine"):
            ms = 1e3 * np.array(self.sweep_times(plain, mode))
            if ms.size:
                figs.update({f"hb.sweep_ms.{mode}.p50": float(np.percentile(ms, 50)),
                             f"hb.sweep_ms.{mode}.p90": float(np.percentile(ms, 90)),
                             f"hb.sweep_ms.{mode}.n": float(ms.size)})
        return figs

    def headline(self, units) -> dict:
        coarse = 1.0 / statistics.median(self.sweep_times(units, "coarse"))
        fine = 1.0 / statistics.median(self.sweep_times(units, "fine"))
        return {"primary_per_s": coarse, "secondary_per_s": fine,
                "named": {"sweeps_per_s.coarse": (coarse, "1/s"),
                          "sweeps_per_s.fine": (fine, "1/s")}}


# ---------------------------------------------------------------------------
# ising-denoise
# ---------------------------------------------------------------------------

class IsingDenoise:
    """`denoise` of a 512 x 512 two-region image with 10% of pixels flipped."""

    name = "ising-denoise"
    op = "sweep"
    n_rows = n_cols = 0       # no glm calls
    size, noise, coupling, bias = 512, 0.1, 1.0, 2.0
    sweeps, burnin = 30, 10
    ERR_GATE = 0.03

    def build(self, seed: int):
        clean = ising.synthetic_binary_image(self.size, self.size)
        noisy = ising.flip_noise(clean, self.noise, seed=derive_seed(seed, 0))
        lat = ising.IsingLattice.from_image(noisy, w=self.coupling, bias_scale=self.bias)
        part = ising.color_lattice(lat)
        ising.denoise(noisy, self.coupling, self.bias, sweeps=1, burnin=0,
                      seed=derive_seed(seed, 2))
        ws_bytes = lat.s.nbytes + lat.b.nbytes + sum(
            a.nbytes for c in (0, 1)
            for a in (part.packed_b[c], part.packed_nbr[c], part.colors[c], part.packed_s[c]))
        return {"seed": seed, "clean": clean, "noisy": noisy,
                "input_error": float(np.mean(noisy != clean)), "working_set_bytes": ws_bytes}

    def unit(self, st, index: int, tracer) -> Unit:
        u = Unit(traced=tracer is not None, attempted=self.sweeps)
        flips: list[float] | None = [] if tracer else None
        t0 = time.perf_counter()
        try:
            restored = ising.denoise(st["noisy"], self.coupling, self.bias, sweeps=self.sweeps,
                                     burnin=self.burnin, seed=derive_seed(st["seed"], 1, index),
                                     trace_out=flips)
        except Exception as exc:
            u.wall = time.perf_counter() - t0
            u.fail(u.attempted, f"{type(exc).__name__}: {exc}")
            return u
        u.wall = time.perf_counter() - t0
        err = float(np.mean(restored != st["clean"]))
        u.info = {"error": err, "flips": flips}
        if not (err < st["input_error"] and err < self.ERR_GATE):
            u.fail(u.attempted, f"restored error {err:.4g} (input {st['input_error']:.4g})")
        return u

    def pooled_gates(self, units) -> dict:
        worst = max((u.info["error"] for u in units if "error" in u.info), default=float("nan"))
        return {"restored_error_max": (worst, bool(worst < self.ERR_GATE),
                                       f"< {self.ERR_GATE} and < input error")}

    def layer_figures(self, units, spans) -> dict:
        sweeps = spans.count("ising.gibbs_sweep")
        flips = [f for u in units if u.traced and not u.failed for f in u.info["flips"]]
        return {"ising.ns_per_site": (spans.total_ns_of("ising.gibbs_sweep")
                                      / (sweeps * self.size ** 2) if sweeps else 0.0),
                "ising.flip_rate": float(np.mean(flips)) if flips else 0.0}

    def headline(self, units) -> dict:
        wall = statistics.median([u.wall for u in units if not u.failed])
        ms_per_sweep = 1e3 * wall / self.sweeps
        return {"primary_per_s": 1e3 / ms_per_sweep, "secondary_per_s": 1.0 / wall,
                "named": {"ms_per_sweep": (ms_per_sweep, "ms"),
                          "restored_error": (statistics.median([u.info["error"] for u in units
                                                      if not u.failed]), "fraction")}}


# ---------------------------------------------------------------------------
# glm-kernels
# ---------------------------------------------------------------------------

STRATEGIES = (Strategy.SOM, Strategy.PLF, Strategy.PLF_CHUNKED, Strategy.SHARDED)


class GlmKernels:
    """loglike and loglike_grad at N=200 000, K=10 over four strategies, 2 workers."""

    name = "glm-kernels"
    op = "kernel eval"
    n_rows, n_cols = 200_000, 10
    n_betas = 10
    REL_GATE = 1e-8

    plans = tuple(ExecPlan(s, workers=2, n_chunks=8 if s is Strategy.PLF_CHUNKED else 1)
                  for s in STRATEGIES)

    def build(self, seed: int):
        data, _ = glm.synthetic_logistic(self.n_rows, self.n_cols, seed=derive_seed(seed, 0))
        betas = np.random.default_rng(derive_seed(seed, 1)).normal(
            0.0, 0.5, (self.n_betas, self.n_cols))
        for plan in self.plans:
            glm.loglike(data, betas[0], plan)
            glm.loglike_grad(data, betas[0], plan)
        return {"seed": seed, "data": data, "betas": betas,
                "working_set_bytes": data.x.nbytes + data.y.nbytes}

    def unit(self, st, index: int, tracer) -> Unit:
        u = Unit(traced=tracer is not None)
        data, betas = st["data"], st["betas"]
        walls = {"loglike": 0.0, "grad": 0.0}
        values: dict[tuple[str, str], list] = {}
        t_unit = time.perf_counter()
        for op, fn in (("loglike", glm.loglike), ("grad", glm.loglike_grad)):
            for plan in self.plans:
                out = []
                for beta in betas:
                    u.attempted += 1
                    t0 = time.perf_counter()
                    try:
                        out.append(fn(data, beta, plan))
                    except Exception as exc:
                        u.fail(1, f"{op}/{plan.strategy.value}: {type(exc).__name__}: {exc}")
                    walls[op] += time.perf_counter() - t0
                values[(op, plan.strategy.value)] = out
        u.wall = time.perf_counter() - t_unit
        u.info = {"walls": walls}
        if not u.failed:
            worst = u.info["worst_rel"] = self._worst_disagreement(values)
            if not worst <= self.REL_GATE:
                u.fail(u.attempted, f"strategies disagree: relative error {worst:.3g}")
        return u

    def _worst_disagreement(self, values) -> float:
        """Largest relative difference from PLF, as in the library's acceptance check."""
        worst = 0.0
        ref_f, ref_g = values[("loglike", "plf")], values[("grad", "plf")]
        for s in STRATEGIES:
            got_f, got_g = values[("loglike", s.value)], values[("grad", s.value)]
            for rf, rg, f, g in zip(ref_f, ref_g, got_f, got_g):
                scale = max(abs(rf), 1.0)
                worst = max(worst, abs(f - rf) / scale, abs(g.f - rf) / scale,
                            float(np.max(np.abs(g.g - rg.g) / np.maximum(np.abs(rg.g), 1.0))))
        return worst

    def pooled_gates(self, units) -> dict:
        worst = max((u.info.get("worst_rel", float("inf")) for u in units), default=float("nan"))
        return {"strategy_rel_err_max": (worst, bool(worst <= self.REL_GATE),
                                         f"<= {self.REL_GATE}")}

    def layer_figures(self, units, spans) -> dict:
        return {}

    def headline(self, units) -> dict:
        rows = len(STRATEGIES) * self.n_betas * self.n_rows
        ok = [u for u in units if not u.failed]
        ll = statistics.median([rows / u.info["walls"]["loglike"] for u in ok])
        gr = statistics.median([rows / u.info["walls"]["grad"] for u in ok])
        return {"primary_per_s": ll, "secondary_per_s": gr,
                "named": {"loglike_rows_per_s": (ll, "1/s"), "grad_rows_per_s": (gr, "1/s")}}


WORKLOADS = {w.name: w for w in (LogitChain(), HbSweep(), IsingDenoise(), GlmKernels())}
