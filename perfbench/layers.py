"""The traced run: which library names are wrapped, and the per-layer metrics.

Layers are parmcmc's modules glm, sampler, parallel, rng, hb and ising.
Each wrapped name is the one the caller looks up, so a span is recorded
whenever the library takes that path.  Counts of operations ("per op") are
per operation the workload attempted in its traced units.  A metric of a
layer the workload does not call reads 0.
"""

from __future__ import annotations

import statistics

import numpy as np

import parmcmc
from parmcmc import perf
from parmcmc.ising import ColorPartition
from parmcmc.rng import DeviateBuffer

from spans import SpanSummary, TraceTargetMissing, Tracer

REGION = "parallel.run_region"
STRATEGIES = ("som", "plf", "plf_chunked", "sharded")

#: per-layer metrics a workload computes itself (`layer_figures`); 0 elsewhere
WORKLOAD_FIGURES = (
    "sampler.evals_per_draw", "sampler.ess_per_draw", "sampler.split_rhat_max",
    *(f"hb.sweep_ms.{mode}.{q}" for mode in ("coarse", "fine") for q in ("p50", "p90", "n")),
    "hb.evals_per_group_sweep", "ising.ns_per_site", "ising.flip_rate",
)

#: spans each workload must record; one missing means a call site moved
EXPECTED_SPANS = {
    "logit-chain": ("glm.diff_loglike", "glm.commit_update", "sampler.slice_sample_coord",
                    REGION, "rng.refill"),
    "hb-sweep": ("glm.diff_loglike", "glm.commit_update", "sampler.slice_sample_coord",
                 REGION, "rng.refill"),
    "ising-denoise": ("ising.gibbs_sweep", "ising.neighbor_spin_sum", "rng.take", "rng.refill"),
    "glm-kernels": tuple(f"glm.{op}.{s}" for op in ("loglike", "loglike_grad")
                         for s in STRATEGIES) + (REGION,),
}


def _by_strategy(prefix: str):
    def name(args, kwargs):
        plan = args[2] if len(args) > 2 else kwargs.get("plan")
        return f"{prefix}.{plan.strategy.value if plan is not None else 'plf'}"
    return name


def make_tracer():
    """A tracer over every layer boundary, and the RNG buffers it sees."""
    observed = {"buffers": {}, "taken": 0}

    def see_buffer(args, kwargs):
        observed["buffers"].setdefault(id(args[0]), args[0])

    def see_take(args, kwargs):
        see_buffer(args, kwargs)
        observed["taken"] += args[1] if len(args) > 1 else kwargs["n"]

    t = Tracer()
    t.wrap(parmcmc.sampler, "diff_loglike", "glm.diff_loglike")
    t.wrap(parmcmc.sampler, "commit_update", "glm.commit_update")
    t.wrap(parmcmc.sampler, "slice_sample_coord", "sampler.slice_sample_coord")
    t.wrap(parmcmc.hb, "slice_sample_coord", "sampler.slice_sample_coord")
    t.wrap(parmcmc.glm, "loglike", _by_strategy("glm.loglike"))
    t.wrap(parmcmc.glm, "loglike_grad", _by_strategy("glm.loglike_grad"))
    t.wrap_region(parmcmc.parallel, "run_region", REGION)
    t.wrap(DeviateBuffer, "take", "rng.take", observe=see_take)
    t.wrap(DeviateBuffer, "refill", "rng.refill", observe=see_buffer)
    t.wrap(parmcmc.ising, "gibbs_sweep", "ising.gibbs_sweep")
    t.wrap(ColorPartition, "neighbor_spin_sum", "ising.neighbor_spin_sum")
    return t, observed


def region_probes() -> dict:
    """Median cost of opening and closing an empty region, in microseconds."""
    return {w: perf.region_overhead_probe(w) * 1e6 for w in (1, 2)}


def _bytes_per_call(name: str, n_rows: int, n_cols: int) -> int:
    """Bytes a call reads and writes, computed from its array sizes."""
    if name in ("glm.diff_loglike", "glm.commit_update"):
        return 3 * 8 * n_rows                    # X.beta, one column of X', y or X.beta out
    if name.startswith("glm.loglike_grad."):
        return 8 * n_rows * (2 * n_cols + 1)     # X read for X.beta and for X'g, y
    if name.startswith("glm.loglike."):
        return 8 * n_rows * (n_cols + 1)
    return 0


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def layer_metrics(workload, units, tracer: Tracer, observed, counts, probes) -> dict:
    s = SpanSummary(tracer.table(), tracer.names, REGION)
    missing = [n for n in EXPECTED_SPANS[workload.name] if s.count(n) == 0]
    if missing:
        raise TraceTargetMissing(
            f"{workload.name}: wrapped names recorded no span: {', '.join(missing)}; "
            "the library no longer calls them where the benchmark wraps them")
    traced = [u for u in units if u.traced]
    plain = [u for u in units if not u.traced]
    ops = sum(u.attempted for u in traced)
    m: dict[str, float] = {}

    # glm
    glm_calls = [n for n in tracer.names if n.startswith("glm.")]
    evals = sum(s.count(n) for n in glm_calls if n != "glm.commit_update")
    computed = sum(s.count(n) * _bytes_per_call(n, workload.n_rows, workload.n_cols)
                   for n in glm_calls)
    m["glm.diff_loglike.calls"] = _ratio(s.count("glm.diff_loglike"), ops)
    m["glm.diff_loglike.self_us"] = s.mean_self_us("glm.diff_loglike")
    m["glm.commit_update.self_us"] = s.mean_self_us("glm.commit_update")
    for op in ("loglike", "loglike_grad"):
        for strat in STRATEGIES:
            name = f"glm.{op}.{strat}"
            m[f"glm.{op}.ns_per_row.{strat}"] = _ratio(s.total_ns_of(name),
                                                       s.count(name) * workload.n_rows)
    m["glm.merges_per_eval"] = _ratio(counts["merge_events"], evals)
    m["glm.flops"] = _ratio(counts["flops"], ops)
    m["glm.bytes_computed"] = _ratio(computed, ops)
    m["glm.flops_per_byte"] = _ratio(counts["flops"], computed)

    # figures only one or two workloads have: their own counts and timings
    m.update(dict.fromkeys(WORKLOAD_FIGURES, 0.0))
    m.update(workload.layer_figures(units, s))
    m["sampler.slice_sample_coord.self_us"] = s.mean_self_us("sampler.slice_sample_coord")

    # parallel
    regions = np.flatnonzero(s.is_region)
    m["parallel.regions_per_op"] = _ratio(counts["parallel_regions"], ops)
    m["parallel.run_region.self_us"] = s.mean_self_us(REGION)
    m["parallel.busy_fraction"] = _ratio(float(s.task_sum[regions].sum()),
                                         float((s.task_count[regions] * s.dur[regions]).sum()))
    m["parallel.region_open_us.w1"] = probes[1]
    m["parallel.region_open_us.w2"] = probes[2]

    # rng
    bufs = list(observed["buffers"].values())
    consumed = sum(b.consumed for b in bufs)
    generated = sum(b.generated for b in bufs)
    m["rng.deviates"] = _ratio(consumed, ops)
    m["rng.refills"] = _ratio(sum(b.refills for b in bufs), ops)
    m["rng.waste_fraction"] = _ratio(generated - consumed, generated)
    m["rng.take.ns_per_deviate"] = _ratio(s.total_ns_of("rng.take"), observed["taken"])
    m["rng.refill.us_per_call"] = s.mean_total_us("rng.refill")

    # hb
    coarse = s.regions_under("hb.coarse")
    m["hb.worker_imbalance.coarse"] = float(np.mean(
        s.task_max[coarse] * s.task_count[coarse] / s.task_sum[coarse])) if coarse.size else 0.0

    # ising
    m["ising.gibbs_sweep.ms"] = s.mean_total_us("ising.gibbs_sweep") / 1e3
    m["ising.neighbor_spin_sum.ms"] = s.mean_total_us("ising.neighbor_spin_sum") / 1e3

    m["trace.overhead"] = (statistics.median(u.wall for u in traced)
                           / statistics.median(u.wall for u in plain) - 1.0)
    return m
