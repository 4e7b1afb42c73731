#!/usr/bin/env python3
"""parmcmc benchmark: one workload per run, end-to-end or traced.

    python3 perfbench/run.py --workload logit-chain --seed 1 --seconds 25 --trace 0

Run from the root of a parmcmc checkout; the library is imported from its
`src/` directory and from nowhere else.  The last line of standard output
is one JSON object: {"correct", "attempted", "failed", "metrics"}.  With
--trace 0 the metrics are the end-to-end metrics of BENCHMARK.json, with
--trace 1 its per-layer metrics.  The lines before it are a report with
the workload's own named figures, its correctness gates and the
environment.  Exit code 0 when every operation succeeded and every gate
passed, 1 when one did not, 2 on a usage error or a missing library, 3
when a traced name is gone or records no span.
"""

from __future__ import annotations

import os

# One BLAS thread: the workloads run at most two worker threads on a
# two-core machine, and numpy must see this before it is first imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"

#: in-process builds and import probes per run; setup_s is built from medians
SETUP_REPS = 5


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not args.seconds > 0:
        p.error("--seconds must be > 0")
    return args


def import_seconds() -> float:
    """Median wall time of a fresh interpreter importing parmcmc."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    times = []
    for _ in range(SETUP_REPS):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import parmcmc"], env=env, cwd=ROOT,
                       check=True, timeout=60)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def build(workload, seed: int):
    """Median of SETUP_REPS builds of inputs and library state; keeps the last."""
    times, state = [], None
    for _ in range(SETUP_REPS):
        state = None
        t0 = time.perf_counter()
        state = workload.build(seed)
        times.append(time.perf_counter() - t0)
    return statistics.median(times), state


def run_units(workload, state, seconds: float, tracer=None, counts=None):
    """Run units until `seconds` pass.  With a tracer, alternate untraced and
    traced units; the traced ones run with the tracer installed and add their
    kernel-counter increments to `counts`."""
    from parmcmc.instrumentation import counters

    units = []
    deadline = time.perf_counter() + seconds
    index = 0
    while time.perf_counter() < deadline or len(units) < (2 if tracer else 1):
        if tracer is not None and index % 2 == 1:
            before = counters.snapshot()
            with tracer.installed():
                unit = workload.unit(state, index, tracer)
            after = counters.snapshot()
            for name in counts:
                counts[name] += getattr(after, name) - getattr(before, name)
        else:
            unit = workload.unit(state, index, None)
        units.append(unit)
        index += 1
    return units


def load_metric_specs(key: str) -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[key]}


def emit(values: dict, key: str) -> dict:
    """Metrics in BENCHMARK.json's order and units; every listed one, no other."""
    specs = load_metric_specs(key)
    missing, extra = set(specs) - set(values), set(values) - set(specs)
    if missing or extra:
        raise RuntimeError(f"metric set differs from BENCHMARK.json {key}: "
                           f"missing {sorted(missing)}, unexpected {sorted(extra)}")
    return {name: {"value": float(values[name]), "unit": unit} for name, unit in specs.items()}


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "parmcmc" / "__init__.py").is_file():
        print(f"error: no parmcmc sources at {SRC}; run from a parmcmc checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    t_start = time.perf_counter()
    import parmcmc
    if Path(parmcmc.__file__).resolve().parent != SRC / "parmcmc":
        print(f"error: imported parmcmc from {parmcmc.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import environment
    import layers
    import workloads
    from spans import TraceTargetMissing

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload]

    import_s = import_seconds()
    build_s, state = build(workload, args.seed)
    setup_s = import_s + build_s

    report = {"workload": workload.name, "seed": args.seed, "trace": args.trace,
              "operation": workload.op}
    if args.trace:
        try:
            tracer, observed = layers.make_tracer()
        except TraceTargetMissing as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 3
        probes = layers.region_probes()
        counts = {"parallel_regions": 0, "merge_events": 0, "flops": 0}
        units = run_units(workload, state, args.seconds, tracer, counts)
    else:
        units = run_units(workload, state, args.seconds)
    gates = workload.pooled_gates(units)

    attempted = sum(u.attempted for u in units)
    failed = sum(u.failed for u in units)
    errors = sorted({e for u in units for e in u.errors})
    correct = failed == 0 and attempted > 0

    key = "per_layer" if args.trace else "end_to_end"
    # a failed run reports zeros; its exit code already rejects it
    values = dict.fromkeys(load_metric_specs(key), 0.0)
    if args.trace:
        if correct:
            try:
                values = layers.layer_metrics(workload, units, tracer, observed, counts, probes)
            except TraceTargetMissing as exc:
                print(f"error: {exc}", file=sys.stderr)
                return 3
        OUT.mkdir(exist_ok=True)
        trace_path = OUT / f"trace-{workload.name}-seed{args.seed}.npz"
        tracer.save(trace_path)
        report["trace_file"] = str(trace_path.relative_to(ROOT))
    elif correct:
        head = workload.headline(units)
        report["named"] = {k: {"value": float(v), "unit": u} for k, (v, u) in head["named"].items()}
        values = {"setup_s": setup_s, "primary_per_s": head["primary_per_s"],
                  "secondary_per_s": head["secondary_per_s"]}
    metrics = emit(values, key)

    report.update({
        "setup": {"import_s": import_s, "build_s": build_s, "reps": SETUP_REPS},
        "units": {"count": len(units), "traced": sum(u.traced for u in units),
                  "wall_s": sum(u.wall for u in units)},
        "gates": {k: {"value": float(v), "pass": ok, "rule": rule}
                  for k, (v, ok, rule) in gates.items()},
        "errors": errors,
        "environment": environment.record(workload, state),
        "run_s": time.perf_counter() - t_start,
    })
    print(json.dumps(report, indent=1, default=str))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
