"""Roofline bounds and the benchmark grid runner.

The paper's reference machine induces two CPR floors: compute (peak flops)
and memory (DRAM bandwidth).  The grid runner times kernel cells, counts
their cycles at the reference clock, checks them against the compute floor
and writes the standard CSV with roofline sidecar lines.  Only plf_chunked
runs the chunk count; the other strategies run one cell each.
"""

from parmcmc import GridConfig, Strategy, run_grid
from parmcmc.perf import REFERENCE_MACHINE, compute_min_cpr, memory_min_cpr, write_bench_csv

print("reference machine bounds (cycles per row):")
print(f"{'K':>6}{'compute':>10}{'memory':>10}")
for k in (10, 50, 64, 100, 1250):
    print(f"{k:>6}{compute_min_cpr(REFERENCE_MACHINE, k):>10.3f}"
          f"{memory_min_cpr(REFERENCE_MACHINE, k):>10.2f}")
print("\nthe K=64 compute bound is exactly 1.0 CPR; the machine is "
      "memory-bound by an order of magnitude.\n")

cfg = GridConfig(n_rows=[10_000, 100_000], n_cols=[10, 50],
                 strategies=[Strategy.SOM, Strategy.PLF, Strategy.PLF_CHUNKED],
                 workers=[1, 4], chunks=[8], evals=4, reps=3)
records, failures = run_grid(cfg)
write_bench_csv(records, "bench_grid.csv", failures=failures)
print(f"{'cell':<22}{'N':>8}{'K':>5}{'workers':>8}{'CPR':>9}")
for r in records:
    print(f"{r.label:<22}{r.n_rows:>8}{r.n_cols:>5}{r.workers:>8}{r.cpr:>9.1f}")
print(f"\n{len(records)} cells ({len(failures)} failures) -> bench_grid.csv")
print("every measured CPR sits above the compute bound, as it must.")
