import numpy as np
import pytest

from parmcmc import perf
from parmcmc.glm import Strategy
from parmcmc.perf import (BenchRecord, GridConfig, compute_min_cpr, memory_min_cpr,
                          region_overhead_probe, run_grid, write_bench_csv)


# ---------------------------------------------------------------------------
# roofline bounds
# ---------------------------------------------------------------------------

def test_compute_bound_reference_machine():
    # the reference machine's denominator is 128 flops/cycle, so the bound
    # collapses to K/64
    assert compute_min_cpr(64) == pytest.approx(1.0, abs=1e-12)
    assert compute_min_cpr(50) == pytest.approx(0.78125, abs=1e-12)
    for k in (1, 10, 1250):
        assert compute_min_cpr(k) == pytest.approx(k / 64, rel=1e-12)


def test_memory_bound_reference_machine():
    v = memory_min_cpr(50)
    assert v == pytest.approx(10.359375, abs=1e-9)
    assert abs(v - 10.35) < 0.05
    # large-K slope is about K/5
    assert memory_min_cpr(1000) == pytest.approx(1000 / 4.923, rel=0.01)


def test_bounds_scale_as_documented():
    # the machine is memory-bound by an order of magnitude
    ratio = memory_min_cpr(50) / compute_min_cpr(50)
    assert 9.0 < ratio < 14.0


def test_bound_input_validation():
    with pytest.raises(ValueError):
        compute_min_cpr(0)
    with pytest.raises(ValueError):
        memory_min_cpr(-1)


# ---------------------------------------------------------------------------
# records
# ---------------------------------------------------------------------------

def test_record_arithmetic_invariant():
    rec = BenchRecord.from_wall("x", n_rows=1000, n_cols=10, workers=2, n_chunks=1,
                                wall_seconds=0.004, evals=8)
    assert rec.cpr == 2.6e9 * 0.004 / (8 * 1000)
    assert rec.cpr > 0


# ---------------------------------------------------------------------------
# grid runner
# ---------------------------------------------------------------------------

def test_single_cell_grid():
    cfg = GridConfig(n_rows=[2000], n_cols=[8], strategies=[Strategy.PLF],
                     workers=[1], evals=3, reps=3)
    records, failures = run_grid(cfg)
    assert len(records) == 1 and not failures
    rec = records[0]
    assert rec.label == "loglike/plf" and rec.n_rows == 2000 and rec.evals == 3


def test_grid_covers_axes_and_respects_roofline():
    cfg = GridConfig(n_rows=[1000, 4000], n_cols=[6], workers=[1, 2],
                     strategies=[Strategy.SOM, Strategy.PLF], evals=3, reps=2)
    records, failures = run_grid(cfg)
    assert len(records) == 8 and not failures
    for rec in records:
        assert rec.cpr >= compute_min_cpr(rec.n_cols)


def test_grid_timing_stability_single_worker():
    cfg = GridConfig(n_rows=[100_000], n_cols=[12], strategies=[Strategy.PLF],
                     workers=[1], evals=6, reps=7)
    # medians of repeated cells agree within 20%; retry shields against
    # transient machine load, not against a real instability
    for attempt in range(3):
        medians = [run_grid(cfg)[0][0].cpr for _ in range(2)]
        if abs(medians[0] - medians[1]) / max(medians) < 0.2:
            return
    raise AssertionError(f"cell medians unstable across retries: {medians}")


def test_grid_records_failures_and_continues(monkeypatch):
    # a fantasy machine whose compute bound exceeds any real measurement:
    # the roofline sanity check must flag the cell, not crash the grid
    monkeypatch.setattr(perf, "REFERENCE_CLOCK_GHZ", 1e-9)
    cfg = GridConfig(n_rows=[500], n_cols=[4], strategies=[Strategy.PLF, Strategy.SOM],
                     workers=[1], evals=2, reps=2)
    records, failures = run_grid(cfg)
    assert len(records) == 0 and len(failures) == 2
    assert "compute bound" in failures[0][1]


def test_grad_op_grid():
    cfg = GridConfig(n_rows=[1500], n_cols=[5], strategies=[Strategy.PLF_CHUNKED],
                     workers=[2], chunks=[4], op="grad", evals=3, reps=2)
    records, failures = run_grid(cfg)
    assert not failures and records[0].label == "grad/plf_chunked"
    assert records[0].n_chunks == 4


def test_grid_crosses_chunks_only_with_plf_chunked():
    cfg = GridConfig(n_rows=[2000], n_cols=[4],
                     strategies=[Strategy.SOM, Strategy.PLF, Strategy.PLF_CHUNKED],
                     chunks=[1, 8], evals=2, reps=2)
    records, failures = run_grid(cfg)
    assert len(records) == 4 and not failures
    assert all(r.n_chunks == 1 for r in records if r.label in ("loglike/som", "loglike/plf"))
    assert sorted(r.n_chunks for r in records if r.label == "loglike/plf_chunked") == [1, 8]


@pytest.mark.parametrize("key", ["n_rows", "n_cols", "workers", "chunks", "evals", "reps"])
def test_grid_config_rejects_axis_values_below_one(key):
    # checked where the grid is built, not left to a failed cell or ignored
    axis = key not in ("evals", "reps")
    name = f"{key} values" if axis else key
    for bad in (0, -3):
        with pytest.raises(ValueError, match=f"{name} must be >= 1, got {bad}"):
            GridConfig(**{key: [1, bad] if axis else bad})


# ---------------------------------------------------------------------------
# CSV
# ---------------------------------------------------------------------------

def test_write_csv_with_sidecar_and_failures(tmp_path):
    recs = [BenchRecord.from_wall("loglike/plf", 100, 7, 1, 1, 0.001, 2)]
    path = tmp_path / "bench.csv"
    write_bench_csv(recs, path, failures=[("loglike/som N=1 K=1 workers=1 chunks=1", "boom")])
    lines = path.read_text().splitlines()
    assert lines[0] == "label,n_rows,n_cols,workers,n_chunks,cpr,wall_seconds,evals"
    assert any(line.startswith("# roofline n_cols=7") for line in lines)
    assert any("[failed: boom]" in line for line in lines)
    data_rows = [l for l in lines[1:] if not l.startswith("#") and "[failed" not in l]
    assert len(data_rows) == 1 and data_rows[0].startswith("loglike/plf,100,7,1,1,")


def test_region_overhead_probe():
    t = region_overhead_probe(4, reps=50)
    assert t >= 0.0 and np.isfinite(t)
    with pytest.raises(ValueError, match="workers=0"):
        region_overhead_probe(0)
    with pytest.raises(ValueError, match="reps=0"):
        region_overhead_probe(1, reps=0)
