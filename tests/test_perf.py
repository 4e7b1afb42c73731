import dataclasses

import numpy as np
import pytest

from parmcmc import perf
from parmcmc.glm import Strategy
from parmcmc.perf import (BenchRecord, GridConfig, HardwareDescriptor, REFERENCE_MACHINE,
                          compute_min_cpr, memory_min_cpr, parse_grid_config,
                          region_overhead_probe, run_grid, write_bench_csv)


# ---------------------------------------------------------------------------
# roofline bounds
# ---------------------------------------------------------------------------

def test_compute_bound_reference_machine():
    # the reference machine's denominator is 128 flops/cycle, so the bound
    # collapses to K/64
    assert compute_min_cpr(REFERENCE_MACHINE, 64) == pytest.approx(1.0, abs=1e-12)
    assert compute_min_cpr(REFERENCE_MACHINE, 50) == pytest.approx(0.78125, abs=1e-12)
    for k in (1, 10, 1250):
        assert compute_min_cpr(REFERENCE_MACHINE, k) == pytest.approx(k / 64, rel=1e-12)


def test_memory_bound_reference_machine():
    v = memory_min_cpr(REFERENCE_MACHINE, 50)
    assert v == pytest.approx(10.359375, abs=1e-9)
    assert abs(v - 10.35) < 0.05
    # large-K slope is about K/5
    assert memory_min_cpr(REFERENCE_MACHINE, 1000) == pytest.approx(1000 / 4.923, rel=0.01)


def test_bounds_scale_as_documented():
    halved = dataclasses.replace(REFERENCE_MACHINE, vector_bits=128)
    assert compute_min_cpr(halved, 32) == pytest.approx(2 * compute_min_cpr(REFERENCE_MACHINE, 32))
    # the machine is memory-bound by an order of magnitude
    ratio = memory_min_cpr(REFERENCE_MACHINE, 50) / compute_min_cpr(REFERENCE_MACHINE, 50)
    assert 9.0 < ratio < 14.0


def test_bound_input_validation():
    with pytest.raises(ValueError):
        compute_min_cpr(REFERENCE_MACHINE, 0)
    with pytest.raises(ValueError):
        memory_min_cpr(REFERENCE_MACHINE, -1)
    with pytest.raises(ValueError):
        HardwareDescriptor(cpu_clock_ghz=0.0)


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
        assert rec.cpr >= compute_min_cpr(REFERENCE_MACHINE, rec.n_cols)


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
    monkeypatch.setattr(perf, "REFERENCE_MACHINE", HardwareDescriptor(cpu_clock_ghz=1e-9))
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


# ---------------------------------------------------------------------------
# CSV and config file
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


def test_parse_grid_config(tmp_path):
    path = tmp_path / "grid.cfg"
    path.write_text(
        "# grid axes\n"
        "N = 100, 200\n"
        "K = 5\n"
        "strategies = som, plf_chunked\n"
        "workers = 1, 2\n"
        "chunks = 8\n"
        "evals = 4\n"
        "reps = 2\n"
        "seed = 7\n"
        "op = grad\n")
    cfg = parse_grid_config(path)
    assert cfg.n_rows == [100, 200] and cfg.n_cols == [5]
    assert cfg.strategies == [Strategy.SOM, Strategy.PLF_CHUNKED]
    assert cfg.workers == [1, 2] and cfg.chunks == [8]
    assert cfg.evals == 4 and cfg.reps == 2 and cfg.seed == 7 and cfg.op == "grad"


def test_parse_grid_config_rejects_unknown_keys(tmp_path):
    path = tmp_path / "bad.cfg"
    for key, value in (("bogus", "1"), ("cpu_clock_ghz", "3.1"), ("warmup", "0")):
        path.write_text(f"{key} = {value}\n")
        with pytest.raises(ValueError, match=f"unknown key '{key}'"):
            parse_grid_config(path)
    path.write_text("just a line\n")
    with pytest.raises(ValueError, match="key = value"):
        parse_grid_config(path)


def test_region_overhead_probe():
    t = region_overhead_probe(4, reps=50)
    assert t >= 0.0 and np.isfinite(t)
    with pytest.raises(ValueError, match="workers=0"):
        region_overhead_probe(0)
    with pytest.raises(ValueError, match="reps=0"):
        region_overhead_probe(1, reps=0)
