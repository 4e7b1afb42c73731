import csv
import re
import shlex
from pathlib import Path

import numpy as np
import pytest

from parmcmc import cli, perf
from parmcmc.glm import Strategy
from parmcmc.hb import MappingMode
from parmcmc.ising import flip_noise, read_pbm, synthetic_binary_image, write_pbm
from parmcmc.rng import BenchDist, BenchMode


def read_csv_rows(path):
    lines = [l for l in path.read_text().splitlines() if l and not l.startswith("#")]
    return lines[0], lines[1:]


# ---------------------------------------------------------------------------
# bench
# ---------------------------------------------------------------------------

def test_bench_inline_grid(tmp_path):
    out = tmp_path / "bench.csv"
    rc = cli.main(["bench", "--N", "500", "--K", "6", "--strategies", "som,plf",
                   "--workers", "1,4", "--evals", "2", "--reps", "2",
                   "--seed", "3", "--out", str(out)])
    assert rc == 0
    header, rows = read_csv_rows(out)
    assert header.startswith("label,")
    assert len(rows) == 4  # 2 strategies x 2 worker counts


def test_bench_missing_k_is_usage_error(tmp_path):
    rc = cli.main(["bench", "--N", "100", "--out", str(tmp_path / "x.csv")])
    assert rc == 2


def test_bench_determinism_of_non_timing_columns(tmp_path):
    outs = []
    for name in ("a.csv", "b.csv"):
        out = tmp_path / name
        assert cli.main(["bench", "--N", "300", "--K", "4", "--strategies", "plf",
                         "--workers", "1,2", "--evals", "2", "--reps", "2",
                         "--seed", "11", "--out", str(out)]) == 0
        _, rows = read_csv_rows(out)
        outs.append([",".join(np.array(r.split(","))[[0, 1, 2, 3, 4, 7]]) for r in rows])
    assert outs[0] == outs[1]


def _seen_grid(monkeypatch):
    seen = []
    monkeypatch.setattr(perf, "run_grid", lambda cfg: seen.append(cfg) or ([], []))
    return seen


def test_bench_every_flag_sets_its_grid_field(tmp_path, monkeypatch):
    seen = _seen_grid(monkeypatch)
    assert cli.main(["bench", "--N", "100,200", "--K", "5", "--strategies", "SOM, plf_chunked",
                     "--workers", "1,2", "--chunks", "8", "--op", "Grad", "--evals", "4",
                     "--reps", "2", "--seed", "7", "--out", str(tmp_path / "s.csv")]) == 0
    assert seen == [perf.GridConfig(n_rows=[100, 200], n_cols=[5],
                                    strategies=[Strategy.SOM, Strategy.PLF_CHUNKED],
                                    workers=[1, 2], chunks=[8], op="grad", evals=4, reps=2,
                                    seed=7)]


def test_bench_unset_flags_take_grid_config_defaults(tmp_path, monkeypatch):
    seen = _seen_grid(monkeypatch)
    assert cli.main(["bench", "--N", "300", "--K", "3", "--out", str(tmp_path / "s.csv")]) == 0
    assert seen == [perf.GridConfig(n_rows=[300], n_cols=[3])]


def test_bench_removed_strategy_names_its_key(tmp_path, capsys):
    out = str(tmp_path / "x.csv")
    assert cli.main(["bench", "--N", "10", "--K", "2", "--strategies", "mos",
                     "--out", out]) == 2
    assert "argument --strategies: 'mos'" in capsys.readouterr().err


def test_bench_bad_value_names_its_key(tmp_path, capsys):
    assert cli.main(["bench", "--N", "10", "--K", "2", "--evals", "x",
                     "--out", str(tmp_path / "x.csv")]) == 2
    assert "argument --evals: invalid int value: 'x'" in capsys.readouterr().err
    assert cli.main(["bench", "--N", "1000,", "--K", "2", "--out", str(tmp_path / "x.csv")]) == 2
    assert "argument --N: empty item in '1000,'" in capsys.readouterr().err
    assert not (tmp_path / "x.csv").exists()


def test_bench_internal_error_returns_one(tmp_path, monkeypatch):
    def boom(cfg):
        raise RuntimeError("kaput")
    monkeypatch.setattr(perf, "run_grid", boom)
    assert cli.main(["bench", "--N", "10", "--K", "2",
                     "--out", str(tmp_path / "x.csv")]) == 1


def test_bench_cell_failures_still_exit_zero(tmp_path, monkeypatch):
    # a fantasy clock makes the roofline check reject every cell: rows are
    # flagged in the CSV but the command succeeds
    monkeypatch.setattr(perf, "REFERENCE_CLOCK_GHZ", 1e-9)
    out = tmp_path / "f.csv"
    assert cli.main(["bench", "--N", "200", "--K", "4", "--strategies", "plf", "--workers", "1",
                     "--evals", "2", "--reps", "2", "--out", str(out)]) == 0
    assert "[failed:" in out.read_text()


def test_bench_failed_rows_keep_header_width(tmp_path, monkeypatch):
    # the failure message holds a comma
    def fail(*args):
        raise RuntimeError("cell failed, on purpose")
    monkeypatch.setattr(perf, "loglike", fail)
    out = tmp_path / "f.csv"
    assert cli.main(["bench", "--N", "100", "--K", "2", "--strategies", "plf_chunked",
                     "--out", str(out)]) == 0
    with open(out, newline="") as fh:
        rows = [r for r in csv.reader(fh) if not r[0].startswith("#")]
    assert any("[failed: cell failed, on purpose]" in r[0] for r in rows)
    assert all(len(r) == len(rows[0]) for r in rows)


@pytest.mark.parametrize("flag, key", [("--chunks", "chunks"), ("--workers", "workers"),
                                       ("--N", "n_rows")])
def test_bench_axis_value_below_one_is_input_error(tmp_path, capsys, flag, key):
    argv = {"--N": "500", "--K": "2", "--strategies": "som", flag: "0"}
    out = tmp_path / "x.csv"
    assert cli.main(["bench", *(a for kv in argv.items() for a in kv), "--out", str(out)]) == 2
    assert f"{key} values must be >= 1, got 0" in capsys.readouterr().err
    assert not out.exists()


# ---------------------------------------------------------------------------
# glm-sample
# ---------------------------------------------------------------------------

def test_glm_sample_synthetic(tmp_path, capsys):
    out = tmp_path / "draws.csv"
    rc = cli.main(["glm-sample", "--synthetic", "200,3", "--iters", "40",
                   "--burnin", "10", "--seed", "5", "--out", str(out)])
    assert rc == 0
    printed = capsys.readouterr().out
    assert "posterior_mean:" in printed
    assert re.search(r"\(\d+\.\d\d per draw, \d+ reused\)", printed), printed
    draws = np.loadtxt(out, delimiter=",", skiprows=1)
    assert draws.shape == (30, 3)


def test_glm_sample_rejects_removed_path_flags(tmp_path):
    # the differential update is the only evaluation path, and the chain's
    # only parallel setting is its worker count
    args = ["glm-sample", "--synthetic", "150,3", "--iters", "30", "--burnin", "5",
            "--out", str(tmp_path / "d.csv")]
    assert cli.main(args + ["--no-diff-update"]) == 2
    assert cli.main(args + ["--strategy", "som"]) == 2


def test_glm_sample_zero_workers_is_input_error(tmp_path, capsys):
    out = tmp_path / "d.csv"
    assert cli.main(["glm-sample", "--synthetic", "150,3", "--iters", "30", "--burnin", "5",
                     "--workers", "0", "--out", str(out)]) == 2
    assert "workers must be >= 1, got 0" in capsys.readouterr().err
    assert not out.exists()


def test_glm_sample_non_finite_prior_sigma_is_input_error(tmp_path, capsys):
    out = tmp_path / "d.csv"
    assert cli.main(["glm-sample", "--synthetic", "100,2", "--iters", "20", "--burnin", "5",
                     "--prior-sigma", "inf", "--out", str(out)]) == 2
    assert "prior sigma must be finite, got inf" in capsys.readouterr().err
    assert not out.exists()


def test_glm_sample_reads_csv(tmp_path):
    data_file = tmp_path / "d.csv"
    gen = np.random.default_rng(0)
    x = gen.standard_normal((50, 2))
    y = (gen.random(50) < 0.5).astype(int)
    np.savetxt(data_file, np.column_stack([x, y]), delimiter=",", fmt="%.8g")
    rc = cli.main(["glm-sample", "--data", str(data_file), "--iters", "20",
                   "--burnin", "5", "--out", str(tmp_path / "o.csv")])
    assert rc == 0


def test_glm_sample_bad_file_is_input_error(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("1.0,oops,1\n")
    rc = cli.main(["glm-sample", "--data", str(bad), "--out", str(tmp_path / "o.csv")])
    assert rc == 2
    assert "column 2" in capsys.readouterr().err
    rc = cli.main(["glm-sample", "--data", str(tmp_path / "missing.csv"),
                   "--out", str(tmp_path / "o.csv")])
    assert rc == 2


def test_glm_sample_nonbinary_response_is_input_error(tmp_path):
    bad = tmp_path / "nb.csv"
    bad.write_text("0.5,2\n0.1,0\n")
    assert cli.main(["glm-sample", "--data", str(bad),
                     "--out", str(tmp_path / "o.csv")]) == 2


def test_glm_sample_requires_a_source(tmp_path):
    assert cli.main(["glm-sample", "--out", str(tmp_path / "o.csv")]) == 2


# ---------------------------------------------------------------------------
# ising-denoise
# ---------------------------------------------------------------------------

def _noisy_pbm(tmp_path, shape=(32, 32), rate=0.1):
    img = synthetic_binary_image(*shape)
    noisy = flip_noise(img, rate, seed=3)
    path = tmp_path / "noisy.pbm"
    write_pbm(path, noisy, fmt="P4")
    return img, noisy, path


def test_ising_denoise_end_to_end(tmp_path):
    img, noisy, path = _noisy_pbm(tmp_path)
    out = tmp_path / "restored.pbm"
    trace = tmp_path / "trace.csv"
    rc = cli.main(["ising-denoise", "--in", str(path), "--out", str(out),
                   "--w", "1.0", "--bias", "2.0", "--sweeps", "25", "--burnin", "8",
                   "--seed", "7", "--trace", str(trace)])
    assert rc == 0
    restored = read_pbm(out)
    assert (restored != img).mean() < (noisy != img).mean()
    assert trace.read_text().startswith("sweep,flip_fraction")


def test_ising_denoise_zero_sweeps_is_identity(tmp_path):
    _, noisy, path = _noisy_pbm(tmp_path)
    out = tmp_path / "same.pbm"
    rc = cli.main(["ising-denoise", "--in", str(path), "--out", str(out),
                   "--sweeps", "0", "--burnin", "0"])
    assert rc == 0
    np.testing.assert_array_equal(read_pbm(out), noisy)


def test_ising_denoise_burnin_covering_every_sweep_is_input_error(tmp_path, capsys):
    _, _, path = _noisy_pbm(tmp_path)
    out = tmp_path / "o.pbm"
    assert cli.main(["ising-denoise", "--in", str(path), "--out", str(out),
                     "--sweeps", "10", "--burnin", "10"]) == 2
    assert "burnin must be < sweeps" in capsys.readouterr().err
    assert not out.exists()


def test_ising_denoise_deterministic(tmp_path):
    _, _, path = _noisy_pbm(tmp_path)
    outs = []
    for name in ("r1.pbm", "r2.pbm"):
        out = tmp_path / name
        assert cli.main(["ising-denoise", "--in", str(path), "--out", str(out),
                         "--sweeps", "15", "--burnin", "5", "--seed", "21"]) == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]


def test_ising_denoise_unreadable_image(tmp_path, capsys):
    missing = tmp_path / "nope.pbm"
    assert cli.main(["ising-denoise", "--in", str(missing),
                     "--out", str(tmp_path / "o.pbm")]) == 2
    garbage = tmp_path / "garbage.pbm"
    garbage.write_bytes(b"GIF89a....")
    assert cli.main(["ising-denoise", "--in", str(garbage),
                     "--out", str(tmp_path / "o.pbm")]) == 2
    capsys.readouterr()
    for text, message in (("P1\n2 1\n1 2 0\n", "bad.pbm: invalid character b'2' in P1 raster"),
                          ("P1\n2x 1\n1 0\n", "bad.pbm: bad dimensions b'2x' x b'1'")):
        bad = tmp_path / "bad.pbm"
        bad.write_text(text)
        assert cli.main(["ising-denoise", "--in", str(bad),
                         "--out", str(tmp_path / "o.pbm")]) == 2
        assert message in capsys.readouterr().err
    assert not (tmp_path / "o.pbm").exists()


# ---------------------------------------------------------------------------
# hb-bench / rng-bench
# ---------------------------------------------------------------------------

def test_hb_bench_grid(tmp_path):
    out = tmp_path / "hb.csv"
    rc = cli.main(["hb-bench", "--groups", "3", "--K", "3", "--navg", "60,120",
                   "--neval", "1,2", "--modes", "coarse,fine", "--workers", "1",
                   "--sweeps", "1", "--reps", "1", "--out", str(out)])
    assert rc == 0
    _, rows = read_csv_rows(out)
    assert len(rows) == 8  # 2 navg x 2 neval x 2 modes
    assert {r.split(",")[0] for r in rows} == {
        "hb/coarse/neval1", "hb/coarse/neval2", "hb/fine/neval1", "hb/fine/neval2"}


def test_hb_bench_rejects_zero_sweeps_and_reps(tmp_path, capsys):
    base = ["hb-bench", "--groups", "2", "--K", "2", "--navg", "20", "--neval", "1",
            "--out", str(tmp_path / "hb.csv")]
    for flag, name in (("--sweeps", "n_sweeps"), ("--reps", "reps")):
        assert cli.main(base + [flag, "0"]) == 2
        assert f"{name} must be >= 1, got 0" in capsys.readouterr().err
    assert not (tmp_path / "hb.csv").exists()


def test_rng_bench_cli(tmp_path):
    out = tmp_path / "rng.csv"
    rc = cli.main(["rng-bench", "--dists", "uniform,gamma", "--modes", "oaat,batch",
                   "--n", "20000", "--out", str(out)])
    assert rc == 0
    _, rows = read_csv_rows(out)
    assert len(rows) == 4


@pytest.mark.parametrize("argv", [
    ["hb-bench", "--navg="], ["hb-bench", "--navg", "300,"], ["hb-bench", "--workers="],
    ["hb-bench", "--neval="], ["hb-bench", "--modes="], ["hb-bench", "--modes", "coarse,,fine"],
    ["rng-bench", "--dists="], ["rng-bench", "--modes="], ["rng-bench", "--modes", "oaat,"],
    ["glm-sample", "--synthetic", "200,"],
])
def test_an_empty_list_or_item_is_a_usage_error_naming_its_flag(tmp_path, capsys, argv):
    out = tmp_path / "o.csv"
    assert cli.main(argv + ["--out", str(out)]) == 2
    flag = argv[1].split("=")[0]
    err = capsys.readouterr().err
    assert f"argument {flag}:" in err and "empty item in" in err
    assert "_ints" not in err and "_words" not in err
    assert not out.exists()


@pytest.mark.parametrize("argv, kind", [
    (["hb-bench", "--modes", "coarse,bogus"], MappingMode),
    (["rng-bench", "--dists", "uniform,cauchy"], BenchDist),
    (["rng-bench", "--modes", "bogus"], BenchMode),
])
def test_a_bad_enum_item_fails_at_parse_time_naming_its_flag(tmp_path, capsys, argv, kind):
    out = tmp_path / "o.csv"
    bad = argv[2].split(",")[-1]
    assert cli.main(argv + ["--out", str(out)]) == 2
    assert f"argument {argv[1]}: '{bad}' is not a valid {kind.__name__}" in capsys.readouterr().err
    assert not out.exists()
    assert cli.main([argv[0], "--help"]) == 0
    names = ",".join(m.value for m in kind)
    assert re.search(rf"{argv[1]} \w+ +{names}\n", capsys.readouterr().out)


def test_enum_lists_parse_to_members_in_any_case():
    parser = cli.build_parser()
    args = parser.parse_args(["hb-bench", "--modes", "FINE, coarse"])
    assert args.modes == [MappingMode.FINE, MappingMode.COARSE]
    args = parser.parse_args(["rng-bench", "--dists", "Gamma", "--modes", "batch"])
    assert args.dists == [BenchDist.GAMMA] and args.modes == [BenchMode.BATCH]
    args = parser.parse_args(["rng-bench"])
    assert args.dists == [BenchDist.UNIFORM, BenchDist.NORMAL, BenchDist.GAMMA]
    assert args.modes == [BenchMode.ONE_AT_A_TIME, BenchMode.BATCH]
    assert parser.parse_args(["hb-bench"]).modes == [MappingMode.COARSE, MappingMode.FINE]


def test_unknown_command_is_usage_error():
    assert cli.main(["frobnicate"]) == 2
    assert cli.main([]) == 2


# ---------------------------------------------------------------------------
# documented command lines
# ---------------------------------------------------------------------------

def _readme_command_lines():
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = text.split("## Command line", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    return [line for line in block.replace("\\\n", " ").splitlines()
            if line.startswith("parmcmc ")]


def test_readme_command_lines_and_every_help_parse(capsys):
    lines = _readme_command_lines()
    assert {shlex.split(line)[1] for line in lines} == set(cli._DESC)
    for line in lines:
        cli.build_parser().parse_args(shlex.split(line)[1:])
    # help strings are formatted only here, so a bad one fails nowhere else
    for command in cli._DESC:
        with pytest.raises(SystemExit) as exc:
            cli.build_parser().parse_args([command, "--help"])
        assert exc.value.code == 0
        assert capsys.readouterr().out.startswith(f"usage: parmcmc {command}")
