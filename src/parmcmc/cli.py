"""Command-line entry point: benchmarks, sampling runs, denoising. CSV out.

Every flag is typed; list flags take comma-separated items.  `bench` passes
only the grid flags given, so `perf.GridConfig` alone holds grid defaults.

Exit codes: 0 success, 2 usage or input error, 1 internal error.  Every
command is deterministic in its non-timing outputs given --seed.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
import traceback
from itertools import product

import numpy as np

from . import glm, hb, ising, perf, rng, sampler

_DESC = {
    "bench": "time the likelihood/gradient kernels over a strategy grid",
    "glm-sample": "run a logistic-regression Gibbs chain, write draws CSV",
    "hb-bench": "time hierarchical sweeps under coarse vs fine worker mappings",
    "ising-denoise": "restore a binary PBM image with the Ising Gibbs sampler",
    "rng-bench": "compare one-at-a-time vs batch deviate generation",
}


def _items(text: str) -> list[str]:
    """The stripped items of a comma-separated list; an empty item raises ValueError."""
    items = [v.strip() for v in text.split(",")]
    if "" in items:
        raise ValueError(f"empty item in {text!r}")
    return items


def _ints(text: str) -> list[int]:
    return [int(v) for v in _items(text)]


def _words(text: str) -> list[str]:
    return [v.lower() for v in _items(text)]


def _flag_type(parse):
    """`parse` as an argparse type whose usage error gives the parser's reason."""
    def parse_flag(text):
        try:
            return parse(text)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None
    return parse_flag


def _enum_list(kind) -> dict:
    """type and help of a comma-list flag of `kind` members, named by value in any case."""
    return {"type": _flag_type(lambda text: [kind(v) for v in _words(text)]),
            "help": ",".join(m.value for m in kind)}


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="parmcmc")
    ints = _flag_type(_ints)
    sub = p.add_subparsers(dest="command", required=True)

    b = sub.add_parser("bench", help=_DESC["bench"])
    b.add_argument("--N", dest="n_rows", type=ints, required=True,
                   help="row counts, comma separated")
    b.add_argument("--K", dest="n_cols", type=ints, required=True,
                   help="column counts, comma separated")
    b.add_argument("--strategies", **_enum_list(glm.Strategy))
    b.add_argument("--workers", type=ints)
    b.add_argument("--chunks", type=ints,
                   help="chunks per worker block, crossed with every strategy, comma separated")
    b.add_argument("--op", type=str.lower, choices=("loglike", "grad"))
    b.add_argument("--evals", type=int)
    b.add_argument("--reps", type=int)
    b.add_argument("--seed", type=int)
    b.add_argument("--out", default="bench.csv")
    b.set_defaults(func=cmd_bench)

    g = sub.add_parser("glm-sample", help=_DESC["glm-sample"])
    src = g.add_mutually_exclusive_group(required=True)
    src.add_argument("--data", help="CSV: K covariate columns + 0/1 response column")
    src.add_argument("--synthetic", type=ints, metavar="N,K",
                     help="generate a seeded synthetic instance")
    g.add_argument("--iters", type=int, default=2000)
    g.add_argument("--burnin", type=int, default=500)
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--width", type=float, default=1.0, help="slice sampler initial width")
    g.add_argument("--max-steps", type=int, default=50)
    g.add_argument("--prior-sigma", type=float, default=10.0)
    g.add_argument("--workers", type=int, default=1)
    g.add_argument("--out", default="draws.csv")
    g.set_defaults(func=cmd_glm_sample)

    h = sub.add_parser("hb-bench", help=_DESC["hb-bench"])
    h.add_argument("--groups", type=int, default=20, help="number of regression groups")
    h.add_argument("--K", type=int, default=10)
    h.add_argument("--navg", type=ints, default=[1000], help="rows per group, grid axis")
    h.add_argument("--neval", type=ints, default=[1, 10])
    h.add_argument("--modes", default=list(hb.MappingMode), **_enum_list(hb.MappingMode))
    h.add_argument("--workers", type=ints, default=[1])
    h.add_argument("--sweeps", type=int, default=3)
    h.add_argument("--reps", type=int, default=3)
    h.add_argument("--seed", type=int, default=0)
    h.add_argument("--out", default="hb_bench.csv")
    h.set_defaults(func=cmd_hb_bench)

    i = sub.add_parser("ising-denoise", help=_DESC["ising-denoise"])
    i.add_argument("--in", dest="infile", required=True, help="input PBM (P1 or P4)")
    i.add_argument("--out", required=True, help="restored PBM path")
    i.add_argument("--w", type=float, default=1.0, help="coupling weight")
    i.add_argument("--bias", type=float, default=2.0, help="bias scale toward the input")
    i.add_argument("--sweeps", type=int, default=30)
    i.add_argument("--burnin", type=int, default=10)
    i.add_argument("--seed", type=int, default=0)
    i.add_argument("--trace", help="optional per-sweep flip-rate CSV")
    i.add_argument("--fmt", choices=("P1", "P4"), default="P4", help="output format")
    i.set_defaults(func=cmd_ising_denoise)

    r = sub.add_parser("rng-bench", help=_DESC["rng-bench"])
    r.add_argument("--dists", default=[rng.BenchDist.UNIFORM, rng.BenchDist.NORMAL,
                                       rng.BenchDist.GAMMA], **_enum_list(rng.BenchDist))
    r.add_argument("--modes", default=list(rng.BenchMode), **_enum_list(rng.BenchMode))
    r.add_argument("--n", type=int, default=1_000_000)
    r.add_argument("--seed", type=int, default=0)
    r.add_argument("--out", default="rng_bench.csv")
    r.set_defaults(func=cmd_rng_bench)
    return p


def cmd_bench(args) -> int:
    grid_keys = {f.name for f in dataclasses.fields(perf.GridConfig)}
    cfg = perf.GridConfig(**{k: v for k, v in vars(args).items()
                             if k in grid_keys and v is not None})
    records, failures = perf.run_grid(cfg)
    perf.write_bench_csv(records, args.out, failures=failures)
    for cell, msg in failures:
        print(f"warning: cell failed: {cell}: {msg}", file=sys.stderr)
    print(f"wrote {len(records)} records ({len(failures)} failed cells) to {args.out}")
    return 0


def cmd_glm_sample(args) -> int:
    if args.data:
        data = glm.load_design_csv(args.data)
    else:
        if len(args.synthetic) != 2:
            raise ValueError("--synthetic expects N,K")
        data, _ = glm.synthetic_logistic(args.synthetic[0], args.synthetic[1], seed=args.seed)
    prior = sampler.GaussianPrior.isotropic(data.n_cols, sigma=args.prior_sigma)
    cfg = sampler.ChainConfig(n_iter=args.iters, n_burnin=args.burnin, seed=args.seed,
                              slice_width=args.width, slice_max_steps=args.max_steps)
    out = sampler.run_chain(data, prior, cfg, args.workers)
    sampler.write_draws_csv(out, args.out)
    means = " ".join(f"{m:.6g}" for m in out.draws.mean(axis=0))
    print(f"posterior_mean: {means}")
    per_draw = out.accept_evals / (cfg.n_iter * data.n_cols)
    print(f"draws={out.draws.shape[0]} evals={out.accept_evals} "
          f"({per_draw:.2f} per draw, {out.reused} reused) "
          f"wall={out.wall_time:.3f}s -> {args.out}")
    return 0


def cmd_hb_bench(args) -> int:
    prior = sampler.GaussianPrior.isotropic(args.K)
    records = []
    for navg in args.navg:
        ds, _ = hb.synthetic_hb_dataset(args.groups, args.K, navg, seed=args.seed)
        policies = [hb.MappingPolicy(mode, workers=w, neval=ne)
                    for mode, w, ne in product(args.modes, args.workers, args.neval)]
        records.extend(hb.hb_benchmark(ds, prior, policies, n_sweeps=args.sweeps,
                                       reps=args.reps, seed=args.seed))
    perf.write_bench_csv(records, args.out)
    print(f"wrote {len(records)} records to {args.out}")
    return 0


def cmd_ising_denoise(args) -> int:
    noisy = ising.read_pbm(args.infile)
    trace: list[float] | None = [] if args.trace else None
    restored = ising.denoise(noisy, w=args.w, bias_scale=args.bias, sweeps=args.sweeps,
                             burnin=args.burnin, seed=args.seed, trace_out=trace)
    ising.write_pbm(args.out, restored, fmt=args.fmt)
    if args.trace:
        with open(args.trace, "w") as fh:
            fh.write("sweep,flip_fraction\n")
            for t, fr in enumerate(trace):
                fh.write(f"{t},{fr:.6g}\n")
    changed = int(np.count_nonzero(restored != noisy))
    print(f"restored {args.infile} -> {args.out} ({changed} pixels changed)")
    return 0


def cmd_rng_bench(args) -> int:
    records = []
    for dist, mode in product(args.dists, args.modes):
        records.append(rng.rng_bench(dist, mode, args.n, seed=args.seed))
    rng.write_rng_bench_csv(records, args.out)
    for r in records:
        print(f"{r.dist:9s} {r.mode:5s} n={r.n} cycles/sample={r.cycles_per_sample:.1f} "
              f"waste={r.waste_fraction:.3f}")
    print(f"wrote {len(records)} records to {args.out}")
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse uses 2 for usage errors
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception:
        traceback.print_exc()
        return 1


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
