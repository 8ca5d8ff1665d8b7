#!/usr/bin/env python3
"""Empirical scaling checks for the perturbation bounds: run the ratio
table over an n grid and render the trend figure."""

import argparse
import os
import sys

from mdsclt import clt, harness, pointmodel
from mdsclt.cli import _write_json, dispatch
from mdsclt.noise import NoiseLaw, NoiseSpec


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out-dir", default="out/diagnostics")
    ap.add_argument("--n-grid", default="100,200,400,800")
    ap.add_argument("--replicates", type=int, default=10, help="at least 2")
    ap.add_argument("--seed", type=int, default=6)
    ap.add_argument("--threads", type=int, default=os.cpu_count() or 1,
                    help="workers, each with one BLAS thread (default: CPU count)")
    args = ap.parse_args()

    os.makedirs(args.out_dir, exist_ok=True)
    cfg = harness.ExperimentConfig(
        distribution=pointmodel.triangle_345(),
        noise=NoiseSpec("model2", law=NoiseLaw("uniform", a=4.0)),
        n_list=tuple(int(v) for v in args.n_grid.split(",")),
        d=2, replicates=args.replicates, seed=args.seed, threads=args.threads)
    table = clt.bound_checks(cfg)
    for n, r, reason in table.pop("errors"):
        print(f"n={n} replicate {r} failed: {reason}", file=sys.stderr)

    path = os.path.join(args.out_dir, "ratios.json")
    _write_json(path, {"seed": args.seed, **table})

    for name, entry in sorted(table["ratios"].items()):
        meds = ", ".join(f"{m:.3g}" for m in entry["median_per_n"])
        flag = "  <-- growing" if entry["flag_growth"] else ""
        print(f"{name:24s} [{meds}]{flag}")

    dispatch(["plot", "--report", path, "--kind", "bound-ratios",
              "--out", os.path.join(args.out_dir, "ratios.svg")])


if __name__ == "__main__":
    main()
