#!/usr/bin/env python3
"""Empirical scaling checks for the perturbation bounds: run the ratio
table over an n grid and render the trend figure."""

import argparse
import json
import os
import sys

from mdsclt import clt, pointmodel
from mdsclt.cli import dispatch
from mdsclt.noise import NoiseLaw, NoiseSpec


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out-dir", default="out/diagnostics")
    ap.add_argument("--n-grid", default="100,200,400,800")
    ap.add_argument("--replicates", type=int, default=10)
    ap.add_argument("--seed", type=int, default=6)
    ap.add_argument("--threads", type=int, default=os.cpu_count() or 1,
                    help="workers, each with one BLAS thread (default: CPU count)")
    args = ap.parse_args()

    os.makedirs(args.out_dir, exist_ok=True)
    n_grid = [int(v) for v in args.n_grid.split(",")]
    table = clt.bound_checks(
        pointmodel.triangle_345(),
        NoiseSpec("model2", law=NoiseLaw("uniform", a=4.0)),
        n_grid, args.replicates, args.seed, threads=args.threads)
    for n, r, reason in table.pop("errors"):
        print(f"n={n} replicate {r} failed: {reason}", file=sys.stderr)

    path = os.path.join(args.out_dir, "ratios.json")
    with open(path, "w") as fh:
        json.dump({"seed": args.seed, **table}, fh, indent=2, sort_keys=True)

    for name, entry in sorted(table["ratios"].items()):
        meds = ", ".join(f"{m:.3g}" for m in entry["median_per_n"])
        flag = "  <-- growing" if entry["flag_growth"] else ""
        print(f"{name:24s} [{meds}]{flag}")

    dispatch(["plot", "--report", path, "--kind", "bound-ratios",
              "--out", os.path.join(args.out_dir, "ratios.svg")])


if __name__ == "__main__":
    main()
