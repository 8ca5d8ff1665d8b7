#!/usr/bin/env python3
"""Heteroscedastic bias experiment: distance-proportional noise keeps a
non-vanishing class-mean bias across n, while the constant-variance
control concentrates on the true centered locations."""

import argparse
import os

from mdsclt import harness, pointmodel
from mdsclt.cli import _write_json, dispatch
from mdsclt.noise import NoiseLaw, NoiseSpec


def run_one(noise, args):
    cfg = harness.ExperimentConfig(
        distribution=pointmodel.triangle_345(), noise=noise,
        n_list=tuple(int(v) for v in args.n_list.split(",")),
        d=2, replicates=args.replicates, seed=args.seed,
        checks={"clt": False}, threads=args.threads)
    return harness.hetero_bias_experiment(cfg)


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out-dir", default="out/bias")
    ap.add_argument("--n-list", default="50,100,500,1000")
    ap.add_argument("--replicates", type=int, default=30)
    ap.add_argument("--seed", type=int, default=17)
    ap.add_argument("--threads", type=int, default=os.cpu_count() or 1)
    args = ap.parse_args()

    os.makedirs(args.out_dir, exist_ok=True)
    runs = {
        "hetero": run_one(NoiseSpec("model2_hetero"), args),
        "control": run_one(NoiseSpec("model2", law=NoiseLaw("uniform", a=4.0)),
                           args),
    }
    for name, out in runs.items():
        path = os.path.join(args.out_dir, f"bias_{name}.json")
        _write_json(path, out)
        print(f"{name}:")
        for n, biases, ses in zip(out["n"], out["bias"], out["std_error"]):
            ratios = ", ".join(f"{b / se:.1f}" for b, se in zip(biases, ses))
            print(f"  n={n:5d}  bias/SE per class: [{ratios}]")
        dispatch(["plot", "--report", path, "--kind", "bias-trend",
                  "--out", os.path.join(args.out_dir, f"bias_{name}.svg")])


if __name__ == "__main__":
    main()
