#!/usr/bin/env python3
"""Heteroscedastic bias experiment: the class means are measured against the
unscaled centered locations z - mu. Distance-proportional noise (model2_hetero)
keeps a non-vanishing bias across n, since its limit is centred at
sqrt(4/3) (z - mu); the constant-variance control concentrates on z - mu.
Beside each measured bias it prints the limit's, (center_scale - 1) |z - mu|:
(sqrt(4/3) - 1) |z - mu| for model2_hetero and 0 for the control. Each failed
replicate is printed with its reason as ``mc-run`` does; bias_<name>.json
counts them per n in ``failed``, without the reasons."""

import argparse
import os

import numpy as np

from mdsclt import harness, pointmodel
from mdsclt.cli import _write_json, dispatch, print_failures
from mdsclt.noise import NoiseLaw, NoiseSpec


def run_one(distribution, noise, args):
    cfg = harness.ExperimentConfig(
        distribution=distribution, noise=noise,
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
    distribution = pointmodel.triangle_345()
    radii = np.linalg.norm(
        distribution.locations - pointmodel.moments(distribution).mu, axis=1)
    noises = {"hetero": NoiseSpec("model2_hetero"),
              "control": NoiseSpec("model2", law=NoiseLaw("uniform", a=4.0))}
    for name, noise in noises.items():
        out = run_one(distribution, noise, args)
        print_failures((n, r, reason) for n, errors in zip(out["n"], out.pop("errors"))
                       for r, reason in errors)
        path = os.path.join(args.out_dir, f"bias_{name}.json")
        _write_json(path, out)
        predicted = ", ".join(f"{(noise.center_scale - 1.0) * r:.3f}" for r in radii)
        print(f"{name}:")
        for n, biases, ses in zip(out["n"], out["bias"], out["std_error"]):
            measured = ", ".join(f"{b:.3f}" for b in biases)
            ratios = ", ".join(f"{b / se:.1f}" for b, se in zip(biases, ses))
            print(f"  n={n:5d}  bias per class: [{measured}]  predicted: [{predicted}]"
                  f"  bias/SE: [{ratios}]")
        dispatch(["plot", "--report", path, "--kind", "bias-trend",
                  "--out", os.path.join(args.out_dir, f"bias_{name}.svg")])


if __name__ == "__main__":
    main()
