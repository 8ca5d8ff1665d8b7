#!/usr/bin/env python3
"""Reproduce the covariance-convergence table: reference 3-4-5 mixture,
Uniform(-4, 4) distance noise, 500 replicates per n.

Writes report.json plus an ellipse figure per n, and prints each failed
replicate with its reason as ``mc-run`` does. When a plot command fails, the
script exits with its code. Pass --quick for a cut-down run while iterating.
"""

import argparse
import os

import numpy as np

from mdsclt import clt, harness, pointmodel
from mdsclt.cli import _write_json, dispatch, print_failures
from mdsclt.noise import NoiseLaw, NoiseSpec


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out-dir", default="out/table1")
    ap.add_argument("--replicates", type=int, default=500)
    ap.add_argument("--seed", type=int, default=20260824)
    ap.add_argument("--threads", type=int, default=os.cpu_count() or 1)
    ap.add_argument("--quick", action="store_true",
                    help="50 replicates, n in {100, 500}")
    args = ap.parse_args()

    os.makedirs(args.out_dir, exist_ok=True)
    n_list = (100, 500) if args.quick else (50, 100, 500, 1000)
    replicates = 50 if args.quick else args.replicates

    cfg = harness.ExperimentConfig(
        distribution=pointmodel.triangle_345(),
        noise=NoiseSpec("model2", law=NoiseLaw("uniform", a=4.0)),
        n_list=n_list, d=2, replicates=replicates, seed=args.seed,
        checks={"clt": True}, threads=args.threads)
    report = harness.run(cfg)

    report_path = os.path.join(args.out_dir, "report.json")
    _write_json(report_path, report.to_json())

    for block in report.per_n:
        n = block["n"]
        print_failures(block["errors"])
        print(f"n = {n} (failed replicates: {block['failed']})")
        for k, c in enumerate(block["per_class"]):
            print(f"  class {k}: mean cov\n{np.array_str(c.empirical_cov, precision=2)}")
            print(f"  entry variances {np.diag(c.cov_entry_variances)}")
        code = dispatch(["plot", "--report", report_path, "--kind", "ellipses",
                         "--n", str(n),
                         "--out", os.path.join(args.out_dir, f"ellipses_n{n}.svg")])
        if code:
            raise SystemExit(code)

    # rotation-matched comparison of class 0 against the published column
    table = np.array([[13.63, -2.70], [-2.70, 31.76]])
    final = report.per_n[-1]["per_class"][0].empirical_cov
    match = clt.rotation_match(final, table)
    print(f"class 0 at n={report.per_n[-1]['n']}: max entry error vs "
          f"published column {match['max_rel_entry_error']:.3%}")


if __name__ == "__main__":
    main()
