#!/usr/bin/env python3
"""Empirical scaling checks for the perturbation bounds: write the experiment
config with the n grid as its n_list, run ``mdsclt diagnose`` on it and render
the trend figure, into config.json, ratios.json and ratios.svg in --out-dir.
Failed cells are printed as ``diagnose`` prints them; when ``diagnose`` or
``plot`` exits non-zero (every cell of some n failed, say), the script exits
with that code."""

import argparse
import os

from mdsclt import pointmodel
from mdsclt.cli import _read_json, _write_json, dispatch
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
    config = os.path.join(args.out_dir, "config.json")
    _write_json(config, {
        "distribution": pointmodel.triangle_345().to_json(),
        "noise": NoiseSpec("model2", law=NoiseLaw("uniform", a=4.0)).to_json(),
        "n_list": [int(v) for v in args.n_grid.split(",")],
        "d": 2, "replicates": args.replicates, "seed": args.seed})
    path = os.path.join(args.out_dir, "ratios.json")
    code = dispatch(["diagnose", "--config", config, "--out", path,
                     "--threads", str(args.threads)])
    if code:
        raise SystemExit(code)

    for name, entry in sorted(_read_json(path)["ratios"].items()):
        meds = ", ".join(f"{m:.3g}" for m in entry["median_per_n"])
        flag = "  <-- growing" if entry["flag_growth"] else ""
        print(f"{name:24s} [{meds}]{flag}")

    code = dispatch(["plot", "--report", path, "--kind", "bound-ratios",
                     "--out", os.path.join(args.out_dir, "ratios.svg")])
    if code:
        raise SystemExit(code)


if __name__ == "__main__":
    main()
