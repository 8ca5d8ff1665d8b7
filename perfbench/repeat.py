"""Repeat the benchmark over seeds and summarize the spread of each metric.

Usage, from the root of a checkout:

    python3 perfbench/repeat.py --seeds 1-10 [--workloads a,b] [--out FILE]

Runs ``run.py`` once per (workload, seed) with ``--trace 0`` and the
``run_seconds`` of BENCHMARK.json, then reports for each end-to-end metric
its values, median, quartiles (``statistics.quantiles(values, n=4)``) and
the interquartile spread as a share of the median, next to the metric's
bound. Also lists the distinct report digests each run saw.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def _seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--seeds", type=_seeds, required=True)
    p.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    p.add_argument("--out")
    args = p.parse_args()

    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    summary = {"run_seconds": bench["run_seconds"], "seeds": args.seeds, "workloads": {}}
    for workload in args.workloads.split(","):
        runs = []
        for seed in args.seeds:
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(bench["run_seconds"]),
                 "--trace", "0"], cwd=ROOT, capture_output=True, text=True)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or len(lines) < 2:
                print(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}",
                      file=sys.stderr)
                return 1
            runs.append({"seed": seed, "info": json.loads(lines[-2])["info"],
                         "result": json.loads(lines[-1])})
        metrics = {}
        for name, bound in bounds.items():
            values = [r["result"]["metrics"][name]["value"] for r in runs]
            q1, med, q3 = statistics.quantiles(values, n=4)
            metrics[name] = {"median": med, "q1": q1, "q3": q3,
                             "spread": (q3 - q1) / med, "bound": bound,
                             "values": values}
            print(f"{workload:14s} {name:20s} median {med:12.6g} "
                  f"spread {(q3 - q1) / med:7.4f} bound {bound}")
        summary["workloads"][workload] = {
            "correct": all(r["result"]["correct"] for r in runs),
            "failed": sum(r["result"]["failed"] for r in runs),
            "processes_per_run": [r["info"]["processes"] for r in runs],
            "distinct_report_digests_per_run":
                [r["info"]["distinct_report_digests"] for r in runs],
            "environment": runs[0]["info"]["environment"],
            "metrics": metrics}
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(summary, fh, indent=2)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
