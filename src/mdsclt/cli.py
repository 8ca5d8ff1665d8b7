"""Command-line entry point.

Subcommands: gen-points, distmat, perturb, embed, select-dim, rawstress,
theory-cov, mc-run, diagnose, plot. Exit codes: 0 success, 1 validation
error, 2 numerical failure. Outputs are written atomically. Every command
runs on one BLAS thread, so its output bits do not depend on the BLAS default.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile

import numpy as np

from . import clt, cmds, harness, noise as noisemod, pointmodel, rawstress, svgplot
from .matrixcore import (ConvergenceError, blas_threads, double_center,
                         read_matrix_csv, top_eigs)

SCREE_EXTRA = 4  # eigenvalues beyond d that the embed sidecar reports


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _atomic_write(path: str, text: str) -> None:
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _write_csv(path: str, array, header: str | None = None) -> None:
    rows = ["," .join(f"{v:.17g}" for v in row) for row in np.atleast_2d(array)]
    _atomic_write(path, "\n".join(([header] if header else []) + rows) + "\n")


def _json_text(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def _write_json(path: str, obj) -> None:
    _atomic_write(path, _json_text(obj))


def _read_json(path: str):
    with open(path) as fh:
        return json.load(fh)


def _load_config(path: str, threads: int) -> harness.ExperimentConfig:
    return harness.ExperimentConfig.from_json(_read_json(path), threads=threads)


def _default_threads(value):
    source = "--threads"
    if value is None:
        env = os.environ.get("MDSCLT_THREADS")
        if not env:
            return os.cpu_count() or 1
        value, source = int(env), "MDSCLT_THREADS"
    if value < 1:
        raise ValueError(f"{source} must be at least 1, got {value}")
    return value


def build_parser() -> _Parser:
    p = _Parser(prog="mdsclt", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen-points", help="sample a latent point cloud")
    g.add_argument("--dist", required=True,
                   help="distribution JSON file or the builtin 'triangle345'")
    g.add_argument("--n", type=int, required=True)
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--out", required=True)
    g.add_argument("--labels-out")

    g = sub.add_parser("distmat", help="pairwise distance matrix of a point CSV")
    g.add_argument("--in", dest="inp", required=True)
    g.add_argument("--out", required=True)

    g = sub.add_parser("perturb", help="apply a noise model to a distance matrix")
    g.add_argument("--in", dest="inp", required=True)
    g.add_argument("--noise", required=True, help="noise spec JSON file")
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--out-delta-sq", required=True)
    g.add_argument("--out-delta")
    g.add_argument("--out-e")

    g = sub.add_parser("embed", help="classical MDS of a squared-dissimilarity CSV")
    g.add_argument("--in", dest="inp", required=True)
    g.add_argument("--d", type=int, required=True)
    g.add_argument("--out", required=True)
    g.add_argument("--sidecar")
    g.add_argument("--allow-deficient", action="store_true")

    g = sub.add_parser("select-dim", help="dimension by the n^(2/3) eigenvalue rule")
    g.add_argument("--in", dest="inp", required=True)
    g.add_argument("--max-d", type=int, required=True)
    g.add_argument("--out")

    g = sub.add_parser("rawstress", help="raw-stress MDS of a dissimilarity CSV")
    g.add_argument("--in", dest="inp", required=True)
    g.add_argument("--d", type=int, required=True)
    g.add_argument("--init", choices=["cmds", "random"], default="cmds")
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--max-iter", type=int, default=500)
    g.add_argument("--tol", type=float, default=1e-8)
    g.add_argument("--out", required=True)
    g.add_argument("--sidecar")

    g = sub.add_parser("theory-cov", help="limiting covariances for a config")
    g.add_argument("--config", required=True)
    g.add_argument("--out", required=True)

    g = sub.add_parser("mc-run", help="Monte Carlo verification experiment")
    g.add_argument("--config", required=True)
    g.add_argument("--out", required=True)
    g.add_argument("--threads", type=int, default=None)
    g.add_argument("--samples-dir", help="dump aligned-row samples as CSV per n")

    g = sub.add_parser("diagnose", help="perturbation-bound scaling diagnostics")
    g.add_argument("--config", required=True)
    g.add_argument("--n-grid", default="100,200,400,800")
    g.add_argument("--replicates", type=int, default=10)
    g.add_argument("--out", required=True)
    g.add_argument("--threads", type=int, default=None)

    g = sub.add_parser("plot", help="render a report section as SVG")
    g.add_argument("--report", required=True)
    g.add_argument("--kind", required=True,
                   choices=["ellipses", "scree", "bias-trend", "bound-ratios"])
    g.add_argument("--n", type=int)
    g.add_argument("--out", required=True)
    return p


def _cmd_gen_points(args) -> int:
    spec = (pointmodel.triangle_345() if args.dist == "triangle345" else
            pointmodel.DistributionSpec.from_json(_read_json(args.dist)))
    cloud = pointmodel.sample(spec, args.n, args.seed)
    _write_csv(args.out, cloud.points)
    if args.labels_out and cloud.labels is not None:
        _write_csv(args.labels_out, cloud.labels[:, None])
    return 0


def _cmd_distmat(args) -> int:
    pts = np.loadtxt(args.inp, delimiter=",", ndmin=2)
    cloud = pointmodel.PointCloud(points=pts)
    _write_csv(args.out, cloud.distance_matrix())
    return 0


def _cmd_perturb(args) -> int:
    spec = noisemod.NoiseSpec.from_json(_read_json(args.noise))
    if args.out_delta and spec.squared_scale:
        raise ValueError("model 1 produces squared dissimilarities only: "
                         "there is no --out-delta")
    D = read_matrix_csv(args.inp, hollow=True)
    paths = {"delta_sq": args.out_delta_sq, "delta": args.out_delta, "E": args.out_e}
    out = noisemod.perturb(D, spec, args.seed, keep=[k for k, p in paths.items() if p])
    for key, path in paths.items():
        if path:
            _write_csv(path, out[key].data)
    return 0


def _cmd_embed(args) -> int:
    m = read_matrix_csv(args.inp)
    emb = cmds.embed(m, args.d, allow_deficient=args.allow_deficient)
    _write_csv(args.out, emb.config)
    if args.sidecar:
        # the embedding solves for d pairs only; the scree needs its own solve
        scree = top_eigs(double_center(m), min(args.d + SCREE_EXTRA, m.n))
        _write_json(args.sidecar, {
            "eigenvalues": emb.eigenvalues.tolist(),
            "all_top_eigenvalues": scree.values.tolist(),
            "flags": {"deficient": emb.deficient, "degenerate": scree.degenerate}})
    return 0


def _cmd_select_dim(args) -> int:
    m = read_matrix_csv(args.inp)
    res = cmds.select_dim(m, args.max_d)
    obj = {"d_hat": res["d_hat"], "threshold": res["threshold"],
           "eigenvalues": res["eigenvalues"].tolist()}
    if args.out:
        _write_json(args.out, obj)
    else:
        sys.stdout.write(_json_text(obj))
    return 0


def _cmd_rawstress(args) -> int:
    m = read_matrix_csv(args.inp, hollow=True)
    state = rawstress.minimize_stress(m, args.d, init=args.init, seed=args.seed,
                                      max_iter=args.max_iter, tol=args.tol)
    _write_csv(args.out, state.config)
    if args.sidecar:
        _write_json(args.sidecar, {
            "stress": state.stress, "iterations": state.iteration,
            "converged": state.converged, "seed": args.seed,
            "coincident_points": state.coincident_points})
    return 0


def _cmd_theory_cov(args) -> int:
    cfg = _load_config(args.config, threads=1)
    tc = clt.theory_cov(cfg.distribution, cfg.noise)
    _write_json(args.out, {
        "model": tc.model, "center_scale": tc.center_scale,
        "per_class": [{"z": None if c["z"] is None else np.asarray(c["z"]).tolist(),
                       "sigma": np.asarray(c["sigma"]).tolist()}
                      for c in tc.per_class]})
    return 0


def _sample_rows(block) -> np.ndarray:
    """Rows of the samples CSV for one n: the replicate index, the row within
    its class, the class and the deviation. ``pointmodel.sample`` emits the
    rows grouped by ascending class, so they keep their order."""
    labels, dev = block["labels"], block["deviations"]
    reps = len(block["replicates"])
    row = np.arange(len(labels)) - np.searchsorted(labels, labels)
    return np.column_stack([np.repeat(block["replicates"], len(labels)),
                            np.tile(row, reps), np.tile(labels, reps),
                            dev.reshape(-1, dev.shape[2])])


def _cmd_mc_run(args) -> int:
    cfg = _load_config(args.config, threads=_default_threads(args.threads))
    report = harness.run(cfg)
    for block in report.per_n:
        for r, reason in block["errors"]:
            print(f"n={block['n']} replicate {r} failed: {reason}", file=sys.stderr)
        check = block.get("diagnostics", {}).get("decomposition", {})
        if "error" in check:
            print(f"n={block['n']} decomposition check failed: {check['error']}",
                  file=sys.stderr)
    _write_json(args.out, report.to_json())
    if args.samples_dir:
        os.makedirs(args.samples_dir, exist_ok=True)
        header = "replicate,row,class," + ",".join(f"x{j}" for j in range(cfg.d))
        for block in report.per_n:
            _write_csv(os.path.join(args.samples_dir, f"samples_n{block['n']}.csv"),
                       _sample_rows(block), header)
    return 0


def _cmd_diagnose(args) -> int:
    cfg = _load_config(args.config, threads=_default_threads(args.threads))
    n_grid = [int(v) for v in args.n_grid.split(",")]
    table = clt.bound_checks(cfg.distribution, cfg.noise, n_grid,
                             args.replicates, cfg.seed, threads=cfg.threads)
    errors = table.pop("errors")
    for n, r, reason in errors:
        print(f"n={n} replicate {r} failed: {reason}", file=sys.stderr)
    failed = [n for n, _, _ in errors]
    empty = [n for n in n_grid if failed.count(n) == args.replicates]
    if empty:
        print(f"error: no replicate succeeded at n={','.join(map(str, empty))}",
              file=sys.stderr)
        return 1
    _write_json(args.out, {"seed": cfg.seed, **table})
    return 0


def _plot_ellipses(report: dict, n, out: str) -> int:
    blocks = [b for b in report.get("per_n", []) if n is None or b["n"] == n]
    if not blocks or not blocks[-1]["per_class"]:
        print("error: report has no per-class results for the requested n "
              "(run mc-run with the clt check enabled)", file=sys.stderr)
        return 1
    block = blocks[-1]
    nval = block["n"]
    shapes = []
    elements = []
    for c in block["per_class"]:
        emp_cov = np.asarray(c["pooled_cov"]) / nval
        mean = np.asarray(c["empirical_mean"])
        emp = harness.ellipse_points(mean, emp_cov)
        shapes.append(emp)
        elements.append(("emp", emp, mean))
        if c["theoretical_cov"] is not None and c["true_center"] is not None:
            center = np.asarray(c["true_center"])
            theo = harness.ellipse_points(center, np.asarray(c["theoretical_cov"]) / nval)
            shapes.append(theo)
            elements.append(("theo", theo, center))
    xlim, ylim = svgplot.data_limits(shapes)
    cv = svgplot.Canvas(xlim, ylim,
                        title=f"95% level curves, n={nval}, "
                              f"model {report['config']['noise']['model']}")
    for kind, path, center in elements:
        color = "blue" if kind == "emp" else "black"
        cv.polyline(path, color, cls=f"ellipse-{kind}")
        cv.marker(center[0], center[1], color, cls=f"mean-{kind}")
    _atomic_write(out, cv.render())
    return 0


def _plot_scree(report: dict, out: str) -> int:
    vals = report.get("eigenvalues")
    if vals is None:
        print("error: report has no 'eigenvalues' section (use select-dim --out)",
              file=sys.stderr)
        return 1
    vals = list(map(float, vals))
    xlim = (0.0, len(vals) + 1.0)
    ylim = (min(0.0, min(vals)), max(vals) * 1.08 + 1e-9)
    cv = svgplot.Canvas(xlim, ylim, title="eigenvalue scree")
    for i, v in enumerate(vals, start=1):
        cv.bar(i, v, 0.7, "steelblue", cls="scree-bar")
    if "threshold" in report:
        t = float(report["threshold"])
        cv.polyline([(xlim[0], t), (xlim[1], t)], "red", width=1.0, cls="threshold")
    _atomic_write(out, cv.render())
    return 0


def _plot_bias_trend(report: dict, out: str) -> int:
    if "bias" not in report:
        print("error: report has no 'bias' section (run scripts/run_bias.py)",
              file=sys.stderr)
        return 1
    ns = report["n"]
    bias = np.asarray(report["bias"], float)
    xlim = (0.0, max(ns) * 1.08)
    ylim = (0.0, float(bias.max()) * 1.15 + 1e-9)
    cv = svgplot.Canvas(xlim, ylim, title="class-mean bias vs n")
    colors = ["blue", "red", "orange", "green", "purple"]
    for k in range(bias.shape[1]):
        pts = list(zip(ns, bias[:, k]))
        cv.polyline(pts, colors[k % len(colors)], cls=f"bias-class-{k}")
        for x, y in pts:
            cv.marker(x, y, colors[k % len(colors)], r=2.5)
    _atomic_write(out, cv.render())
    return 0


def _plot_bound_ratios(report: dict, out: str) -> int:
    if "ratios" not in report:
        print("error: report has no 'ratios' section (run diagnose first)",
              file=sys.stderr)
        return 1
    ns = report["n_grid"]
    cv = svgplot.Canvas((0.0, max(ns) * 1.08), (0.0, 2.4),
                        title="bound ratios (normalized to first grid point)")
    colors = ["blue", "red", "orange", "green", "purple", "brown", "teal"]
    for i, (name, entry) in enumerate(sorted(report["ratios"].items())):
        meds = np.asarray(entry["median_per_n"], float)
        base = meds[0] if meds[0] > 0 else 1.0
        pts = list(zip(ns, np.minimum(meds / base, 2.4)))
        cv.polyline(pts, colors[i % len(colors)], cls=f"ratio-{name}")
        cv.label(ns[0], min(meds[0] / base, 2.3), name, colors[i % len(colors)])
    _atomic_write(out, cv.render())
    return 0


def _cmd_plot(args) -> int:
    report = _read_json(args.report)
    if args.kind == "ellipses":
        return _plot_ellipses(report, args.n, args.out)
    if args.kind == "scree":
        return _plot_scree(report, args.out)
    if args.kind == "bias-trend":
        return _plot_bias_trend(report, args.out)
    return _plot_bound_ratios(report, args.out)


_COMMANDS = {
    "gen-points": _cmd_gen_points,
    "distmat": _cmd_distmat,
    "perturb": _cmd_perturb,
    "embed": _cmd_embed,
    "select-dim": _cmd_select_dim,
    "rawstress": _cmd_rawstress,
    "theory-cov": _cmd_theory_cov,
    "mc-run": _cmd_mc_run,
    "diagnose": _cmd_diagnose,
    "plot": _cmd_plot,
}


def dispatch(argv) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        with blas_threads(1):
            return _COMMANDS[args.command](args)
    except (ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ConvergenceError, np.linalg.LinAlgError, FloatingPointError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    raise SystemExit(dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
