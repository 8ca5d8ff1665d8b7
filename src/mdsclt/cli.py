"""Command-line entry point.

Subcommands: gen-points, distmat, perturb, embed, select-dim, rawstress,
theory-cov, mc-run, diagnose, plot. Commands raise; ``dispatch`` alone prints
the message and returns the exit code: 0 success, 1 validation error, 2
numerical failure. Outputs are written atomically. Every command runs on one
BLAS thread, so its output bits do not depend on the BLAS default.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile

import numpy as np

from . import clt, cmds, harness, noise as noisemod, pointmodel, rawstress, svgplot
from .matrixcore import ConvergenceError, one_blas_thread, read_matrix_csv, top_eigs

SCREE_EXTRA = 4  # eigenvalues beyond d that the embed sidecar reports
# Adjacent scree values closer than this, relative to the largest |value|,
# mark the embed sidecar's scree degenerate.
DEGENERATE_GAP_RTOL = 1e-10


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


def _load_config(path: str, **overrides) -> harness.ExperimentConfig:
    return harness.ExperimentConfig.from_json(_read_json(path), **overrides)


def print_failures(failures) -> None:
    """One stderr line per failed replicate, from (n, replicate, reason)."""
    for n, r, reason in failures:
        print(f"n={n} replicate {r} failed: {reason}", file=sys.stderr)


def require_each_n(failures, replicates: int) -> None:
    """Raise ValueError naming each n at which all ``replicates`` replicates
    failed, from their (n, replicate, reason) records."""
    failed = [n for n, _, _ in failures]
    if empty := sorted({n for n in failed if failed.count(n) == replicates}):
        raise ValueError(f"no replicate succeeded at n={','.join(map(str, empty))}")


def _default_threads(value):
    if value is None:
        return os.cpu_count() or 1
    if value < 1:
        raise ValueError(f"--threads must be at least 1, got {value}")
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
    g.add_argument("--n-grid", help="comma-separated n, in place of the config's n_list")
    g.add_argument("--replicates", type=int, help="in place of the config's replicates")
    g.add_argument("--out", required=True)
    g.add_argument("--threads", type=int, default=None)

    g = sub.add_parser("plot", help="render a report section as SVG")
    g.add_argument("--report", required=True)
    g.add_argument("--kind", required=True, choices=list(_PLOTS))
    g.add_argument("--n", type=int)
    g.add_argument("--out", required=True)
    return p


def _cmd_gen_points(args) -> None:
    spec = (pointmodel.triangle_345() if args.dist == "triangle345" else
            pointmodel.DistributionSpec.from_json(_read_json(args.dist)))
    cloud = pointmodel.sample(spec, args.n, args.seed)
    _write_csv(args.out, cloud.points)
    if args.labels_out and cloud.labels is not None:
        _write_csv(args.labels_out, cloud.labels[:, None])


def _cmd_distmat(args) -> None:
    pts = np.loadtxt(args.inp, delimiter=",", ndmin=2)
    _write_csv(args.out, pointmodel.PointCloud(points=pts).distance_matrix())


def _cmd_perturb(args) -> None:
    spec = noisemod.NoiseSpec.from_json(_read_json(args.noise))
    if args.out_delta and spec.squared_scale:
        raise ValueError("model 1 produces squared dissimilarities only: "
                         "there is no --out-delta")
    D = read_matrix_csv(args.inp)
    paths = {"delta_sq": args.out_delta_sq, "delta": args.out_delta, "E": args.out_e}
    out = noisemod.perturb(D, spec, args.seed, keep=[k for k, p in paths.items() if p])
    for key, path in paths.items():
        if path:
            _write_csv(path, out[key].data)


def _cmd_embed(args) -> None:
    m = read_matrix_csv(args.inp)
    emb = cmds.embed(m, args.d, allow_deficient=args.allow_deficient)
    _write_csv(args.out, emb.config)
    if args.sidecar:
        # the embedding solves for d pairs only; the scree needs its own solve
        k = min(args.d + SCREE_EXTRA, m.n)
        scree = top_eigs(emb.b_hat, k).values
        scale = float(np.abs(scree).max(initial=0.0))
        tie = bool(np.any(-np.diff(scree) < DEGENERATE_GAP_RTOL * max(scale, 1e-300)))
        _write_json(args.sidecar, {
            "eigenvalues": emb.pair.values.tolist(),
            "all_top_eigenvalues": scree.tolist(),
            "flags": {"deficient": emb.pair.deficient, "degenerate": tie}})


def _cmd_select_dim(args) -> None:
    m = read_matrix_csv(args.inp)
    res = cmds.select_dim(m, args.max_d)
    obj = {"d_hat": res["d_hat"], "threshold": res["threshold"],
           "eigenvalues": res["eigenvalues"].tolist()}
    if args.out:
        _write_json(args.out, obj)
    else:
        sys.stdout.write(_json_text(obj))


def _cmd_rawstress(args) -> None:
    m = read_matrix_csv(args.inp)
    state = rawstress.minimize_stress(m, args.d, init=args.init, seed=args.seed,
                                      max_iter=args.max_iter, tol=args.tol)
    _write_csv(args.out, state.config)
    if args.sidecar:
        _write_json(args.sidecar, {
            "stress": state.stress, "iterations": state.iteration,
            "converged": state.converged, "seed": args.seed,
            "coincident_points": state.coincident_points})


def _cmd_theory_cov(args) -> None:
    cfg = _load_config(args.config)
    sigmas = clt.theory_cov(cfg.distribution, cfg.noise)
    dist = cfg.distribution
    zs = dist.locations.tolist() if dist.variant == "point_mass_mixture" else [None]
    _write_json(args.out, {
        "model": cfg.noise.variant, "center_scale": cfg.noise.center_scale,
        "per_class": [{"z": z, "sigma": s.tolist()} for z, s in zip(zs, sigmas)]})


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


def _cmd_mc_run(args) -> None:
    cfg = _load_config(args.config, threads=_default_threads(args.threads))
    report = harness.run(cfg)
    for block in report.per_n:
        print_failures(block["errors"])
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


def _cmd_diagnose(args) -> None:
    overrides = {"threads": _default_threads(args.threads)}
    if args.n_grid is not None:
        try:
            overrides["n_list"] = [int(v) for v in args.n_grid.split(",")]
        except ValueError:
            raise ValueError(f"--n-grid must be comma-separated integers, "
                             f"got {args.n_grid!r}") from None
    if args.replicates is not None:
        overrides["replicates"] = args.replicates
    cfg = _load_config(args.config, **overrides)
    table = clt.bound_checks(cfg)
    errors = table.pop("errors")
    print_failures(errors)
    require_each_n(errors, cfg.replicates)
    _write_json(args.out, {"seed": cfg.seed, **table})


def _plot_ellipses(report: dict, n) -> svgplot.Canvas:
    blocks = [b for b in report.get("per_n", []) if n is None or b["n"] == n]
    if not blocks or not blocks[-1]["per_class"]:
        raise ValueError("report has no per-class results for the requested n "
                         "(run mc-run with the clt check enabled)")
    block = blocks[-1]
    nval = block["n"]
    shapes, elements = [], []
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
    return cv


def _plot_scree(report: dict, _n) -> svgplot.Canvas:
    vals = report.get("eigenvalues")
    if vals is None:
        raise ValueError("report has no 'eigenvalues' section (use select-dim --out)")
    vals = list(map(float, vals))
    xlim = (0.0, len(vals) + 1.0)
    ylim = (min(0.0, min(vals)), max(vals) * 1.08 + 1e-9)
    cv = svgplot.Canvas(xlim, ylim, title="eigenvalue scree")
    for i, v in enumerate(vals, start=1):
        cv.bar(i, v, 0.7, "steelblue", cls="scree-bar")
    if "threshold" in report:
        t = float(report["threshold"])
        cv.polyline([(xlim[0], t), (xlim[1], t)], "red", width=1.0, cls="threshold")
    return cv


def _plot_bias_trend(report: dict, _n) -> svgplot.Canvas:
    if "bias" not in report:
        raise ValueError("report has no 'bias' section (run scripts/run_bias.py)")
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
    return cv


def _plot_bound_ratios(report: dict, _n) -> svgplot.Canvas:
    if "ratios" not in report:
        raise ValueError("report has no 'ratios' section (run diagnose first)")
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
    return cv


# each plot takes the report and --n, which only ellipses reads
_PLOTS = {"ellipses": _plot_ellipses, "scree": _plot_scree,
          "bias-trend": _plot_bias_trend, "bound-ratios": _plot_bound_ratios}


def _cmd_plot(args) -> None:
    canvas = _PLOTS[args.kind](_read_json(args.report), args.n)
    _atomic_write(args.out, canvas.render())


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
        with one_blas_thread:
            _COMMANDS[args.command](args)
    # LinAlgError, a ValueError, is caught first; JSONDecodeError is one too
    except (ConvergenceError, np.linalg.LinAlgError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


def main() -> None:
    raise SystemExit(dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
