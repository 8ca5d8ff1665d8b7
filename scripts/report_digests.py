#!/usr/bin/env python3
"""Print one SHA-256 per output of a fixed set of small mdsclt runs.

    python3 scripts/report_digests.py

Imports mdsclt from the ``src`` directory of the checkout that holds this
script, runs every case through the CLI entry ``mdsclt.cli.dispatch`` in a
temporary directory, and prints ``<case>/<output> <sha256>`` per line. Two
checkouts that print the same lines write the same bytes, so a refactor
meant to keep reports unchanged can be checked by diffing the output.

Cases: ``mc-run`` for each noise variant a JSON config can name, at n=60
(dense eigensolver on the formed centered matrix) and n=300 (above the dense
cutoff: ARPACK on the implicitly centered operator over the squared
dissimilarities, which forms no centered matrix); ``mc-run`` on a Gaussian cloud at n=300 with model-1 and with
model-2 noise and on a uniform-box cloud at n=300 with model-3 noise, whose
distance matrices, unlike a mixture's, have n distinct rows and whose points
are random draws (model 1 on the Gaussian is the one non-mixture report with
a theoretical covariance); ``mc-run`` with the raw-stress estimator, with the
decomposition check, and with ``--samples-dir`` over n=60 and n=300 (one
digest per samples CSV); ``theory-cov`` of the mixture under models 1, 2 and
3 and model2_hetero, and of the Gaussian under model 1; ``diagnose`` with Uniform(-4, 4) noise
and with zero noise, at n=100, 200 (dense) and 300 (iterative);
``distmat`` of a Gaussian cloud offset by 10^6 from the origin, whose
distances keep their digits only when taken from coordinate differences;
``perturb`` for each of the ``mc-run`` noise variants at n=80 (one row strip of
``matrixcore.upper_strips``); ``embed --sidecar`` of a noisy n=300 matrix,
whose sidecar scree comes from its own eigensolve; ``select-dim`` of the same
matrix with ``--max-d`` 4 (iterative) and 299 (the dense solve above the
cutoff); and ``perturb`` of the distance matrix of a Gaussian cloud at n=300
(two row strips, with no block of coincident points, which a mixture sorted
by class has in its last strip) with all three outputs; ``rawstress
--sidecar`` of the n=80 model-2 dissimilarities; and ``plot`` of each kind:
``ellipses`` of the model-2 n=300 ``mc-run`` report, ``scree`` of the
``select-dim`` report with ``--max-d`` 4, ``bound-ratios`` of the Uniform(-4,
4) ``diagnose`` report and ``bias-trend`` of a fixed bias table.
"""

import hashlib
import json
import os
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

from mdsclt.cli import dispatch  # noqa: E402

TRIANGLE = {"point_mass_mixture": {
    "locations": [[-0.9, -2.0], [2.1, -2.0], [-0.9, 2.0]],
    "weights": [0.2, 0.3, 0.5]}}
NOISES = {
    "model1": {"model": "model1", "law": {"gaussian": {"sigma": 2.0}}},
    "model2": {"model": "model2", "law": {"uniform": {"a": 4.0}}},
    "model3": {"model": "model3", "q": 0.7},
    "model2_hetero": {"model": "model2_hetero"},
}
GAUSSIAN = {"gaussian": {"mean": [0.5, -1.0],
                         "covariance": [[2.0, 0.3], [0.3, 1.0]]}}
UNIFORM_BOX = {"uniform_box": {"lo": [-1.0, 0.0], "hi": [2.0, 1.0]}}
GAUSSIAN_OFFSET = {"gaussian": {"mean": [1e6, 1e6],
                                "covariance": [[2.0, 0.3], [0.3, 1.0]]}}
# A bias table as scripts/run_bias.py writes it, for the bias-trend plot.
BIAS_TABLE = {"n": [50, 100, 500], "bias": [[0.31, 0.12, 0.05],
                                         [0.22, 0.09, 0.04],
                                         [0.18, 0.07, 0.02]]}
# B_hat = B up to roundoff: the spectral norm of a roundoff-sized difference,
# on both sides of the dense-eigensolver cutoff.
ZERO_NOISE = {"model": "model2", "law": {"uniform": {"a": 0.0}}}


def sha256_file(path) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def write_json(path, obj) -> str:
    with open(path, "w") as fh:
        json.dump(obj, fh)
    return path


def config(noise_json, n_list, replicates=3, estimator="cmds", checks=None,
           distribution=TRIANGLE):
    return {"distribution": distribution, "noise": noise_json, "n_list": n_list,
            "d": 2, "replicates": replicates, "seed": 2018,
            "estimator": estimator, "checks": checks or {"clt": True}}


def run(tmp, name, argv, outputs) -> list:
    code = dispatch(argv)
    if code != 0:
        raise SystemExit(f"{name}: exit {code}")
    return [f"{name}/{label} {sha256_file(os.path.join(tmp, f'{name}.{label}'))}"
            for label in outputs]


def cases(tmp) -> list:
    lines = []

    def path(name, suffix):
        return os.path.join(tmp, f"{name}.{suffix}")

    for model, noise_json in NOISES.items():
        for n in (60, 300):
            name = f"mc-run_{model}_n{n}"
            cfg = write_json(path(name, "config"), config(noise_json, [n]))
            lines += run(tmp, name, ["mc-run", "--config", cfg, "--threads", "1",
                                     "--out", path(name, "report")], ["report"])
    for name, cfg_json in (
            ("mc-run_gaussian_model1_n300", config(NOISES["model1"], [300],
                                                   distribution=GAUSSIAN)),
            ("mc-run_gaussian_model2_n300", config(NOISES["model2"], [300],
                                                   distribution=GAUSSIAN)),
            ("mc-run_uniform_box_model3_n300", config(NOISES["model3"], [300],
                                                      distribution=UNIFORM_BOX)),
            ("mc-run_rawstress", config(NOISES["model2"], [60], replicates=2,
                                        estimator="rawstress")),
            ("mc-run_decomposition", config(NOISES["model3"], [60, 300],
                                            checks={"clt": False,
                                                    "decomposition": True}))):
        cfg = write_json(path(name, "config"), cfg_json)
        lines += run(tmp, name, ["mc-run", "--config", cfg, "--threads", "1",
                                 "--out", path(name, "report")], ["report"])
    name = "mc-run_samples"
    cfg = write_json(path(name, "config"), config(NOISES["model2"], [60, 300]))
    samples = path(name, "samples")
    run(tmp, name, ["mc-run", "--config", cfg, "--threads", "1",
                    "--out", path(name, "report"), "--samples-dir", samples], [])
    for n in (60, 300):
        digest = sha256_file(os.path.join(samples, f"samples_n{n}.csv"))
        lines.append(f"{name}/samples_n{n} {digest}")

    for name, cfg_json in (
            ("theory-cov_model1", config(NOISES["model1"], [60])),
            ("theory-cov_model2", config(NOISES["model2"], [60])),
            ("theory-cov_model3", config(NOISES["model3"], [60])),
            ("theory-cov_model2_hetero", config(NOISES["model2_hetero"], [60])),
            ("theory-cov_gaussian_model1", config(NOISES["model1"], [60],
                                                  distribution=GAUSSIAN))):
        cfg = write_json(path(name, "config"), cfg_json)
        lines += run(tmp, name, ["theory-cov", "--config", cfg,
                                 "--out", path(name, "report")], ["report"])

    for name, noise_json in (("diagnose", NOISES["model2"]),
                             ("diagnose_zero_noise", ZERO_NOISE)):
        cfg = write_json(path(name, "config"),
                         config(noise_json, [100, 200, 300], replicates=2))
        lines += run(tmp, name, ["diagnose", "--config", cfg,
                                 "--out", path(name, "report")], ["report"])

    name = "distmat_gaussian_offset"
    points = path(name, "points")
    if dispatch(["gen-points", "--dist", write_json(path(name, "spec"), GAUSSIAN_OFFSET),
                 "--n", "200", "--seed", "5", "--out", points]):
        raise SystemExit(f"{name}: gen-points failed")
    lines += run(tmp, name, ["distmat", "--in", points, "--out", path(name, "dist")],
                 ["dist"])

    points, dist = path("points", "csv"), path("dist", "csv")
    if dispatch(["gen-points", "--dist", "triangle345", "--n", "80", "--seed", "5",
                 "--out", points]) or dispatch(["distmat", "--in", points,
                                                "--out", dist]):
        raise SystemExit("gen-points/distmat failed")
    for model, noise_json in NOISES.items():
        name = f"perturb_{model}"
        spec = write_json(path(name, "noise"), noise_json)
        argv = ["perturb", "--in", dist, "--noise", spec, "--seed", "9",
                "--out-delta-sq", path(name, "delta_sq"), "--out-e", path(name, "e")]
        outputs = ["delta_sq", "e"]
        if model != "model1":
            argv += ["--out-delta", path(name, "delta")]
            outputs.append("delta")
        lines += run(tmp, name, argv, outputs)

    name = "embed_n300"
    points, dist, dsq = path(name, "points"), path(name, "dist"), path(name, "dsq")
    spec = write_json(path(name, "noise"), NOISES["model2"])
    if dispatch(["gen-points", "--dist", "triangle345", "--n", "300", "--seed", "5",
                 "--out", points]) or dispatch(["distmat", "--in", points,
                                                "--out", dist]) or dispatch(
            ["perturb", "--in", dist, "--noise", spec, "--seed", "9",
             "--out-delta-sq", dsq]):
        raise SystemExit("embed_n300 input failed")
    lines += run(tmp, name, ["embed", "--in", dsq, "--d", "2",
                             "--out", path(name, "config"),
                             "--sidecar", path(name, "sidecar")],
                 ["config", "sidecar"])
    for name, max_d in (("select-dim_n300", "4"), ("select-dim_n300_max299", "299")):
        lines += run(tmp, name, ["select-dim", "--in", dsq, "--max-d", max_d,
                                 "--out", path(name, "report")], ["report"])

    name = "perturb_n300"
    points, dist = path(name, "points"), path(name, "dist")
    if dispatch(["gen-points", "--dist", write_json(path(name, "spec"), GAUSSIAN),
                 "--n", "300", "--seed", "5", "--out", points]) or dispatch(
            ["distmat", "--in", points, "--out", dist]):
        raise SystemExit(f"{name} input failed")
    lines += run(tmp, name, ["perturb", "--in", dist, "--noise", spec, "--seed", "9",
                             "--out-delta-sq", path(name, "delta_sq"),
                             "--out-delta", path(name, "delta"),
                             "--out-e", path(name, "e")], ["delta_sq", "delta", "e"])

    name = "rawstress_model2"
    lines += run(tmp, name, ["rawstress", "--in", path("perturb_model2", "delta"),
                             "--d", "2", "--out", path(name, "config"),
                             "--sidecar", path(name, "sidecar")], ["config", "sidecar"])

    bias = write_json(path("bias", "report"), BIAS_TABLE)
    for kind, report, extra in (
            ("ellipses", path("mc-run_model2_n300", "report"), ["--n", "300"]),
            ("scree", path("select-dim_n300", "report"), []),
            ("bound-ratios", path("diagnose", "report"), []),
            ("bias-trend", bias, [])):
        name = f"plot_{kind}"
        lines += run(tmp, name, ["plot", "--report", report, "--kind", kind, *extra,
                                 "--out", path(name, "svg")], ["svg"])
    return lines


def main():
    with tempfile.TemporaryDirectory(prefix="mdsclt-digests-") as tmp:
        print("\n".join(cases(tmp)))


if __name__ == "__main__":
    main()
