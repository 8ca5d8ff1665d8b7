import json
import threading

import numpy as np
import pytest

from mdsclt import clt, cmds, harness, matrixcore, pointmodel
from mdsclt.cli import DEGENERATE_GAP_RTOL, dispatch
from mdsclt.matrixcore import (ConvergenceError, double_center, read_matrix_csv,
                               top_eigs)
from mdsclt.noise import NoiseLaw, NoiseSpec


def write_config(path, n_list=(60,), replicates=3, noise=None, seed=5,
                 estimator="cmds", checks=None, d=2):
    cfg = {
        "distribution": {"point_mass_mixture": {
            "locations": [[-0.9, -2.0], [2.1, -2.0], [-0.9, 2.0]],
            "weights": [0.2, 0.3, 0.5]}},
        "noise": noise or {"model": "model2", "law": {"uniform": {"a": 4.0}}},
        "n_list": list(n_list), "d": d, "replicates": replicates,
        "seed": seed, "estimator": estimator,
        "checks": checks if checks is not None else {"clt": False},
    }
    path.write_text(json.dumps(cfg))
    return path


@pytest.fixture
def noiseless_config(tmp_path):
    return write_config(tmp_path / "cfg.json",
                        noise={"model": "model2",
                               "law": {"uniform": {"a": 0.0}}})


class TestPipelineRoundTrip:
    def test_gen_distmat_embed_reproduces_distances(self, tmp_path):
        pts = tmp_path / "pts.csv"
        dm = tmp_path / "d.csv"
        dsq = tmp_path / "dsq.csv"
        x = tmp_path / "x.csv"
        assert dispatch(["gen-points", "--dist", "triangle345", "--n", "50",
                         "--seed", "3", "--out", str(pts)]) == 0
        assert dispatch(["distmat", "--in", str(pts), "--out", str(dm)]) == 0
        d = np.loadtxt(dm, delimiter=",")
        np.savetxt(dsq, d**2, delimiter=",", fmt="%.17g")
        assert dispatch(["embed", "--in", str(dsq), "--d", "2",
                         "--out", str(x)]) == 0
        config = np.loadtxt(x, delimiter=",")
        got = np.linalg.norm(config[:, None] - config[None, :], axis=2)
        assert np.abs(got - d).max() <= 1e-9

    def test_embed_sidecar_roundtrip(self, tmp_path):
        pts = tmp_path / "pts.csv"
        dm = tmp_path / "d.csv"
        dsq = tmp_path / "dsq.csv"
        x = tmp_path / "x.csv"
        side = tmp_path / "x.json"
        dispatch(["gen-points", "--dist", "triangle345", "--n", "30",
                  "--seed", "2", "--out", str(pts)])
        dispatch(["distmat", "--in", str(pts), "--out", str(dm)])
        np.savetxt(dsq, np.loadtxt(dm, delimiter=",") ** 2, delimiter=",",
                   fmt="%.17g")
        assert dispatch(["embed", "--in", str(dsq), "--d", "2", "--out", str(x),
                         "--sidecar", str(side)]) == 0
        m = read_matrix_csv(dsq)
        emb = cmds.embed(m, 2)
        scree = top_eigs(double_center(m), 6).values
        assert np.array_equal(np.loadtxt(x, delimiter=","), emb.config)
        assert json.loads(side.read_text()) == {
            "eigenvalues": emb.pair.values.tolist(),
            "all_top_eigenvalues": scree.tolist(),
            "flags": {"deficient": emb.pair.deficient,
                      "degenerate": bool(np.any(-np.diff(scree) < DEGENERATE_GAP_RTOL
                                                * np.abs(scree).max()))}}

    @pytest.mark.parametrize("n, want", [(40, 6), (5, 5)])
    def test_embed_sidecar_scree_flags_tie_at_cut(self, tmp_path, n, want):
        """The sidecar reports min(d + 4, n) eigenvalues from its own solve,
        and a tie between eigenvalues d and d + 1 marks it degenerate."""
        g = np.random.default_rng(3).standard_normal((n, 3))
        q, _ = np.linalg.qr(g - g.mean(axis=0))
        x = q * np.sqrt([10.0, 7.0, 7.0])
        dsq, out, side = tmp_path / "dsq.csv", tmp_path / "x.csv", tmp_path / "x.json"
        np.savetxt(dsq, ((x[:, None] - x[None, :]) ** 2).sum(axis=2),
                   delimiter=",", fmt="%.17g")
        assert dispatch(["embed", "--in", str(dsq), "--d", "2", "--out", str(out),
                         "--sidecar", str(side)]) == 0
        got = json.loads(side.read_text())
        assert len(got["eigenvalues"]) == 2
        assert len(got["all_top_eigenvalues"]) == want
        assert got["all_top_eigenvalues"][:3] == pytest.approx([10.0, 7.0, 7.0])
        assert got["flags"] == {"deficient": False, "degenerate": True}

    def test_gen_points_labels(self, tmp_path):
        pts = tmp_path / "p.csv"
        labels = tmp_path / "l.csv"
        dispatch(["gen-points", "--dist", "triangle345", "--n", "10",
                  "--out", str(pts), "--labels-out", str(labels)])
        lab = np.loadtxt(labels, delimiter=",")
        assert np.bincount(lab.astype(int)).sum() == 10

    def test_gen_points_from_distribution_file(self, tmp_path):
        """A distribution JSON file gives the points of ``pointmodel.sample``."""
        spec = {"gaussian": {"mean": [0.5, -1.0],
                             "covariance": [[2.0, 0.3], [0.3, 1.0]]}}
        dist, pts = tmp_path / "dist.json", tmp_path / "p.csv"
        dist.write_text(json.dumps(spec))
        assert dispatch(["gen-points", "--dist", str(dist), "--n", "40",
                         "--seed", "3", "--out", str(pts)]) == 0
        want = pointmodel.sample(pointmodel.DistributionSpec.from_json(spec), 40, 3)
        assert np.array_equal(np.loadtxt(pts, delimiter=","), want.points)


class TestPerturb:
    def test_model1_delta_request_fails(self, tmp_path, capsys):
        """The request is rejected before any output is computed or written."""
        pts = tmp_path / "p.csv"
        dm = tmp_path / "d.csv"
        noise = tmp_path / "noise.json"
        noise.write_text(json.dumps(
            {"model": "model1", "law": {"gaussian": {"sigma": 1.0}}}))
        dispatch(["gen-points", "--dist", "triangle345", "--n", "20",
                  "--out", str(pts)])
        dispatch(["distmat", "--in", str(pts), "--out", str(dm)])
        code = dispatch(["perturb", "--in", str(dm), "--noise", str(noise),
                         "--out-delta-sq", str(tmp_path / "dsq.csv"),
                         "--out-delta", str(tmp_path / "delta.csv")])
        assert code == 1
        assert "squared dissimilarities only" in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["d.csv", "noise.json", "p.csv"]

    def test_model2_outputs(self, tmp_path):
        pts = tmp_path / "p.csv"
        dm = tmp_path / "d.csv"
        noise = tmp_path / "noise.json"
        noise.write_text(json.dumps(
            {"model": "model2", "law": {"uniform": {"a": 1.0}}}))
        dispatch(["gen-points", "--dist", "triangle345", "--n", "20",
                  "--out", str(pts)])
        dispatch(["distmat", "--in", str(pts), "--out", str(dm)])
        dsq = tmp_path / "dsq.csv"
        delta = tmp_path / "delta.csv"
        assert dispatch(["perturb", "--in", str(dm), "--noise", str(noise),
                         "--seed", "4", "--out-delta-sq", str(dsq),
                         "--out-delta", str(delta)]) == 0
        a = np.loadtxt(dsq, delimiter=",")
        b = np.loadtxt(delta, delimiter=",")
        assert np.allclose(a, b**2)


class TestOneShotCommands:
    def test_embed_ignores_caller_blas_threads(self, tmp_path, blas_count):
        """The one-shot commands run on one BLAS thread whatever count their
        caller has set: at n = 200 the dense eigensolve of ``embed`` gives
        other bits on two BLAS threads."""
        _, out = clt.simulate(pointmodel.triangle_345(),
                              NoiseSpec("model2", law=NoiseLaw("uniform", a=4.0)),
                              200, 5, 0, keep=("delta_sq",))
        dsq = tmp_path / "dsq.csv"
        np.savetxt(dsq, out["delta_sq"].data, delimiter=",", fmt="%.17g")
        seen = []
        for count in (1, 2):
            x, side = tmp_path / f"x{count}.csv", tmp_path / f"x{count}.json"
            blas_count(count)
            assert dispatch(["embed", "--in", str(dsq), "--d", "2", "--out",
                             str(x), "--sidecar", str(side)]) == 0
            seen.append((x.read_bytes(), side.read_bytes()))
        assert seen[0] == seen[1]

    def test_rawstress_sidecar(self, tmp_path):
        pts, dm = tmp_path / "p.csv", tmp_path / "d.csv"
        x, side = tmp_path / "x.csv", tmp_path / "x.json"
        dispatch(["gen-points", "--dist", "triangle345", "--n", "20",
                  "--seed", "2", "--out", str(pts)])
        dispatch(["distmat", "--in", str(pts), "--out", str(dm)])
        assert dispatch(["rawstress", "--in", str(dm), "--d", "2", "--seed", "4",
                         "--out", str(x), "--sidecar", str(side)]) == 0
        assert np.loadtxt(x, delimiter=",").shape == (20, 2)
        got = json.loads(side.read_text())
        assert sorted(got) == ["coincident_points", "converged", "iterations",
                               "seed", "stress"]
        assert got["seed"] == 4 and got["converged"]


class TestSelectDimAndPlots:
    def test_select_dim_then_scree_plot(self, tmp_path, capsys):
        pts = tmp_path / "p.csv"
        dm = tmp_path / "d.csv"
        dispatch(["gen-points", "--dist", "triangle345", "--n", "200",
                  "--out", str(pts)])
        dispatch(["distmat", "--in", str(pts), "--out", str(dm)])
        d = np.loadtxt(dm, delimiter=",")
        dsq = tmp_path / "dsq.csv"
        np.savetxt(dsq, d**2, delimiter=",", fmt="%.17g")
        sel = tmp_path / "sel.json"
        assert dispatch(["select-dim", "--in", str(dsq), "--max-d", "4",
                         "--out", str(sel)]) == 0
        report = json.loads(sel.read_text())
        assert report["d_hat"] == 2
        # without --out the same bytes go to stdout
        capsys.readouterr()
        assert dispatch(["select-dim", "--in", str(dsq), "--max-d", "4"]) == 0
        assert capsys.readouterr().out.encode() == sel.read_bytes()
        svg = tmp_path / "scree.svg"
        assert dispatch(["plot", "--report", str(sel), "--kind", "scree",
                         "--out", str(svg)]) == 0
        text = svg.read_text()
        assert text.count('class="scree-bar"') == 4
        assert 'class="threshold"' in text

    def test_plot_missing_section_exits_1(self, tmp_path, capsys):
        report = tmp_path / "r.json"
        report.write_text(json.dumps({"per_n": []}))
        reasons = {
            "ellipses": "report has no per-class results for the requested n "
                        "(run mc-run with the clt check enabled)",
            "scree": "report has no 'eigenvalues' section (use select-dim --out)",
            "bias-trend": "report has no 'bias' section (run scripts/run_bias.py)",
            "bound-ratios": "report has no 'ratios' section (run diagnose first)"}
        for kind, reason in reasons.items():
            assert dispatch(["plot", "--report", str(report), "--kind", kind,
                             "--out", str(tmp_path / "o.svg")]) == 1
            assert capsys.readouterr().err == f"error: {reason}\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["r.json"]

    def test_plot_deterministic_bytes(self, tmp_path):
        sel = tmp_path / "sel.json"
        sel.write_text(json.dumps({"eigenvalues": [10.0, 6.0, 0.5],
                                   "threshold": 3.0}))
        a, b = tmp_path / "a.svg", tmp_path / "b.svg"
        dispatch(["plot", "--report", str(sel), "--kind", "scree",
                  "--out", str(a)])
        dispatch(["plot", "--report", str(sel), "--kind", "scree",
                  "--out", str(b)])
        assert a.read_bytes() == b.read_bytes()


class TestMcRun:
    def test_report_and_ellipses(self, tmp_path):
        cfg = write_config(tmp_path / "cfg.json", checks={"clt": False})
        out = tmp_path / "report.json"
        assert dispatch(["mc-run", "--config", str(cfg), "--out", str(out),
                         "--threads", "2"]) == 0
        report = json.loads(out.read_text())
        assert [b["n"] for b in report["per_n"]] == [60]
        assert len(report["per_n"][0]["per_class"]) == 3
        svg = tmp_path / "fig.svg"
        assert dispatch(["plot", "--report", str(out), "--kind", "ellipses",
                         "--n", "60", "--out", str(svg)]) == 0
        text = svg.read_text()
        assert text.count('class="ellipse-emp"') == 3
        assert text.count('class="ellipse-theo"') == 3

    def test_one_blas_thread_set_and_restored_once(self, tmp_path, monkeypatch):
        """mc-run on a caller's count of 3 sets one BLAS thread on entering
        dispatch and restores 3 on leaving it, once each: the guards of the
        runner and of every eigensolve, dense (n = 60) or iterative (n =
        300), nest inside the command's."""
        count, puts = [3], []

        def put(n):
            puts.append(n)
            count[0] = n

        monkeypatch.setattr(matrixcore, "_OPENBLAS", [(lambda: count[0], put)])
        cfg = write_config(tmp_path / "cfg.json", n_list=(60, 300))
        assert dispatch(["mc-run", "--config", str(cfg), "--threads", "2",
                         "--out", str(tmp_path / "r.json")]) == 0
        assert puts == [1, 3]

    def test_thread_count_does_not_change_output(self, tmp_path):
        cfg = write_config(tmp_path / "cfg.json")
        out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
        dispatch(["mc-run", "--config", str(cfg), "--out", str(out1),
                  "--threads", "1"])
        dispatch(["mc-run", "--config", str(cfg), "--out", str(out2),
                  "--threads", "3"])
        assert out1.read_bytes() == out2.read_bytes()

    @pytest.mark.parametrize("n", [200, 256, 300])
    def test_thread_count_does_not_change_dense_output(self, tmp_path, n):
        """With fewer replicates than threads each worker still has one BLAS
        thread: the dense eigensolve (n <= 256) and the centering operator's
        dsymv products (n = 300) give other bits on other BLAS thread
        counts."""
        cfg = write_config(tmp_path / "cfg.json", n_list=(n,), replicates=2)
        outs = [tmp_path / "r1.json", tmp_path / "r4.json"]
        for out, threads in zip(outs, ("1", "4")):
            assert dispatch(["mc-run", "--config", str(cfg), "--out", str(out),
                             "--threads", threads]) == 0
        assert outs[0].read_bytes() == outs[1].read_bytes()

    def test_decomposition_check_ignores_thread_count(self, tmp_path):
        """The decomposition check runs on the replicates' workers, as their
        first task; above the dense cutoff, too, it keeps one BLAS thread, so
        --threads does not move the report's bits."""
        cfg = write_config(tmp_path / "cfg.json", n_list=(300, 1000), replicates=2,
                           noise={"model": "model3", "q": 0.7},
                           checks={"clt": False, "decomposition": True})
        outs = [tmp_path / "r1.json", tmp_path / "r2.json"]
        for out, threads in zip(outs, ("1", "2")):
            assert dispatch(["mc-run", "--config", str(cfg), "--out", str(out),
                             "--threads", threads]) == 0
        assert outs[0].read_bytes() == outs[1].read_bytes()

    def test_33_dimensional_gaussian_runs(self, tmp_path):
        """Alignment solves a d x d SVD for every d, not only d <= 32."""
        d = 33
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "distribution": {"gaussian": {"mean": [0.0] * d,
                                          "covariance": np.eye(d).tolist()}},
            "noise": {"model": "model1", "law": {"gaussian": {"sigma": 1.0}}},
            "n_list": [40], "d": d, "replicates": 2, "seed": 5,
            "checks": {"clt": False}}))
        out = tmp_path / "report.json"
        assert dispatch(["mc-run", "--config", str(cfg), "--threads", "1",
                         "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        assert [b["failed"] for b in report["per_n"]] == [0]
        assert not report["invalid"]

    def test_rawstress_estimator(self, tmp_path):
        """The raw-stress estimator runs every replicate, gives finite
        per-class results, and writes the same bytes on 1 and 2 threads."""
        cfg = write_config(tmp_path / "cfg.json", replicates=2, estimator="rawstress")
        outs = [tmp_path / "r1.json", tmp_path / "r2.json"]
        for out, threads in zip(outs, ("1", "2")):
            assert dispatch(["mc-run", "--config", str(cfg), "--out", str(out),
                             "--threads", threads]) == 0
        assert outs[0].read_bytes() == outs[1].read_bytes()
        [block] = json.loads(outs[0].read_text())["per_n"]
        assert block["failed"] == 0
        assert len(block["per_class"]) == 3
        for c in block["per_class"]:
            for key in ("empirical_mean", "empirical_cov", "pooled_cov"):
                assert np.all(np.isfinite(c[key]))

    def test_samples_dir(self, tmp_path):
        cfg = write_config(tmp_path / "cfg.json", replicates=2)
        out = tmp_path / "r.json"
        sdir = tmp_path / "samples"
        assert dispatch(["mc-run", "--config", str(cfg), "--out", str(out),
                         "--threads", "1", "--samples-dir", str(sdir)]) == 0
        dump = (sdir / "samples_n60.csv").read_text().strip().splitlines()
        assert dump[0] == "replicate,row,class,x0,x1"
        assert len(dump) == 1 + 2 * 60

    def test_noiseless_roundtrip_through_cli(self, noiseless_config, tmp_path):
        out = tmp_path / "r.json"
        assert dispatch(["mc-run", "--config", str(noiseless_config),
                         "--out", str(out), "--threads", "1"]) == 0
        report = json.loads(out.read_text())
        for c in report["per_n"][0]["per_class"]:
            assert np.abs(np.asarray(c["empirical_cov"])).max() <= 1e-12


class TestTheoryCovAndDiagnose:
    def test_theory_cov(self, tmp_path):
        cfg = write_config(tmp_path / "cfg.json")
        out = tmp_path / "tc.json"
        assert dispatch(["theory-cov", "--config", str(cfg),
                         "--out", str(out)]) == 0
        tc = json.loads(out.read_text())
        assert len(tc["per_class"]) == 3
        assert tc["center_scale"] == 1.0
        assert tc["model"] == "model2"

    def test_theory_cov_model2_hetero(self, tmp_path):
        """Delta = D (1 + U): c = 4/3, and the 4/15 r^4 weight gives one
        symmetric positive definite covariance per class."""
        cfg = write_config(tmp_path / "cfg.json", noise={"model": "model2_hetero"})
        out = tmp_path / "tc.json"
        assert dispatch(["theory-cov", "--config", str(cfg),
                         "--out", str(out)]) == 0
        tc = json.loads(out.read_text())
        assert tc["center_scale"] == np.sqrt(4.0 / 3.0)
        sigmas = np.array([c["sigma"] for c in tc["per_class"]])
        assert sigmas.shape == (3, 2, 2)
        assert np.array_equal(sigmas, sigmas.transpose(0, 2, 1))
        assert np.linalg.eigvalsh(sigmas).min() > 0

    def test_theory_cov_gaussian_model2_exit_1(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "cfg.json")
        obj = json.loads(cfg.read_text())
        obj["distribution"] = {"gaussian": {"mean": [0.0, 0.0],
                                            "covariance": [[1.0, 0.0], [0.0, 1.0]]}}
        cfg.write_text(json.dumps(obj))
        out = tmp_path / "tc.json"
        assert dispatch(["theory-cov", "--config", str(cfg), "--out", str(out)]) == 1
        assert "point-mass mixtures" in capsys.readouterr().err
        assert not out.exists()

    def test_diagnose_and_plot(self, tmp_path):
        cfg = write_config(tmp_path / "cfg.json")
        out = tmp_path / "diag.json"
        assert dispatch(["diagnose", "--config", str(cfg),
                         "--n-grid", "50,100,200", "--replicates", "2",
                         "--out", str(out)]) == 0
        table = json.loads(out.read_text())
        assert table["n_grid"] == [50, 100, 200]
        svg = tmp_path / "ratios.svg"
        assert dispatch(["plot", "--report", str(out), "--kind",
                         "bound-ratios", "--out", str(svg)]) == 0
        assert 'class="ratio-b_perturbation"' in svg.read_text()

    def test_diagnose_runs_the_config_unless_a_flag_overrides_it(self, tmp_path):
        """Without flags diagnose runs the config's n_list and replicates;
        --n-grid and --replicates each replace the config's value."""
        cfg = write_config(tmp_path / "cfg.json", n_list=(50, 100, 200), replicates=3)

        def report_bytes(name, *flags):
            out = tmp_path / name
            assert dispatch(["diagnose", "--config", str(cfg), "--out", str(out),
                             *flags]) == 0
            return out.read_bytes()

        as_written = report_bytes("a.json")
        assert json.loads(as_written)["n_grid"] == [50, 100, 200]
        assert report_bytes("b.json", "--n-grid", "50,100,200",
                            "--replicates", "3") == as_written
        assert report_bytes("c.json", "--replicates", "2") != as_written
        assert json.loads(report_bytes("d.json", "--n-grid", "60,100,200"))["n_grid"] == [
            60, 100, 200]

    def test_diagnose_one_replicate_exit_1(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "cfg.json", n_list=(50, 100, 200))
        out = tmp_path / "diag.json"
        assert dispatch(["diagnose", "--config", str(cfg), "--replicates", "1",
                         "--out", str(out)]) == 1
        assert "need at least 2 replicates" in capsys.readouterr().err
        assert not out.exists()

    def test_diagnose_bit_identical_above_dense_cutoff(self, tmp_path, blas_count):
        """n=300 takes the iterative solver for the spectral norm: a repeat in
        the same process, a run with one BLAS thread and runs with one and two
        workers write the same bytes."""
        cfg = write_config(tmp_path / "cfg.json")

        def report_bytes(name, *extra):
            out = tmp_path / name
            assert dispatch(["diagnose", "--config", str(cfg),
                             "--n-grid", "100,200,300", "--replicates", "2",
                             "--out", str(out), *extra]) == 0
            return out.read_bytes()

        first = report_bytes("a.json")
        assert report_bytes("b.json") == first
        blas_count(1)
        assert report_bytes("c.json") == first
        assert report_bytes("d.json", "--threads", "1") == first
        assert report_bytes("e.json", "--threads", "2") == first

    def test_bias_trend_plot(self, tmp_path):
        report = tmp_path / "bias.json"
        report.write_text(json.dumps(
            {"n": [50, 100], "bias": [[0.5, 0.4, 0.3], [0.45, 0.41, 0.28]],
             "std_error": [[0.1, 0.1, 0.1], [0.05, 0.05, 0.05]]}))
        svg = tmp_path / "bias.svg"
        assert dispatch(["plot", "--report", str(report), "--kind",
                         "bias-trend", "--out", str(svg)]) == 0
        assert svg.read_text().count('class="bias-class-') == 3


class TestErrorHandling:
    def test_unknown_flag_exit_1(self, capsys):
        assert dispatch(["embed", "--frobnicate"]) == 1
        assert "usage" in capsys.readouterr().err

    def test_unknown_subcommand_exit_1(self):
        assert dispatch(["transmogrify"]) == 1

    def test_missing_file_exit_1(self, tmp_path):
        assert dispatch(["embed", "--in", str(tmp_path / "nope.csv"),
                         "--d", "2", "--out", str(tmp_path / "x.csv")]) == 1

    def test_invalid_json_exit_1(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert dispatch(["mc-run", "--config", str(bad),
                         "--out", str(tmp_path / "o.json")]) == 1

    @pytest.mark.parametrize("threads", ["0", "-2"])
    @pytest.mark.parametrize("command", ["mc-run", "diagnose"])
    def test_thread_count_below_1_exit_1(self, tmp_path, capsys, command, threads):
        cfg = write_config(tmp_path / "cfg.json")
        out = tmp_path / "o.json"
        assert dispatch([command, "--config", str(cfg), "--threads", threads,
                         "--out", str(out)]) == 1
        assert f"--threads must be at least 1, got {threads}" in capsys.readouterr().err
        assert not out.exists()

    def test_deficient_embed_exit_1(self, tmp_path):
        # collinear points: second eigenvalue nonpositive
        pts = np.array([[0.0], [1.0], [2.0], [3.0]])
        d = np.abs(pts - pts.T)
        dsq = tmp_path / "dsq.csv"
        np.savetxt(dsq, d**2, delimiter=",", fmt="%.17g")
        assert dispatch(["embed", "--in", str(dsq), "--d", "3",
                         "--out", str(tmp_path / "x.csv")]) == 1
        assert dispatch(["embed", "--in", str(dsq), "--d", "3",
                         "--allow-deficient",
                         "--out", str(tmp_path / "x.csv")]) == 0

    @pytest.mark.parametrize("exc", [ConvergenceError, np.linalg.LinAlgError])
    def test_numerical_failure_exit_2(self, tmp_path, capsys, monkeypatch, exc):
        """A numerical failure exits 2, also a LinAlgError, which is a
        ValueError, and writes nothing."""
        def fail(*args, **kwargs):
            raise exc("no eigenpairs")

        monkeypatch.setattr(cmds, "embed", fail)
        dsq, out = tmp_path / "dsq.csv", tmp_path / "x.csv"
        np.savetxt(dsq, np.ones((4, 4)) - np.eye(4), delimiter=",")
        assert dispatch(["embed", "--in", str(dsq), "--d", "2", "--out", str(out)]) == 2
        assert capsys.readouterr().err == "numerical failure: no eigenpairs\n"
        assert not out.exists()

    def test_out_directory_exit_1_leaves_no_temp_file(self, tmp_path, capsys):
        """An --out that cannot be replaced fails with exit 1, and the atomic
        write removes its temporary file."""
        out = tmp_path / "out"
        out.mkdir()
        assert dispatch(["gen-points", "--dist", "triangle345", "--n", "10",
                         "--out", str(out)]) == 1
        assert capsys.readouterr().err.startswith("error: ")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["out"]
        assert not any(out.iterdir())

    @pytest.mark.parametrize("n", [50, 300])
    def test_zero_matrix_embed_exit_1(self, tmp_path, capsys, n):
        """All-zero input is deficient on both sides of the dense cutoff."""
        dsq = tmp_path / "zeros.csv"
        np.savetxt(dsq, np.zeros((n, n)), delimiter=",")
        assert dispatch(["embed", "--in", str(dsq), "--d", "2",
                         "--out", str(tmp_path / "x.csv")]) == 1
        assert capsys.readouterr().err == (
            "error: eigenvalue 2 of the centered matrix is 0.000e+00 <= 0\n")

    def test_asymmetric_matrix_exit_1(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("0,1\n2,0\n")
        assert dispatch(["embed", "--in", str(bad), "--d", "1",
                         "--out", str(tmp_path / "x.csv")]) == 1

    @pytest.mark.parametrize("command", ["perturb", "rawstress"])
    def test_nonzero_diagonal_exit_1(self, tmp_path, capsys, command):
        """The commands that read dissimilarities want an exactly zero
        diagonal, and write nothing without one."""
        bad = tmp_path / "bad.csv"
        bad.write_text("0,1,2\n1,0.5,1\n2,1,0\n")
        noise = tmp_path / "noise.json"
        noise.write_text(json.dumps({"model": "model3", "q": 0.5}))
        args = {"perturb": ["--noise", str(noise), "--out-delta-sq"],
                "rawstress": ["--d", "1", "--sidecar", str(tmp_path / "s.json"),
                              "--out"]}[command]
        assert dispatch([command, "--in", str(bad), *args, str(tmp_path / "o.csv")]) == 1
        assert "exactly zero diagonal" in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["bad.csv", "noise.json"]

    @pytest.mark.parametrize("kw, reason", [
        ({"n_list": (10001,)}, "n=10001 is outside the supported range"),
        ({"n_list": (3,)}, "n=3 is outside the supported range"),
        ({"n_list": (4,), "d": 4}, "d=4 must satisfy"),
        ({"estimator": "rawstress",
          "noise": {"model": "model1", "law": {"gaussian": {"sigma": 1.0}}}},
         "raw-stress estimation needs a dissimilarity matrix"),
        ({"n_list": ()}, "n_list must be non-empty and strictly ascending"),
        ({"n_list": (60, 60)}, "n_list must be non-empty and strictly ascending"),
        ({"estimator": "rawstress", "checks": {"decomposition": True}},
         "the decomposition check splits the cmds embedding"),
    ])
    def test_impossible_config_exit_1(self, tmp_path, capsys, kw, reason):
        cfg = write_config(tmp_path / "cfg.json", **kw)
        out = tmp_path / "o.json"
        assert dispatch(["mc-run", "--config", str(cfg), "--threads", "1",
                         "--out", str(out)]) == 1
        assert reason in capsys.readouterr().err
        assert not out.exists()

    def test_empty_mixture_class_exit_1(self, tmp_path, capsys):
        """A class that gets no points at some n would shift the later
        classes' locations and covariances onto the wrong class."""
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "distribution": {"point_mass_mixture": {
                "locations": [[0, 0], [3, 0], [0, 4], [5, 5]],
                "weights": [0, 0.3, 0.5, 0.2]}},
            "noise": {"model": "model2", "law": {"uniform": {"a": 4.0}}},
            "n_list": [200], "d": 2, "replicates": 2, "seed": 5}))
        out = tmp_path / "o.json"
        assert dispatch(["mc-run", "--config", str(cfg), "--threads", "1",
                         "--out", str(out)]) == 1
        assert "n=200 leaves mixture class 0 without points" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("patch, reason", [
        ({"seed": None}, "missing key 'seed'"),
        ({"distribution": {"gaussian": {"mean": [0.0, 0.0],
                                        "cov": [[1.0, 0.0], [0.0, 1.0]]}}},
         "unknown key 'cov'"),
        ({"noise": {"model": "model2", "law": {"uniform": {"b": 4.0}}}},
         "unknown key 'b'"),
        ({"replicate": 3}, "unknown key 'replicate'"),
        ({"noise": {"model": "model3", "qq": 0.5}}, "unknown key 'qq'"),
    ], ids=["missing_seed", "gaussian_cov", "uniform_b", "top_level_extra",
            "model3_qq"])
    def test_bad_json_key_exit_1(self, tmp_path, capsys, patch, reason):
        """``patch`` replaces or adds top-level keys; None deletes one."""
        cfg = write_config(tmp_path / "cfg.json")
        obj = {**json.loads(cfg.read_text()), **patch}
        cfg.write_text(json.dumps({k: v for k, v in obj.items() if v is not None}))
        out = tmp_path / "o.json"
        assert dispatch(["mc-run", "--config", str(cfg), "--threads", "1",
                         "--out", str(out)]) == 1
        assert reason in capsys.readouterr().err
        assert not out.exists()

    UNIFORM4_LAW = {"uniform": {"a": 4.0}}

    @pytest.mark.parametrize("path, value, reason", [
        (("n_list",), 60, "experiment config 'n_list' must be a list of integers"),
        (("n_list",), [60.0], "experiment config 'n_list' must be a list of integers"),
        (("checks",), None, "experiment config 'checks' must be an object of booleans"),
        (("checks", "clt"), "yes", "experiment config 'checks' must be an object of booleans"),
        (("replicates",), 2.5, "experiment config 'replicates' must be a JSON integer"),
        (("d",), "2", "experiment config 'd' must be a JSON integer"),
        (("seed",), "x", "experiment config 'seed' must be a JSON integer"),
        (("seed",), -1, "seed must be non-negative, got -1"),
        (("noise", "law", "uniform", "a"), "x", "noise law 'uniform' 'a' must be a JSON number"),
        (("noise", "law", "uniform", "a"), True, "noise law 'uniform' 'a' must be a JSON number"),
        (("noise", "law", "uniform", "a"), float("nan"),
         "noise law 'uniform' 'a' must be a JSON number"),
        (("noise", "law", "uniform", "a"), float("inf"),
         "noise law 'uniform' 'a' must be a JSON number"),
        (("noise",), {"model": "model3", "q": True}, "noise 'q' must be a JSON number"),
        (("distribution",), {"gaussian": {"mean": None, "covariance": [[1, 0], [0, 1]]}},
         "distribution 'gaussian' 'mean' must be a list of numbers"),
        (("noise",), {"model": "model2", "law": UNIFORM4_LAW, "q": 0.5},
         "noise model 'model2': unknown key 'q'"),
        (("noise",), {"model": "model3", "law": UNIFORM4_LAW, "q": 0.5},
         "noise model 'model3': unknown key 'law'"),
        (("noise", "model"), ["model2"], "unknown noise variant ['model2']"),
        (("noise", "model"), "model2_additive", "unknown noise variant 'model2_additive'"),
    ], ids=["n_list_int", "n_list_float_entry", "checks_null", "checks_string",
            "replicates_float", "d_string", "seed_string", "seed_negative",
            "law_a_string", "law_a_bool", "law_a_nan", "law_a_inf", "q_bool",
            "gaussian_mean_null", "model2_q", "model3_law", "model_list",
            "model_long_name"])
    def test_bad_json_value_exit_1(self, tmp_path, capsys, path, value, reason):
        """A config value of the wrong type, or a key its noise model does not
        read, is rejected where the config is loaded, naming the key."""
        cfg = write_config(tmp_path / "cfg.json")
        obj = json.loads(cfg.read_text())
        node = obj
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value
        cfg.write_text(json.dumps(obj))
        out = tmp_path / "o.json"
        assert dispatch(["mc-run", "--config", str(cfg), "--threads", "1",
                         "--out", str(out)]) == 1
        assert reason in capsys.readouterr().err
        assert not out.exists()

    def test_unknown_check_exit_1(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "cfg.json", checks={"decompositon": True})
        out = tmp_path / "o.json"
        assert dispatch(["mc-run", "--config", str(cfg), "--threads", "1",
                         "--out", str(out)]) == 1
        assert "unknown checks decompositon" in capsys.readouterr().err
        assert not out.exists()

    def test_diagnose_grid_out_of_range_exit_1(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "cfg.json")
        assert dispatch(["diagnose", "--config", str(cfg),
                         "--n-grid", "50,100,10001", "--replicates", "2",
                         "--out", str(tmp_path / "diag.json")]) == 1
        assert "n=10001 is outside the supported range" in capsys.readouterr().err

    @pytest.mark.parametrize("grid, reason", [
        ("100,200,x", "--n-grid must be comma-separated integers, got '100,200,x'"),
        ("100,100,200", "n_list must be non-empty and strictly ascending"),
    ])
    def test_diagnose_bad_grid_exit_1(self, tmp_path, capsys, grid, reason):
        cfg = write_config(tmp_path / "cfg.json")
        out = tmp_path / "diag.json"
        assert dispatch(["diagnose", "--config", str(cfg), "--n-grid", grid,
                         "--replicates", "2", "--out", str(out)]) == 1
        assert reason in capsys.readouterr().err
        assert not out.exists()

    def test_diagnose_grid_empty_mixture_class_exit_1(self, tmp_path, capsys):
        """--n-grid gets every n_list rule: a grid n that leaves a mixture
        class without points is rejected with mc-run's message."""
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "distribution": {"point_mass_mixture": {
                "locations": [[0, 0], [3, 0], [0, 4], [5, 5]],
                "weights": [0.02, 0.3, 0.48, 0.2]}},
            "noise": {"model": "model2", "law": {"uniform": {"a": 4.0}}},
            "n_list": [100], "d": 2, "replicates": 2, "seed": 5}))
        out = tmp_path / "diag.json"
        assert dispatch(["diagnose", "--config", str(cfg), "--n-grid", "20,100,200",
                         "--replicates", "2", "--out", str(out)]) == 1
        assert "n=20 leaves mixture class 0 without points" in capsys.readouterr().err
        assert not out.exists()

    @staticmethod
    def fail_cells(monkeypatch, cells):
        """Make the eigensolves of the diagnose cells ``cells``, (n, replicate)
        pairs, raise ConvergenceError."""
        current = threading.local()
        simulate, top_eigs = clt.simulate, cmds.top_eigs

        def recorded(spec, noise, n, seed, r, keep):
            current.cell = (n, r)
            return simulate(spec, noise, n, seed, r, keep)

        def failing_top_eigs(m, k):
            if current.cell in cells:
                raise ConvergenceError("no convergence")
            return top_eigs(m, k)

        monkeypatch.setattr(clt, "simulate", recorded)
        monkeypatch.setattr(cmds, "top_eigs", failing_top_eigs)

    @pytest.mark.parametrize("threads", ["1", "2"])
    def test_diagnose_failed_cell_reported_not_raised(self, tmp_path, capsys,
                                                      monkeypatch, threads):
        """A failed cell is named on stderr with its reason; the medians of its
        n are taken over the other cells, and the other n are unchanged."""
        cfg = write_config(tmp_path / "cfg.json")
        exp = harness.ExperimentConfig.from_json(json.loads(cfg.read_text()))
        kept = [clt._bound_cell(exp.distribution, exp.noise, 100, exp.seed, r)
                for r in (0, 2)]
        argv = ["diagnose", "--config", str(cfg), "--n-grid", "50,100,200",
                "--replicates", "3", "--threads", threads, "--out"]
        assert dispatch(argv + [str(tmp_path / "all.json")]) == 0
        self.fail_cells(monkeypatch, {(100, 1)})
        assert dispatch(argv + [str(tmp_path / "diag.json")]) == 0
        assert capsys.readouterr().err == (
            "n=100 replicate 1 failed: ConvergenceError: no convergence\n")
        full = json.loads((tmp_path / "all.json").read_text())
        table = json.loads((tmp_path / "diag.json").read_text())
        assert set(table) == set(full) == {"seed", "n_grid", "ratios"}
        for i, name in enumerate(clt.RATIO_NAMES):
            meds = table["ratios"][name]["median_per_n"]
            assert np.all(np.isfinite(meds))
            assert meds[1] == float(np.median([c[i] for c in kept]))
            assert meds[::2] == full["ratios"][name]["median_per_n"][::2]

    def test_failed_decomposition_check_reported_not_raised(self, tmp_path, capsys,
                                                             monkeypatch):
        """A decomposition check that fails at one n is named on stderr, and
        the report carries its reason there and the other n's summary."""
        decompose = clt.decompose

        def deficient_at_60(points, B_hat, pair):
            if len(points) == 60:
                raise ValueError("deficient")
            return decompose(points, B_hat, pair)

        monkeypatch.setattr(clt, "decompose", deficient_at_60)
        cfg = write_config(tmp_path / "cfg.json", n_list=(60, 80),
                           checks={"clt": False, "decomposition": True})
        out = tmp_path / "r.json"
        assert dispatch(["mc-run", "--config", str(cfg), "--out", str(out)]) == 0
        assert capsys.readouterr().err == (
            "n=60 decomposition check failed: ValueError: deficient\n")
        per_n = json.loads(out.read_text())["per_n"]
        assert per_n[0]["diagnostics"] == {"decomposition": {"error": "ValueError: deficient"}}
        assert per_n[1]["diagnostics"]["decomposition"]["identity_residual"] < 1e-7
        assert [block["failed"] for block in per_n] == [0, 0]

    def test_diagnose_n_without_cells_exit_1(self, tmp_path, capsys, monkeypatch):
        cfg = write_config(tmp_path / "cfg.json")
        out = tmp_path / "diag.json"
        self.fail_cells(monkeypatch, {(100, 0), (100, 1)})
        assert dispatch(["diagnose", "--config", str(cfg), "--n-grid",
                         "50,100,200", "--replicates", "2", "--threads", "2",
                         "--out", str(out)]) == 1
        assert capsys.readouterr().err == (
            "n=100 replicate 0 failed: ConvergenceError: no convergence\n"
            "n=100 replicate 1 failed: ConvergenceError: no convergence\n"
            "error: no replicate succeeded at n=100\n")
        assert not out.exists()
