import contextlib
import json
import os
import runpy
import subprocess
import sys
import threading
import time
import tracemalloc

import numpy as np
import pytest
import scipy.stats

from mdsclt import cli, clt, cmds, harness, matrixcore, pointmodel
from mdsclt.harness import (ExperimentConfig, ellipse_points,
                            hetero_bias_experiment, normality_check, run)
from mdsclt.noise import NoiseLaw, NoiseSpec


def small_config(triangle, noise, **kw):
    defaults = dict(distribution=triangle, noise=noise, n_list=(100,),
                    d=2, replicates=6, seed=77, checks={"clt": False})
    defaults.update(kw)
    return ExperimentConfig(**defaults)


class TestExperimentConfig:
    def test_validation(self, triangle, uniform4):
        with pytest.raises(ValueError):
            small_config(triangle, uniform4, replicates=1)
        with pytest.raises(ValueError):
            small_config(triangle, uniform4, estimator="isomap")
        # an empty or repeating n_list would report no block or a block twice
        for n_list in ((), (200, 100), (100, 100, 200)):
            with pytest.raises(ValueError, match="n_list must be non-empty and "
                                                 "strictly ascending"):
                small_config(triangle, uniform4, n_list=n_list)
        # n below dimension + 2 or above MAX_SUPPORTED_N
        for kw in ({"n_list": (3,)}, {"n_list": (100, 10001)}):
            with pytest.raises(ValueError, match="n="):
                small_config(triangle, uniform4, **kw)
        # every replicate is aligned to the points, so d must be their dimension
        for kw in ({"d": 1}, {"d": 3}, {"n_list": (4, 100), "d": 4}, {"d": 0}):
            with pytest.raises(ValueError, match="must equal the dimension 2"):
                small_config(triangle, uniform4, **kw)
        for threads in (0, -2):
            with pytest.raises(ValueError, match=f"threads must be at least 1, got {threads}"):
                small_config(triangle, uniform4, threads=threads)
        # model-1 noise has no dissimilarities for raw stress to fit
        with pytest.raises(ValueError, match="raw-stress"):
            small_config(triangle, NoiseSpec("model1", law=NoiseLaw("gaussian", sigma=1.0)),
                         estimator="rawstress")

    @pytest.mark.parametrize("kw, reason", [
        ({"seed": 1.5}, "seed must be an integer, got 1.5"),
        ({"seed": True}, "seed must be an integer, got True"),
        ({"replicates": 4.0}, "replicates must be an integer, got 4.0"),
        ({"d": 2.0}, "d must be an integer, got 2.0"),
        ({"n_list": (100, 200.0)}, "n_list entry must be an integer, got 200.0"),
        ({"n_list": (np.bool_(True),)}, "n_list entry must be an integer, got "),
    ], ids=["seed_float", "seed_bool", "replicates_float", "d_float", "n_list_float",
            "n_list_numpy_bool"])
    def test_rejects_non_integers(self, triangle, uniform4, kw, reason):
        """As ``from_json`` does, rather than failing later in the worker pool
        (a float seed) or running a float n."""
        with pytest.raises(ValueError, match=reason):
            small_config(triangle, uniform4, **kw)

    def test_accepts_numpy_integers(self, triangle, uniform4):
        """They are kept as ints, so the config's JSON echo can be written."""
        cfg = small_config(triangle, uniform4, n_list=(np.int64(100),), d=np.int32(2),
                           replicates=np.int64(3), seed=np.uint8(5))
        obj = json.loads(json.dumps(cfg.to_json()))
        assert (obj["n_list"], obj["d"], obj["replicates"], obj["seed"]) == ([100], 2, 3, 5)

    def test_json_roundtrip(self, triangle, uniform4):
        cfg = small_config(triangle, uniform4)
        back = ExperimentConfig.from_json(cfg.to_json())
        assert back.to_json() == cfg.to_json()

    def test_from_json_optional_keys(self, triangle):
        """estimator, checks and the masking q may be left out of the JSON."""
        obj = small_config(triangle, NoiseSpec("model3", q=0.49)).to_json()
        del obj["estimator"], obj["checks"], obj["noise"]["q"]
        back = ExperimentConfig.from_json(obj)
        assert (back.estimator, back.checks, back.noise.q) == ("cmds", {}, 1.0)

    def test_from_json_overrides(self, triangle, uniform4):
        cfg = small_config(triangle, uniform4)
        back = ExperimentConfig.from_json(cfg.to_json(), threads=4)
        assert back.threads == 4


class TestRun:
    def test_noiseless_recovery(self, triangle):
        noise = NoiseSpec("model2", law=NoiseLaw("uniform", a=0.0))
        report = run(small_config(triangle, noise))
        block = report.per_n[0]
        assert block["failed"] == 0
        mom = pointmodel.moments(triangle)
        centered = triangle.locations - mom.mu
        for k, c in enumerate(block["per_class"]):
            assert np.abs(c.empirical_cov).max() <= 1e-12
            assert np.allclose(c.empirical_mean, centered[k], atol=1e-9)

    def test_deterministic_across_thread_counts(self, triangle, uniform4):
        """Also with the decomposition check, whose diagnostics come from
        whichever worker runs replicate 0."""
        for checks in ({"clt": False}, {"clt": False, "decomposition": True}):
            cfg1 = small_config(triangle, uniform4, threads=1, checks=checks)
            cfg4 = small_config(triangle, uniform4, threads=4, checks=checks)
            r1, r4 = run(cfg1), run(cfg4)
            assert r1.to_json() == r4.to_json()
        assert r1.per_n[0]["diagnostics"]["decomposition"]["identity_residual"] <= 1e-7

    def test_deterministic_on_iterative_eigen_path(self, triangle, uniform4,
                                                  monkeypatch):
        """n=300 is above the dense-solver cutoff: repeats in one process, a
        second thread count and the default BLAS thread count give
        byte-identical reports."""
        cfg1 = small_config(triangle, uniform4, n_list=(300,), replicates=4,
                            threads=1)
        cfg2 = small_config(triangle, uniform4, n_list=(300,), replicates=4,
                            threads=2)

        def report_bytes(cfg):
            return json.dumps(run(cfg).to_json(), sort_keys=True)

        first = report_bytes(cfg1)
        assert report_bytes(cfg1) == first
        assert report_bytes(cfg2) == first
        monkeypatch.setattr(harness.clt, "one_blas_thread", contextlib.nullcontext())
        assert report_bytes(cfg2) == first

    @pytest.mark.parametrize("threads", [1, 2])
    @pytest.mark.parametrize("error", [matrixcore.ConvergenceError("no convergence"),
                                       np.linalg.LinAlgError("eigh failed")])
    def test_numerical_failure_counted_not_raised(self, triangle, uniform4,
                                                  monkeypatch, capsys, tmp_path,
                                                  threads, error):
        """mc-run counts the failed replicate, names it and its reason on
        stderr, and writes a valid report that leaves the reason out."""
        current = threading.local()
        one_replicate, top_eigs = harness._one_replicate, cmds.top_eigs

        def replicate(cfg, n, r):
            current.r = r
            return one_replicate(cfg, n, r)

        def failing_top_eigs(m, k):
            if current.r == 1:
                raise error
            return top_eigs(m, k)

        monkeypatch.setattr(harness, "_one_replicate", replicate)
        monkeypatch.setattr(cmds, "top_eigs", failing_top_eigs)
        cfg_path, out = tmp_path / "cfg.json", tmp_path / "report.json"
        samples = tmp_path / "samples"
        cfg_path.write_text(json.dumps(small_config(triangle, uniform4).to_json()))
        assert cli.dispatch(["mc-run", "--config", str(cfg_path), "--threads",
                             str(threads), "--out", str(out),
                             "--samples-dir", str(samples)]) == 0
        assert capsys.readouterr().err == (
            f"n=100 replicate 1 failed: {type(error).__name__}: {error}\n")
        report = json.loads(out.read_text())
        block = report["per_n"][0]
        assert set(block) == {"n", "per_class", "failed", "diagnostics"}
        assert block["failed"] == 1
        assert not report["invalid"]
        assert [c["count"] for c in block["per_class"]] == [5 * 20, 5 * 30, 5 * 50]
        # the samples CSV names replicates by the index stderr uses
        dump = np.loadtxt(samples / "samples_n100.csv", delimiter=",", skiprows=1)
        assert sorted(set(dump[:, 0])) == [0, 2, 3, 4, 5]

    def test_per_class_structure(self, triangle, uniform4):
        report = run(small_config(triangle, uniform4))
        classes = report.per_n[0]["per_class"]
        assert len(classes) == 3
        counts = [c.count for c in classes]
        assert counts == [6 * 20, 6 * 30, 6 * 50]  # replicates x class size
        for c in classes:
            assert c.empirical_cov.shape == (2, 2)
            assert np.allclose(c.empirical_cov, c.empirical_cov.T)
            assert c.theoretical_cov is not None

    def test_clt_check_runs_normality_per_class(self, triangle, uniform4):
        """With the clt check, each class gets ``normality_check`` of its pooled
        deviation rows; class 0 has 4 x 20 = 80 rows, under the 100 it needs,
        and gets None."""
        block = run(small_config(triangle, uniform4, replicates=4,
                                 checks={"clt": True})).per_n[0]
        assert [c.count for c in block["per_class"]] == [80, 120, 200]
        assert block["per_class"][0].normality is None
        for k, c in enumerate(block["per_class"][1:], start=1):
            rows = block["deviations"][:, block["labels"] == k].reshape(-1, 2)
            assert c.normality == normality_check(rows)

    def test_non_mixture_model2_runs_without_theory(self, uniform4):
        """The model-2 theory is for point-mass mixtures: a Gaussian cloud
        still runs, as one class with no theoretical covariance."""
        gauss = pointmodel.DistributionSpec(
            "gaussian", mean=[0.0, 0.0], covariance=[[1.0, 0.0], [0.0, 1.0]])
        [c] = run(small_config(gauss, uniform4)).per_n[0]["per_class"]
        assert c.theoretical_cov is None and c.z is None
        assert c.count == 6 * 100

    def test_model3_true_centers_scaled(self, triangle):
        report = run(small_config(triangle, NoiseSpec("model3", q=0.49),
                                  n_list=(200,)))
        mom = pointmodel.moments(triangle)
        centered = triangle.locations - mom.mu
        for k, c in enumerate(report.per_n[0]["per_class"]):
            assert np.allclose(c.true_center, 0.7 * centered[k], atol=1e-12)

    def test_all_replicates_failing_marks_invalid(self, triangle):
        # masking with q=0 observes no entry: every centered matrix is zero,
        # so every replicate's embedding is deficient
        cfg = small_config(triangle, NoiseSpec("model3", q=0.0))
        report = run(cfg)
        assert report.invalid
        assert report.per_n[0]["per_class"] == []
        assert report.per_n[0]["failed"] == cfg.replicates

    def test_decomposition_diagnostics(self, triangle, uniform4):
        cfg = small_config(triangle, uniform4,
                           checks={"clt": False, "decomposition": True})
        report = run(cfg)
        diag = report.per_n[0]["diagnostics"]["decomposition"]
        assert diag["identity_residual"] <= 1e-7
        assert len(diag["median_row_norms"]) == 6

    @pytest.mark.parametrize("n", [200, 256])
    def test_decomposition_check_ignores_caller_blas_threads(self, triangle,
                                                             uniform4, n,
                                                             blas_count):
        """The check keeps one BLAS thread whatever count the caller runs
        with, so its residual bits do not move."""
        cfg = small_config(triangle, uniform4, n_list=(n,), replicates=2,
                           checks={"clt": False, "decomposition": True})
        seen = []
        for count in (1, 2):
            blas_count(count)
            seen.append(run(cfg).per_n[0]["diagnostics"])
        assert seen[0] == seen[1]

    def test_failed_decomposition_check_reported(self, triangle, uniform4,
                                                 monkeypatch):
        """A numerical failure of the check becomes its reason in the report,
        and the replicates' results stand, replicate 0's among them."""
        def diverged(points, B_hat, pair):
            raise matrixcore.ConvergenceError("no convergence")

        cfg = small_config(triangle, uniform4, n_list=(100, 120),
                           checks={"clt": False, "decomposition": True})
        plain = run(small_config(triangle, uniform4, n_list=(100, 120)))
        monkeypatch.setattr(clt, "decompose", diverged)
        report = run(cfg)
        for block, want in zip(report.per_n, plain.per_n):
            assert block["diagnostics"] == {
                "decomposition": {"error": "ConvergenceError: no convergence"}}
            assert block["failed"] == 0
            assert np.array_equal(block["deviations"], want["deviations"])

    @pytest.mark.parametrize("threads", [1, 2])
    def test_failed_check_on_the_pool_counts_toward_nothing(self, triangle, uniform4,
                                                            monkeypatch, threads):
        """The check runs inside replicate 0 but stays out of the tally: with
        replicate 1 failing as well, ``failed`` is 1, the run stays valid, and
        the failure keeps its replicate index."""
        one_replicate = harness._one_replicate

        def fails_at_1(cfg, n, r):
            if r == 1:
                raise matrixcore.ConvergenceError("replicate 1")
            return one_replicate(cfg, n, r)

        def diverged(points, B_hat, pair):
            raise matrixcore.ConvergenceError("no convergence")

        monkeypatch.setattr(harness, "_one_replicate", fails_at_1)
        monkeypatch.setattr(clt, "decompose", diverged)
        report = run(small_config(triangle, uniform4, threads=threads,
                                  checks={"clt": False, "decomposition": True}))
        [block] = report.per_n
        assert block["diagnostics"] == {
            "decomposition": {"error": "ConvergenceError: no convergence"}}
        assert block["failed"] == 1 and not report.invalid
        assert block["errors"] == [(block["n"], 1, "ConvergenceError: replicate 1")]
        assert block["replicates"] == [0, 2, 3, 4, 5]

    @pytest.mark.parametrize("threads", [1, 2])
    def test_failed_replicate_0_fails_its_check(self, triangle, uniform4,
                                                monkeypatch, threads):
        """When replicate 0 itself fails, it counts in ``failed`` as any
        replicate does, and its check reports the same reason."""
        current = threading.local()
        one_replicate, top_eigs = harness._one_replicate, cmds.top_eigs

        def replicate(cfg, n, r):
            current.r = r
            return one_replicate(cfg, n, r)

        def failing_top_eigs(m, k):
            if current.r == 0:
                raise matrixcore.ConvergenceError("replicate 0")
            return top_eigs(m, k)

        monkeypatch.setattr(harness, "_one_replicate", replicate)
        monkeypatch.setattr(cmds, "top_eigs", failing_top_eigs)
        report = run(small_config(triangle, uniform4, threads=threads,
                                  checks={"clt": False, "decomposition": True}))
        [block] = report.per_n
        assert block["failed"] == 1 and not report.invalid
        assert block["errors"] == [(block["n"], 0, "ConvergenceError: replicate 0")]
        assert block["replicates"] == [1, 2, 3, 4, 5]
        assert block["diagnostics"] == {
            "decomposition": {"error": "ConvergenceError: replicate 0"}}

    def test_releases_each_n_before_the_next(self, triangle, uniform4):
        """An n's per-replicate results are dropped before the next n's
        replicates run: over n = 300 then 600 the traced peak stays within
        7.5% of n = 600 alone. The report keeps n = 300's deviations, a few
        percent; holding its 40 replicates' results as well reads near 10%."""
        def peak(n_list):
            tracemalloc.start()
            try:
                run(small_config(triangle, uniform4, n_list=n_list, replicates=40))
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert peak((300, 600)) <= 1.075 * peak((600,))

    @pytest.mark.parametrize("threads", [1, 2])
    def test_check_adds_no_simulate_or_solve(self, triangle, uniform4,
                                             monkeypatch, threads):
        """With the decomposition check on, each n runs one ``simulate``, one
        eigensolve (B_hat's top-d: dense at n = 100, ARPACK at n = 300) and
        one B_hat operator per replicate: the check takes replicate 0's
        simulation, solve and operator."""
        calls = []
        current = threading.local()
        simulate = clt.simulate

        def counted_simulate(*args, **kwargs):
            current.n = args[2]
            calls.append(("simulate", current.n))
            return simulate(*args, **kwargs)

        def spy(name):
            solve = getattr(matrixcore, name)

            def counted(*args, **kwargs):
                calls.append(("solve", current.n))
                return solve(*args, **kwargs)
            monkeypatch.setattr(matrixcore, name, counted)

        def counted_operator(self, sq):
            calls.append(("operator", current.n))
            operator_init(self, sq)

        operator_init = matrixcore._CenteredSquares.__init__
        monkeypatch.setattr(matrixcore._CenteredSquares, "__init__", counted_operator)
        monkeypatch.setattr(clt, "simulate", counted_simulate)
        spy("_dense_top")
        spy("_lanczos")
        report = run(small_config(triangle, uniform4, n_list=(100, 300),
                                  threads=threads,
                                  checks={"clt": False, "decomposition": True}))
        for block in report.per_n:
            assert block["diagnostics"]["decomposition"]["identity_residual"] <= 1e-7
            assert calls.count(("simulate", block["n"])) == 6
            assert calls.count(("solve", block["n"])) == 6
            assert calls.count(("operator", block["n"])) == 6

    def test_deviation_stack(self, triangle, uniform4):
        """Each n's block keeps the deviation rows of its successful
        replicates as one (replicates, n, d) array, with the row labels."""
        block = run(small_config(triangle, uniform4, replicates=2)).per_n[0]
        assert block["replicates"] == [0, 1]
        assert block["deviations"].shape == (2, 100, 2)
        assert np.bincount(block["labels"]).tolist() == [20, 30, 50]
        rows = block["deviations"][:, block["labels"] == 0].reshape(-1, 2)
        assert np.array_equal(block["per_class"][0].pooled_cov,
                              np.cov(rows, rowvar=False, ddof=1))

    def test_model1_covariance_class_independent(self, triangle):
        """The squared-scale model's limit law has no location dependence, so
        per-class pooled covariances agree pairwise."""
        noise = NoiseSpec("model1", law=NoiseLaw("gaussian", sigma=2.0))
        cfg = small_config(triangle, noise, n_list=(500,), replicates=40)
        report = run(cfg)
        covs = [c.pooled_cov for c in report.per_n[0]["per_class"]]
        for i in range(3):
            for j in range(i + 1, 3):
                rel = (np.linalg.norm(covs[i] - covs[j], "fro")
                       / np.linalg.norm(covs[j], "fro"))
                assert rel < 0.15


@pytest.mark.skipif(not matrixcore._OPENBLAS,
                    reason="no bundled OpenBLAS loaded")
class TestBlasThreads:
    @pytest.mark.parametrize("threads", [1, 2])
    def test_one_blas_thread_per_worker_then_restored(self, triangle, uniform4,
                                                      monkeypatch, threads,
                                                      blas_count):
        """Replicates see one BLAS thread, and so does the decomposition
        check inside replicate 0, at n = 100 and at n = 300 alike: it solves
        no eigenproblem and takes B's pair from the SVD of the points. The
        caller's count is restored after the run."""
        seen = {cmds: [], harness.clt: []}

        def spy(module, name):
            solve = getattr(module, name)

            def counted(*args):
                seen[module].append(blas_count())
                return solve(*args)
            monkeypatch.setattr(module, name, counted)

        spy(cmds, "top_eigs")
        spy(harness.clt, "gram_top_eigs")
        blas_count(2)
        run(small_config(triangle, uniform4, threads=threads, n_list=(100, 300),
                         checks={"clt": False, "decomposition": True}))
        assert blas_count() == [2] * len(blas_count())
        assert len(seen[cmds]) == 12
        assert all(c == [1] * len(c) for c in seen[cmds])
        assert seen[harness.clt] == [[1] * len(blas_count())] * 2

    def test_operator_solve_ignores_caller_blas_threads(self, triangle, uniform4,
                                                        blas_count):
        """dsymv's bits depend on the BLAS thread count, so a solve on the
        centering operator runs on one thread whatever the caller's count,
        and then restores that count."""
        _, out = clt.simulate(triangle, uniform4, 1000, 7, 0, keep=("delta_sq",))
        dsq = out["delta_sq"]
        blas_count(1)
        want = matrixcore.top_eigs(matrixcore.centered(dsq), 2)
        blas_count(2)
        got = matrixcore.top_eigs(matrixcore.centered(dsq), 2)
        assert blas_count() == [2] * len(blas_count())
        assert np.array_equal(got.values, want.values)
        assert np.array_equal(got.vectors, want.vectors)

    @pytest.mark.parametrize("replicates, threads", [
        (1, 1), (1, 2), (2, 2), (3, 2), (2, 5)])
    def test_every_worker_has_one_blas_thread(self, replicates, threads, blas_count):
        """A thread budget beyond one worker per replicate stays unused: every
        worker runs on one BLAS thread, and the caller's count comes back."""
        blas_count(3)
        [(_, results, _)] = harness.clt.run_grid(lambda n, r: blas_count(), [10],
                                                 replicates, threads)
        assert blas_count() == [3] * len(blas_count())
        assert results == {r: [1] * len(blas_count()) for r in range(replicates)}

    @pytest.mark.parametrize("threads", [1, 2])
    def test_restored_when_a_replicate_raises(self, triangle, uniform4,
                                              monkeypatch, threads, blas_count):
        def broken(m, k):
            raise RuntimeError("replicate bug")

        monkeypatch.setattr(cmds, "top_eigs", broken)
        blas_count(2)
        with pytest.raises(RuntimeError, match="replicate bug"):
            run(small_config(triangle, uniform4, threads=threads))
        assert blas_count() == [2] * len(blas_count())


def test_one_blas_thread_guard_under_contention(monkeypatch):
    """Eight threads keep entering and leaving the solves' one-thread guard,
    over a fake BLAS whose restores are slow, with a short switch interval:
    inside the guard the count always reads 1, and the caller's count comes
    back once the last thread has left."""
    count = [3]

    def put(n):
        time.sleep(0.001 if n != 1 else 0.0)
        count[0] = n

    monkeypatch.setattr(matrixcore, "_OPENBLAS", [(lambda: count[0], put)])
    guard, seen = matrixcore._OneBlasThread(), []

    def worker():
        for _ in range(100):
            with guard:
                time.sleep(0.001)
                seen.append(count[0])
            time.sleep(0.001)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        workers = [threading.Thread(target=worker) for _ in range(8)]
        for t in workers:
            t.start()
        for t in workers:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in workers)
    assert len(seen) == 800 and set(seen) == {1}
    assert count == [3]


def test_blas_threads_without_openblas_is_a_no_op(monkeypatch):
    monkeypatch.setattr(matrixcore.glob, "glob", lambda pattern: [])
    controls = matrixcore._openblas_thread_controls()
    assert controls == []
    monkeypatch.setattr(matrixcore, "_OPENBLAS", controls)
    with pytest.raises(KeyError):
        with matrixcore.one_blas_thread:
            raise KeyError("body still runs")


class TestNormalityCheck:
    def test_calibration_on_exact_normals(self):
        rng = np.random.default_rng(0)
        passes = 0
        for _ in range(100):
            samples = rng.multivariate_normal(
                [0, 0], [[2.0, 0.5], [0.5, 1.0]], size=500)
            passes += normality_check(samples)["pass"]
        assert passes >= 95

    def test_power_against_uniform(self):
        rng = np.random.default_rng(1)
        samples = rng.uniform(-1, 1, size=(10_000, 2))
        assert not normality_check(samples)["pass"]

    def test_minimum_sample_size(self):
        with pytest.raises(ValueError):
            normality_check(np.zeros((50, 2)))

    @pytest.mark.parametrize("m", [100, 1000, 50_000])
    def test_statistic_is_kstest(self, m):
        """The marginal statistics are scipy's one-sample KS statistic against
        the standard normal, bit for bit, on normal and on uniform samples."""
        rng = np.random.default_rng(m)
        for x in (rng.standard_normal(m), rng.uniform(-2.0, 2.0, m)):
            want = scipy.stats.kstest(x, "norm").statistic
            assert harness._ks_normal(x) == want
        assert harness.KS_CRIT_1PCT == scipy.stats.kstwobign.isf(0.01)

    def test_singular_covariance(self):
        rng = np.random.default_rng(2)
        samples = np.column_stack([rng.standard_normal(200),
                                   np.ones(200)])
        with pytest.raises(ValueError):
            normality_check(samples)


class TestEllipsePoints:
    def test_unit_circle_radius(self):
        pts = ellipse_points([0.0, 0.0], np.eye(2))
        radii = np.linalg.norm(pts, axis=1)
        want = np.sqrt(-2.0 * np.log(0.05))
        assert np.allclose(radii, want, atol=1e-10)
        assert want == pytest.approx(2.4477, abs=1e-4)
        assert len(pts) == 128

    def test_scaling(self):
        r1 = np.linalg.norm(ellipse_points([0, 0], np.eye(2)), axis=1).max()
        r2 = np.linalg.norm(ellipse_points([0, 0], 4 * np.eye(2)), axis=1).max()
        assert r2 == pytest.approx(2 * r1)

    def test_containment_fraction(self):
        rng = np.random.default_rng(3)
        cov = np.array([[3.0, 1.0], [1.0, 2.0]])
        mean = np.array([1.0, -1.0])
        draws = rng.multivariate_normal(mean, cov, size=100_000)
        dev = draws - mean
        m2 = np.einsum("ij,jk,ik->i", dev, np.linalg.inv(cov), dev)
        frac = float(np.mean(m2 <= -2.0 * np.log(0.05)))
        assert abs(frac - 0.95) <= 0.005

    def test_rejects_non_spd(self):
        with pytest.raises(ValueError):
            ellipse_points([0, 0], [[1.0, 2.0], [2.0, 1.0]])


class TestHeteroBias:
    def test_structure(self, triangle):
        cfg = small_config(triangle, NoiseSpec("model2_hetero"),
                           n_list=(100, 200), replicates=5)
        out = hetero_bias_experiment(cfg)
        assert out["n"] == [100, 200]
        assert len(out["bias"][0]) == 3
        assert all(b >= 0 for row in out["bias"] for b in row)
        assert all(se > 0 for row in out["std_error"] for se in row)

    def test_reports_each_failed_replicate(self, triangle, monkeypatch):
        """A failed replicate is counted in its n's ``failed`` and listed with
        its reason in ``errors``; its n still gets a bias per class."""
        one_replicate = harness._one_replicate

        def fails_at_200_1(cfg, n, r):
            if (n, r) == (200, 1):
                raise matrixcore.ConvergenceError("replicate 1")
            return one_replicate(cfg, n, r)

        monkeypatch.setattr(harness, "_one_replicate", fails_at_200_1)
        out = hetero_bias_experiment(small_config(
            triangle, NoiseSpec("model2_hetero"), n_list=(100, 200), replicates=5))
        assert out["failed"] == [0, 1]
        assert out["errors"] == [(200, 1, "ConvergenceError: replicate 1")]
        assert [len(row) for row in out["bias"]] == [3, 3]

    def test_script_stops_where_no_replicate_of_an_n_succeeded(self, tmp_path,
                                                                 monkeypatch, capsys):
        """scripts/run_bias.py prints each failed replicate, then ``diagnose``'s
        error line, and exits 1 without writing a table or a figure."""
        one_replicate = harness._one_replicate

        def fails_at_100(cfg, n, r):
            if n == 100:
                raise matrixcore.ConvergenceError(f"replicate {r}")
            return one_replicate(cfg, n, r)

        script = os.path.join(os.path.dirname(__file__), os.pardir, "scripts",
                              "run_bias.py")
        monkeypatch.setattr(harness, "_one_replicate", fails_at_100)
        monkeypatch.setattr(sys, "argv", [script, "--out-dir", str(tmp_path),
                                          "--n-list", "100,200", "--replicates", "3",
                                          "--threads", "1"])
        with pytest.raises(SystemExit) as exc:
            runpy.run_path(script, run_name="__main__")
        assert exc.value.code == 1
        assert capsys.readouterr().err == "".join(
            f"n=100 replicate {r} failed: ConvergenceError: replicate {r}\n"
            for r in range(3)) + "error: no replicate succeeded at n=100\n"
        assert os.listdir(tmp_path) == []

    def test_bias_is_taken_against_unscaled_centers(self, triangle):
        """The bias is ||class mean - (z - mu)||, not the distance to the
        sqrt(4/3)-scaled ``true_center`` the report carries."""
        cfg = small_config(triangle, NoiseSpec("model2_hetero"), replicates=5)
        [bias] = hetero_bias_experiment(cfg)["bias"]
        centers = triangle.locations - pointmodel.moments(triangle).mu
        classes = run(cfg).per_n[0]["per_class"]
        assert bias == [float(np.linalg.norm(c.empirical_mean - z))
                        for c, z in zip(classes, centers)]
        assert all(np.array_equal(c.true_center, np.sqrt(4.0 / 3.0) * z)
                   for c, z in zip(classes, centers))

    def test_limit_law_calibrates_with_n(self, triangle):
        """Per class, the gap of the mean to sqrt(4/3) (z - mu), in standard
        errors of the mean, and the gap of tr(Sigma^-1 C)/d to 1, C the mean
        per-replicate covariance, both shrink from n = 250 to 1000."""
        cfg = ExperimentConfig(distribution=triangle, noise=NoiseSpec("model2_hetero"),
                               n_list=(250, 1000), d=2, replicates=30, seed=17,
                               checks={"clt": False})
        gaps, traces = [], []
        for block in run(cfg).per_n:
            classes = block["per_class"]
            se = [np.sqrt(np.trace(c.pooled_cov) / (block["n"] * c.count))
                  for c in classes]
            gaps.append([np.linalg.norm(c.empirical_mean - c.true_center) / s
                         for c, s in zip(classes, se)])
            traces.append([abs(np.trace(np.linalg.solve(c.theoretical_cov,
                                                        c.empirical_cov)) / 2 - 1)
                           for c in classes])
        assert np.all(np.less(gaps[1], gaps[0])), gaps
        assert np.all(np.less(traces[1], traces[0])), traces

    def test_requires_mixture(self, uniform4):
        gauss = pointmodel.DistributionSpec(
            "gaussian", mean=[0.0, 0.0], covariance=[[1.0, 0.0], [0.0, 1.0]])
        cfg = ExperimentConfig(distribution=gauss,
                               noise=NoiseSpec("model2_hetero"),
                               n_list=(100,), d=2, replicates=3, seed=0,
                               checks={"clt": False})
        with pytest.raises(ValueError):
            hetero_bias_experiment(cfg)


def test_replicate_seed_distinct():
    seeds = {s for n in (100, 200) for r in range(50)
             for s in clt._replicate_seeds(7, n, r)}
    assert len(seeds) == 200


def test_cli_import_leaves_out_scipy_stats():
    """scipy.stats takes about half of a command's set-up time and the CLI
    needs none of it."""
    code = "import sys, mdsclt.cli; print('scipy.stats' in sys.modules)"
    src = os.path.dirname(os.path.dirname(os.path.abspath(harness.__file__)))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True, env={**os.environ, "PYTHONPATH": src})
    assert out.stdout.strip() == "False"
