import threading
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from mdsclt import clt, cmds, harness, matrixcore, pointmodel
from mdsclt.matrixcore import (ConvergenceError, SpectralPair, SymmetricMatrix,
                               centered, double_center, gram_top_eigs, top_eigs)
from mdsclt.noise import NoiseLaw, NoiseSpec, perturb
from mdsclt.pointmodel import DistributionSpec


GAUSS_I2 = DistributionSpec("gaussian", mean=[0.0, 0.0],
                            covariance=[[1.0, 0.0], [0.0, 1.0]])
BOX = DistributionSpec("uniform_box", lo=[-1.0, 0.0], hi=[2.0, 1.0])


def grid_config(spec, noise, n_grid, seed, threads=1, replicates=2):
    """The experiment config ``bound_checks`` reads its grid, replicate
    count, seed and threads from."""
    return harness.ExperimentConfig(distribution=spec, noise=noise, n_list=n_grid,
                                    d=spec.d, replicates=replicates, seed=seed,
                                    threads=threads)


class TestTheoryCov:
    def test_model1_unit_formula(self):
        noise = NoiseSpec("model1", law=NoiseLaw("gaussian", sigma=2.0))
        [sigma] = clt.theory_cov(GAUSS_I2, noise)
        assert np.allclose(sigma, np.eye(2), atol=1e-12)
        assert noise.center_scale == 1.0

    def test_model1_zero_noise(self):
        noise = NoiseSpec("model1", law=NoiseLaw("gaussian", sigma=0.0))
        [sigma] = clt.theory_cov(GAUSS_I2, noise)
        assert np.allclose(sigma, 0.0)

    def test_model1_symmetric_pd(self, triangle):
        noise = NoiseSpec("model1", law=NoiseLaw("uniform", a=3.0))
        sig = clt.theory_cov(triangle, noise)[0]
        assert np.array_equal(sig, sig.T)
        assert np.linalg.eigvalsh(sig).min() > 0

    def test_model2_paper_value_up_to_rotation(self, triangle, uniform4):
        sigmas = clt.theory_cov(triangle, uniform4)
        target = np.array([[13.56, -3.06], [-3.06, 22.65]])
        errs = [clt.rotation_match(sigma, target)["max_rel_entry_error"]
                for sigma in sigmas]
        assert min(errs) < 0.01

    def test_model3_center_scale(self, triangle):
        noise = NoiseSpec("model3", q=0.49)
        sigmas = clt.theory_cov(triangle, noise)
        assert noise.center_scale == pytest.approx(0.7)
        assert len(sigmas) == 3

    def test_non_mixture_rejected_for_models_2_and_3(self, uniform4):
        for noise in (uniform4, NoiseSpec("model3", q=0.49), NoiseSpec("model2_hetero")):
            with pytest.raises(ValueError, match="point-mass mixtures"):
                clt.theory_cov(GAUSS_I2, noise)


class TestAlign:
    def test_identity(self, rng):
        x = rng.standard_normal((20, 2))
        assert np.allclose(clt.align(x, x), np.eye(2), atol=1e-10)

    def test_exact_rotation_recovery(self, rng):
        x = rng.standard_normal((20, 2))
        th = 1.1
        r = np.array([[np.cos(th), -np.sin(th)], [np.sin(th), np.cos(th)]])
        assert np.allclose(clt.align(x, x @ r), r, atol=1e-9)

    def test_reflection_allowed(self, rng):
        x = rng.standard_normal((20, 2))
        r = np.diag([1.0, -1.0])
        assert np.allclose(clt.align(x, x @ r), r, atol=1e-9)

    def test_noisy_recovery_vs_grid_oracle(self, rng):
        x = rng.standard_normal((50, 2))
        th = 0.37
        r = np.array([[np.cos(th), -np.sin(th)], [np.sin(th), np.cos(th)]])
        target = x @ r + 0.01 * rng.standard_normal((50, 2))
        w = clt.align(x, target)
        # brute-force search over angle x reflection: minimizing
        # ||x M - target||_F is maximizing tr(M^T x^T target), linear in
        # (cos t, sin t) for each reflection branch
        cmat = x.T @ target
        ts = np.linspace(0, 2 * np.pi, 2_000_000, endpoint=False)
        best = -np.inf
        best_m = None
        for refl in (1.0, -1.0):
            a = cmat[0, 0] + refl * cmat[1, 1]
            b = cmat[1, 0] - refl * cmat[0, 1]
            obj = a * np.cos(ts) + b * np.sin(ts)
            i = int(np.argmax(obj))
            if obj[i] > best:
                c, s = np.cos(ts[i]), np.sin(ts[i])
                best = obj[i]
                best_m = np.array([[c, -s], [s, c]]) @ np.diag([1.0, refl])
        assert np.linalg.norm(w - best_m, "fro") <= 1e-3

    def test_shape_mismatch(self, rng):
        with pytest.raises(ValueError):
            clt.align(rng.standard_normal((5, 2)), rng.standard_normal((6, 2)))


@given(src=arrays(np.float64, (8, 2), elements=st.floats(-10, 10)),
       tgt=arrays(np.float64, (8, 2), elements=st.floats(-10, 10)))
@settings(max_examples=60, deadline=None)
def test_align_always_orthogonal(src, tgt):
    w = clt.align(src, tgt)
    assert np.linalg.norm(w.T @ w - np.eye(2), "fro") <= 1e-10


def test_rotation_match_recovers_conjugation(rng):
    a = rng.standard_normal((2, 2))
    emp = a @ a.T + np.eye(2)
    th = 0.9
    r = np.array([[np.cos(th), -np.sin(th)], [np.sin(th), np.cos(th)]])
    out = clt.rotation_match(emp, r @ emp @ r.T)
    assert out["max_rel_entry_error"] < 0.01


def rotation_match_loop(emp, target, steps=7200):
    """Reference: the scan rotation_match vectorizes, one rotation at a time,
    keeping the first strict improvement."""
    denom = np.maximum(np.abs(target), 1e-12)
    best_err, best_r = np.inf, np.eye(2)
    for refl in (1.0, -1.0):
        for th in np.linspace(0.0, 2.0 * np.pi, steps, endpoint=False):
            c, s = np.cos(th), np.sin(th)
            r = np.array([[c, -s], [s, c]]) @ np.diag([1.0, refl])
            err = float(np.max(np.abs(r @ emp @ r.T - target) / denom))
            if err < best_err:
                best_err, best_r = err, r
    return {"R": best_r, "max_rel_entry_error": best_err}


def test_rotation_match_equals_loop(rng):
    """Same R and error bits as the one-at-a-time scan, also for an exact
    match, where the best R is the identity."""
    for i in range(12):
        a, b = rng.standard_normal((2, 2, 2))
        emp = a @ a.T + np.eye(2)
        target = emp if i % 4 == 0 else b @ b.T + 0.5 * np.eye(2)
        got = clt.rotation_match(emp, target)
        want = rotation_match_loop(emp, target)
        assert got["R"].tobytes() == want["R"].tobytes()
        assert got["max_rel_entry_error"] == want["max_rel_entry_error"]


def random_rank_d_pair(rng, n=40, d=2, noise_scale=1.0):
    """A random configuration z, n x d, and a symmetric perturbation of its
    centered Gram matrix B = p z z^T p (exact rank d)."""
    z = rng.standard_normal((n, d)) * 3.0
    p = np.eye(n) - np.ones((n, n)) / n
    b = p @ z @ z.T @ p
    e = rng.standard_normal((n, n)) * noise_scale
    e = (e + e.T) / 2.0
    return z, SymmetricMatrix(b + e)


class TestDecompose:
    def test_no_perturbation_all_zero(self, rng):
        z, b = random_rank_d_pair(rng, noise_scale=0.0)
        rep = clt.decompose(z, b, top_eigs(b, 2))
        assert rep.identity_residual <= 1e-12
        for t in rep.term_row_norms:
            assert np.abs(t).max() <= 1e-8

    def test_identity_on_random_pairs(self, rng):
        for _ in range(20):
            z, bh = random_rank_d_pair(rng)
            rep = clt.decompose(z, bh, top_eigs(bh, 2))
            assert rep.identity_residual <= 1e-7

    def test_remainder_terms_shrink_with_n(self, triangle, uniform4):
        """Median sqrt(n)-scaled row norms of the five remainder terms
        decrease as n grows."""
        def remainder_median(n):
            cloud = pointmodel.sample(triangle, n, seed=5)
            D = SymmetricMatrix(cloud.distance_matrix())
            out = perturb(D, uniform4, seed=5)
            b_hat = double_center(out["delta_sq"])
            rep = clt.decompose(cloud.points, b_hat, top_eigs(b_hat, 2))
            return [float(np.median(t)) for t in rep.term_row_norms[1:]]

        small, large = remainder_median(100), remainder_median(500)
        assert sum(l < s for s, l in zip(small, large)) >= 4

    @pytest.mark.parametrize("noise", [NoiseSpec("model3", q=0.49),
                                       NoiseSpec("model2_hetero")],
                             ids=["model3", "model2_hetero"])
    def test_remainder_terms_shrink_with_n_against_expected_b_hat(self, triangle,
                                                                  noise):
        """Against E[B_hat] = cB, the Gram matrix of the sqrt(c)-scaled points
        that the decomposition check hands over (c = q under model 3, 4/3
        under model2_hetero), each remainder median, averaged over replicates
        0-3, shrinks from n = 200 to 800. (Against B, B_hat - B carries
        (c - 1)B and they grow.) One replicate's term 2 is too noisy to
        order."""
        def remainder_medians(n):
            meds = []
            for r in range(4):
                cloud, out = clt.simulate(triangle, noise, n, 5, r, keep=("delta_sq",))
                b_hat = centered(out["delta_sq"])
                rep = clt.decompose(noise.center_scale * cloud.points, b_hat,
                                    top_eigs(b_hat, 2))
                meds.append([np.median(t) for t in rep.term_row_norms[1:]])
            return np.mean(meds, axis=0)

        small, large = remainder_medians(200), remainder_medians(800)
        assert np.all(large < small), (small, large)

    def test_size_mismatch(self, rng):
        z, _ = random_rank_d_pair(rng, n=10)
        _, b2 = random_rank_d_pair(rng, n=12)
        with pytest.raises(ValueError, match="one row per row"):
            clt.decompose(z, b2, top_eigs(b2, 2))

    def test_nonpositive_top_eigenvalues_rejected(self):
        """Collinear points give B a zero second eigenvalue, and B_hat = -I
        has no positive one."""
        points = np.outer(np.arange(4.0), [1.0, 2.0])
        b_hat = SymmetricMatrix(-np.eye(4))
        with pytest.raises(cmds.DeficientEmbeddingError, match="must be positive"):
            clt.decompose(points, b_hat, top_eigs(b_hat, 2))

    @pytest.mark.parametrize("dist", [pointmodel.triangle_345(), GAUSS_I2, BOX],
                             ids=["point_mass_mixture", "gaussian", "uniform_box"])
    @pytest.mark.parametrize("n", [100, 400])
    def test_factor_pair_matches_formed_B(self, dist, n):
        """B's top-d pair from the thin SVD of the centered points matches the
        eigensolve of the formed B = double_center(D^2) within 1e-12,
        relative to lambda_1, on both sides of the dense cutoff."""
        cloud = pointmodel.sample(dist, n, seed=9)
        want = top_eigs(double_center(SymmetricMatrix(cloud.distance_matrix() ** 2)),
                        dist.d)
        got = gram_top_eigs(cloud.points - cloud.points.mean(axis=0), dist.d)
        assert np.abs(got.values - want.values).max() <= 1e-12 * want.values[0]
        # unit columns: the gap of each is relative to its norm
        assert np.linalg.norm(got.vectors - want.vectors, axis=0).max() <= 1e-12


class TestBoundChecks:
    def test_zero_noise_ratios(self, triangle):
        noise = NoiseSpec("model2", law=NoiseLaw("uniform", a=0.0))
        out = clt.bound_checks(grid_config(triangle, noise, [50, 100, 200, 300], 0))
        for name in ("b_perturbation", "procrustes_residual",
                     "sup_row_error", "mean_row_error"):
            assert max(out["ratios"][name]["median_per_n"]) <= 1e-9
        lam = out["ratios"]["lambda_d_over_n"]["median_per_n"]
        assert min(lam) > 0
        assert max(lam) / min(lam) < 1.2

    def test_grid_validation(self, triangle, uniform4):
        with pytest.raises(ValueError):
            clt.bound_checks(grid_config(triangle, uniform4, [100, 50, 200], 0))
        with pytest.raises(ValueError):
            clt.bound_checks(grid_config(triangle, uniform4, [100, 200], 0))
        with pytest.raises(ValueError, match="n=3 is outside"):
            clt.bound_checks(grid_config(triangle, uniform4, [3, 50, 100], 0))
        with pytest.raises(ValueError, match="n=10001 is outside"):
            clt.bound_checks(grid_config(triangle, uniform4, [50, 100, 10001], 0))
        for replicates in (1, 0, -1):
            with pytest.raises(ValueError, match="need at least 2 replicates"):
                clt.bound_checks(grid_config(triangle, uniform4, [50, 100, 200], 0,
                                             replicates=replicates))
        for threads in (0, -2):
            with pytest.raises(ValueError, match=f"threads must be at least 1, got {threads}"):
                clt.bound_checks(grid_config(triangle, uniform4, [50, 100, 200], 0,
                                             threads=threads))

    def test_deficient_cell_counted_as_failed(self, triangle, uniform4, monkeypatch):
        """A cell whose B_hat has a non-positive d-th eigenvalue fails with the
        reason an mc-run replicate gives, and its n's medians come from the
        other cells."""
        top_eigs, simulate = cmds.top_eigs, clt.simulate
        cell = threading.local()

        def recorded(spec, noise, n, seed, r, keep):
            cell.id = (n, r)
            return simulate(spec, noise, n, seed, r, keep)

        def deficient_at_n50_r1(m, k):
            # B's pair comes from the points, so every eigensolve is B_hat's
            pair = top_eigs(m, k)
            if cell.id == (50, 1):
                return SpectralPair(np.append(pair.values[:-1], 0.0), pair.vectors)
            return pair

        monkeypatch.setattr(cmds, "top_eigs", deficient_at_n50_r1)
        monkeypatch.setattr(clt, "simulate", recorded)
        cfg = grid_config(triangle, uniform4, [50, 100, 200], 3, replicates=3)
        out = clt.bound_checks(cfg)
        [(n, r, reason)] = out["errors"]
        assert (n, r) == (50, 1)
        assert reason.startswith("DeficientEmbeddingError: eigenvalue 2 of the "
                                 "centered matrix is 0.000e+00 <= ")
        monkeypatch.undo()
        cells = [clt._bound_cell(triangle, uniform4, 50, 3, r) for r in (0, 2)]
        whole = clt.bound_checks(cfg)
        for i, name in enumerate(clt.RATIO_NAMES):
            meds = out["ratios"][name]["median_per_n"]
            assert meds[0] == float(np.median([c[i] for c in cells]))
            assert meds[1:] == whole["ratios"][name]["median_per_n"][1:]

    def test_cell_builds_one_operator(self, triangle, uniform4, monkeypatch):
        """A cell's B_hat - B operator and its norm reuse the B_hat operator
        that the embedding's eigensolve applied: one per cell, dense at
        n = 100 and ARPACK at n = 300."""
        built = []
        operator_init = matrixcore._CenteredSquares.__init__

        def counted(self, sq):
            built.append(sq.n)
            operator_init(self, sq)

        monkeypatch.setattr(matrixcore._CenteredSquares, "__init__", counted)
        for n in (100, 300):
            clt._bound_cell(triangle, uniform4, n, 3, 0)
        assert built == [100, 300]

    def test_reports_all_ratios(self, triangle, uniform4):
        out = clt.bound_checks(grid_config(triangle, uniform4, [50, 100, 200], 3))
        assert set(out["ratios"]) == set(clt.RATIO_NAMES)
        for entry in out["ratios"].values():
            assert len(entry["median_per_n"]) == 3


@pytest.mark.parametrize("threads", [1, 2, 3, 8])
def test_run_replicates_in_replicate_order(threads):
    """``run_grid`` hands back each n's results indexed by replicate whatever
    order the workers finish in; a numerical failure is recorded as its
    (n, replicate, reason), not raised."""
    def cell(n, r):
        time.sleep(0.002 * ((7 * r) % 5))
        if (n + r) % 4 == 3:
            raise ConvergenceError(f"replicate {r}")
        return n * r

    grid = list(clt.run_grid(cell, [10, 21], 12, threads))
    assert [n for n, _, _ in grid] == [10, 21]
    for n, results, failures in grid:
        assert list(results.items()) == [(r, n * r) for r in range(12) if (n + r) % 4 != 3]
        assert failures == [(n, r, f"ConvergenceError: replicate {r}")
                            for r in range(12) if (n + r) % 4 == 3]


@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("fail_at", [set(), {(10, 0)}, {(10, 1), (21, 3)},
                                     {(21, r) for r in range(5)}])
def test_run_grid_books_each_replicate_once(fail_at, threads):
    """Each replicate of an n is either a key of its results or the r of one
    failure record, never both and never neither, wherever the failures fall;
    a cell that returns None has succeeded."""
    def cell(n, r):
        if (n, r) in fail_at:
            raise ValueError(f"cell {n} {r}")
        return None if r % 2 else r

    for n, results, failures in clt.run_grid(cell, [10, 21], 5, threads):
        assert sorted([*results, *(r for _, r, _ in failures)]) == list(range(5))
        assert {r for _, r, _ in failures} == {r for m, r in fail_at if m == n}
        assert all(m == n for m, _, _ in failures)
        assert results == {r: None if r % 2 else r for r in range(5)
                           if (n, r) not in fail_at}


SIMULATE_NOISES = [
    NoiseSpec("model1", law=NoiseLaw("gaussian", sigma=2.0)),
    NoiseSpec("model2", law=NoiseLaw("uniform", a=4.0)),
    NoiseSpec("model2_hetero"),
    NoiseSpec("model3", q=0.49),
]


@pytest.mark.parametrize("noise", SIMULATE_NOISES, ids=[
    "model1_sq_additive", "model2_additive", "model2_hetero_uniform_scaled", "model3_mask"])
@pytest.mark.parametrize("dist", [pointmodel.triangle_345(), GAUSS_I2],
                         ids=["mixture", "gaussian"])
def test_simulate_matches_checked_pipeline(dist, noise):
    """simulate, which perturbs the distances it reads from the points, equals
    sample -> checked distance matrix -> perturb, bit for bit, with the point
    and noise seeds derived from (seed, n, r)."""
    n, seed, r = 300, 11, 2
    cloud, out = clt.simulate(dist, noise, n, seed, r)
    noise_seed, point_seed = clt._replicate_seeds(seed, n, r)
    ref_cloud = pointmodel.sample(dist, n, point_seed)
    ref_D = SymmetricMatrix(ref_cloud.distance_matrix())
    ref = perturb(ref_D, noise, noise_seed)

    def same_bits(a, b):
        return a.shape == b.shape and a.tobytes() == b.tobytes()

    assert same_bits(cloud.points, ref_cloud.points)
    assert (cloud.labels is None) == (ref_cloud.labels is None)
    if cloud.labels is not None:
        assert same_bits(cloud.labels, ref_cloud.labels)
    assert set(out) == set(ref) == {"delta_sq", "delta", "E"}
    for key in ("delta_sq", "delta", "E"):
        if ref[key] is None:
            assert out[key] is None and noise.squared_scale
        else:
            assert same_bits(out[key].data, ref[key].data)


def test_replicate_seeds_keep_the_noise_stream():
    """The noise seed is the single word the replicate was keyed by before the
    point stream got its own, so noise draws keep their bits."""
    for key in ((11, 300, 2), (2018, 60, 0), (5, 200, 0)):
        noise_seed, point_seed = clt._replicate_seeds(*key)
        assert noise_seed == int(np.random.SeedSequence(list(key)).generate_state(1)[0])
        assert point_seed != noise_seed


@pytest.mark.parametrize("dist, noise", [
    (GAUSS_I2, NoiseSpec("model1", law=NoiseLaw("gaussian", sigma=2.0))),
    (DistributionSpec("uniform_box", lo=[-1.0, 0.0], hi=[2.0, 1.0]),
     NoiseSpec("model2", law=NoiseLaw("uniform", a=4.0))),
], ids=["gaussian-model1", "uniform_box-model2"])
def test_point_and_noise_draws_uncorrelated(dist, noise):
    """A replicate's point coordinates and its noise entries come from
    independent streams: their correlation, entry by entry in draw order, is
    within 4 standard errors of 0. One stream for both gave 1.0 and 0.89."""
    n, seed, r = 200, 5, 0
    cloud, out = clt.simulate(dist, noise, n, seed, r, keep=("E",))
    m = cloud.points.size
    e = out["E"].data[np.triu_indices(n, 1)][:m]
    rho = np.corrcoef(cloud.points.ravel(), e)[0, 1]
    assert abs(rho) < 4.0 / np.sqrt(m)
