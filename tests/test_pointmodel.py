import numpy as np
import pytest

from mdsclt import pointmodel
from mdsclt.noise import NoiseLaw, NoiseSpec
from mdsclt.pointmodel import DistributionSpec, sample, moments, sigma_tilde


class TestDistributionSpec:
    def test_rejects_weights_off_simplex(self):
        with pytest.raises(ValueError):
            DistributionSpec("point_mass_mixture",
                             locations=[[0.0], [1.0]], weights=[0.6, 0.6])

    def test_rejects_negative_weights(self):
        with pytest.raises(ValueError):
            DistributionSpec("point_mass_mixture",
                             locations=[[0.0], [1.0]], weights=[1.5, -0.5])

    def test_rejects_non_spd_covariance(self):
        with pytest.raises(ValueError):
            DistributionSpec("gaussian", mean=[0.0, 0.0],
                             covariance=[[1.0, 2.0], [2.0, 1.0]])

    @pytest.mark.parametrize("mean, shape", [(3.0, r"\(\)"), ([[0.0, 1.0]], r"\(1, 2\)")])
    def test_rejects_mean_that_is_not_a_vector(self, mean, shape):
        """A scalar or 2-d mean is a ValueError naming its shape, not an
        IndexError from the covariance check."""
        with pytest.raises(ValueError, match=f"mean must be a vector, got shape {shape}"):
            DistributionSpec("gaussian", mean=mean, covariance=[[1.0]])

    def test_rejects_inverted_box(self):
        with pytest.raises(ValueError):
            DistributionSpec("uniform_box", lo=[0.0, 0.0], hi=[1.0, -1.0])

    @pytest.mark.parametrize("variant, params, key", [
        ("gaussian", {"mean": [np.nan, 0.0], "covariance": np.eye(2)}, "mean"),
        ("gaussian", {"mean": [0.0], "covariance": [[np.inf]]}, "covariance"),
        ("point_mass_mixture", {"locations": [[0.0], [np.inf]], "weights": [0.5, 0.5]},
         "locations"),
        ("point_mass_mixture", {"locations": [[0.0], [1.0]], "weights": [np.nan, 0.5]},
         "weights"),
        ("uniform_box", {"lo": [-np.inf], "hi": [1.0]}, "lo"),
        ("uniform_box", {"lo": [0.0], "hi": [np.nan]}, "hi"),
    ], ids=["gaussian_mean", "gaussian_covariance", "mixture_locations",
            "mixture_weights", "box_lo", "box_hi"])
    def test_rejects_non_finite_parameters(self, variant, params, key):
        """A NaN or infinite parameter is rejected, as ``from_json`` rejects it,
        so ``to_json`` writes JSON numbers only."""
        with pytest.raises(ValueError, match=f"distribution '{variant}' '{key}' must be finite"):
            DistributionSpec(variant, **params)

    def test_json_roundtrip(self, triangle):
        for spec in (triangle,
                     DistributionSpec("gaussian", mean=[1.0, 2.0],
                                      covariance=[[2.0, 0.3], [0.3, 1.0]]),
                     DistributionSpec("uniform_box", lo=[-1.0], hi=[1.0])):
            back = DistributionSpec.from_json(spec.to_json())
            assert back.variant == spec.variant
            assert back.to_json() == spec.to_json()


class TestSample:
    def test_mixture_counts_1000(self, triangle):
        cloud = sample(triangle, 1000, seed=0)
        counts = np.bincount(cloud.labels)
        assert list(counts) == [200, 300, 500]

    def test_mixture_counts_sum_with_awkward_n(self, triangle):
        for n in (7, 13, 101, 997):
            cloud = sample(triangle, n, seed=0)
            assert cloud.n == n
            assert np.bincount(cloud.labels, minlength=3).sum() == n

    def test_gaussian_deterministic(self):
        spec = DistributionSpec("gaussian", mean=[0.0, 0.0],
                                covariance=[[1.0, 0.0], [0.0, 1.0]])
        a = sample(spec, 10, seed=42)
        b = sample(spec, 10, seed=42)
        assert np.array_equal(a.points, b.points)

    def test_degenerate_single_mass(self):
        spec = DistributionSpec("point_mass_mixture",
                                locations=[[2.0, -1.0]], weights=[1.0])
        cloud = sample(spec, 8, seed=3)
        assert np.array_equal(cloud.points, np.tile([2.0, -1.0], (8, 1)))

    def test_rejects_tiny_n(self, triangle):
        with pytest.raises(ValueError):
            sample(triangle, 3, seed=0)

    def test_uniform_box_within_support(self):
        spec = DistributionSpec("uniform_box", lo=[-2.0, 0.0], hi=[1.0, 5.0])
        cloud = sample(spec, 200, seed=1)
        assert np.all(cloud.points >= [-2.0, 0.0])
        assert np.all(cloud.points <= [1.0, 5.0])

    def test_distance_matrix_hollow_symmetric(self, triangle_cloud_100):
        d = triangle_cloud_100.distance_matrix()
        assert np.array_equal(d, d.T)
        assert np.all(np.diag(d) == 0.0)
        assert np.all(d >= 0.0)

    def test_distance_matrix_translation_invariant(self):
        """Distances come from coordinate differences, so a cloud far from the
        origin keeps them to roundoff of its coordinates. From the Gram matrix
        they erred by 1.6e-2 here, and two points 1e-3 apart came out 0."""
        spec = DistributionSpec("gaussian", mean=[0.0, 0.0],
                                covariance=[[1.0, 0.0], [0.0, 1.0]])
        cloud = sample(spec, 300, seed=2)
        shifted = pointmodel.PointCloud(cloud.points + 1e6)
        err = np.abs(shifted.distance_matrix() - cloud.distance_matrix()).max()
        assert err <= 1e-9
        pair = pointmodel.PointCloud([[1e6, 1e6], [1e6 + 1e-3, 1e6]])
        assert pair.distance_matrix()[0, 1] == pytest.approx(1e-3, abs=1e-9)


class TestMoments:
    def test_gaussian_passthrough(self):
        c = np.array([[2.0, 0.5], [0.5, 1.0]])
        spec = DistributionSpec("gaussian", mean=[3.0, -1.0], covariance=c)
        m = moments(spec)
        assert np.array_equal(m.mu, [3.0, -1.0])
        assert np.array_equal(m.xi, c)

    def test_two_symmetric_masses(self):
        spec = DistributionSpec("point_mass_mixture",
                                locations=[[-1.0], [1.0]], weights=[0.5, 0.5])
        m = moments(spec)
        assert m.mu == pytest.approx(0.0)
        assert m.xi[0, 0] == pytest.approx(1.0)

    def test_triangle_vs_mc_oracle(self, triangle):
        m = moments(triangle)
        rng = np.random.default_rng(99)
        idx = rng.choice(3, size=1_000_000, p=triangle.weights)
        draws = triangle.locations[idx]
        mc_cov = np.cov(draws, rowvar=False)
        assert np.abs(m.xi - mc_cov).max() <= 0.005 * np.abs(m.xi).max()

    def test_uniform_box_closed_form(self):
        spec = DistributionSpec("uniform_box", lo=[0.0, -3.0], hi=[6.0, 3.0])
        m = moments(spec)
        assert np.allclose(m.mu, [3.0, 0.0])
        assert np.allclose(m.xi, np.diag([3.0, 3.0]))

    def test_singular_xi_rejected(self):
        # collinear masses: covariance is rank 1 in the plane
        spec = DistributionSpec("point_mass_mixture",
                                locations=[[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]],
                                weights=[0.3, 0.4, 0.3])
        with pytest.raises(ValueError):
            moments(spec)

    def test_sample_covariance_converges(self, triangle):
        """Sample covariance at n=1e5 within 5 standard errors of Xi."""
        m = moments(triangle)
        n = 100_000
        cloud = sample(triangle, n, seed=11)
        emp = np.cov(cloud.points, rowvar=False)
        # entry-wise SE of a covariance estimate is O(max moment / sqrt(n))
        se = 5.0 * np.abs(m.xi).max() / np.sqrt(n)
        # point-mass counts are deterministic, so the gap is rounding only
        assert np.abs(emp - m.xi).max() <= max(se, 5e-3 * np.abs(m.xi).max())


UNIFORM4 = NoiseSpec("model2", law=NoiseLaw("uniform", a=4.0))
W4 = UNIFORM4.moment_rule[1]


class TestSigmaTilde:
    def test_model3_q1_zero(self, triangle):
        out = sigma_tilde(triangle, [0.0, 0.0], NoiseSpec("model3", q=1.0).moment_rule[1])
        assert np.allclose(out, 0.0)

    def test_model2_zero_law_zero(self, triangle):
        spec = NoiseSpec("model2", law=NoiseLaw("uniform", a=0.0))
        out = sigma_tilde(triangle, [1.0, 1.0], spec.moment_rule[1])
        assert np.allclose(out, 0.0)

    def test_model1_weight_gives_sigma2_over_4_xi_inv(self, triangle):
        """Model 1's constant weight sigma^2/4 gives Xi^-1 E[w YY^T] Xi^-1 =
        sigma^2/4 Xi^-1 at every location, the shortcut ``theory_cov`` takes."""
        noise = NoiseSpec("model1", law=NoiseLaw("gaussian", sigma=1.5))
        xi_inv = np.linalg.inv(moments(triangle).xi)
        want = 1.5**2 / 4.0 * xi_inv
        for z in triangle.locations:
            got = xi_inv @ sigma_tilde(triangle, z, noise.moment_rule[1]) @ xi_inv
            assert np.allclose(got, want, rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("noise, weight", [
        (UNIFORM4, lambda r: 16.0 / 3.0 * r**2 + 0.0 * r + 256.0 / 5.0 / 4.0
         - (16.0 / 3.0)**2 / 4.0),
        (NoiseSpec("model3", q=0.49), lambda r: (1.0 - 0.49) / 4.0 * r**4),
    ], ids=["model2", "model3"])
    def test_models_2_and_3_keep_their_weights_bit_for_bit(self, triangle, noise,
                                                            weight):
        """sigma^2 r^2 + gamma r + xi/4 - sigma^4/4 (model 2, here
        Uniform(-4, 4)) and (1-q)/4 r^4 (model 3), as written before the
        weights moved into ``NoiseSpec.moment_rule``."""
        for z in triangle.locations:
            assert np.array_equal(sigma_tilde(triangle, z, noise.moment_rule[1]),
                                  sigma_tilde(triangle, z, weight))

    def test_paper_theory_value_up_to_rotation(self, triangle):
        """Xi^-1 Sigma~(z) Xi^-1 at one class location matches the published
        reference matrix up to a global planar rotation (the placement of
        the triangle is only fixed up to isometry)."""
        from mdsclt.clt import rotation_match
        target = np.array([[13.56, -3.06], [-3.06, 22.65]])
        xi_inv = np.linalg.inv(moments(triangle).xi)
        errs = []
        for z in triangle.locations:
            st = sigma_tilde(triangle, z, W4)
            sig = xi_inv @ st @ xi_inv
            errs.append(rotation_match(sig, target)["max_rel_entry_error"])
        # exactly one class is the published one; reference printed to 4 digits
        assert min(errs) < 0.01

    def test_mixture_path_exact_and_seed_free(self, triangle):
        """The finite sum over the masses, draw-free: a loop over them, one
        mass at a time, gives the same matrix to roundoff."""
        z = np.array([0.5, 0.5])
        mom = UNIFORM4.law.moments()
        mu = moments(triangle).mu
        want = np.zeros((2, 2))
        for x, w in zip(triangle.locations, triangle.weights):
            r = np.linalg.norm(x - z)
            weight = (mom.sigma2 * r**2 + mom.gamma * r + mom.xi4 / 4
                      - mom.sigma2**2 / 4)
            want += w * weight * np.outer(x - mu, x - mu)
        got = sigma_tilde(triangle, z, W4)
        assert np.allclose(got, want, rtol=1e-13, atol=0.0)
        assert np.array_equal(got, sigma_tilde(triangle, z, W4))

    def test_symmetry(self, triangle):
        out = sigma_tilde(triangle, [1.7, -0.3], W4)
        assert np.array_equal(out, out.T)

    def test_non_mixture_rejected(self):
        spec = DistributionSpec("uniform_box", lo=[0.0, 0.0], hi=[1.0, 1.0])
        with pytest.raises(ValueError, match="point-mass mixtures"):
            sigma_tilde(spec, [0.5, 0.5], W4)


def test_triangle_345_geometry():
    """Distances do not change under the centring translation."""
    spec = pointmodel.triangle_345()
    locs = spec.locations
    d = np.linalg.norm(locs[:, None] - locs[None, :], axis=2)
    assert sorted([d[0, 1], d[0, 2], d[1, 2]]) == pytest.approx([3.0, 4.0, 5.0],
                                                                 rel=1e-15)
    assert np.allclose(spec.weights @ locs, 0.0, atol=1e-12)
