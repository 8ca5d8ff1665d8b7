import numpy as np
import pytest

from mdsclt import cmds, pointmodel
from mdsclt.cmds import DeficientEmbeddingError, embed, select_dim
from mdsclt.matrixcore import SymmetricMatrix, double_center


def delta_sq_of(points):
    points = np.asarray(points, float)
    diff = points[:, None] - points[None, :]
    dsq = (diff**2).sum(axis=2)
    np.fill_diagonal(dsq, 0.0)
    return SymmetricMatrix(dsq)


TRIANGLE = np.array([[0.0, 0.0], [3.0, 0.0], [0.0, 4.0]])


class TestEmbed:
    def test_exact_triangle_reproduces_distances(self):
        e = embed(delta_sq_of(TRIANGLE), 2)
        d = np.linalg.norm(e.config[:, None] - e.config[None, :], axis=2)
        want = np.linalg.norm(TRIANGLE[:, None] - TRIANGLE[None, :], axis=2)
        assert np.abs(d - want).max() <= 1e-9

    def test_n2_closed_form(self):
        c = 3.1
        dsq = SymmetricMatrix(np.array([[0.0, c**2], [c**2, 0.0]]))
        e = embed(dsq, 1)
        assert np.allclose(np.abs(e.config[:, 0]), c / 2.0, atol=1e-12)
        assert e.config[:, 0].sum() == pytest.approx(0.0, abs=1e-12)

    def test_strain_optimality(self):
        dsq = delta_sq_of(TRIANGLE)
        b = double_center(dsq).data
        e = embed(dsq, 2)
        strain = np.linalg.norm(e.config @ e.config.T - b, "fro")
        assert strain <= 1e-8 * np.linalg.norm(b, "fro")

    def test_columns_orthogonal_with_eigenvalue_norms(self, rng):
        pts = rng.standard_normal((25, 3))
        e = embed(delta_sq_of(pts), 3)
        gram = e.config.T @ e.config
        off = gram - np.diag(np.diag(gram))
        assert np.abs(off).max() <= 1e-8 * np.trace(gram)
        assert np.allclose(np.diag(gram), e.pair.values, rtol=1e-8)

    def test_config_centered(self, rng):
        pts = rng.standard_normal((25, 3)) + 5.0
        e = embed(delta_sq_of(pts), 3)
        col_sums = np.abs(e.config.sum(axis=0)).max()
        assert col_sums <= 1e-8 * np.linalg.norm(e.config, "fro")

    def test_rotation_covariance(self, rng):
        """Distances are rotation-invariant, so the embedding is identical."""
        pts = rng.standard_normal((12, 2))
        th = 0.77
        rot = np.array([[np.cos(th), -np.sin(th)], [np.sin(th), np.cos(th)]])
        a = embed(delta_sq_of(pts), 2)
        b = embed(delta_sq_of(pts @ rot.T), 2)
        assert np.allclose(a.config, b.config, atol=1e-9)

    def test_trailing_eigenvalue_negligible(self, rng):
        pts = rng.standard_normal((30, 2))
        e = embed(delta_sq_of(pts), 3, allow_deficient=True)
        assert abs(e.pair.values[2]) <= 1e-6 * e.pair.values[1]

    def test_solves_for_d_pairs_only(self, rng, monkeypatch):
        """Above the dense cutoff the eigensolver is asked for the top d
        eigenpairs and nothing more."""
        ks = []
        top_eigs = cmds.top_eigs

        def spy(m, k):
            ks.append(k)
            return top_eigs(m, k)

        monkeypatch.setattr(cmds, "top_eigs", spy)
        e = embed(delta_sq_of(rng.standard_normal((300, 2))), 2)
        assert ks == [2]
        assert e.config.shape == (300, 2)

    @pytest.mark.parametrize("n", [100, 300])
    def test_never_writes_delta_sq(self, rng, n):
        """Below the dense cutoff B is built in a copy; above it, not at all."""
        dsq = delta_sq_of(rng.standard_normal((n, 2)))
        before = dsq.data.copy()
        embed(dsq, 2)
        assert np.array_equal(dsq.data, before)

    def test_zero_matrix_above_cutoff(self):
        """An all-zero Delta^2 gets the dense solve of the formed, all-zero B:
        zero eigenvalues, an all +0.0 configuration, flagged deficient."""
        e = embed(SymmetricMatrix(np.zeros((300, 300))), 2,
                  allow_deficient=True)
        assert e.pair.deficient
        assert np.array_equal(e.pair.values, [0.0, 0.0])
        assert not np.signbit(e.pair.values).any()
        assert not e.config.any() and not np.signbit(e.config).any()
        assert e.config.shape == (300, 2)

    def test_deficient_rejected_then_allowed(self):
        # rank-1 configuration embedded in d=2: second eigenvalue ~ 0
        pts = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0], [3.0, 0.0]])
        dsq = delta_sq_of(pts)
        with pytest.raises(DeficientEmbeddingError):
            embed(dsq, 3)
        e = embed(dsq, 3, allow_deficient=True)
        assert e.pair.deficient
        # trailing columns are zero-filled (exact for <= 0 eigenvalues) or
        # roundoff-scale for eigenvalues that are numerically ~ 0
        assert np.abs(e.config[:, 1:]).max() <= 1e-6

    def test_collinear_roundoff_eigenvalue_is_deficient(self):
        """Distances that went through a square root leave lambda_2 of four
        collinear points at a roundoff value (+2e-16 here), which is
        deficient whatever its sign."""
        pts = np.array([0.0, 1.0, 2.0, 3.0])
        m = SymmetricMatrix(np.sqrt((pts[:, None] - pts[None, :]) ** 2) ** 2)
        with pytest.raises(DeficientEmbeddingError, match="eigenvalue 2 "):
            embed(m, 2)
        assert embed(m, 2, allow_deficient=True).pair.deficient

    def test_d_out_of_range(self):
        dsq = delta_sq_of(TRIANGLE)
        with pytest.raises(ValueError):
            embed(dsq, 0)
        with pytest.raises(ValueError):
            embed(dsq, 3)


def configuration_with_eigenvalues(n, values, rng):
    """Build a centered configuration whose Gram double-centering has exactly
    the requested eigenvalues."""
    k = len(values)
    g = rng.standard_normal((n, k))
    g = g - g.mean(axis=0)
    q, _ = np.linalg.qr(g)
    return q * np.sqrt(values)


class TestSelectDim:
    def test_rule_arithmetic(self, rng):
        """n = 1000 and spectrum {150, 120, 80, 1}: threshold 100 keeps 2."""
        x = configuration_with_eigenvalues(1000, [150.0, 120.0, 80.0, 1.0], rng)
        out = select_dim(delta_sq_of(x), 4)
        assert out["threshold"] == pytest.approx(100.0)
        assert out["d_hat"] == 2

    def test_exact_triangle_cloud(self):
        cloud = pointmodel.sample(pointmodel.triangle_345(), 1000, seed=0)
        out = select_dim(delta_sq_of(cloud.points), 4)
        assert out["d_hat"] == 2

    def test_zero_matrix(self):
        out = select_dim(SymmetricMatrix(np.zeros((10, 10))), 3)
        assert out["d_hat"] == 0

    def test_zero_matrix_above_cutoff(self):
        out = select_dim(SymmetricMatrix(np.zeros((300, 300))), 3)
        assert out["d_hat"] == 0
        assert out["threshold"] == 300.0 ** (2.0 / 3.0)
        assert np.array_equal(out["eigenvalues"], [0.0, 0.0, 0.0])

    def test_max_d_validation(self):
        dsq = delta_sq_of(TRIANGLE)
        with pytest.raises(ValueError):
            select_dim(dsq, 3)
