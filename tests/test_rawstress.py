import numpy as np
import pytest

from mdsclt import pointmodel
from mdsclt.matrixcore import SymmetricMatrix
from mdsclt.noise import NoiseLaw, NoiseSpec, perturb
from mdsclt.rawstress import minimize_stress, raw_stress

TRIANGLE = np.array([[0.0, 0.0], [3.0, 0.0], [0.0, 4.0]])


def distances_of(points):
    points = np.asarray(points, float)
    d = np.linalg.norm(points[:, None] - points[None, :], axis=2)
    np.fill_diagonal(d, 0.0)
    return SymmetricMatrix(d)


class TestRawStress:
    def test_exact_configuration_zero(self):
        assert raw_stress(TRIANGLE, distances_of(TRIANGLE)) == 0.0

    def test_n2_hand_value(self):
        delta = SymmetricMatrix(np.array([[0.0, 5.0], [5.0, 0.0]]))
        config = np.array([[0.0], [3.0]])
        assert raw_stress(config, delta) == pytest.approx(4.0)  # (5-3)^2

    def test_vs_double_loop_oracle(self, rng):
        pts = rng.standard_normal((5, 2))
        delta = distances_of(rng.standard_normal((5, 2)))
        got = raw_stress(pts, delta)
        oracle = 0.0
        for i in range(5):
            for j in range(i + 1, 5):
                oracle += (delta.data[i, j]
                           - np.linalg.norm(pts[i] - pts[j])) ** 2
        assert got == pytest.approx(oracle, abs=1e-12)

    def test_translation_invariance(self, rng):
        pts = rng.standard_normal((6, 2))
        delta = distances_of(rng.standard_normal((6, 2)))
        shifted = pts + np.array([17.0, -4.0])
        # invariant in exact arithmetic; translation perturbs the last ulp
        # of the pairwise differences, so compare at roundoff scale
        assert raw_stress(shifted, delta) == \
            pytest.approx(raw_stress(pts, delta), rel=1e-12)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            raw_stress(np.zeros((4, 2)), distances_of(TRIANGLE))


class TestMinimizeStress:
    def test_exact_input_converges_to_zero(self):
        delta = distances_of(TRIANGLE)
        state = minimize_stress(delta, 2, init="cmds")
        assert state.converged
        assert state.stress <= 1e-10 * (delta.data**2).sum()

    @pytest.mark.parametrize("init", ["cmds", "random"])
    def test_rejects_nonzero_diagonal(self, init):
        """A matrix with a non-zero diagonal is not a dissimilarity matrix,
        whichever start is asked for."""
        delta = SymmetricMatrix(np.array([[0.0, 1.0, 2.0], [1.0, 0.5, 1.0],
                                          [2.0, 1.0, 0.0]]))
        with pytest.raises(ValueError, match="exactly zero diagonal"):
            minimize_stress(delta, 1, init=init)

    def test_monotone_history_exact_input(self, rng):
        pts = rng.standard_normal((30, 2))
        state = minimize_stress(distances_of(pts), 2, init="random", seed=3)
        h = state.stress_history
        assert np.all(np.diff(h) <= 1e-12 * np.maximum(h[:-1], 1.0))

    def test_monotone_history_noisy_input(self, triangle, uniform4):
        """Negative dissimilarity entries break the majorization guarantee;
        the minimizer must still report a non-increasing history (by
        rejecting any increasing step)."""
        cloud = pointmodel.sample(triangle, 200, seed=2)
        out = perturb(SymmetricMatrix(cloud.distance_matrix()),
                      uniform4, seed=2)
        assert np.any(out["delta"].data < 0)
        state = minimize_stress(out["delta"], 2, init="cmds")
        h = state.stress_history
        assert np.all(np.diff(h) <= 1e-12 * np.maximum(h[:-1], 1.0))

    def test_cmds_init_beats_worst_random(self, rng):
        pts = rng.standard_normal((20, 2)) * 2.0
        delta = distances_of(pts)
        cmds_final = minimize_stress(delta, 2, init="cmds").stress
        randoms = [minimize_stress(delta, 2, init="random", seed=s).stress
                   for s in range(5)]
        assert cmds_final <= max(randoms) + 1e-12

    def test_coincident_points_flagged(self):
        # a cross, +-1 on one axis and +-0.5 on the other: its one-dimensional
        # CMDS start puts the short arm's two ends at one point, though their
        # dissimilarity is 1
        pts = np.array([[-1.0, 0.0], [1.0, 0.0], [0.0, 0.5], [0.0, -0.5]])
        state = minimize_stress(distances_of(pts), 1, init="cmds")
        assert state.coincident_points
        assert np.all(np.diff(state.stress_history) <= 1e-12)

    def test_deterministic(self, triangle, uniform4):
        cloud = pointmodel.sample(triangle, 60, seed=1)
        out = perturb(SymmetricMatrix(cloud.distance_matrix()),
                      uniform4, seed=1)
        a = minimize_stress(out["delta"], 2, init="random", seed=9)
        b = minimize_stress(out["delta"], 2, init="random", seed=9)
        assert np.array_equal(a.config, b.config)
        assert a.stress == b.stress
