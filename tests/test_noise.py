import numpy as np
import pytest

from mdsclt import pointmodel
from mdsclt.matrixcore import SymmetricMatrix
from mdsclt.noise import NoiseLaw, NoiseSpec, perturb


def triangle_distance_matrix(n, seed=0):
    cloud = pointmodel.sample(pointmodel.triangle_345(), n, seed)
    return SymmetricMatrix(cloud.distance_matrix())


class TestNoiseLaw:
    def test_uniform_moments(self):
        m = NoiseLaw("uniform", a=4.0).moments()
        assert m.sigma2 == pytest.approx(16.0 / 3.0)
        assert m.gamma == 0.0
        assert m.xi4 == pytest.approx(256.0 / 5.0)

    def test_gaussian_moments(self):
        m = NoiseLaw("gaussian", sigma=2.0).moments()
        assert m.sigma2 == pytest.approx(4.0)
        assert m.xi4 == pytest.approx(48.0)

    def test_two_point_mean_zero(self):
        law = NoiseLaw("two_point", a=2.0, p=0.25)
        b = -0.25 * 2.0 / 0.75
        assert 0.25 * 2.0 + 0.75 * b == pytest.approx(0.0)
        m = law.moments()
        assert m.sigma2 == pytest.approx(0.25 * 4.0 + 0.75 * b**2)

    def test_json_roundtrip(self):
        for law in (NoiseLaw("uniform", a=1.5), NoiseLaw("gaussian", sigma=0.3),
                    NoiseLaw("two_point", a=1.0, p=0.4)):
            assert NoiseLaw.from_json(law.to_json()) == law

    def test_invalid_laws(self):
        with pytest.raises(ValueError):
            NoiseLaw("uniform", a=-1.0)
        with pytest.raises(ValueError):
            NoiseLaw("two_point", a=1.0, p=1.0)
        with pytest.raises(ValueError):
            NoiseLaw("poisson")


class TestNoiseSpec:
    @pytest.mark.parametrize("name", ["model1_sq_additive", "model2_additive",
                                      "model3_mask", "model2_hetero_uniform_scaled"])
    def test_long_names_rejected(self, name):
        """Each noise model has one name, the one a JSON config uses."""
        with pytest.raises(ValueError, match="unknown noise variant"):
            NoiseSpec(name, law=NoiseLaw("uniform", a=4.0))
        with pytest.raises(ValueError, match="unknown noise variant"):
            NoiseSpec.from_json({"model": name})

    def test_law_required_for_additive_models(self):
        with pytest.raises(ValueError):
            NoiseSpec("model2")

    def test_q_must_be_probability(self):
        with pytest.raises(ValueError):
            NoiseSpec("model3", q=1.5)

    def test_center_scale(self):
        assert NoiseSpec("model3", q=0.49).center_scale == pytest.approx(0.7)
        spec = NoiseSpec("model2", law=NoiseLaw("uniform", a=4.0))
        assert spec.center_scale == 1.0

    def test_json_roundtrip(self):
        spec = NoiseSpec("model2", law=NoiseLaw("uniform", a=4.0))
        back = NoiseSpec.from_json(spec.to_json())
        assert back == spec
        assert spec.to_json() == {"model": "model2",
                                  "law": {"uniform": {"a": 4.0}}}
        m3 = NoiseSpec("model3", q=0.49)
        assert NoiseSpec.from_json(m3.to_json()) == m3

    def test_from_json_names_bad_keys(self):
        with pytest.raises(ValueError, match="missing key 'model'"):
            NoiseSpec.from_json({"law": {"uniform": {"a": 1.0}}})
        with pytest.raises(ValueError, match="missing key 'p'"):
            NoiseLaw.from_json({"two_point": {"a": 1.0}})
        with pytest.raises(ValueError, match="unknown key 'sigma'"):
            NoiseLaw.from_json({"uniform": {"a": 1.0, "sigma": 1.0}})
        with pytest.raises(ValueError, match="one key"):
            NoiseLaw.from_json({"uniform": {"a": 1.0}, "gaussian": {"sigma": 1.0}})
        with pytest.raises(ValueError, match="unknown noise law 'laplace'"):
            NoiseLaw.from_json({"laplace": {"b": 1.0}})

    def test_model1_hetero_unknown(self):
        """The squared-scale heteroscedastic variant is gone, by name and in
        JSON."""
        with pytest.raises(ValueError, match="unknown noise variant 'model1_hetero'"):
            NoiseSpec("model1_hetero")
        with pytest.raises(ValueError, match="unknown noise variant 'model1_hetero'"):
            NoiseSpec.from_json({"model": "model1_hetero"})

    @pytest.mark.parametrize("obj, key", [
        ({"model": "model1", "law": {"gaussian": {"sigma": 1.0}}, "q": 0.5}, "q"),
        ({"model": "model2", "law": {"uniform": {"a": 4.0}}, "q": 0.5}, "q"),
        ({"model": "model2_hetero", "q": 0.5}, "q"),
        ({"model": "model3", "law": {"uniform": {"a": 4.0}}}, "law"),
        ({"model": "model2_hetero", "law": {"uniform": {"a": 4.0}}}, "law"),
    ])
    def test_from_json_rejects_keys_the_model_does_not_read(self, obj, key):
        """q is read by masking only and a law by models 1 and 2 only; a key
        that would be dropped or never drawn from is an error."""
        with pytest.raises(ValueError, match=f"noise model '{obj['model']}': "
                                             f"unknown key '{key}'"):
            NoiseSpec.from_json(obj)


class TestPerturb:
    def test_model3_q1_identity(self):
        D = triangle_distance_matrix(50)
        out = perturb(D, NoiseSpec("model3", q=1.0), seed=0)
        assert np.array_equal(out["delta"].data, D.data)
        assert np.all(out["E"].data == 0.0)

    def test_model3_q0_zero(self):
        D = triangle_distance_matrix(50)
        out = perturb(D, NoiseSpec("model3", q=0.0), seed=0)
        assert np.all(out["delta"].data == 0.0)

    def test_model3_mean_shrinkage(self):
        """E[Delta] = q D: masked means within 3 binomial SEs."""
        D = triangle_distance_matrix(200)
        q = 0.7
        out = perturb(D, NoiseSpec("model3", q=q), seed=4)
        iu = np.triu_indices(200, 1)
        pos = D.data[iu] > 0
        mean_d = D.data[iu][pos].mean()
        mean_delta = out["delta"].data[iu][pos].mean()
        m = int(pos.sum())
        se = np.sqrt(q * (1 - q) / m) * np.sqrt((D.data[iu][pos] ** 2).mean())
        assert abs(mean_delta - q * mean_d) <= 3.0 * se

    def test_model1_has_no_delta(self):
        D = triangle_distance_matrix(30)
        spec = NoiseSpec("model1", law=NoiseLaw("uniform", a=1.0))
        out = perturb(D, spec, seed=1)
        assert out["delta"] is None
        assert np.allclose(out["delta_sq"].data, D.data**2 + out["E"].data)

    def test_model2_delta_sq_is_square_of_delta(self):
        D = triangle_distance_matrix(30)
        spec = NoiseSpec("model2", law=NoiseLaw("uniform", a=4.0))
        out = perturb(D, spec, seed=1)
        assert np.array_equal(out["delta_sq"].data, out["delta"].data**2)
        assert np.allclose(out["delta"].data, D.data + out["E"].data)

    def test_negative_entries_passed_through(self):
        D = triangle_distance_matrix(30)
        spec = NoiseSpec("model2", law=NoiseLaw("uniform", a=4.0))
        out = perturb(D, spec, seed=1)
        iu = np.triu_indices(30, 1)
        assert np.any(out["delta"].data[iu] < 0)  # a=4 exceeds min distance 3

    def test_E_exactly_hollow_symmetric_all_variants(self):
        D = triangle_distance_matrix(40)
        specs = [NoiseSpec("model1", law=NoiseLaw("gaussian", sigma=1.0)),
                 NoiseSpec("model2", law=NoiseLaw("uniform", a=2.0)),
                 NoiseSpec("model3", q=0.5),
                 NoiseSpec("model2_hetero")]
        for spec in specs:
            out = perturb(D, spec, seed=9)
            e = out["E"].data
            assert np.array_equal(e, e.T)
            assert np.all(np.diag(e) == 0.0)

    def test_deterministic(self):
        D = triangle_distance_matrix(30)
        spec = NoiseSpec("model2", law=NoiseLaw("uniform", a=4.0))
        a = perturb(D, spec, seed=7)
        b = perturb(D, spec, seed=7)
        assert np.array_equal(a["delta"].data, b["delta"].data)

    def test_rejects_non_hollow(self):
        with pytest.raises(ValueError, match="exactly zero diagonal"):
            perturb(SymmetricMatrix(np.eye(3)),
                    NoiseSpec("model3", q=0.5), seed=0)

    def test_rejects_negative_distances(self):
        d = np.array([[0.0, -1.0], [-1.0, 0.0]])
        with pytest.raises(ValueError):
            perturb(SymmetricMatrix(d),
                    NoiseSpec("model3", q=0.5), seed=0)

    def test_sample_moments_converge(self):
        """Upper-triangle entries reproduce (0, sigma^2, gamma, xi) within
        5 standard errors at n = 400."""
        D = triangle_distance_matrix(400)
        law = NoiseLaw("uniform", a=4.0)
        out = perturb(D, NoiseSpec("model2", law=law), seed=13)
        e = out["E"].data[np.triu_indices(400, 1)]
        m = len(e)
        mom = law.moments()
        checks = [(e.mean(), 0.0, np.sqrt(mom.sigma2 / m)),
                  ((e**2).mean(), mom.sigma2,
                   np.sqrt((mom.xi4 - mom.sigma2**2) / m)),
                  ((e**3).mean(), mom.gamma, np.sqrt((e**6).var() / m + 1e-12)),
                  ((e**4).mean(), mom.xi4, np.sqrt((e**4).var() / m))]
        for got, want, se in checks:
            assert abs(got - want) <= 5.0 * max(se, 1e-12)

    def test_lag1_autocorrelation_small(self):
        D = triangle_distance_matrix(400)
        out = perturb(D, NoiseSpec("model2", law=NoiseLaw("uniform", a=4.0)),
                      seed=21)
        e = out["E"].data[np.triu_indices(400, 1)]
        e = e - e.mean()
        rho = (e[:-1] * e[1:]).mean() / (e**2).mean()
        assert abs(rho) < 4.0 / np.sqrt(len(e))


class TestHeteroUniformScaled:
    def test_zero_distances(self):
        D = SymmetricMatrix(np.zeros((5, 5)))
        out = perturb(D, NoiseSpec("model2_hetero"), seed=0)["delta"]
        assert np.all(out.data == 0.0)

    def test_support_bound(self):
        D = triangle_distance_matrix(100)
        out = perturb(D, NoiseSpec("model2_hetero"), seed=3)["delta"]
        assert np.all(out.data >= 0.0)
        assert np.all(out.data <= 2.0 * D.data + 1e-12)

    def test_per_pair_variance(self):
        """Entries sharing a distance value have sample variance D^2/3.

        Distances between the three point masses take only the values
        {0, 3, 4, 5}, so grouping entries by distance pools thousands of
        i.i.d. Uniform(-D, D) draws per group.
        """
        D = triangle_distance_matrix(500)
        out = perturb(D, NoiseSpec("model2_hetero"), seed=8)["delta"]
        e = out.data - D.data
        iu = np.triu_indices(500, 1)
        dv, ev = D.data[iu], e[iu]
        for dist in (3.0, 4.0, 5.0):
            grp = ev[np.isclose(dv, dist)]
            assert len(grp) > 1000
            assert abs(grp.var() - dist**2 / 3.0) <= 0.1 * dist**2 / 3.0

