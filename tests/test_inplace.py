"""The in-place n x n stages (distances, noise fill, double centering) give
the same bits as their plain out-of-place expressions, whether they run as
one row strip or many, and a replicate, a diagnose cell and the
decomposition check stay within a fixed number of n x n matrices of memory.
The distance and centering strips read no transposed entry: they rely on the
Gram matrix ``P @ P.T`` being exactly symmetric, which is pinned here too, as
is the block-wise upper-to-lower mirror of the noise fill."""

import dataclasses
import tracemalloc

import numpy as np
import pytest

from mdsclt import clt, harness, matrixcore, pointmodel
from mdsclt.matrixcore import SymmetricMatrix, double_center
from mdsclt.noise import NoiseLaw, NoiseSpec, perturb
from mdsclt.pointmodel import DistributionSpec

N = 300
CLOUDS = {
    "gaussian": DistributionSpec("gaussian", mean=[0.5, -1.0],
                                 covariance=[[2.0, 0.3], [0.3, 1.0]]),
    "uniform_box": DistributionSpec("uniform_box", lo=[-1.0, 0.0], hi=[2.0, 3.0]),
}
NOISES = [
    NoiseSpec("model1", law=NoiseLaw("gaussian", sigma=2.0)),
    NoiseSpec("model2", law=NoiseLaw("uniform", a=4.0)),
    NoiseSpec("model2_hetero"),
    NoiseSpec("model3", q=0.49),
]
# Test ids that say what each mechanism does to the distances.
NOISE_IDS = ["model1_sq_additive", "model2_additive", "model2_hetero_uniform_scaled",
             "model3_mask"]


def ref_distance_matrix(points):
    g = points @ points.T
    sq = np.diag(g)[:, None] + np.diag(g)[None, :] - 2.0 * g
    np.fill_diagonal(sq, 0.0)
    d = np.sqrt(np.maximum(sq, 0.0))
    return (d + d.T) / 2.0


def ref_sym_from_upper(n, upper):
    m = np.zeros((n, n))
    m[np.triu_indices(n, 1)] = upper
    return m + m.T


def ref_perturb(D, spec, seed):
    """(delta_sq, delta, E) from whole-triangle draws and full-matrix sums."""
    n = D.shape[0]
    nupper = n * (n - 1) // 2
    rng = np.random.default_rng(np.random.SeedSequence([seed, n]))
    if spec.variant in ("model1", "model2"):
        e = ref_sym_from_upper(n, spec.law.draw(rng, nupper))
    elif spec.variant == "model2_hetero":
        u = rng.uniform(-1.0, 1.0, nupper)
        e = (D + ref_sym_from_upper(n, u * D[np.triu_indices(n, 1)])) - D
    else:
        keep = (rng.random(nupper) < spec.q).astype(float)
        e = D * ref_sym_from_upper(n, keep) - D
    if spec.squared_scale:
        return D**2 + e, None, e
    delta = D + e
    return delta**2, delta, e


def ref_double_center(a):
    row = a.mean(axis=1, keepdims=True)
    col = row.T
    grand = a.mean()
    b = -0.5 * (a - row - col + grand)
    return (b + b.T) / 2.0


def same_bits(a, b):
    return a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.fixture(params=["default", "small"])
def blocking(request, monkeypatch):
    """Default block and strip sizes, and small ones that split n=300 into
    many ragged blocks and row strips (13 of 23 rows and a last one of one
    row), which the distance, noise and centering passes all walk."""
    if request.param == "small":
        monkeypatch.setattr(matrixcore, "_BLOCK", 48)
        monkeypatch.setattr(matrixcore, "_STRIP", 7000)


@pytest.fixture(params=sorted(CLOUDS))
def cloud(request):
    return pointmodel.sample(CLOUDS[request.param], N, seed=3)


@pytest.mark.parametrize("n", [3, 257, N])
@pytest.mark.parametrize("dist", [*CLOUDS.values(), pointmodel.triangle_345()],
                         ids=[*CLOUDS, "mixture"])
def test_gram_matrix_exactly_symmetric(dist, n):
    # sample needs n >= d + 2 = 4, so n = 3 takes the first rows of n = 4
    points = pointmodel.sample(dist, max(n, 4), seed=3).points[:n]
    g = points @ points.T
    assert same_bits(g, g.T.copy())


def test_distance_matrix_pin(cloud, blocking):
    assert same_bits(cloud.distance_matrix(), ref_distance_matrix(cloud.points))


def test_mirror_upper_pin(blocking):
    a = np.random.default_rng(8).standard_normal((N, N))
    assert same_bits(matrixcore.mirror_upper(a.copy()), np.triu(a) + np.triu(a, 1).T)


@pytest.mark.parametrize("spec", NOISES, ids=NOISE_IDS)
def test_perturb_and_center_pin(cloud, blocking, spec):
    d = cloud.distance_matrix()
    ref_sq, ref_delta, ref_e = ref_perturb(d, spec, 21)
    out = perturb(SymmetricMatrix._unchecked(d.copy()), spec, 21)
    assert same_bits(out["delta_sq"].data, ref_sq)
    assert same_bits(out["E"].data, ref_e)
    if ref_delta is None:
        assert out["delta"] is None
    else:
        assert same_bits(out["delta"].data, ref_delta)
    # built in D's own array, only what is asked for
    D = SymmetricMatrix._unchecked(d.copy())
    own = perturb(D, spec, 21, keep=("delta_sq",), overwrite=True)
    assert own["delta"] is None and own["E"] is None
    assert own["delta_sq"].data is D.data
    assert same_bits(own["delta_sq"].data, ref_sq)
    # centering, in a copy and in place
    assert same_bits(double_center(out["delta_sq"]).data, ref_double_center(ref_sq))
    assert same_bits(out["delta_sq"].data, ref_sq)
    assert same_bits(double_center(own["delta_sq"], overwrite=True).data,
                     ref_double_center(ref_sq))


@pytest.mark.parametrize("draw", [
    lambda rng, size: NoiseLaw("uniform", a=4.0).draw(rng, size),
    lambda rng, size: NoiseLaw("gaussian", sigma=2.0).draw(rng, size),
    lambda rng, size: NoiseLaw("two_point", a=1.5, p=0.3).draw(rng, size),
    lambda rng, size: (rng.random(size) < 0.49).astype(float),
], ids=["uniform", "gaussian", "two_point", "bernoulli_mask"])
def test_row_chunked_draws_equal_one_long_draw(draw):
    n = 97
    sizes = [n - 1 - i for i in range(n)]
    whole = draw(np.random.default_rng(5), sum(sizes))
    rng = np.random.default_rng(5)
    chunks = [draw(rng, sum(sizes[i:i + 7])) for i in range(0, n, 7)]
    assert same_bits(np.concatenate(chunks), whole)


@pytest.mark.parametrize("spec", NOISES, ids=NOISE_IDS)
def test_replicate_peak_memory(spec):
    """One cmds replicate at n=2000 allocates at most 2.5 n x n matrices."""
    n = 2000
    cfg = harness.ExperimentConfig(distribution=pointmodel.triangle_345(),
                                   noise=spec, n_list=(n,), d=2, replicates=2,
                                   seed=4)
    tracemalloc.start()
    try:
        harness._one_replicate(cfg, n, 0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2.5 * 8 * n * n, f"peak {peak / (8 * n * n):.2f} matrices"


@pytest.mark.parametrize("check", ["diagnose_cell", "decomposition"])
@pytest.mark.parametrize("spec", NOISES, ids=NOISE_IDS)
def test_one_matrix_checks_peak_memory(spec, check):
    """One diagnose cell and the decomposition check at n=2000 hold Delta^2,
    in D's array, and take B from the points: they allocate at most 1.5 n x n
    matrices."""
    n = 2000
    cfg = harness.ExperimentConfig(distribution=pointmodel.triangle_345(),
                                   noise=spec, n_list=(n,), d=2, replicates=2,
                                   seed=4)
    tracemalloc.start()
    try:
        if check == "diagnose_cell":
            clt.bound_checks(dataclasses.replace(cfg, n_list=(50, 100, n)))
        else:
            harness._decomposition_summary(cfg, n)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.5 * 8 * n * n, f"peak {peak / (8 * n * n):.2f} matrices"
