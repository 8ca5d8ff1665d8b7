"""The in-place n x n stages (distances, noise fill, double centering) give
the same bits as their plain out-of-place expressions, and a replicate, a
diagnose cell and replicate 0 with the decomposition check on stay within a
fixed number of n x n matrices of memory.
The distance and noise passes fill the upper triangle alone, strip by strip
of ``matrixcore.upper_strips``, from a distance matrix or from the points,
with the same bits whether they walk one row strip or many; the strips cover
that triangle once, in ``np.triu_indices`` order. The block-wise
upper-to-lower mirror that completes the upper triangle is pinned here too."""

import dataclasses
import tracemalloc

import numpy as np
import pytest

from mdsclt import clt, harness, matrixcore, pointmodel
from mdsclt.matrixcore import SymmetricMatrix, double_center
from mdsclt.noise import OUTPUTS, NoiseLaw, NoiseSpec, perturb
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
    diff = points[:, None, :] - points[None, :, :]
    sq = diff[..., 0] ** 2
    for k in range(1, points.shape[1]):
        sq = sq + diff[..., k] ** 2
    return np.sqrt(sq)


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
    row), which the distance and noise passes and the mirror walk."""
    if request.param == "small":
        monkeypatch.setattr(matrixcore, "_BLOCK", 48)
        monkeypatch.setattr(matrixcore, "_STRIP", 7000)


@pytest.fixture(params=sorted(CLOUDS))
def cloud(request):
    return pointmodel.sample(CLOUDS[request.param], N, seed=3)


def test_distance_matrix_pin(cloud, blocking):
    assert same_bits(cloud.distance_matrix(), ref_distance_matrix(cloud.points))


def test_mirror_upper_pin(blocking):
    a = np.random.default_rng(8).standard_normal((N, N))
    assert same_bits(matrixcore.mirror_upper(a.copy()), np.triu(a, 1) + np.triu(a, 1).T)


@pytest.mark.parametrize("n", [1, 2, 3, 255, 256, 257, 300])
def test_upper_strips_cover_upper_triangle_once(blocking, n):
    """The strips of ``upper_strips`` are consecutive runs of whole rows, and
    their masks select every strict-upper entry exactly once, in the order of
    ``np.triu_indices(n, 1)``."""
    stop, rows_at, cols_at = 0, [], []
    for rows, mask in matrixcore.upper_strips(n):
        assert rows.start == stop < rows.stop <= n
        assert mask.shape == (rows.stop - rows.start, n - rows.start)
        i, j = np.nonzero(mask)
        rows_at.append(i + rows.start)
        cols_at.append(j + rows.start)
        stop = rows.stop
    assert stop == n
    want_rows, want_cols = np.triu_indices(n, 1)
    assert np.array_equal(np.concatenate(rows_at), want_rows)
    assert np.array_equal(np.concatenate(cols_at), want_cols)


@pytest.mark.parametrize("spec", NOISES, ids=NOISE_IDS)
def test_perturb_and_center_pin(cloud, blocking, spec):
    """perturb gives the same bits from a distance matrix and from the points
    it reads the distances of, for every set of outputs it is asked for."""
    d = cloud.distance_matrix()
    ref = dict(zip(OUTPUTS, ref_perturb(d, spec, 21)))
    for source in (SymmetricMatrix._unchecked(d), cloud):
        for keep in (OUTPUTS, ("delta_sq",), ("delta", "delta_sq"), ("E",)):
            out = perturb(source, spec, 21, keep)
            for key in OUTPUTS:
                if key in keep and ref[key] is not None:
                    assert same_bits(out[key].data, ref[key]), (keep, key)
                else:
                    assert out[key] is None, (keep, key)
    # centering, in a copy
    sq = perturb(cloud, spec, 21, keep=("delta_sq",))["delta_sq"]
    assert same_bits(double_center(sq).data, ref_double_center(ref["delta_sq"]))
    assert same_bits(sq.data, ref["delta_sq"])


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
    """One cmds replicate at n=2000 holds Delta^2 alone, read from the points
    with no distance matrix, and takes B from the points: it allocates at
    most 1.5 n x n matrices."""
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
    assert peak <= 1.5 * 8 * n * n, f"peak {peak / (8 * n * n):.2f} matrices"


@pytest.mark.parametrize("check", ["diagnose_cell", "decomposition"])
@pytest.mark.parametrize("spec", NOISES, ids=NOISE_IDS)
def test_one_matrix_checks_peak_memory(spec, check):
    """One diagnose cell, and replicate 0 running the decomposition check on
    its own Delta^2 and pair, at n=2000 hold Delta^2 alone and take B from
    the points: they allocate at most 1.5 n x n matrices."""
    n = 2000
    cfg = harness.ExperimentConfig(distribution=pointmodel.triangle_345(),
                                   noise=spec, n_list=(n,), d=2, replicates=2,
                                   seed=4, checks={"decomposition": True})
    tracemalloc.start()
    try:
        if check == "diagnose_cell":
            clt.bound_checks(dataclasses.replace(cfg, n_list=(50, 100, n),
                                                 checks={}))
        else:
            summary = harness._one_replicate(cfg, n, 0)[3]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    if check == "decomposition":
        assert summary["identity_residual"] <= 1e-7
    assert peak <= 1.5 * 8 * n * n, f"peak {peak / (8 * n * n):.2f} matrices"
