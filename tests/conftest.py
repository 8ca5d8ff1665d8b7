import numpy as np
import pytest

from mdsclt import matrixcore, noise, pointmodel
from mdsclt.matrixcore import SymmetricMatrix


@pytest.fixture
def triangle():
    """Centered 3-4-5 point masses with weights (0.2, 0.3, 0.5)."""
    return pointmodel.triangle_345()


@pytest.fixture
def uniform4():
    """Distance-additive noise, Uniform(-4, 4) entries."""
    return noise.NoiseSpec("model2", law=noise.NoiseLaw("uniform", a=4.0))


@pytest.fixture
def triangle_cloud_100(triangle):
    return pointmodel.sample(triangle, 100, seed=7)


def exact_delta_sq(cloud):
    d = cloud.distance_matrix()
    return SymmetricMatrix(d**2)


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


@pytest.fixture
def blas_count():
    """``blas_count(count)`` sets every loaded OpenBLAS to ``count`` threads,
    as a library caller may; ``blas_count()`` returns the counts in force.
    The counts found at the start are restored after the test."""
    found = [get() for get, _ in matrixcore._OPENBLAS]

    def blas_count(count=None):
        if count is not None:
            for _, put in matrixcore._OPENBLAS:
                put(count)
        return [get() for get, _ in matrixcore._OPENBLAS]

    yield blas_count
    for (_, put), count in zip(matrixcore._OPENBLAS, found):
        put(count)
