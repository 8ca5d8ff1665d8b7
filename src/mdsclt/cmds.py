"""Classical multidimensional scaling: double centering, truncated spectral
decomposition and dimension selection.

The eigensolver runs on ``matrixcore.centered``'s operator over the squared
dissimilarities, which reads only their upper triangle; above the
dense-eigensolver cutoff the centered matrix is not formed."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .matrixcore import SpectralPair, SymmetricMatrix, centered, top_eigs


class DeficientEmbeddingError(ValueError):
    """Requested dimension reaches an eigenvalue of the centered matrix that
    is not positive beyond roundoff; the embedding dimension is likely
    mis-chosen."""


@dataclass(frozen=True)
class Embedding:
    """n x d configuration with the top-d eigenpairs it comes from.

    Columns of ``config`` are orthogonal with squared norms equal to the
    eigenvalues ``pair.values``, and column means are zero.
    """

    config: np.ndarray
    pair: SpectralPair


def embed(delta_sq: SymmetricMatrix, d: int, allow_deficient: bool = False) -> Embedding:
    """Embed a squared-dissimilarity matrix into R^d.

    The configuration is U S^{1/2} from the top-d eigenpairs of the double
    centering of ``delta_sq``, which is left as it is: where that eigensolve
    is dense (see ``matrixcore.top_eigs``) the centered matrix is built in a
    copy, and above the dense cutoff it is not built at all.
    Eigenvalues among the top d that are not positive beyond
    roundoff (``SpectralPair.deficient``) are an error unless
    ``allow_deficient``, in which case those columns are zero-filled
    (roundoff-scale where the eigenvalue is a tiny positive one).
    """
    n = delta_sq.n
    if not 1 <= d <= n - 1:
        raise ValueError(f"embedding dimension d={d} must satisfy 1 <= d <= n-1")
    pair = top_eigs(centered(delta_sq), d)
    if pair.deficient and not allow_deficient:
        raise DeficientEmbeddingError(f"eigenvalue {d} of the centered matrix is "
                                      f"{pair.values[-1]:.3e} <= {pair.floor:.3g}")
    return Embedding(config=pair.vectors * np.sqrt(np.maximum(pair.values, 0.0)),
                     pair=pair)


def select_dim(delta_sq: SymmetricMatrix, max_d: int) -> dict:
    """Pick the largest k <= max_d whose k-th eigenvalue is >= n^{2/3}.

    Returns {"d_hat", "threshold", "eigenvalues"}; d_hat = 0 when every
    inspected eigenvalue falls below the threshold.
    """
    n = delta_sq.n
    if not 1 <= max_d <= n - 1:
        raise ValueError(f"max_d={max_d} must satisfy 1 <= max_d <= n-1")
    vals = top_eigs(centered(delta_sq), max_d).values
    threshold = float(n) ** (2.0 / 3.0)
    d_hat = int(np.sum(vals >= threshold))
    return {"d_hat": d_hat, "threshold": threshold, "eigenvalues": vals}
