"""Raw-stress MDS by iterative majorization (Guttman transform).

Uniform weights; the majorization update guarantees a non-increasing stress
sequence, which doubles as a sharp invariant for testing.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cmds import embed
from .matrixcore import SymmetricMatrix


@dataclass(frozen=True)
class StressState:
    config: np.ndarray
    stress: float
    iteration: int
    converged: bool
    stress_history: np.ndarray
    coincident_points: bool  # zero inter-point distance hit during updates


def _pairwise(config: np.ndarray) -> np.ndarray:
    diff = config[:, None, :] - config[None, :, :]
    return np.sqrt((diff**2).sum(axis=2))


def raw_stress(config, delta: SymmetricMatrix) -> float:
    """Sum over unordered pairs of (delta_ij - ||X_i - X_j||)^2."""
    config = np.asarray(config, float)
    if config.shape[0] != delta.n:
        raise ValueError("configuration and dissimilarity sizes must match")
    iu = np.triu_indices(delta.n, 1)
    return _stress(_pairwise(config), delta.data[iu], iu)


def _stress(dist: np.ndarray, upper: np.ndarray, iu: tuple) -> float:
    """Raw stress from the distances ``dist`` and dissimilarities ``upper`` at ``iu``."""
    return float(((upper - dist[iu]) ** 2).sum())


def minimize_stress(delta: SymmetricMatrix, d: int, init="cmds", seed: int = 0,
                    max_iter: int = 500, tol: float = 1e-8) -> StressState:
    """Minimize raw stress by Guttman-transform majorization.

    ``init`` is "cmds" or "random"; stops when the relative stress decrease
    drops below ``tol`` or at ``max_iter``. Coincident points contribute 0
    to the transform and are flagged.
    """
    n = delta.n
    if isinstance(init, str) and init == "cmds":
        x = embed(SymmetricMatrix._unchecked(delta.data**2), d, allow_deficient=True,
                  overwrite=True).config
    elif isinstance(init, str) and init == "random":
        rng = np.random.default_rng(np.random.SeedSequence([seed, n]))
        scale = max(float(np.abs(delta.data).max()), 1.0)
        x = rng.standard_normal((n, d)) * scale / np.sqrt(n)
    elif isinstance(init, str):
        raise ValueError(f"unknown init mode {init!r}")
    else:
        x = np.asarray(init, float).copy()
        if x.shape != (n, d):
            raise ValueError(f"init configuration must be {n} x {d}")

    iu = np.triu_indices(n, 1)
    upper = delta.data[iu]
    apart = (delta.data != 0) & ~np.eye(n, dtype=bool)  # distinct points, delta != 0
    coincident = False
    dist = _pairwise(x)
    history = [_stress(dist, upper, iu)]
    converged = False
    it = 0
    for it in range(1, max_iter + 1):
        with np.errstate(divide="ignore", invalid="ignore"):
            ratio = np.where(dist > 0, delta.data / np.where(dist > 0, dist, 1.0), 0.0)
        if np.any((dist == 0) & apart):
            coincident = True
        np.fill_diagonal(ratio, 0.0)
        bmat = -ratio
        np.fill_diagonal(bmat, ratio.sum(axis=1))
        x_new = bmat @ x / n  # Guttman update for uniform weights
        x_new = x_new - x_new.mean(axis=0)
        prev = history[-1]
        dist_new = _pairwise(x_new)
        cur = _stress(dist_new, upper, iu)
        if cur > prev:
            # With negative dissimilarities the majorization bound does not
            # apply and a step can increase stress; reject it and stop.
            converged = True
            break
        x, dist = x_new, dist_new
        history.append(cur)
        if prev - cur < tol * max(prev, 1e-300):
            converged = True
            break
    return StressState(config=x, stress=history[-1], iteration=it,
                       converged=converged, stress_history=np.array(history),
                       coincident_points=coincident)
