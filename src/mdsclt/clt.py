"""The simulation pipeline (generate, distances, perturb), limiting
covariances for the three noise mechanisms, orthogonal alignment between
configurations, the exact six-term perturbation decomposition, and empirical
scaling diagnostics for the perturbation bounds."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import noise as noisemod
from . import pointmodel
from .matrixcore import (MAX_SUPPORTED_N, SymmetricMatrix, double_center, norms,
                         svd_small, top_eigs)


def check_sizes(spec: pointmodel.DistributionSpec, n_values) -> None:
    """Reject sample sizes a simulation cannot run: below the dimension + 2
    or above ``MAX_SUPPORTED_N``."""
    for n in n_values:
        if not spec.d + 2 <= n <= MAX_SUPPORTED_N:
            raise ValueError(f"n={n} is outside the supported range [{spec.d + 2}, "
                             f"{MAX_SUPPORTED_N}] for dimension {spec.d}")


def _replicate_seed(seed: int, n: int, r: int) -> int:
    return int(np.random.SeedSequence([seed, n, r]).generate_state(1)[0])


def simulate(distribution: pointmodel.DistributionSpec, noise: noisemod.NoiseSpec,
             n: int, seed: int, r: int):
    """Replicate r of an experiment keyed by (seed, n, r): sample n points,
    form their distance matrix D, perturb it. Returns (cloud, D, perturbed)."""
    seed_r = _replicate_seed(seed, n, r)
    cloud = pointmodel.sample(distribution, n, seed_r)
    D = SymmetricMatrix._unchecked(cloud.distance_matrix(), hollow=True)
    return cloud, D, noisemod.perturb(D, noise, seed_r)


@dataclass(frozen=True)
class TheoryCov:
    """Limiting covariance(s) of sqrt(n)-scaled aligned row deviations.

    ``per_class`` holds one (z, sigma) entry per evaluation location; model 1
    has a single location-free sigma replicated across classes.
    ``center_scale`` is the shrinkage of the centered positions (sqrt(q)
    under masking, 1 otherwise).
    """

    model: str
    per_class: list
    center_scale: float


@dataclass(frozen=True)
class DecompositionReport:
    """Six-term split of the embedding perturbation.

    ``term_row_norms[t]`` holds the sqrt(n)-scaled row norms of term t;
    term 0 carries the limit law, terms 1-5 vanish. ``identity_residual``
    is the relative Frobenius gap between the term sum and the actual
    embedding deviation (an exact identity up to roundoff).
    """

    term_row_norms: list
    identity_residual: float
    degenerate: bool


def theory_cov(spec: pointmodel.DistributionSpec, noise: noisemod.NoiseSpec,
               q_n: Optional[float] = None, z_list=None) -> TheoryCov:
    """Limiting covariance per evaluation location.

    Model 1: sigma^2/4 Xi^{-1}, location-free. Models 2 and 3: the weighted
    second moment conjugated by Xi^{-1}, evaluated at each mixture location
    (or at the supplied ``z_list`` for non-mixture distributions).
    """
    mom = pointmodel.moments(spec)
    xi_inv = np.linalg.inv(mom.xi)
    if noise.squared_scale:
        sigma = noise.moments.sigma2 / 4.0 * xi_inv
        zs = spec.locations if spec.variant == "point_mass_mixture" else [None]
        per_class = [{"z": z, "sigma": sigma} for z in zs]
        return TheoryCov(model=noise.variant, per_class=per_class, center_scale=1.0)

    if noise.variant == "model3_mask" and q_n is not None:
        noise = noisemod.NoiseSpec("model3_mask", q=q_n)
    if z_list is None:
        if spec.variant != "point_mass_mixture":
            raise ValueError("z_list is required for non-mixture distributions")
        z_list = list(spec.locations)
    per_class = []
    for z in z_list:
        st = pointmodel.sigma_tilde(spec, z, noise)["matrix"]
        sigma = xi_inv @ st @ xi_inv
        per_class.append({"z": np.asarray(z, float), "sigma": (sigma + sigma.T) / 2.0})
    return TheoryCov(model=noise.variant, per_class=per_class,
                     center_scale=noise.center_scale)


def hetero_theory_cov(spec: pointmodel.DistributionSpec, sigma_fn, i: int,
                      n: int) -> dict:
    """Per-row covariance under entry-wise variance sigma_fn(i, j)^2.

    Returns the averaged-variance covariance sigma_i = (1/n) sum_{j != i}
    sigma_ij^2 Cov(Z), its inverse square root (whitening matrix), and the
    Xi^{-1}-conjugated candidate normalization; the homoscedastic reduction
    matches the model-1 covariance after a further factor 1/4.
    """
    mom = pointmodel.moments(spec)
    var_sum = sum(sigma_fn(i, j) ** 2 for j in range(n) if j != i)
    sigma_i = var_sum / n * mom.xi
    xi_inv = np.linalg.inv(mom.xi)
    if var_sum == 0.0:
        d = mom.xi.shape[0]
        return {"sigma_i": np.zeros((d, d)), "whiten": None,
                "conjugated": np.zeros((d, d))}
    w, v = np.linalg.eigh(sigma_i)
    if w.min() <= 1e-14 * max(w.max(), 1.0):
        raise ValueError(f"singular per-row covariance (min eigenvalue {w.min():.3e})")
    whiten = (v / np.sqrt(w)) @ v.T
    return {"sigma_i": sigma_i, "whiten": whiten,
            "conjugated": xi_inv @ sigma_i @ xi_inv}


def align(source, target, full: bool = False):
    """Orthogonal W minimizing ||source W - target||_F (reflections allowed).

    With ``full`` returns {"W", "degenerate"}; ``degenerate`` marks a
    rank-deficient cross-product, for which the minimizer is non-unique.
    """
    source = np.asarray(source, float)
    target = np.asarray(target, float)
    if source.shape != target.shape:
        raise ValueError("source and target shapes must match")
    w1, s, w2 = svd_small(source.T @ target)
    w = w1 @ w2.T
    if not full:
        return w
    degenerate = bool(s.min(initial=0.0) <= 1e-12 * max(s.max(initial=0.0), 1e-300))
    return {"W": w, "degenerate": degenerate}


def rotation_match(emp, target, steps: int = 7200) -> dict:
    """Best orthogonal conjugation of a 2x2 covariance onto a target.

    Searches rotations (both reflection branches) minimizing the maximum
    entrywise relative error of R emp R^T against ``target``. Used when two
    covariances live in coordinate frames that differ by an unknown global
    rotation of the underlying configuration.
    """
    emp = np.asarray(emp, float)
    target = np.asarray(target, float)
    if emp.shape != (2, 2) or target.shape != (2, 2):
        raise ValueError("rotation_match handles the planar case only")
    denom = np.maximum(np.abs(target), 1e-12)
    th = np.linspace(0.0, 2.0 * np.pi, steps, endpoint=False)
    c, s = np.cos(th), np.sin(th)
    rot = np.stack([c, -s, s, c], axis=1).reshape(steps, 2, 2)
    refl = np.array([np.diag([1.0, 1.0]), np.diag([1.0, -1.0])])
    rs = (rot @ refl[:, None]).reshape(2 * steps, 2, 2)  # all of refl=1 first
    conj = rs @ emp @ rs.transpose(0, 2, 1)
    errs = (np.abs(conj - target) / denom).max(axis=(1, 2))
    best = int(np.argmin(errs))  # the first minimizer, as a strict-improvement scan
    return {"R": rs[best], "max_rel_entry_error": float(errs[best])}


def procrustes_residual(u_b: np.ndarray, u_hat: np.ndarray) -> float:
    """Spectral-norm gap between the eigenvector cross-product and its
    closest orthogonal matrix."""
    m = u_b.T @ u_hat
    w1, _, w2 = svd_small(m)
    return float(np.linalg.norm(m - w1 @ w2.T, 2))


def decompose(B: SymmetricMatrix, B_hat: SymmetricMatrix, d: int) -> DecompositionReport:
    """Evaluate the six-term identity for X_hat - U S^{1/2} W*.

    Exact (up to roundoff) whenever B has rank at most d and the top-d
    eigenvalues of B_hat are positive.
    """
    if B.n != B_hat.n:
        raise ValueError("matrices must have matching dimension")
    n = B.n
    pb = top_eigs(B, d)
    ph = top_eigs(B_hat, d)
    if pb.values[-1] <= 0 or ph.values[-1] <= 0:
        raise ValueError("decomposition requires positive top-d eigenvalues")
    ub, sb = pb.vectors, pb.values
    uh, sh = ph.vectors, ph.values
    res = align(ub, uh, full=True)
    wstar = res["W"]

    diff = B_hat.data - B.data
    sb_h = np.sqrt(sb)
    sh_h = np.sqrt(sh)
    x_hat = uh * sh_h
    du = diff @ ub

    t1 = (du / sb_h) @ wstar
    t2 = -(du @ ((wstar.T / sb_h).T - (wstar / sh_h)))
    t3 = -ub @ (ub.T @ du) @ (wstar / sh_h)
    t4_core = diff @ ((uh - ub @ wstar) / sh_h)
    t4 = t4_core - ub @ (ub.T @ t4_core)
    t5 = ub @ ((ub.T @ uh - wstar) * sh_h)
    t6 = ub @ ((wstar * sh_h) - (wstar.T * sb_h).T)

    total = t1 + t2 + t3 + t4 + t5 + t6
    lhs = x_hat - (ub * sb_h) @ wstar
    scale = max(float(np.linalg.norm(x_hat, "fro")), 1e-300)
    residual = float(np.linalg.norm(total - lhs, "fro")) / scale
    terms = [t1, t2, t3, t4, t5, t6]
    row_norms = [np.sqrt(n) * np.linalg.norm(t, axis=1) for t in terms]
    return DecompositionReport(term_row_norms=row_norms,
                               identity_residual=residual,
                               degenerate=res["degenerate"])


def growth_check(D: SymmetricMatrix) -> dict:
    """Advisory check that max_i sum_j D_ij^2 dominates log^4 n.

    The factor 5 is a pragmatic margin for "much greater than"; advisory
    only, nothing downstream refuses to run on a failing check.
    """
    row_sums = (D.data**2).sum(axis=1)
    log4n = float(np.log(D.n) ** 4)
    max_row = float(row_sums.max())
    return {"max_row_sum_sq": max_row, "log4n": log4n,
            "ok": bool(max_row >= 5.0 * log4n)}


RATIO_NAMES = ("b_perturbation", "procrustes_residual", "lambda_d_over_n",
               "eig_juxtaposition", "sqrt_eig_juxtaposition", "sup_row_error",
               "mean_row_error")


def bound_checks(spec: pointmodel.DistributionSpec, noise: noisemod.NoiseSpec,
                 n_grid, replicates: int, seed: int, d: Optional[int] = None) -> dict:
    """Empirical scaling ratios for the perturbation bounds.

    For each grid size the listed quantities are divided by their claimed
    rates; per-n medians over replicates are reported, and a ratio sequence
    is flagged when its median grows by more than a factor 2 across the
    grid. Constants are not estimated, only trend boundedness.
    """
    n_grid = list(n_grid)
    if sorted(n_grid) != n_grid or len(n_grid) < 3:
        raise ValueError("n_grid must be ascending with at least 3 points")
    check_sizes(spec, n_grid)
    if d is None:
        d = spec.d
    scale = noise.center_scale
    per_n = {name: [] for name in RATIO_NAMES}
    for n in n_grid:
        cells = {name: [] for name in RATIO_NAMES}
        for r in range(replicates):
            cloud, D, out = simulate(spec, noise, n, seed, r)
            B = double_center(SymmetricMatrix._unchecked(D.data**2, hollow=True))
            B_hat = double_center(out["delta_sq"])
            logn = np.log(n)

            # a temporary: the n x n difference is freed before the eigensolves
            diff_norm = norms(SymmetricMatrix._unchecked(B_hat.data - B.data))["spectral"]
            cells["b_perturbation"].append(diff_norm / np.sqrt(n * logn))

            pb = top_eigs(B, d)
            ph = top_eigs(B_hat, d)
            cells["procrustes_residual"].append(
                procrustes_residual(pb.vectors, ph.vectors) / (logn / n))
            cells["lambda_d_over_n"].append(pb.values[-1] / n)

            wstar = align(pb.vectors, ph.vectors)
            sb, sh = np.diag(pb.values), np.diag(ph.values)
            cells["eig_juxtaposition"].append(
                np.linalg.norm(wstar @ sh - sb @ wstar, "fro") / logn)
            sb_h = np.diag(np.sqrt(np.maximum(pb.values, 0.0)))
            sh_h = np.diag(np.sqrt(np.maximum(ph.values, 0.0)))
            cells["sqrt_eig_juxtaposition"].append(
                np.linalg.norm(wstar @ sh_h - sb_h @ wstar, "fro")
                / (logn / np.sqrt(n)))

            x_hat = ph.vectors @ sh_h
            centered = scale * (cloud.points - cloud.points.mean(axis=0))
            w_n = align(x_hat, centered)
            row_err = np.linalg.norm(x_hat @ w_n - centered, axis=1)
            rate = np.sqrt(logn / n)
            cells["sup_row_error"].append(row_err.max() / rate)
            cells["mean_row_error"].append(row_err.mean() / rate)
        for name in RATIO_NAMES:
            per_n[name].append(float(np.median(cells[name])))
    ratios = {}
    for name in RATIO_NAMES:
        meds = per_n[name]
        base = max(meds[0], 1e-300)
        ratios[name] = {"median_per_n": meds,
                        "flag_growth": bool(max(meds) / base > 2.0 and
                                            meds.index(max(meds)) > 0)}
    return {"n_grid": n_grid, "ratios": ratios}
