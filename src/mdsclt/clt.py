"""The simulation pipeline (generate, distances, perturb), limiting
covariances for the three noise mechanisms, orthogonal alignment between
configurations, the exact six-term perturbation decomposition, and empirical
scaling diagnostics for the perturbation bounds."""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import noise as noisemod
from . import pointmodel
from .matrixcore import (ConvergenceError, SymmetricMatrix, double_center, norms,
                         one_blas_thread, top_eigs)


def _replicate_seeds(seed: int, n: int, r: int) -> tuple:
    """(noise_seed, point_seed) of replicate r: the two words of
    ``SeedSequence([seed, n, r])``, so the points and the noise of a replicate
    come from independent streams."""
    noise_seed, point_seed = np.random.SeedSequence([seed, n, r]).generate_state(2)
    return int(noise_seed), int(point_seed)


def simulate(distribution: pointmodel.DistributionSpec, noise: noisemod.NoiseSpec,
             n: int, seed: int, r: int, keep=("D",) + noisemod.OUTPUTS):
    """Replicate r of an experiment keyed by (seed, n, r): sample n points,
    form their distance matrix D, perturb it, with the seeds of
    ``_replicate_seeds``. Returns (cloud, D, perturbed).

    Only the matrices named in ``keep`` are built; the others are None. Unless
    D is kept, the perturbed matrix is built in D's array, so a replicate
    holds about one n x n matrix.
    """
    noise_seed, point_seed = _replicate_seeds(seed, n, r)
    cloud = pointmodel.sample(distribution, n, point_seed)
    D = SymmetricMatrix._unchecked(cloud.distance_matrix())
    out = noisemod.perturb(D, noise, noise_seed, keep, overwrite="D" not in keep)
    return cloud, (D if "D" in keep else None), out


def centered_pair(distribution: pointmodel.DistributionSpec,
                  noise: noisemod.NoiseSpec, n: int, seed: int, r: int):
    """Replicate r as in ``simulate``, double-centered: returns (cloud, B,
    B_hat) with B from D^2, built in D's array, and B_hat from Delta^2, built
    in its own, so the pair holds two n x n matrices."""
    cloud, D, out = simulate(distribution, noise, n, seed, r, keep=("D", "delta_sq"))
    sq = D.data
    sq.setflags(write=True)
    np.square(sq, out=sq)
    B = double_center(SymmetricMatrix._unchecked(sq), overwrite=True)
    return cloud, B, double_center(out["delta_sq"], overwrite=True)


def run_replicates(fn, replicates: int, threads: int):
    """Call ``fn(r)`` for r = 0 .. replicates - 1 on up to ``threads`` workers,
    all inside ``one_blas_thread``, so the results' bits do not depend on
    ``threads`` or on the caller's BLAS thread count; the workers' own
    eigensolves nest in that guard and leave the count alone. Returns (results,
    errors), both indexed by r: a replicate that fails numerically has result
    None and its reason in errors; the others have error None.
    """
    results = [None] * replicates
    errors = [None] * replicates
    workers = max(1, min(threads, replicates))

    def work(r):
        # ValueError covers DeficientEmbeddingError and np.linalg.LinAlgError
        try:
            results[r] = fn(r)
        except (ValueError, ConvergenceError) as exc:
            errors[r] = f"{type(exc).__name__}: {exc}"

    with one_blas_thread:
        if workers > 1:
            with ThreadPoolExecutor(max_workers=workers) as pool:
                list(pool.map(work, range(replicates)))
        else:
            for r in range(replicates):
                work(r)
    return results, errors


@dataclass(frozen=True)
class DecompositionReport:
    """Six-term split of the embedding perturbation.

    ``term_row_norms[t]`` holds the sqrt(n)-scaled row norms of term t;
    term 0 carries the limit law. Terms 1-5 vanish as n grows when the mean
    of B_hat - B stays bounded in norm, as under models 1 and 2. The split
    is taken against B, not E[B_hat]: where E[B_hat] = cB with c != 1 (q
    under model 3, 4/3 under model2_hetero), B_hat - B carries (c - 1)B and
    some of terms 1-5 grow with sqrt(n). ``identity_residual`` is the
    relative Frobenius gap between the term sum and the actual embedding
    deviation (an exact identity up to roundoff).
    """

    term_row_norms: list
    identity_residual: float


def theory_cov(spec: pointmodel.DistributionSpec,
               noise: noisemod.NoiseSpec) -> list:
    """Limiting covariances of the sqrt(n)-scaled aligned row deviations: one
    per location of a point-mass mixture, in ``spec.locations`` order, else one.

    Model 1: sigma^2/4 Xi^{-1}, location-free. Models 2 and 3: the weighted
    second moment conjugated by Xi^{-1} at each location of a point-mass
    mixture; for other distributions ``pointmodel.sigma_tilde`` raises
    ValueError.
    """
    xi_inv = np.linalg.inv(pointmodel.moments(spec).xi)
    zs = spec.locations if spec.variant == "point_mass_mixture" else [None]
    if noise.squared_scale:
        return [noise.moments.sigma2 / 4.0 * xi_inv] * len(zs)
    sigmas = [xi_inv @ pointmodel.sigma_tilde(spec, z, noise) @ xi_inv for z in zs]
    return [(s + s.T) / 2.0 for s in sigmas]


def align(source, target):
    """Orthogonal W minimizing ||source W - target||_F (reflections allowed)."""
    source = np.asarray(source, float)
    target = np.asarray(target, float)
    if source.shape != target.shape:
        raise ValueError("source and target shapes must match")
    w1, _, w2t = np.linalg.svd(source.T @ target)
    return w1 @ w2t


def align_to_points(config, cloud: pointmodel.PointCloud,
                    noise: noisemod.NoiseSpec) -> tuple:
    """``config`` aligned to the latent points it estimates: returns (aligned,
    centered), with ``centered`` the points minus their mean, scaled by the
    noise's ``center_scale``."""
    centered = noise.center_scale * (cloud.points - cloud.points.mean(axis=0))
    return config @ align(config, centered), centered


def rotation_match(emp, target) -> dict:
    """Best orthogonal conjugation of a 2x2 covariance onto a target.

    Searches 7200 rotations (a 0.05 degree grid) on each reflection branch,
    minimizing the maximum entrywise relative error of R emp R^T against
    ``target``. Used when two covariances live in coordinate frames that
    differ by an unknown global rotation of the underlying configuration.
    """
    emp = np.asarray(emp, float)
    target = np.asarray(target, float)
    if emp.shape != (2, 2) or target.shape != (2, 2):
        raise ValueError("rotation_match handles the planar case only")
    denom = np.maximum(np.abs(target), 1e-12)
    th = np.linspace(0.0, 2.0 * np.pi, 7200, endpoint=False)
    c, s = np.cos(th), np.sin(th)
    rot = np.stack([c, -s, s, c], axis=1).reshape(-1, 2, 2)
    refl = np.array([np.diag([1.0, 1.0]), np.diag([1.0, -1.0])])
    rs = (rot @ refl[:, None]).reshape(-1, 2, 2)  # all of refl=1 first
    conj = rs @ emp @ rs.transpose(0, 2, 1)
    errs = (np.abs(conj - target) / denom).max(axis=(1, 2))
    best = int(np.argmin(errs))  # the first minimizer, as a strict-improvement scan
    return {"R": rs[best], "max_rel_entry_error": float(errs[best])}


def _perturbation(B: SymmetricMatrix, B_hat: SymmetricMatrix, d: int) -> tuple:
    """The top-d eigenpairs of B and of B_hat, W* = align(U, U_hat) and B_hat - B
    built in B_hat's array, which must not be read afterwards. Raises
    ValueError when either d-th eigenvalue is at or below its roundoff floor,
    the rule by which ``cmds.embed`` calls an embedding deficient."""
    if B.n != B_hat.n:
        raise ValueError("matrices must have matching dimension")
    pb = top_eigs(B, d)
    ph = top_eigs(B_hat, d)
    if pb.values[-1] <= pb.floor or ph.values[-1] <= ph.floor:
        raise ValueError(f"the top-{d} eigenvalues of B and B_hat must be positive; "
                         f"eigenvalue {d} is {pb.values[-1]:.3e} and {ph.values[-1]:.3e}")
    wstar = align(pb.vectors, ph.vectors)
    diff = B_hat.data
    diff.setflags(write=True)
    diff -= B.data
    return pb, ph, wstar, diff


def decompose(B: SymmetricMatrix, B_hat: SymmetricMatrix, d: int,
              overwrite: bool = False) -> DecompositionReport:
    """Evaluate the six-term identity for X_hat - U S^{1/2} W*.

    Exact (up to roundoff) whenever B has rank at most d and the top-d
    eigenvalues of B_hat are positive. With ``overwrite`` B_hat - B is built
    in ``B_hat``'s own array after both eigensolves, and ``B_hat`` must not be
    read afterwards; otherwise in a copy.
    """
    if not overwrite:
        B_hat = SymmetricMatrix._unchecked(B_hat.data.copy())
    pb, ph, wstar, diff = _perturbation(B, B_hat, d)
    ub, sb = pb.vectors, pb.values
    uh, sh = ph.vectors, ph.values
    sb_h, sh_h = np.sqrt(sb), np.sqrt(sh)
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
    row_norms = [np.sqrt(B.n) * np.linalg.norm(t, axis=1) for t in terms]
    return DecompositionReport(term_row_norms=row_norms, identity_residual=residual)


RATIO_NAMES = ("b_perturbation", "procrustes_residual", "lambda_d_over_n",
               "eig_juxtaposition", "sqrt_eig_juxtaposition", "sup_row_error",
               "mean_row_error")


def _bound_cell(spec: pointmodel.DistributionSpec, noise: noisemod.NoiseSpec,
                n: int, seed: int, r: int) -> tuple:
    """The ratios of one (n, replicate) cell, in ``RATIO_NAMES`` order. B_hat - B
    is built in B_hat's array after both eigensolves, so the cell holds two
    n x n matrices. A cell whose B or B_hat has a d-th eigenvalue at or below
    its roundoff floor raises ValueError, as ``decompose`` does."""
    cloud, B, B_hat = centered_pair(spec, noise, n, seed, r)
    logn = np.log(n)
    pb, ph, wstar, diff = _perturbation(B, B_hat, spec.d)
    b_perturbation = norms(SymmetricMatrix._unchecked(diff)) / np.sqrt(n * logn)

    sb, sh = pb.values, ph.values
    sb_h, sh_h = np.sqrt(sb), np.sqrt(sh)
    aligned, centered = align_to_points(ph.vectors * sh_h, cloud, noise)
    row_err = np.linalg.norm(aligned - centered, axis=1)
    rate = np.sqrt(logn / n)
    return (b_perturbation,
            np.linalg.norm(pb.vectors.T @ ph.vectors - wstar, 2) / (logn / n),
            sb[-1] / n,
            np.linalg.norm(wstar * sh - sb[:, None] * wstar, "fro") / logn,
            np.linalg.norm(wstar * sh_h - sb_h[:, None] * wstar, "fro") / (logn / np.sqrt(n)),
            row_err.max() / rate,
            row_err.mean() / rate)


def bound_checks(cfg) -> dict:
    """Empirical scaling ratios for the perturbation bounds of the experiment
    ``cfg`` (a ``harness.ExperimentConfig``) over its n_list, of 3 or more n.

    For each grid size the listed quantities are divided by their claimed
    rates; per-n medians over the ``cfg.replicates`` cells that succeeded are
    reported, and a ratio sequence is flagged when its median grows by more
    than a factor 2 across the grid. Constants are not estimated, only trend
    boundedness. The cells of each n run on ``cfg.threads`` workers as in
    ``run_replicates``; ``errors`` lists (n, replicate, reason) per failed
    cell, and an n without a successful cell gets NaN medians.
    """
    n_grid = list(cfg.n_list)
    if len(n_grid) < 3:
        raise ValueError("n_grid must have at least 3 points")
    per_n = {name: [] for name in RATIO_NAMES}
    errors = []
    for n in n_grid:
        results, reasons = run_replicates(
            lambda r: _bound_cell(cfg.distribution, cfg.noise, n, cfg.seed, r),
            cfg.replicates, cfg.threads)
        errors += [(n, r, e) for r, e in enumerate(reasons) if e is not None]
        cells = [c for c in results if c is not None]
        for i, name in enumerate(RATIO_NAMES):
            per_n[name].append(float(np.median([c[i] for c in cells]))
                               if cells else float("nan"))
    ratios = {}
    for name in RATIO_NAMES:
        meds = per_n[name]
        base = max(meds[0], 1e-300)
        ratios[name] = {"median_per_n": meds,
                        "flag_growth": bool(max(meds) / base > 2.0 and
                                            meds.index(max(meds)) > 0)}
    return {"n_grid": n_grid, "ratios": ratios, "errors": errors}
