"""The simulation pipeline (generate, distances, perturb, embed by classical
MDS or raw stress, and align), the runner of its (n, replicate) grid,
limiting covariances for the three noise mechanisms, orthogonal alignment
between configurations, the exact six-term perturbation decomposition, and
empirical scaling diagnostics for the perturbation bounds."""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import cmds, noise as noisemod, pointmodel, rawstress
from .matrixcore import (ConvergenceError, gram_top_eigs, minus_gram, norms,
                         one_blas_thread)


def _replicate_seeds(seed: int, n: int, r: int) -> tuple:
    """(noise_seed, point_seed) of replicate r: the two words of
    ``SeedSequence([seed, n, r])``, so the points and the noise of a replicate
    come from independent streams."""
    noise_seed, point_seed = np.random.SeedSequence([seed, n, r]).generate_state(2)
    return int(noise_seed), int(point_seed)


def simulate(distribution: pointmodel.DistributionSpec, noise: noisemod.NoiseSpec,
             n: int, seed: int, r: int, keep=noisemod.OUTPUTS):
    """Replicate r of an experiment keyed by (seed, n, r): sample n points and
    perturb their distances, with the seeds of ``_replicate_seeds``. Returns
    (cloud, perturbed).

    Only the matrices named in ``keep`` are built; the others are None. The
    distances are read from the points strip by strip and no distance matrix
    is formed, so keeping one output holds one n x n matrix.
    """
    noise_seed, point_seed = _replicate_seeds(seed, n, r)
    cloud = pointmodel.sample(distribution, n, point_seed)
    return cloud, noisemod.perturb(cloud, noise, noise_seed, keep)


def replicate(distribution: pointmodel.DistributionSpec, noise: noisemod.NoiseSpec,
              n: int, seed: int, r: int, d: int, estimator: str = "cmds") -> tuple:
    """Replicate r of an experiment: ``simulate`` keeping the estimator's one
    n x n input (Delta^2 for "cmds", Delta for "rawstress"), its estimate
    (``cmds.embed``, one eigensolve of B_hat = ``centered(Delta^2)``, or
    ``rawstress.minimize_stress`` from the cmds start) and that estimate
    aligned to the centered points scaled by the noise's ``center_scale``.
    Returns (cloud, B_hat and its top-d pair, both None under rawstress,
    aligned, target)."""
    key = "delta_sq" if estimator == "cmds" else "delta"
    cloud, out = simulate(distribution, noise, n, seed, r, keep=(key,))
    if estimator == "cmds":
        emb = cmds.embed(out[key], d)
        config, b_hat, pair = emb.config, emb.b_hat, emb.pair
    else:
        config = rawstress.minimize_stress(out[key], d, init="cmds").config
        b_hat = pair = None
    target = noise.center_scale * (cloud.points - cloud.points.mean(axis=0))
    return cloud, b_hat, pair, config @ align(config, target), target


def attempt(fn, *args) -> tuple:
    """(fn(*args), None), or (None, reason) when it fails numerically, with a
    ValueError (as DeficientEmbeddingError and LinAlgError are) or a
    ConvergenceError."""
    try:
        return fn(*args), None
    except (ValueError, ConvergenceError) as exc:
        return None, f"{type(exc).__name__}: {exc}"


def run_grid(cell, n_list, replicates: int, threads: int):
    """Call ``cell(n, r)`` for each n of ``n_list`` and r = 0 .. replicates - 1
    on up to ``threads`` workers, all inside one ``one_blas_thread`` guard, so
    the results' bits do not depend on ``threads`` or on the caller's BLAS
    thread count; the cells' own eigensolves nest in that guard and leave the
    count alone. Yields (n, results, failures) per n: ``results`` maps each r
    whose cell returned (None too) to its result, in replicate order, and
    ``failures`` holds the (n, r, reason) record of each other r, whose cell
    failed numerically. An n's cells run when its tuple is asked for, so a
    caller that has dropped the last n's holds one n's. The pool and the
    guard stay open until the generator is exhausted or closed.
    """
    workers = max(1, min(threads, replicates))
    # the pool starts no thread until asked: one worker is the calling thread
    with one_blas_thread, ThreadPoolExecutor(max_workers=workers) as pool:
        run = pool.map if workers > 1 else map
        for n in n_list:
            done = list(enumerate(run(lambda r: attempt(cell, n, r), range(replicates))))
            yield (n, {r: result for r, (result, error) in done if error is None},
                   [(n, r, error) for r, (_, error) in done if error is not None])
            del done  # before the next n's cells run


@dataclass(frozen=True)
class DecompositionReport:
    """Six-term split of the embedding perturbation.

    ``term_row_norms[t]`` holds the sqrt(n)-scaled row norms of term t;
    term 0 carries the limit law. Terms 1-5 vanish as n grows when the mean
    of B_hat - B stays bounded in norm. The split is taken against the
    B = X_c X_c^T of the factor handed to ``decompose``: replicate 0 of each
    ``mc-run`` n hands its points scaled by the noise's ``center_scale``
    sqrt(c), so under every noise model the mean of B_hat - B is a bounded
    multiple of the centering projection. ``identity_residual`` is
    the relative Frobenius gap between the term sum and the actual embedding
    deviation (an exact identity up to roundoff).
    """

    term_row_norms: list
    identity_residual: float


def theory_cov(spec: pointmodel.DistributionSpec,
               noise: noisemod.NoiseSpec) -> list:
    """Limiting covariances of the sqrt(n)-scaled aligned row deviations: one
    per location of a point-mass mixture, in ``spec.locations`` order, else one.

    Xi^{-1} ``pointmodel.sigma_tilde`` Xi^{-1} at each location, with the
    weight of the noise's ``moment_rule``; for other distributions
    ``sigma_tilde`` raises ValueError. Model 1's weight is the constant
    sigma^2/4, which gives sigma^2/4 Xi^{-1} at every location of any cloud.
    """
    xi_inv = np.linalg.inv(pointmodel.moments(spec).xi)
    zs = spec.locations if spec.variant == "point_mass_mixture" else [None]
    _, weight = noise.moment_rule
    if noise.squared_scale:
        return [weight(0.0) * xi_inv] * len(zs)
    sigmas = [xi_inv @ pointmodel.sigma_tilde(spec, z, weight) @ xi_inv for z in zs]
    return [(s + s.T) / 2.0 for s in sigmas]


def align(source, target):
    """Orthogonal W minimizing ||source W - target||_F (reflections allowed)."""
    source = np.asarray(source, float)
    target = np.asarray(target, float)
    if source.shape != target.shape:
        raise ValueError("source and target shapes must match")
    w1, _, w2t = np.linalg.svd(source.T @ target)
    return w1 @ w2t


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


def _perturbation(points, B_hat, ph) -> tuple:
    """The top-d eigenpairs of B = X_c X_c^T, X_c the centered ``points``,
    W* = align(U, U_hat) for ``ph``, B_hat's top-d pair, and B_hat - B as a
    ``matrixcore.minus_gram`` operator. Raises ``cmds.DeficientEmbeddingError``
    when either pair is deficient."""
    d = len(ph.values)
    x = np.asarray(points, float)
    x = x - x.mean(axis=0)
    diff = minus_gram(B_hat, x)
    pb = gram_top_eigs(x, d)
    if pb.deficient or ph.deficient:
        raise cmds.DeficientEmbeddingError(
            f"the top-{d} eigenvalues of B and B_hat must be positive; "
            f"eigenvalue {d} is {pb.values[-1]:.3e} and {ph.values[-1]:.3e}")
    return pb, align(pb.vectors, ph.vectors), diff


def decompose(points, B_hat, pair) -> DecompositionReport:
    """Evaluate the six-term identity for X_hat - U S^{1/2} W*, with U S U^T
    = B = X_c X_c^T for the centered n x p ``points`` X_c, and X_hat from
    ``pair``, the top-d eigenpairs of B_hat (a ``SymmetricMatrix`` or
    ``matrixcore.centered`` operator).

    Exact (up to roundoff) whenever p <= d and the top-d eigenvalues of B and
    B_hat are positive. B comes from the thin SVD of X_c and B_hat - B is
    applied as an operator, so no eigensolve runs on B_hat and no n x n array
    is formed beyond B_hat's own.
    """
    pb, wstar, diff = _perturbation(points, B_hat, pair)
    ub, sb = pb.vectors, pb.values
    uh, sh = pair.vectors, pair.values
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
    row_norms = [np.sqrt(len(ub)) * np.linalg.norm(t, axis=1) for t in terms]
    return DecompositionReport(term_row_norms=row_norms, identity_residual=residual)


RATIO_NAMES = ("b_perturbation", "procrustes_residual", "lambda_d_over_n",
               "eig_juxtaposition", "sqrt_eig_juxtaposition", "sup_row_error",
               "mean_row_error")


def _bound_cell(spec: pointmodel.DistributionSpec, noise: noisemod.NoiseSpec,
                n: int, seed: int, r: int) -> tuple:
    """The ratios of one (n, replicate) cell, in ``RATIO_NAMES`` order, from
    ``replicate`` r and B from its points scaled by the noise's
    ``center_scale``, as in the decomposition check. Like ``decompose``, it
    raises ``cmds.DeficientEmbeddingError`` for a deficient B or B_hat."""
    cloud, b_hat, ph, aligned, target = replicate(spec, noise, n, seed, r, spec.d)
    pb, wstar, diff = _perturbation(noise.center_scale * cloud.points, b_hat, ph)
    logn = np.log(n)
    b_perturbation = norms(diff) / np.sqrt(n * logn)

    sb, sh = pb.values, ph.values
    sb_h, sh_h = np.sqrt(sb), np.sqrt(sh)
    row_err = np.linalg.norm(aligned - target, axis=1)
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
    ``cfg`` (a ``harness.ExperimentConfig`` of the cmds estimator) over its
    n_list, of 3 or more n.

    For each grid size the listed quantities are divided by their claimed
    rates; per-n medians over the ``cfg.replicates`` cells that succeeded are
    reported, and a ratio sequence is flagged when its median grows by more
    than a factor 2 across the grid. Constants are not estimated, only trend
    boundedness. The cells run through ``run_grid`` on ``cfg.threads``
    workers; ``errors`` holds its (n, replicate, reason) failure records, and
    an n without a successful cell gets NaN medians.
    """
    n_grid = list(cfg.n_list)
    if len(n_grid) < 3:
        raise ValueError("n_grid must have at least 3 points")
    if cfg.estimator != "cmds":
        raise ValueError("the bound diagnostics split the cmds embedding, which the "
                         f"{cfg.estimator} estimator does not compute")
    errors, medians = [], []
    for _, results, failures in run_grid(
            lambda n, r: _bound_cell(cfg.distribution, cfg.noise, n, cfg.seed, r),
            n_grid, cfg.replicates, cfg.threads):
        errors += failures
        cells = list(results.values())
        medians.append(np.median(cells, axis=0) if cells else [np.nan] * len(RATIO_NAMES))
    ratios = {}
    for name, meds in zip(RATIO_NAMES, np.array(medians).T.tolist()):
        base = max(meds[0], 1e-300)
        ratios[name] = {"median_per_n": meds,
                        "flag_growth": bool(max(meds) / base > 2.0 and
                                            meds.index(max(meds)) > 0)}
    return {"n_grid": n_grid, "ratios": ratios, "errors": errors}
