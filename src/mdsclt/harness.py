"""Monte Carlo experiment runner: generate, perturb, embed, align, aggregate.

Verifies the limiting laws empirically: per-class covariances against their
closed forms, marginal normality, heteroscedastic bias, and the perturbation
decomposition, all deterministic given the experiment seed.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Optional

import numpy as np
import scipy.stats

from . import clt, cmds, noise as noisemod, pointmodel, rawstress
from .matrixcore import ConvergenceError, SymmetricMatrix, blas_threads, double_center

# The replicate-seed rule of clt.simulate, for code that keys its own runs alike.
_replicate_seed = clt._replicate_seed

# Asymptotic Kolmogorov critical value at the 1% level.
KS_CRIT_1PCT = float(scipy.stats.kstwobign.isf(0.01))


@dataclass(frozen=True)
class ExperimentConfig:
    distribution: pointmodel.DistributionSpec
    noise: noisemod.NoiseSpec
    n_list: tuple
    d: int
    replicates: int
    seed: int
    estimator: str = "cmds"
    checks: dict = field(default_factory=dict)
    keep_samples: bool = False
    threads: int = 1

    def __post_init__(self):
        if self.replicates < 2:
            raise ValueError("need at least 2 replicates")
        n_list = tuple(self.n_list)
        if list(n_list) != sorted(n_list):
            raise ValueError("n_list must be ascending")
        object.__setattr__(self, "n_list", n_list)
        if self.estimator not in ("cmds", "rawstress"):
            raise ValueError(f"unknown estimator {self.estimator!r}")
        clt.check_sizes(self.distribution, n_list)
        if n_list and not 1 <= self.d <= n_list[0] - 1:
            raise ValueError(f"embedding dimension d={self.d} must satisfy "
                             f"1 <= d <= n-1 for n={n_list[0]}")
        if self.estimator == "rawstress" and self.noise.squared_scale:
            raise ValueError("raw-stress estimation needs a dissimilarity matrix; "
                             f"{self.noise.variant} yields squared ones only")

    def to_json(self) -> dict:
        return {"distribution": self.distribution.to_json(),
                "noise": self.noise.to_json(),
                "n_list": list(self.n_list), "d": self.d,
                "replicates": self.replicates, "seed": self.seed,
                "estimator": self.estimator, "checks": dict(self.checks)}

    @classmethod
    def from_json(cls, obj: dict, **overrides) -> "ExperimentConfig":
        kw = {"distribution": pointmodel.DistributionSpec.from_json(obj["distribution"]),
              "noise": noisemod.NoiseSpec.from_json(obj["noise"]),
              "n_list": tuple(obj["n_list"]), "d": obj["d"],
              "replicates": obj["replicates"], "seed": obj["seed"],
              "estimator": obj.get("estimator", "cmds"),
              "checks": obj.get("checks", {})}
        kw.update(overrides)
        return cls(**kw)


@dataclass
class ClassSummary:
    z: Optional[np.ndarray]           # true (uncentered) class location, mixtures
    true_center: Optional[np.ndarray]  # center_scale * (z - mu)
    empirical_mean: np.ndarray        # mean aligned position of the class
    empirical_cov: np.ndarray         # per-replicate covariances averaged
    pooled_cov: np.ndarray            # covariance of rows pooled over replicates
    designated_cov: Optional[np.ndarray]
    cov_entry_variances: np.ndarray   # across-replicate variance of cov entries
    theoretical_cov: Optional[np.ndarray]
    normality: Optional[dict]
    count: int


@dataclass
class McReport:
    config: dict
    # [{"n", "per_class", "failed", "errors", "diagnostics"}]; "errors" lists
    # (replicate, reason) per failed replicate and stays out of the JSON
    per_n: list
    center_scale: float
    invalid: bool = False

    def to_json(self) -> dict:
        def arr(a):
            return None if a is None else np.asarray(a).tolist()
        out = {"config": self.config, "center_scale": self.center_scale,
               "invalid": self.invalid, "per_n": []}
        for block in self.per_n:
            classes = []
            for c in block["per_class"]:
                classes.append({
                    "z": arr(c.z), "true_center": arr(c.true_center),
                    "empirical_mean": arr(c.empirical_mean),
                    "empirical_cov": arr(c.empirical_cov),
                    "pooled_cov": arr(c.pooled_cov),
                    "designated_cov": arr(c.designated_cov),
                    "cov_entry_variances": arr(c.cov_entry_variances),
                    "theoretical_cov": arr(c.theoretical_cov),
                    "normality": c.normality, "count": c.count})
            out["per_n"].append({"n": block["n"], "per_class": classes,
                                 "failed": block["failed"],
                                 "diagnostics": block.get("diagnostics")})
        return out


def _one_replicate(cfg: ExperimentConfig, n: int, r: int):
    """One generate-perturb-embed-align pass; returns per-class statistics."""
    cloud, _, out = clt.simulate(cfg.distribution, cfg.noise, n, cfg.seed, r)
    if cfg.estimator == "cmds":
        config = cmds.embed(out["delta_sq"], cfg.d).config
    else:
        config = rawstress.minimize_stress(out["delta"], cfg.d, init="cmds").config
    scale = cfg.noise.center_scale
    centered = scale * (cloud.points - cloud.points.mean(axis=0))
    w_n = clt.align(config, centered)
    aligned = config @ w_n
    dev = math.sqrt(n) * (aligned - centered)

    labels = cloud.labels if cloud.labels is not None else np.zeros(n, dtype=int)
    stats = []
    for k in np.unique(labels):
        rows = dev[labels == k]
        pos = aligned[labels == k].mean(axis=0)
        cov = np.cov(rows, rowvar=False, ddof=1) if len(rows) > 1 else None
        stats.append({"label": int(k), "rows": rows, "mean_position": pos,
                      "cov": cov, "designated": rows[0]})
    return stats


def _theory_for(cfg: ExperimentConfig):
    try:
        return clt.theory_cov(cfg.distribution, cfg.noise)
    except ValueError:
        return None


def run(cfg: ExperimentConfig) -> McReport:
    """Run the full Monte Carlo experiment described by ``cfg``.

    Deterministic for a given config regardless of thread count: replicate
    seeds are derived independently and aggregation is replicate-ordered.
    The replicates run on ``cfg.threads`` workers with one BLAS thread each.
    A replicate that fails numerically is counted in its n's ``failed`` and
    listed with its reason in ``errors``.
    """
    theory = _theory_for(cfg)
    scale = cfg.noise.center_scale
    centered_locs = None
    if cfg.distribution.variant == "point_mass_mixture":
        mom = pointmodel.moments(cfg.distribution)
        centered_locs = cfg.distribution.locations - mom.mu
    want_normality = bool(cfg.checks.get("clt", True))
    per_n = []
    invalid = False
    for n in cfg.n_list:
        results = [None] * cfg.replicates
        errors = [None] * cfg.replicates

        def work(r):
            # ValueError covers DeficientEmbeddingError and np.linalg.LinAlgError
            try:
                results[r] = _one_replicate(cfg, n, r)
            except (ValueError, ConvergenceError) as exc:
                errors[r] = f"{type(exc).__name__}: {exc}"

        with blas_threads(1):
            if cfg.threads > 1:
                with ThreadPoolExecutor(max_workers=cfg.threads) as pool:
                    list(pool.map(work, range(cfg.replicates)))
            else:
                for r in range(cfg.replicates):
                    work(r)

        ok = [res for res in results if res is not None]
        failed = cfg.replicates - len(ok)
        reasons = [(r, e) for r, e in enumerate(errors) if e is not None]
        if failed > max(1, cfg.replicates // 100):
            invalid = True
        if not ok:
            per_n.append({"n": n, "per_class": [], "failed": failed,
                          "errors": reasons})
            continue

        labels = sorted({c["label"] for c in ok[0]})
        classes = []
        for idx, k in enumerate(labels):
            reps = [next(c for c in res if c["label"] == k) for res in ok]
            pooled = np.vstack([c["rows"] for c in reps])
            covs = np.array([c["cov"] for c in reps if c["cov"] is not None])
            mean_cov = covs.mean(axis=0) if len(covs) else np.full((cfg.d,) * 2, np.nan)
            cov_var = covs.var(axis=0, ddof=1) if len(covs) > 1 else np.zeros((cfg.d,) * 2)
            designated = np.array([c["designated"] for c in reps])
            des_cov = np.cov(designated, rowvar=False, ddof=1) if len(designated) > 1 else None
            theo = None
            z = None
            if theory is not None and idx < len(theory.per_class):
                theo = theory.per_class[idx]["sigma"]
                z = theory.per_class[idx]["z"]
            normality = None
            if want_normality and len(pooled) >= 100:
                try:
                    normality = normality_check(pooled)
                except ValueError:
                    normality = None
            true_center = (scale * centered_locs[idx]
                           if centered_locs is not None else None)
            classes.append(ClassSummary(
                z=z, true_center=true_center,
                empirical_mean=np.mean([c["mean_position"] for c in reps], axis=0),
                empirical_cov=mean_cov,
                pooled_cov=np.cov(pooled, rowvar=False, ddof=1),
                designated_cov=des_cov, cov_entry_variances=cov_var,
                theoretical_cov=theo, normality=normality, count=len(pooled)))
        block = {"n": n, "per_class": classes, "failed": failed, "errors": reasons}
        if cfg.checks.get("decomposition"):
            block["diagnostics"] = {"decomposition": _decomposition_summary(cfg, n)}
        if cfg.keep_samples:
            block["samples"] = _sample_dump(ok, labels)
        per_n.append(block)
    return McReport(config=cfg.to_json(), per_n=per_n,
                    center_scale=cfg.noise.center_scale, invalid=invalid)


def _sample_dump(ok, labels):
    rows = []
    for r, res in enumerate(ok):
        for c in res:
            for i, row in enumerate(c["rows"]):
                rows.append((r, i, c["label"], *row))
    return rows


def _decomposition_summary(cfg: ExperimentConfig, n: int) -> dict:
    _, D, out = clt.simulate(cfg.distribution, cfg.noise, n, cfg.seed, 0)
    B = double_center(SymmetricMatrix._unchecked(D.data**2, hollow=True))
    B_hat = double_center(out["delta_sq"])
    rep = clt.decompose(B, B_hat, cfg.d)
    return {"identity_residual": rep.identity_residual,
            "median_row_norms": [float(np.median(t)) for t in rep.term_row_norms]}


def normality_check(samples) -> dict:
    """Whitened marginal Kolmogorov-Smirnov check against the standard normal.

    Pass requires every marginal statistic below the asymptotic 1% critical
    value for the sample count.
    """
    samples = np.asarray(samples, float)
    m = samples.shape[0]
    if m < 100:
        raise ValueError("need at least 100 samples")
    cov = np.cov(samples, rowvar=False, ddof=1)
    cov = np.atleast_2d(cov)
    w, v = np.linalg.eigh(cov)
    if w.min() <= 1e-12 * max(w.max(), 1.0):
        raise ValueError("singular empirical covariance")
    whiten = (v / np.sqrt(w)) @ v.T
    centered = (samples - samples.mean(axis=0)) @ whiten
    stats = [float(scipy.stats.kstest(centered[:, j], "norm").statistic)
             for j in range(centered.shape[1])]
    crit = KS_CRIT_1PCT / math.sqrt(m)
    return {"marginal_stats": stats, "critical_value": crit,
            "max_stat": max(stats), "pass": max(stats) < crit}


def ellipse_points(mean, cov, level: float = 0.95, num: int = 128) -> np.ndarray:
    """Level-curve polyline of a bivariate Gaussian: mean + r cov^{1/2} u(theta)
    with r^2 the chi-square(2) quantile, -2 ln(1 - level)."""
    mean = np.asarray(mean, float)
    cov = np.asarray(cov, float)
    if mean.shape != (2,) or cov.shape != (2, 2):
        raise ValueError("ellipse_points is for the planar case only")
    w, v = np.linalg.eigh((cov + cov.T) / 2.0)
    if w.min() <= 0:
        raise ValueError("covariance must be positive definite")
    r = math.sqrt(-2.0 * math.log(1.0 - level))
    theta = np.linspace(0.0, 2.0 * np.pi, num, endpoint=True)
    circle = np.stack([np.cos(theta), np.sin(theta)], axis=1)
    half = (v * np.sqrt(w)) @ v.T
    return mean + r * circle @ half


def hetero_bias_experiment(cfg: ExperimentConfig) -> dict:
    """Per-class embedding bias against the true centered locations.

    For each n reports ||empirical class mean - centered location|| and the
    CLT-scale standard error of that mean; the variance-proportional noise
    variant keeps a non-vanishing bias while the constant-variance control
    does not.
    """
    if cfg.distribution.variant != "point_mass_mixture":
        raise ValueError("bias experiment requires a point-mass mixture")
    report = run(cfg)
    mom = pointmodel.moments(cfg.distribution)
    centered_locs = cfg.distribution.locations - mom.mu
    out = {"n": [], "bias": [], "std_error": []}
    for block in report.per_n:
        n = block["n"]
        biases, ses = [], []
        for k, c in enumerate(block["per_class"]):
            bias = float(np.linalg.norm(
                c.empirical_mean - report.center_scale * centered_locs[k]))
            # mean position averages count pooled sqrt(n)-scaled deviations
            se = float(np.sqrt(np.trace(c.pooled_cov) / (n * c.count)))
            biases.append(bias)
            ses.append(se)
        out["n"].append(n)
        out["bias"].append(biases)
        out["std_error"].append(ses)
    return out
