"""Monte Carlo experiment runner: generate, perturb, embed, align, aggregate.

Verifies the limiting laws empirically: per-class covariances against their
closed forms, marginal normality, heteroscedastic bias, and the perturbation
decomposition, all deterministic given the experiment seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from typing import Optional

import numpy as np
import scipy.special

from . import clt, noise as noisemod, pointmodel, rawstress
from .matrixcore import MAX_SUPPORTED_N

# Asymptotic Kolmogorov critical value at the 1% level.
KS_CRIT_1PCT = float(scipy.special.kolmogi(0.01))
# Level of the Gaussian level curves ``ellipse_points`` draws, and their vertices.
ELLIPSE_LEVEL = 0.95
ELLIPSE_VERTICES = 128


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
    threads: int = 1

    def __post_init__(self):
        if self.replicates < 2:
            raise ValueError("need at least 2 replicates")
        if self.threads < 1:
            raise ValueError(f"threads must be at least 1, got {self.threads}")
        n_list = tuple(self.n_list)
        if not n_list or any(a >= b for a, b in zip(n_list, n_list[1:])):
            raise ValueError(f"n_list must be non-empty and strictly ascending, "
                             f"got {list(n_list)}")
        object.__setattr__(self, "n_list", n_list)
        if self.estimator not in ("cmds", "rawstress"):
            raise ValueError(f"unknown estimator {self.estimator!r}")
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed}")
        dim = self.distribution.d
        for n in n_list:
            if not dim + 2 <= n <= MAX_SUPPORTED_N:
                raise ValueError(f"n={n} is outside the supported range [{dim + 2}, "
                                 f"{MAX_SUPPORTED_N}] for dimension {dim}")
            if self.distribution.variant == "point_mass_mixture":
                counts = pointmodel._mixture_counts(self.distribution.weights, n)
                if not counts.all():
                    raise ValueError(f"n={n} leaves mixture class {counts.argmin()} "
                                     "without points")
        unknown = ", ".join(sorted(set(self.checks) - {"clt", "decomposition"}))
        if unknown:
            raise ValueError(f"unknown checks {unknown}: the known ones are clt "
                             "and decomposition")
        if not 1 <= self.d <= n_list[0] - 1:
            raise ValueError(f"embedding dimension d={self.d} must satisfy "
                             f"1 <= d <= n-1 for n={n_list[0]}")
        if self.d != self.distribution.d:
            raise ValueError(f"embedding dimension d={self.d} must equal the "
                             f"dimension {self.distribution.d} of the points, "
                             "which every replicate is aligned to")
        if self.estimator == "rawstress" and self.noise.squared_scale:
            raise ValueError("raw-stress estimation needs a dissimilarity matrix; "
                             f"{self.noise.variant} yields squared ones only")
        if self.estimator == "rawstress" and self.checks.get("decomposition"):
            raise ValueError("the decomposition check splits the cmds embedding, "
                             "which the rawstress estimator does not compute")

    def to_json(self) -> dict:
        return {"distribution": self.distribution.to_json(),
                "noise": self.noise.to_json(),
                "n_list": list(self.n_list), "d": self.d,
                "replicates": self.replicates, "seed": self.seed,
                "estimator": self.estimator, "checks": dict(self.checks)}

    @classmethod
    def from_json(cls, obj: dict, **overrides) -> "ExperimentConfig":
        required = ("distribution", "noise", "n_list", "d", "replicates", "seed")
        noisemod.json_keys(obj, "experiment config", required, ("estimator", "checks"))
        for key, depth in (("n_list", 1), ("d", 0), ("replicates", 0), ("seed", 0)):
            noisemod.json_number(obj[key], f"experiment config {key!r}", int, depth)
        checks = obj.get("checks", {})
        if not (isinstance(checks, dict) and all(isinstance(v, bool) for v in checks.values())):
            raise ValueError("experiment config 'checks' must be an object of booleans")
        specs = {"distribution": pointmodel.DistributionSpec.from_json(obj["distribution"]),
                 "noise": noisemod.NoiseSpec.from_json(obj["noise"])}
        return cls(**{**obj, **specs, **overrides})


@dataclass
class ClassSummary:
    z: Optional[np.ndarray]           # true (uncentered) class location, mixtures
    true_center: Optional[np.ndarray]  # center_scale * (z - mu)
    empirical_mean: np.ndarray        # mean aligned position of the class
    empirical_cov: np.ndarray         # per-replicate covariances averaged
    pooled_cov: np.ndarray            # covariance of rows pooled over replicates
    cov_entry_variances: np.ndarray   # across-replicate variance of cov entries
    theoretical_cov: Optional[np.ndarray]
    normality: Optional[dict]
    count: int


@dataclass
class McReport:
    config: dict
    # [{"n", "per_class", "failed", "errors", "replicates", "labels",
    # "deviations", "diagnostics"}]. "errors" lists (replicate, reason) per
    # failed replicate; "replicates" holds the indices of the successful ones,
    # "labels" the class of each of the n rows and "deviations" their
    # sqrt(n)-scaled deviations as one (len(replicates), n, d) array. These four
    # stay out of the JSON.
    per_n: list
    center_scale: float
    invalid: bool = False

    def to_json(self) -> dict:
        def arr(a):
            return a.tolist() if isinstance(a, np.ndarray) else a
        out = {"config": self.config, "center_scale": self.center_scale,
               "invalid": self.invalid, "per_n": []}
        for block in self.per_n:
            classes = [{f.name: arr(getattr(c, f.name)) for f in fields(ClassSummary)}
                       for c in block["per_class"]]
            out["per_n"].append({"n": block["n"], "per_class": classes,
                                 "failed": block["failed"],
                                 "diagnostics": block.get("diagnostics")})
        return out


def _one_replicate(cfg: ExperimentConfig, n: int, r: int):
    """One generate-perturb-embed-align pass: returns the class labels, the
    aligned n x d configuration, its sqrt(n)-scaled deviation rows and, for
    replicate 0 when ``cfg`` asks for it, the decomposition check on its own
    B_hat and pair (a failed check gives ``{"error": reason}``), else None."""
    if cfg.estimator == "cmds":
        cloud, B_hat, pair, aligned, target = clt.replicate(
            cfg.distribution, cfg.noise, n, cfg.seed, r, cfg.d)
    else:
        cloud, out = clt.simulate(cfg.distribution, cfg.noise, n, cfg.seed, r,
                                  keep=("delta",))
        config = rawstress.minimize_stress(out["delta"], cfg.d, init="cmds").config
        aligned, target = clt.align_to_points(config, cloud, cfg.noise)
    summary = None
    if r == 0 and cfg.checks.get("decomposition"):
        rep, error = clt.attempt(clt.decompose, cfg.noise.center_scale * cloud.points,
                                 B_hat, pair)
        summary = {"error": error} if error else {
            "identity_residual": rep.identity_residual,
            "median_row_norms": [float(np.median(t)) for t in rep.term_row_norms]}
    labels = cloud.labels if cloud.labels is not None else np.zeros(n, dtype=int)
    return labels, aligned, math.sqrt(n) * (aligned - target), summary


def run(cfg: ExperimentConfig) -> McReport:
    """Run the full Monte Carlo experiment described by ``cfg``.

    Deterministic for a given config regardless of thread count: replicate
    seeds are derived independently, aggregation is replicate-ordered, and
    ``clt.run_replicates`` runs the replicates on ``cfg.threads`` workers with
    one BLAS thread each. The decomposition check of an n runs inside its
    replicate 0. A replicate that fails numerically is counted in its n's
    ``failed`` and listed with its reason in ``errors``. A failed check
    reports ``{"error": reason}``, replicate 0's if that failed, and counts
    toward neither ``failed`` nor ``invalid``.
    """
    try:
        theory = clt.theory_cov(cfg.distribution, cfg.noise)
    except ValueError:  # no limiting covariance for this cloud and noise
        theory = None
    true_centers = None
    if cfg.distribution.variant == "point_mass_mixture":
        mu = pointmodel.moments(cfg.distribution).mu
        true_centers = cfg.noise.center_scale * (cfg.distribution.locations - mu)
    want_normality = bool(cfg.checks.get("clt", True))
    per_n = []
    invalid = False
    for n in cfg.n_list:
        results = None  # free the last n's results before this n's replicates run
        results, errors = clt.run_replicates(lambda r: _one_replicate(cfg, n, r),
                                             cfg.replicates, cfg.threads)
        ok = [r for r, res in enumerate(results) if res is not None]
        failed = cfg.replicates - len(ok)
        reasons = [(r, e) for r, e in enumerate(errors) if e is not None]
        if failed > max(1, cfg.replicates // 100):
            invalid = True
        # the labels depend on n alone: mixture class counts follow the weights
        labels = results[ok[0]][0] if ok else np.zeros(0, dtype=int)
        dev = np.array([results[r][2] for r in ok]).reshape(len(ok), len(labels), cfg.d)
        block = {"n": n, "per_class": [], "failed": failed, "errors": reasons,
                 "replicates": ok, "labels": labels, "deviations": dev}
        if cfg.checks.get("decomposition"):
            block["diagnostics"] = {"decomposition": results[0][3] if results[0]
                                    else {"error": errors[0]}}
        per_n.append(block)
        if not ok:
            continue

        for k in np.unique(labels):
            mask = labels == k
            rows = dev[:, mask]
            pooled = rows.reshape(-1, cfg.d)
            covs = np.array([np.cov(x, rowvar=False, ddof=1) for x in rows
                             if len(x) > 1])
            mean_cov = covs.mean(axis=0) if len(covs) else np.full((cfg.d,) * 2, np.nan)
            cov_var = covs.var(axis=0, ddof=1) if len(covs) > 1 else np.zeros((cfg.d,) * 2)
            sigma = None if theory is None else theory[k]
            normality = None
            if want_normality:
                try:
                    normality = normality_check(pooled)
                except ValueError:  # under 100 samples, or a singular covariance
                    pass
            block["per_class"].append(ClassSummary(
                z=None if sigma is None or true_centers is None
                else cfg.distribution.locations[k],
                true_center=None if true_centers is None else true_centers[k],
                empirical_mean=np.mean([results[r][1][mask].mean(axis=0)
                                        for r in ok], axis=0),
                empirical_cov=mean_cov,
                pooled_cov=np.cov(pooled, rowvar=False, ddof=1),
                cov_entry_variances=cov_var,
                theoretical_cov=sigma, normality=normality,
                count=len(pooled)))
    return McReport(config=cfg.to_json(), per_n=per_n,
                    center_scale=cfg.noise.center_scale, invalid=invalid)


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
    stats = [_ks_normal(centered[:, j]) for j in range(centered.shape[1])]
    crit = KS_CRIT_1PCT / math.sqrt(m)
    return {"marginal_stats": stats, "critical_value": crit,
            "max_stat": max(stats), "pass": max(stats) < crit}


def _ks_normal(x: np.ndarray) -> float:
    """One-sample Kolmogorov-Smirnov statistic of ``x`` against the standard
    normal: the largest gap max(i/m - F_i, F_i - (i-1)/m) between the
    empirical CDF of the sorted sample and F = Phi at its points."""
    x = np.sort(x)
    m = x.size
    cdf = scipy.special.ndtr(x)
    return float(max((np.arange(1.0, m + 1) / m - cdf).max(),
                     (cdf - np.arange(0.0, m) / m).max()))


def ellipse_points(mean, cov) -> np.ndarray:
    """Level-curve polyline of a bivariate Gaussian, ``ELLIPSE_VERTICES``
    points: mean + r cov^{1/2} u(theta) with r^2 the chi-square(2) quantile,
    -2 ln(1 - ``ELLIPSE_LEVEL``)."""
    mean = np.asarray(mean, float)
    cov = np.asarray(cov, float)
    if mean.shape != (2,) or cov.shape != (2, 2):
        raise ValueError("ellipse_points is for the planar case only")
    w, v = np.linalg.eigh((cov + cov.T) / 2.0)
    if w.min() <= 0:
        raise ValueError("covariance must be positive definite")
    r = math.sqrt(-2.0 * math.log(1.0 - ELLIPSE_LEVEL))
    theta = np.linspace(0.0, 2.0 * np.pi, ELLIPSE_VERTICES, endpoint=True)
    circle = np.stack([np.cos(theta), np.sin(theta)], axis=1)
    half = (v * np.sqrt(w)) @ v.T
    return mean + r * circle @ half


def hetero_bias_experiment(cfg: ExperimentConfig) -> dict:
    """Per-class embedding bias against the unscaled centered locations z - mu.

    For each n reports ||empirical class mean - (z - mu)|| and the CLT-scale
    standard error of that mean over the replicates that succeeded, with
    ``run``'s ``failed`` count and (replicate, reason) ``errors``. Under
    model2_hetero the limit is centred at sqrt(4/3) (z - mu)
    (``NoiseSpec.moment_rule``), so the bias does not vanish; under the
    constant-variance control it does.
    """
    if cfg.distribution.variant != "point_mass_mixture":
        raise ValueError("bias experiment requires a point-mass mixture")
    centers = cfg.distribution.locations - pointmodel.moments(cfg.distribution).mu
    report = run(cfg)
    out = {"n": [], "bias": [], "std_error": [], "failed": [], "errors": []}
    for block in report.per_n:
        n = block["n"]
        biases, ses = [], []
        for c, center in zip(block["per_class"], centers):
            bias = float(np.linalg.norm(c.empirical_mean - center))
            # mean position averages count pooled sqrt(n)-scaled deviations
            se = float(np.sqrt(np.trace(c.pooled_cov) / (n * c.count)))
            biases.append(bias)
            ses.append(se)
        out["n"].append(n)
        out["bias"].append(biases)
        out["std_error"].append(ses)
        out["failed"].append(block["failed"])
        out["errors"].append(block["errors"])
    return out
