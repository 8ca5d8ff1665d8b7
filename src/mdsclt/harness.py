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

from . import clt, cmds, noise as noisemod, pointmodel, rawstress
from .matrixcore import MAX_SUPPORTED_N, centered

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
    designated_cov: Optional[np.ndarray]
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
    aligned n x d configuration and its sqrt(n)-scaled deviation rows."""
    kind = "delta_sq" if cfg.estimator == "cmds" else "delta"
    cloud, _, out = clt.simulate(cfg.distribution, cfg.noise, n, cfg.seed, r, keep=(kind,))
    if cfg.estimator == "cmds":
        config = cmds.embed(out[kind], cfg.d).config
    else:
        config = rawstress.minimize_stress(out[kind], cfg.d, init="cmds").config
    aligned, centered = clt.align_to_points(config, cloud, cfg.noise)
    labels = cloud.labels if cloud.labels is not None else np.zeros(n, dtype=int)
    return labels, aligned, math.sqrt(n) * (aligned - centered)


def run(cfg: ExperimentConfig) -> McReport:
    """Run the full Monte Carlo experiment described by ``cfg``.

    Deterministic for a given config regardless of thread count: replicate
    seeds are derived independently, aggregation is replicate-ordered, and
    ``clt.run_replicates`` runs the replicates on ``cfg.threads`` workers with
    one BLAS thread each. The decomposition check of an n runs in the same
    call, as its first task, beside that n's replicates. A replicate that
    fails numerically is counted in its n's ``failed`` and listed with its
    reason in ``errors``; a failed decomposition check reports ``{"error":
    reason}`` in place of its summary and counts toward neither ``failed``
    nor ``invalid``.
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
    check = int(bool(cfg.checks.get("decomposition")))  # tasks before the replicates
    per_n = []
    invalid = False
    for n in cfg.n_list:
        results = None  # free the last n's results before this n's replicates run
        results, errors = clt.run_replicates(
            lambda i: (_decomposition_summary(cfg, n) if i < check
                       else _one_replicate(cfg, n, i - check)),
            check + cfg.replicates, cfg.threads)
        if check:
            summary, error = results.pop(0), errors.pop(0)
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
        if check:
            block["diagnostics"] = {"decomposition": summary or {"error": error}}
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
            designated = rows[:, 0]
            des_cov = np.cov(designated, rowvar=False, ddof=1) if len(designated) > 1 else None
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
                designated_cov=des_cov, cov_entry_variances=cov_var,
                theoretical_cov=sigma, normality=normality,
                count=len(pooled)))
    return McReport(config=cfg.to_json(), per_n=per_n,
                    center_scale=cfg.noise.center_scale, invalid=invalid)


def _decomposition_summary(cfg: ExperimentConfig, n: int) -> dict:
    """The six-term split of replicate 0 of n, against B from the points scaled
    by the noise's ``center_scale`` (E[B_hat] under model 3), with B_hat the
    centered operator over Delta^2: it holds one n x n matrix."""
    cloud, _, out = clt.simulate(cfg.distribution, cfg.noise, n, cfg.seed, 0,
                                 keep=("delta_sq",))
    rep = clt.decompose(cfg.noise.center_scale * cloud.points,
                        centered(out["delta_sq"]), cfg.d)
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
    """Per-class embedding bias against the true centered locations.

    For each n reports ||empirical class mean - centered location|| and the
    CLT-scale standard error of that mean; the variance-proportional noise
    variant keeps a non-vanishing bias while the constant-variance control
    does not.
    """
    if cfg.distribution.variant != "point_mass_mixture":
        raise ValueError("bias experiment requires a point-mass mixture")
    report = run(cfg)
    out = {"n": [], "bias": [], "std_error": []}
    for block in report.per_n:
        n = block["n"]
        biases, ses = [], []
        for c in block["per_class"]:
            bias = float(np.linalg.norm(c.empirical_mean - c.true_center))
            # mean position averages count pooled sqrt(n)-scaled deviations
            se = float(np.sqrt(np.trace(c.pooled_cov) / (n * c.count)))
            biases.append(bias)
            ses.append(se)
        out["n"].append(n)
        out["bias"].append(biases)
        out["std_error"].append(ses)
    return out
