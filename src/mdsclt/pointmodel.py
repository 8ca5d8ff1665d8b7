"""Latent point clouds and their population moments.

Supports three generating distributions (finite point-mass mixture, Gaussian,
uniform box), their closed-form first and second moments, and the
distance-weighted second-moment matrix that the limiting covariances consume
for point-mass mixtures.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .matrixcore import mirror_upper, upper_strips
from .noise import json_number, json_variant, keyed_rng

# The parameters each distribution variant reads from its JSON body, with the
# depth of the lists of numbers each one is.
_VARIANT_KEYS = {"point_mass_mixture": {"locations": 2, "weights": 1},
                 "gaussian": {"mean": 1, "covariance": 2},
                 "uniform_box": {"lo": 1, "hi": 1}}


@dataclass(frozen=True)
class PointCloud:
    points: np.ndarray  # n x d
    labels: Optional[np.ndarray] = None  # class index per point, mixtures only

    def __post_init__(self):
        p = np.asarray(self.points, dtype=float)
        if p.ndim != 2:
            raise ValueError("points must be an n x d array")
        if not np.all(np.isfinite(p)):
            raise ValueError("points must be finite")
        object.__setattr__(self, "points", p)
        if self.labels is not None:
            object.__setattr__(self, "labels", np.asarray(self.labels, dtype=int))
            if self.labels.shape != (p.shape[0],):
                raise ValueError("labels must be a length-n vector")

    @property
    def n(self) -> int:
        return self.points.shape[0]

    def upper_distances(self):
        """(rows, mask, strip) per strip of ``matrixcore.upper_strips``:
        ``strip`` holds the Euclidean distances of the entries [rows,
        rows.start:], sqrt(sum_k (x_ik - x_jk)^2) summed over the d columns
        in order. Its diagonal entries are exactly zero, and entry (i, j)
        equals entry (j, i) bit for bit, as (x_jk - x_ik)^2 = (x_ik - x_jk)^2.
        Every strip is written into the same two buffers, so it is valid until
        the next one is asked for."""
        cols = np.ascontiguousarray(self.points.T)
        buf = None
        for rows, mask in upper_strips(self.n):
            if buf is None:  # the first strip is the largest
                buf = np.empty((2, mask.size))
            s, t = (b[:mask.size].reshape(mask.shape) for b in buf)
            for k, x in enumerate(cols):
                u = t if k else s
                u[...] = x[rows.start:]  # x_jk - x_ik: the same square
                u -= x[rows, None]
                np.square(u, out=u)
                if k:
                    s += u
            yield rows, mask, np.sqrt(s, out=s)

    def distance_matrix(self) -> np.ndarray:
        """Hollow symmetric matrix of pairwise Euclidean distances: the strips
        of ``upper_distances``, completed by ``matrixcore.mirror_upper``."""
        a = np.empty((self.n, self.n))
        for rows, _, strip in self.upper_distances():
            a[rows, rows.start:] = strip
        return mirror_upper(a)


@dataclass(frozen=True)
class DistributionSpec:
    """One of: point_mass_mixture(locations, weights), gaussian(mean, covariance),
    uniform_box(lo, hi)."""

    variant: str
    locations: Optional[np.ndarray] = None
    weights: Optional[np.ndarray] = None
    mean: Optional[np.ndarray] = None
    covariance: Optional[np.ndarray] = None
    lo: Optional[np.ndarray] = None
    hi: Optional[np.ndarray] = None

    def __post_init__(self):
        if self.variant == "point_mass_mixture":
            loc = np.atleast_2d(np.asarray(self.locations, dtype=float))
            w = np.asarray(self.weights, dtype=float)
            if w.ndim != 1 or w.shape[0] != loc.shape[0]:
                raise ValueError("weights must be one per mixture location")
            if np.any(w < 0) or abs(w.sum() - 1.0) > 1e-12:
                raise ValueError("weights must lie on the simplex (sum 1 within 1e-12)")
            object.__setattr__(self, "locations", loc)
            object.__setattr__(self, "weights", w)
        elif self.variant == "gaussian":
            m = np.asarray(self.mean, dtype=float)
            c = np.asarray(self.covariance, dtype=float)
            if m.ndim != 1:
                raise ValueError(f"gaussian mean must be a vector, got shape {m.shape}")
            if c.shape != (m.shape[0], m.shape[0]):
                raise ValueError("covariance shape must match mean dimension")
            if np.abs(c - c.T).max(initial=0.0) > 1e-12:
                raise ValueError("covariance must be symmetric")
            if np.linalg.eigvalsh(c).min() <= 0:
                raise ValueError("covariance must be positive definite")
            object.__setattr__(self, "mean", m)
            object.__setattr__(self, "covariance", c)
        elif self.variant == "uniform_box":
            lo = np.asarray(self.lo, dtype=float)
            hi = np.asarray(self.hi, dtype=float)
            if lo.shape != hi.shape or lo.ndim != 1 or np.any(hi <= lo):
                raise ValueError("uniform_box requires lo < hi componentwise")
            object.__setattr__(self, "lo", lo)
            object.__setattr__(self, "hi", hi)
        else:
            raise ValueError(f"unknown distribution variant {self.variant!r}")

    @property
    def d(self) -> int:
        if self.variant == "point_mass_mixture":
            return self.locations.shape[1]
        if self.variant == "gaussian":
            return self.mean.shape[0]
        return self.lo.shape[0]

    def to_json(self) -> dict:
        return {self.variant: {k: getattr(self, k).tolist()
                               for k in _VARIANT_KEYS[self.variant]}}

    @classmethod
    def from_json(cls, obj: dict) -> "DistributionSpec":
        variant, body = json_variant(obj, "distribution variant", _VARIANT_KEYS)
        for key, value in body.items():
            json_number(value, f"distribution {variant!r} {key!r}",
                        depth=_VARIANT_KEYS[variant][key])
        return cls(variant=variant, **body)


@dataclass(frozen=True)
class PopulationMoments:
    mu: np.ndarray
    xi: np.ndarray  # covariance of the generating distribution


def triangle_345() -> DistributionSpec:
    """Canonical three point masses with inter-point distances 3, 4, 5 and
    mixing weights (0.2, 0.3, 0.5), translated to zero mean."""
    locs = np.array([[0.0, 0.0], [3.0, 0.0], [0.0, 4.0]])
    w = np.array([0.2, 0.3, 0.5])
    locs = locs - w @ locs
    return DistributionSpec("point_mass_mixture", locations=locs, weights=w)


def _mixture_counts(weights: np.ndarray, n: int) -> np.ndarray:
    """Round(pi_k * n) with largest-remainder correction so counts sum to n."""
    raw = weights * n
    counts = np.floor(raw + 0.5).astype(int)
    shortfall = n - counts.sum()
    if shortfall != 0:
        remainders = raw - np.floor(raw)
        order = np.argsort(-remainders if shortfall > 0 else remainders, kind="stable")
        for idx in order[: abs(shortfall)]:
            counts[idx] += 1 if shortfall > 0 else -1
    return counts


def sample(spec: DistributionSpec, n: int, seed: int) -> PointCloud:
    """Draw n points; deterministic given (spec, n, seed). Mixture draws are
    emitted grouped by class with labels set."""
    if n < spec.d + 2:
        raise ValueError(f"n={n} too small for dimension d={spec.d}")
    rng = keyed_rng(seed, n)
    if spec.variant == "point_mass_mixture":
        counts = _mixture_counts(spec.weights, n)
        points = np.repeat(spec.locations, counts, axis=0)
        labels = np.repeat(np.arange(len(counts)), counts)
        return PointCloud(points=points, labels=labels)
    if spec.variant == "gaussian":
        pts = rng.multivariate_normal(spec.mean, spec.covariance, size=n,
                                      method="cholesky")
        return PointCloud(points=pts)
    pts = rng.uniform(spec.lo, spec.hi, size=(n, spec.d))
    return PointCloud(points=pts)


def moments(spec: DistributionSpec) -> PopulationMoments:
    """Closed-form mean and covariance of the generating distribution."""
    if spec.variant == "point_mass_mixture":
        mu = spec.weights @ spec.locations
        dev = spec.locations - mu
        xi = (spec.weights[:, None] * dev).T @ dev
        xi = (xi + xi.T) / 2.0
    elif spec.variant == "gaussian":
        mu, xi = spec.mean, spec.covariance
    else:
        mu = (spec.lo + spec.hi) / 2.0
        xi = np.diag((spec.hi - spec.lo) ** 2 / 12.0)
    m = PopulationMoments(mu=np.asarray(mu, float), xi=np.asarray(xi, float))
    low = float(np.linalg.eigvalsh(m.xi).min())
    if low <= 1e-12 * max(1.0, float(np.abs(m.xi).max())):
        raise ValueError(f"singular point covariance (min eigenvalue {low:.3e}); "
                         "limiting covariances are undefined")
    return m


def sigma_tilde(spec: DistributionSpec, z, weight) -> np.ndarray:
    """Distance-weighted centered second moment at location ``z`` of a
    point-mass mixture: the finite sum over its masses x of
    pi_x w(|x - z|) (x - mu)(x - mu)^T, with w = ``weight`` (as the
    ``noise.NoiseSpec.moment_rule`` of a noise model gives it).
    """
    if spec.variant != "point_mass_mixture":
        raise ValueError("the distance-weighted limiting covariances are derived "
                         f"for point-mass mixtures only, not {spec.variant!r}")
    dev = spec.locations - moments(spec).mu
    r = np.linalg.norm(spec.locations - np.asarray(z, dtype=float), axis=1)
    coeff = spec.weights * weight(r)
    s = (coeff[:, None] * dev).T @ dev
    return (s + s.T) / 2.0
