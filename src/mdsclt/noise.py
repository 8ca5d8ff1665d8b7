"""Perturbed dissimilarity matrices under three noise mechanisms.

Model 1 adds noise to the squared distances, model 2 to the distances,
model 3 masks entries Bernoulli(q). A heteroscedastic model-2 variant
supports the bias experiments. ``perturb`` applies all four, deterministic
given its seed: every variant draws independent upper-triangle entries and
writes them once into each kept output, which ``matrixcore.mirror_upper``
then makes exactly hollow and exactly symmetric.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .matrixcore import SymmetricMatrix, mirror_upper, upper_strips

# The keys besides "model" that each noise variant reads from its JSON body.
_MODEL_KEYS = {"model1": ("law",), "model2": ("law",), "model3": ("q",),
               "model2_hetero": ()}
# The parameters each scalar noise law reads from its JSON body.
_LAW_KEYS = {"uniform": ("a",), "gaussian": ("sigma",), "two_point": ("a", "p")}


def json_keys(obj, what: str, required, optional=()) -> dict:
    """``obj`` if it is a JSON object with every key in ``required`` and no key
    outside ``required`` and ``optional``; else ValueError naming the keys."""
    if not isinstance(obj, dict):
        raise ValueError(f"{what} must be a JSON object")
    bad = [f"unknown key {k!r}" for k in obj if k not in (*required, *optional)]
    bad += [f"missing key {k!r}" for k in required if k not in obj]
    if bad:
        raise ValueError(f"{what}: {', '.join(bad)}")
    return obj


def json_number(value, what: str, kind=(int, float), depth: int = 0):
    """``value`` if it is a finite JSON number of a type in ``kind`` (a boolean
    is not one) or, with ``depth`` > 0, lists of them ``depth`` deep; else
    ValueError naming ``what``."""
    def ok(v, d):
        if d:
            return isinstance(v, list) and all(ok(x, d - 1) for x in v)
        return isinstance(v, kind) and not isinstance(v, bool) and abs(v) < np.inf
    if not ok(value, depth):
        noun = "integer" if kind is int else "number"
        raise ValueError(f"{what} must be " + (f"a JSON {noun}" if not depth else
                         "a list of " + "lists of " * (depth - 1) + noun + "s"))
    return value


def json_variant(obj, what: str, keys: dict) -> tuple:
    """(variant, body) of a one-key JSON object ``{variant: body}``, with the
    body's keys checked against ``keys[variant]``."""
    if not isinstance(obj, dict) or len(obj) != 1:
        raise ValueError(f"{what} must be a JSON object with one key: {', '.join(keys)}")
    (variant, body), = obj.items()
    if variant not in keys:
        raise ValueError(f"unknown {what} {variant!r}")
    return variant, json_keys(body, f"{what} {variant!r}", keys[variant])


@dataclass(frozen=True)
class Moments:
    """Closed-form entry moments: variance, third and fourth moment."""

    sigma2: float
    gamma: float
    xi4: float


@dataclass(frozen=True)
class NoiseLaw:
    """Mean-zero scalar noise law with closed-form moments.

    kinds: uniform(a) on (-a, a); gaussian(sigma); two_point(a, p) taking
    value a with probability p and -pa/(1-p) otherwise.
    """

    kind: str
    a: float = 0.0
    sigma: float = 0.0
    p: float = 0.5

    def __post_init__(self):
        if self.kind not in ("uniform", "gaussian", "two_point"):
            raise ValueError(f"unknown noise law {self.kind!r}")
        if self.kind == "uniform" and self.a < 0:
            raise ValueError("uniform law requires a >= 0")
        if self.kind == "gaussian" and self.sigma < 0:
            raise ValueError("gaussian law requires sigma >= 0")
        if self.kind == "two_point" and not 0 < self.p < 1:
            raise ValueError("two_point law requires 0 < p < 1")

    def moments(self) -> Moments:
        if self.kind == "uniform":
            return Moments(self.a**2 / 3.0, 0.0, self.a**4 / 5.0)
        if self.kind == "gaussian":
            return Moments(self.sigma**2, 0.0, 3.0 * self.sigma**4)
        b = -self.p * self.a / (1.0 - self.p)
        mk = lambda k: self.p * self.a**k + (1.0 - self.p) * b**k
        return Moments(mk(2), mk(3), mk(4))

    def draw(self, rng: np.random.Generator, size: int) -> np.ndarray:
        if self.kind == "uniform":
            return rng.uniform(-self.a, self.a, size)
        if self.kind == "gaussian":
            return self.sigma * rng.standard_normal(size)
        b = -self.p * self.a / (1.0 - self.p)
        return np.where(rng.random(size) < self.p, self.a, b)

    def to_json(self) -> dict:
        return {self.kind: {k: getattr(self, k) for k in _LAW_KEYS[self.kind]}}

    @classmethod
    def from_json(cls, obj: dict) -> "NoiseLaw":
        kind, body = json_variant(obj, "noise law", _LAW_KEYS)
        return cls(kind=kind, **{k: json_number(v, f"noise law {kind!r} {k!r}")
                                 for k, v in body.items()})


@dataclass(frozen=True)
class NoiseSpec:
    """Tagged noise mechanism with the moment parameters it exposes."""

    variant: str
    law: Optional[NoiseLaw] = None
    q: float = 1.0

    def __post_init__(self):
        if not isinstance(self.variant, str) or self.variant not in _MODEL_KEYS:
            raise ValueError(f"unknown noise variant {self.variant!r}")
        if self.variant in ("model1", "model2") and self.law is None:
            raise ValueError(f"{self.variant} requires a scalar noise law")
        if self.variant == "model3" and not 0.0 <= self.q <= 1.0:
            raise ValueError("q must be a probability")

    @property
    def squared_scale(self) -> bool:
        """Model 1 perturbs D^2 directly: there is no Delta."""
        return self.variant == "model1"

    @property
    def moment_rule(self) -> tuple:
        """(c, w): E[Delta_ij^2 | D_ij = r] = c r^2 plus a constant, and the
        weight w(r) = Var(Delta_ij^2 | r) / (4c). The limit of the aligned
        rows is centred at sqrt(c) (z - mu), with covariance
        Xi^{-1} E_X[w(|X - z|) (X - mu)(X - mu)^T] Xi^{-1}."""
        if self.variant == "model3":
            return self.q, lambda r: (1.0 - self.q) / 4.0 * r**4
        if self.variant == "model2_hetero":
            # Delta = D (1 + U), U ~ Uniform(-1, 1): E (1+U)^2 = 4/3, Var (1+U)^2 = 64/45
            return 4.0 / 3.0, lambda r: 4.0 / 15.0 * r**4
        m = self.law.moments()
        if self.squared_scale:
            return 1.0, lambda r: m.sigma2 / 4.0
        s2, g, x4 = m.sigma2, m.gamma, m.xi4
        return 1.0, lambda r: s2 * r**2 + g * r + x4 / 4.0 - s2**2 / 4.0

    @property
    def center_scale(self) -> float:
        """Scale sqrt(c) of the limiting centered positions (``moment_rule``)."""
        return float(np.sqrt(self.moment_rule[0]))

    def to_json(self) -> dict:
        out = {"model": self.variant}
        if self.law is not None:
            out["law"] = self.law.to_json()
        if self.variant == "model3":
            out["q"] = self.q
        return out

    @classmethod
    def from_json(cls, obj: dict) -> "NoiseSpec":
        json_keys(obj, "noise", ("model",), ("law", "q"))
        law = NoiseLaw.from_json(obj["law"]) if "law" in obj else None
        spec = cls(variant=obj["model"], law=law,
                   q=json_number(obj.get("q", 1.0), "noise 'q'"))
        json_keys(obj, f"noise model {obj['model']!r}", ("model",),
                  _MODEL_KEYS[spec.variant])
        return spec


def keyed_rng(seed: int, n: int) -> np.random.Generator:
    """``default_rng(SeedSequence([seed, n]))``: the one rule by which a seed
    (a command's ``--seed``, or a replicate's from ``clt._replicate_seeds``)
    keys the n points of ``pointmodel.sample``, the noise of ``perturb`` and
    the random start of ``rawstress.minimize_stress``."""
    return np.random.default_rng(np.random.SeedSequence([seed, n]))


OUTPUTS = ("delta_sq", "delta", "E")


def _entries(spec: NoiseSpec, rng: np.random.Generator, d: np.ndarray):
    """Draw the next ``d.size`` entries of the noise stream for the
    upper-triangle distances ``d``. Returns the perturbed entries (squared
    under model 1) and the entries of E."""
    size = d.size
    if spec.variant == "model2_hetero":
        # E~_ij ~ Uniform(-D_ij, D_ij). As |E~| <= D, E = Delta - D is exact,
        # so D + E is Delta = the rounded D + E~ bit for bit, and >= 0.
        delta = d + rng.uniform(-1.0, 1.0, size) * d
    elif spec.variant == "model3":
        delta = d * (rng.random(size) < spec.q).astype(float)
    else:
        e = spec.law.draw(rng, size)
        return (d**2 if spec.squared_scale else d) + e, e
    return delta, delta - d


def perturb(source, spec: NoiseSpec, seed: int, keep=OUTPUTS) -> dict:
    """Apply the noise mechanism to the distances of ``source``: a
    ``SymmetricMatrix``, which must be non-negative with an exactly zero
    diagonal, or a ``pointmodel.PointCloud``, whose distances are read from
    its points (``PointCloud.upper_distances``) without forming them.

    Returns {"delta_sq", "delta", "E"}; ``delta`` is None for model 1, whose
    noise lives on the squared scale (a square root need not exist), and so
    is every output not named in ``keep``. Negative entries of delta or
    delta_sq are passed through unchanged.

    The upper triangle is read and drawn strip by strip of
    ``matrixcore.upper_strips``, as one stream in the row-major order of
    ``np.triu_indices(n, 1)``. Each kept output is its own n x n array: every
    strip writes its upper entries once, and ``mirror_upper`` then zeroes
    its diagonal and copies them onto the lower triangle.
    """
    if isinstance(source, SymmetricMatrix):
        a = source.data
        if np.any(np.diag(a) != 0.0):
            raise ValueError("distance matrix must have an exactly zero diagonal")
        if a.min(initial=0.0) < 0:
            raise ValueError("distance matrix must be non-negative")
        strips = ((rows, mask, a[rows, rows.start:])
                  for rows, mask in upper_strips(source.n))
    else:
        strips = source.upper_distances()
    n = source.n
    rng = keyed_rng(seed, n)
    out = {k: np.empty((n, n)) for k in OUTPUTS
           if k in keep and not (k == "delta" and spec.squared_scale)}
    for rows, mask, strip in strips:
        delta, e = _entries(spec, rng, strip[mask])
        for k, m in out.items():
            m[rows, rows.start:][mask] = (
                e + 0.0 if k == "E"  # a drawn -0.0 becomes 0.0
                else delta * delta if k == "delta_sq" and not spec.squared_scale
                else delta)
    return {k: SymmetricMatrix._unchecked(mirror_upper(out[k])) if k in out else None
            for k in OUTPUTS}
