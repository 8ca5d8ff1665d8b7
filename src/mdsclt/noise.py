"""Perturbed dissimilarity matrices under three noise mechanisms.

Model 1 adds noise to the squared distances, model 2 to the distances,
model 3 masks entries Bernoulli(q). A heteroscedastic model-2 variant
supports the bias experiments. ``perturb`` applies all four: every variant
produces an exactly hollow, exactly symmetric noise matrix with independent
upper-triangle entries mirrored below, and is deterministic given its seed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .matrixcore import SymmetricMatrix, mirror_upper

MODEL_ALIASES = {
    "model1": "model1_sq_additive",
    "model2": "model2_additive",
    "model3": "model3_mask",
    "model2_hetero": "model2_hetero_uniform_scaled",
}
_VARIANTS = set(MODEL_ALIASES.values())
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
        return cls(kind=kind, **body)


@dataclass(frozen=True)
class NoiseSpec:
    """Tagged noise mechanism with the moment parameters it exposes."""

    variant: str
    law: Optional[NoiseLaw] = None
    q: float = 1.0

    def __post_init__(self):
        variant = MODEL_ALIASES.get(self.variant, self.variant)
        if variant not in _VARIANTS:
            raise ValueError(f"unknown noise variant {self.variant!r}")
        object.__setattr__(self, "variant", variant)
        if variant in ("model1_sq_additive", "model2_additive") and self.law is None:
            raise ValueError(f"{variant} requires a scalar noise law")
        if variant == "model3_mask" and not 0.0 <= self.q <= 1.0:
            raise ValueError("q must be a probability")

    @property
    def moments(self) -> Moments:
        if self.law is None:
            raise ValueError(f"{self.variant} has no constant entry moments")
        return self.law.moments()

    @property
    def squared_scale(self) -> bool:
        """Model 1 perturbs D^2 directly: there is no Delta."""
        return self.variant == "model1_sq_additive"

    @property
    def center_scale(self) -> float:
        """Shrinkage of the limiting centered positions: sqrt(q) under masking."""
        return float(np.sqrt(self.q)) if self.variant == "model3_mask" else 1.0

    def to_json(self) -> dict:
        short = {v: k for k, v in MODEL_ALIASES.items()}
        out = {"model": short.get(self.variant, self.variant)}
        if self.law is not None:
            out["law"] = self.law.to_json()
        if self.variant == "model3_mask":
            out["q"] = self.q
        return out

    @classmethod
    def from_json(cls, obj: dict) -> "NoiseSpec":
        json_keys(obj, "noise", ("model",), ("law", "q"))
        law = NoiseLaw.from_json(obj["law"]) if "law" in obj else None
        return cls(variant=obj["model"], law=law, q=obj.get("q", 1.0))


def _rng(seed: int, n: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([seed, n]))


# Entries per chunk of rows in which the noise is drawn and written.
_CHUNK = 1 << 17
OUTPUTS = ("delta_sq", "delta", "E")


def _upper_chunks(n: int):
    """(rows, mask) per chunk of rows, in row order: ``mask`` selects the
    strict upper triangle of ``a[rows]``, whose entries a boolean index
    visits in the row-major order of ``np.triu_indices(n, 1)``."""
    step = max(1, _CHUNK // max(n, 1))
    cols = np.arange(n)
    for i in range(0, n, step):
        yield slice(i, i + step), cols > np.arange(i, min(i + step, n))[:, None]


def _entries(spec: NoiseSpec, rng: np.random.Generator, d: np.ndarray):
    """Draw the next ``d.size`` entries of the noise stream for the
    upper-triangle distances ``d``. Returns the perturbed entries (squared
    under model 1) and the entries of E."""
    size = d.size
    if spec.variant == "model2_hetero_uniform_scaled":
        # E~_ij ~ Uniform(-D_ij, D_ij). As |E~| <= D, E = Delta - D is exact,
        # so D + E is Delta = the rounded D + E~ bit for bit, and >= 0.
        delta = d + rng.uniform(-1.0, 1.0, size) * d
    elif spec.variant == "model3_mask":
        delta = d * (rng.random(size) < spec.q).astype(float)
    else:
        e = spec.law.draw(rng, size)
        return (d**2 if spec.squared_scale else d) + e, e
    return delta, delta - d


def perturb(D: SymmetricMatrix, spec: NoiseSpec, seed: int, keep=OUTPUTS,
            overwrite: bool = False) -> dict:
    """Apply the noise mechanism to distance matrix D.

    Returns {"delta_sq", "delta", "E"}; ``delta`` is None for model 1, whose
    noise lives on the squared scale (a square root need not exist), and so
    is every output not named in ``keep``. Negative entries of delta or
    delta_sq are passed through unchanged.

    The upper triangle is drawn row chunk by row chunk, as one stream in
    row-major order, and written straight into the output array, which is
    then mirrored. With ``overwrite`` that array is D's own, so no second
    n x n array is made; D must not be read afterwards.
    """
    if np.any(np.diag(D.data) != 0.0):
        raise ValueError("distance matrix must be hollow")
    n = D.n
    rng = _rng(seed, n)
    d = D.data
    if overwrite:
        d.setflags(write=True)
    m = d if overwrite else np.zeros((n, n))
    E = np.zeros((n, n)) if "E" in keep else None
    for rows, mask in _upper_chunks(n):
        du = d[rows][mask]
        if np.any(du < 0):
            raise ValueError("distance matrix must be non-negative")
        delta, e = _entries(spec, rng, du)
        m[rows][mask] = delta
        if E is not None:
            E[rows][mask] = e + 0.0  # a drawn -0.0 becomes 0.0
    mirror_upper(m)
    out = dict.fromkeys(OUTPUTS)
    if E is not None:
        out["E"] = SymmetricMatrix._unchecked(mirror_upper(E), hollow=True)
    if spec.squared_scale:
        if "delta_sq" in keep:
            out["delta_sq"] = SymmetricMatrix._unchecked(m, hollow=True)
        return out
    if "delta" in keep:
        out["delta"] = SymmetricMatrix._unchecked(m, hollow=True)
    if "delta_sq" in keep:
        sq = m**2 if "delta" in keep else np.square(m, out=m)
        out["delta_sq"] = SymmetricMatrix._unchecked(sq, hollow=True)
    return out
