"""Treatment designs and per-unit exposure probabilities.

A design is a known probability distribution over treatment allocations.
Exposure probabilities follow by pushing the design through a unit's exposure
mapping; for Bernoulli designs under the treated-degree mapping there is a
closed binomial form, and an exhaustive-enumeration oracle double-checks it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .exposure import (SPEC_CACHE_SIZE, Exposure, ExposureSpec, apply_exposure_mapping,
                       enumerate_exposures)

PROB_SUM_TOL = 1e-10
TABLE_SUM_TOL = 1e-12
# Binomial masses underflow float64 well before this point, so switch the
# closed form to log space for dense graphs.
LOG_SPACE_DEGREE = 50


class ExposureDistribution:
    """Probabilities of each exposure in a unit's exposure set.

    Every exposure in the set must have positive probability and masses must
    sum to one (within ``PROB_SUM_TOL``); solvers rely on both.
    """

    def __init__(self, spec: ExposureSpec, probs: dict[Exposure, float]):
        self.spec = spec
        cleaned = {}
        for e in enumerate_exposures(spec):
            p = float(probs.get(e, 0.0))
            if not 0.0 < p <= 1.0:
                raise ValueError(f"exposure {e} needs probability in (0, 1], got {p}")
            cleaned[e] = p
        extra = set(probs) - set(cleaned)
        if extra:
            raise ValueError(f"probabilities given for exposures outside the set: {sorted(extra)}")
        total = math.fsum(cleaned.values())
        if abs(total - 1.0) > PROB_SUM_TOL:
            raise ValueError(f"exposure probabilities sum to {total}, expected 1")
        self.probs = cleaned

    def __getitem__(self, e: Exposure) -> float:
        return self.probs[tuple(e)]

    def __iter__(self):
        return iter(self.probs)

    def vector(self) -> np.ndarray:
        """Probabilities in canonical exposure order."""
        return np.array([self.probs[e] for e in enumerate_exposures(self.spec)])


@lru_cache(maxsize=SPEC_CACHE_SIZE)
def uniform_distribution(spec: ExposureSpec) -> ExposureDistribution:
    p = 1.0 / spec.num_exposures
    return ExposureDistribution(spec, {e: p for e in enumerate_exposures(spec)})


@dataclass(frozen=True)
class BernoulliDesign:
    """Independent treatment of each unit with probability p_treat."""

    n: int
    p_treat: float = 0.5

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("need at least one unit")
        if not 0.0 < self.p_treat < 1.0:
            raise ValueError(f"p_treat must be in (0, 1), got {self.p_treat}")

    def allocation_probability(self, z) -> float:
        z = np.asarray(z)
        treated = int(z.sum())
        return self.p_treat**treated * (1.0 - self.p_treat) ** (self.n - treated)

    def sample(self, rng: np.random.Generator, count: int) -> np.ndarray:
        return (rng.random((count, self.n)) < self.p_treat).astype(np.int64)


@dataclass(frozen=True)
class ExplicitDesign:
    """Design given by an explicit table of allocation probabilities."""

    n: int
    table: dict

    def __post_init__(self):
        table = {}
        for z, p in self.table.items():
            z = tuple(int(v) for v in z)
            if len(z) != self.n or any(v not in (0, 1) for v in z):
                raise ValueError(f"bad allocation {z} for n={self.n}")
            if p < 0:
                raise ValueError(f"negative probability for allocation {z}")
            table[z] = float(p)
        total = math.fsum(table.values())
        if abs(total - 1.0) > TABLE_SUM_TOL:
            raise ValueError(f"allocation probabilities sum to {total}, expected 1")
        object.__setattr__(self, "table", table)

    def allocation_probability(self, z) -> float:
        return self.table.get(tuple(int(v) for v in np.asarray(z)), 0.0)

    def sample(self, rng: np.random.Generator, count: int) -> np.ndarray:
        keys = sorted(self.table)
        probs = np.array([self.table[k] for k in keys])
        idx = rng.choice(len(keys), size=count, p=probs / probs.sum())
        return np.array([keys[i] for i in idx], dtype=np.int64)


Design = BernoulliDesign | ExplicitDesign

ENUMERATION_LIMIT = 20


def all_allocations(n: int) -> np.ndarray:
    """Every binary allocation of length n as rows, in binary-counting order."""
    if n > ENUMERATION_LIMIT:
        raise ValueError(f"refusing to enumerate 2^{n} allocations (limit n={ENUMERATION_LIMIT})")
    grid = np.indices((2,) * n).reshape(n, -1).T
    return grid.astype(np.int64)


def allocation_matrix(design: Design, mode: str = "exhaustive", count: int = 1500,
                      seed: int = 0) -> tuple[np.ndarray, np.ndarray]:
    """Allocations from the design as rows, with one probability-or-weight each.

    ``exhaustive`` gives every allocation with its exact design probability
    (only for n <= 20); ``sample`` gives ``count`` i.i.d. draws each with
    weight 1/count, deterministic given ``seed``.
    """
    if mode == "exhaustive":
        mat = all_allocations(design.n)
        if isinstance(design, BernoulliDesign):
            treated = mat.sum(axis=1)
            weights = design.p_treat**treated * (1.0 - design.p_treat) ** (design.n - treated)
        else:
            weights = np.array([design.allocation_probability(z) for z in mat])
        return mat, weights
    if mode == "sample":
        if count < 1:
            raise ValueError("sample mode needs a positive count")
        rng = np.random.default_rng(seed)
        mat = design.sample(rng, count)
        return mat, np.full(count, 1.0 / count)
    raise ValueError(f"unknown allocation mode {mode!r}")


def bernoulli_exposure_prob(degree: int, e: Exposure, p_treat: float) -> float:
    """Probability of treated-degree exposure (d, z) for a unit with ``degree`` in-neighbors.

    Closed form for a Bernoulli design: C(degree, d) p^(d+z) (1-p)^(degree-d+1-z).
    At p = 0.5 this reduces to C(degree, d) 0.5^(degree+1).
    """
    d, z = (int(v) for v in e)
    if z not in (0, 1):
        raise ValueError(f"own-treatment component must be 0 or 1, got {z}")
    if not 0 <= d <= degree:
        raise ValueError(f"treated degree {d} out of range 0..{degree}")
    if not 0.0 < p_treat < 1.0:
        raise ValueError(f"p_treat must be in (0, 1), got {p_treat}")
    if degree > LOG_SPACE_DEGREE:
        log_mass = (
            math.lgamma(degree + 1) - math.lgamma(d + 1) - math.lgamma(degree - d + 1)
            + (d + z) * math.log(p_treat)
            + (degree - d + 1 - z) * math.log1p(-p_treat)
        )
        return math.exp(log_mass)
    return (
        math.comb(degree, d)
        * p_treat ** (d + z)
        * (1.0 - p_treat) ** (degree - d + 1 - z)
    )


def bernoulli_exposure_distribution(degree: int, p_treat: float) -> ExposureDistribution:
    """Closed-form exposure distribution of a degree->``degree`` unit under Bernoulli."""
    if degree < 1:
        raise ValueError("degree-0 units have a collapsed exposure set; exclude them")
    spec = ExposureSpec((degree, 1))
    probs = {
        (d, z): bernoulli_exposure_prob(degree, (d, z), p_treat)
        for d in range(degree + 1)
        for z in (0, 1)
    }
    return ExposureDistribution(spec, probs)


def _spec_for_mapping(kind: str, network, unit: int) -> ExposureSpec:
    if kind == "sutva":
        return ExposureSpec((1,))
    if kind == "four_exposure":
        return ExposureSpec((1, 1))
    if kind == "network_interference":
        degree = int(network.in_degrees[unit])
        if degree < 1:
            raise ValueError(
                f"unit {unit} has in-degree 0; its interference exposure set is degenerate"
            )
        return ExposureSpec((degree, 1))
    raise ValueError(f"unknown exposure mapping kind {kind!r}")


def exposure_distribution_exact(design: Design, kind: str, network, unit: int
                                ) -> ExposureDistribution:
    """Brute-force exposure distribution: accumulate design mass over all allocations."""
    spec = _spec_for_mapping(kind, network, unit)
    acc: dict[Exposure, float] = {}
    mat, weights = allocation_matrix(design, "exhaustive")
    for z, p in zip(mat, weights):
        e = apply_exposure_mapping(kind, network, z, unit)
        acc[e] = acc.get(e, 0.0) + p
    return ExposureDistribution(spec, acc)
