"""Treatment designs and per-unit exposure probabilities.

A design is a known probability distribution over treatment allocations.
Exposure probabilities follow by pushing the design through a unit's exposure
mapping; for Bernoulli designs under the treated-degree mapping there is a
closed binomial form, and an exhaustive-enumeration oracle double-checks it.
"""

from __future__ import annotations

import math
from collections.abc import Mapping
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .exposure import (SPEC_CACHE_SIZE, Exposure, ExposureSpec, apply_exposure_mapping,
                       canonical_grid, enumerate_exposures, exposure_positions)

PROB_SUM_TOL = 1e-10
TABLE_SUM_TOL = 1e-12
# Binomial masses underflow float64 well before this point, so switch the
# closed form to log space for dense graphs.
LOG_SPACE_DEGREE = 50


class ExposureDistribution:
    """Probabilities of each exposure in a unit's exposure set.

    ``vector`` is the only storage: the read-only probabilities in canonical
    exposure order, which is the column order of ``ConstraintMatrix`` and of
    ``LinearEstimator.vector``.  The constructor takes that vector, or a
    mapping from exposures to probabilities in which absent exposures have
    probability 0.  Every exposure in the set must have positive probability
    and masses must sum to one (within ``PROB_SUM_TOL``); solvers rely on both.
    """

    def __init__(self, spec: ExposureSpec, probs):
        exposures = enumerate_exposures(spec)
        if isinstance(probs, Mapping):
            extra = set(probs) - set(exposures)
            if extra:
                raise ValueError(
                    f"probabilities given for exposures outside the set: {sorted(extra)}")
            vector = np.array([float(probs.get(e, 0.0)) for e in exposures])
        else:
            vector = np.array(probs, dtype=float)
            if vector.shape != (spec.num_exposures,):
                raise ValueError(
                    f"need {spec.num_exposures} probabilities, got shape {vector.shape}")
        bad = np.flatnonzero(~((vector > 0.0) & (vector <= 1.0)))
        if bad.size:
            raise ValueError(f"exposure {exposures[bad[0]]} needs probability in (0, 1], "
                             f"got {float(vector[bad[0]])}")
        total = math.fsum(vector.tolist())
        if abs(total - 1.0) > PROB_SUM_TOL:
            raise ValueError(f"exposure probabilities sum to {total}, expected 1")
        vector.setflags(write=False)
        self.spec, self.vector = spec, vector

    def __getitem__(self, e: Exposure) -> float:
        return float(self.vector[exposure_positions(self.spec)[tuple(e)]])

    def __iter__(self):
        return iter(exposure_positions(self.spec))


def probability_vector(spec: ExposureSpec, probs: ExposureDistribution) -> np.ndarray:
    """``probs.vector``, after checking that ``probs`` is a pmf over ``spec``'s exposures.

    Two specs with the same number of exposures would otherwise pair each
    probability with the wrong exposure without any error.
    """
    if probs.spec != spec:
        raise ValueError(f"exposure probabilities are over levels {probs.spec.levels}, "
                         f"not {spec.levels}")
    return probs.vector


@lru_cache(maxsize=SPEC_CACHE_SIZE)
def uniform_distribution(spec: ExposureSpec) -> ExposureDistribution:
    return ExposureDistribution(spec, np.full(spec.num_exposures, 1.0 / spec.num_exposures))


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

    def allocation_probability(self, z):
        """Probability of allocation ``z``, or of each row when ``z`` is a matrix."""
        treated = np.asarray(z).sum(axis=-1)
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


Design = BernoulliDesign | ExplicitDesign

ENUMERATION_LIMIT = 20


def allocation_matrix(design: Design) -> tuple[np.ndarray, np.ndarray]:
    """Every allocation as rows in binary-counting order (n <= 20), with its exact probability."""
    n = design.n
    if n > ENUMERATION_LIMIT:
        raise ValueError(f"refusing to enumerate 2^{n} allocations (limit n={ENUMERATION_LIMIT})")
    mat = np.indices((2,) * n).reshape(n, -1).T.astype(np.int64)
    if isinstance(design, BernoulliDesign):
        return mat, design.allocation_probability(mat)
    return mat, np.array([design.allocation_probability(z) for z in mat])


def bernoulli_exposure_prob(degree: int, e: Exposure, p_treat: float) -> float:
    """Probability of treated-degree exposure (d, z) for a unit with ``degree`` in-neighbors.

    Closed form for a Bernoulli design: C(degree, d) p^(d+z) (1-p)^(degree-d+1-z).
    At p = 0.5 this reduces to C(degree, d) 0.5^(degree+1).  Raises when the
    mass underflows float64 to 0, with :func:`bernoulli_exposure_distribution`'s
    message.
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
        mass = math.exp(log_mass)
    else:
        mass = (
            math.comb(degree, d)
            * p_treat ** (d + z)
            * (1.0 - p_treat) ** (degree - d + 1 - z)
        )
    if mass == 0.0:
        raise ValueError(_underflow_message(degree, p_treat, d, z))
    return mass


def _underflow_message(degree: int, p_treat: float, d, z) -> str:
    return (f"in-degree {degree} at p_treat {p_treat}: the mass of exposure ({d}, {z}) "
            "underflows float64")


def bernoulli_exposure_distribution(degree: int, p_treat: float) -> ExposureDistribution:
    """Closed-form exposure distribution of a degree->``degree`` unit under Bernoulli.

    The masses are :func:`bernoulli_exposure_prob`'s, bit for bit: per-level
    tables from the same ``math`` calls, combined on arrays in the same
    operation order.  ``math.exp`` and ``**`` stay scalar because numpy's
    vectorised exp and power need not round as libm does.  Raises when a
    mass underflows float64 to 0, naming the degree, ``p_treat`` and the
    first such exposure in canonical order.
    """
    if degree < 1:
        raise ValueError("degree-0 units have a collapsed exposure set; exclude them")
    if not 0.0 < p_treat < 1.0:
        raise ValueError(f"p_treat must be in (0, 1), got {p_treat}")
    spec = ExposureSpec((degree, 1))
    d, z = canonical_grid(spec.levels).T
    if degree > LOG_SPACE_DEGREE:
        lgammas = np.array([math.lgamma(k + 1) for k in range(degree + 1)])
        log_mass = (lgammas[degree] - lgammas[d] - lgammas[degree - d]
                    + (d + z) * math.log(p_treat)
                    + (degree - d + 1 - z) * math.log1p(-p_treat))
        probs = np.array([math.exp(value) for value in log_mass.tolist()])
    else:
        combs = np.array([float(math.comb(degree, k)) for k in range(degree + 1)])
        treated = np.array([p_treat**k for k in range(degree + 2)])
        untreated = np.array([(1.0 - p_treat) ** k for k in range(degree + 2)])
        probs = combs[d] * treated[d + z] * untreated[degree - d + 1 - z]
    if not probs.all():
        j = int(np.argmin(probs))
        raise ValueError(_underflow_message(degree, p_treat, d[j], z[j]))
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
    mat, weights = allocation_matrix(design)
    for z, p in zip(mat, weights):
        e = apply_exposure_mapping(kind, network, z, unit)
        acc[e] = acc.get(e, 0.0) + p
    return ExposureDistribution(spec, acc)
