"""Treatment designs and per-unit exposure probabilities.

The design is Bernoulli: each unit is treated independently with one
probability.  Exposure probabilities follow by pushing the design through a
unit's exposure mapping; under the treated-degree mapping there is a closed
binomial form, and an exhaustive-enumeration oracle double-checks it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .exposure import (SPEC_CACHE_SIZE, Exposure, ExposureSpec, as_int, canonical_grid,
                       enumerate_exposures, exposure_columns, exposure_vector)

PROB_SUM_TOL = 1e-10
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
        vector = exposure_vector(spec, probs, "probabilities")
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
        return float(self.vector[exposure_columns(self.spec, [e])[0]])

    def __iter__(self):
        return iter(enumerate_exposures(self.spec))


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
        object.__setattr__(self, "n", as_int(self.n, "n", 1))
        if not 0.0 < self.p_treat < 1.0:
            raise ValueError(f"p_treat must be in (0, 1), got {self.p_treat}")

    def sample(self, rng: np.random.Generator, count: int, out=None) -> np.ndarray:
        """``count`` allocations as 0/1 rows: int64, or written straight into ``out`` and returned.

        Each uniform of ``rng`` is compared against ``p_treat`` in row-major
        order, so rows drawn from one generator in consecutive blocks equal,
        bit for bit, the rows of one call.  ``out`` is (count x n), any real dtype.
        """
        treated = np.less(rng.random((count, self.n)), self.p_treat, out=out)
        return treated if out is not None else treated.astype(np.int64)


ENUMERATION_LIMIT = 20


def allocation_matrix(design: BernoulliDesign) -> np.ndarray:
    """Every allocation as a 0/1 row, in binary-counting order (n <= 20)."""
    n = design.n
    if n > ENUMERATION_LIMIT:
        raise ValueError(f"refusing to enumerate 2^{n} allocations (limit n={ENUMERATION_LIMIT})")
    return np.indices((2,) * n).reshape(n, -1).T.astype(np.int64)


@lru_cache(maxsize=SPEC_CACHE_SIZE)
def bernoulli_slot_pmf(degree: int, p_treat: float) -> np.ndarray:
    """The Bernoulli exposure law of a unit with ``degree`` in-neighbors, as one read-only table.

    Entry [d, z] is C(degree, d) p^(d+z) (1-p)^(degree-d+1-z), the probability of
    treated degree d and own treatment z, so the row-major order is slot order
    2d + z.  At p = 0.5 this reduces to C(degree, d) 0.5^(degree+1).  Above
    ``LOG_SPACE_DEGREE`` the masses go through log space.  ``math.exp`` and
    ``**`` stay scalar because numpy's vectorised exp and power need not round
    as libm does.  A mass may underflow to 0; each reader decides whether that
    is an error.  Cached per (degree, p_treat).
    """
    if not 0.0 < p_treat < 1.0:
        raise ValueError(f"p_treat must be in (0, 1), got {p_treat}")
    d, z = np.arange(degree + 1)[:, None], np.arange(2)
    if degree > LOG_SPACE_DEGREE:
        lgammas = np.array([math.lgamma(k + 1) for k in range(degree + 1)])
        log_mass = (lgammas[degree] - lgammas[d] - lgammas[degree - d]
                    + (d + z) * math.log(p_treat)
                    + (degree - d + 1 - z) * math.log1p(-p_treat))
        table = np.array([[math.exp(value) for value in row] for row in log_mass.tolist()])
    else:
        combs = np.array([float(math.comb(degree, k)) for k in range(degree + 1)])
        treated = np.array([p_treat**k for k in range(degree + 2)])
        untreated = np.array([(1.0 - p_treat) ** k for k in range(degree + 2)])
        table = combs[d] * treated[d + z] * untreated[degree - d + 1 - z]
    table.setflags(write=False)
    return table


def slot_order(degree: int) -> np.ndarray:
    """Each exposure (d, z) of in-degree ``degree``, in canonical order, as its slot 2d + z."""
    return canonical_grid((degree, 1)) @ (2, 1)


def bernoulli_exposure_prob(degree: int, e: Exposure, p_treat: float) -> float:
    """Probability of treated-degree exposure (d, z) for a unit with ``degree`` in-neighbors.

    Entry ``e`` of :func:`bernoulli_exposure_distribution`, which raises for
    degree 0 and for any degree at which some mass underflows float64.
    """
    _, z = e
    if z not in (0, 1):
        raise ValueError(f"own-treatment component must be 0 or 1, got {z}")
    return bernoulli_exposure_distribution(degree, p_treat)[e]


@lru_cache(maxsize=SPEC_CACHE_SIZE)
def bernoulli_exposure_distribution(degree: int, p_treat: float) -> ExposureDistribution:
    """Closed-form exposure distribution of a degree->``degree`` unit under Bernoulli.

    The masses of :func:`bernoulli_slot_pmf`, in canonical exposure order.
    Raises when a mass underflows float64 to 0, naming the degree,
    ``p_treat`` and the first such exposure in canonical order.  Cached per
    (degree, p_treat); a raised error is not cached.
    """
    if degree < 1:
        raise ValueError("degree-0 units have a collapsed exposure set; exclude them")
    spec = ExposureSpec((degree, 1))
    probs = bernoulli_slot_pmf(degree, p_treat).ravel()[slot_order(degree)]
    if not probs.all():
        raise ValueError(f"in-degree {degree} at p_treat {p_treat}: the mass of exposure "
                         f"{enumerate_exposures(spec)[np.argmin(probs)]} underflows float64")
    return ExposureDistribution(spec, probs)


def exact_cell_masses(alloc: np.ndarray, cells: np.ndarray, size: int, p_treat: float
                      ) -> np.ndarray:
    """P(an allocation falls in cell c), c = 0..size-1, under Bernoulli(``p_treat``), exactly.

    ``alloc`` holds every allocation as a 0/1 row (:func:`allocation_matrix`)
    and ``cells[i]`` is row i's cell.  A cell's allocations, counted by number
    treated t, weigh p^t (1-p)^(n-t) in exact integers over den^n, where
    p = num/den exactly, so each mass is one correctly rounded quotient.
    """
    n = alloc.shape[1]
    num, den = float(p_treat).as_integer_ratio()
    weights = np.array([num**t * (den - num) ** (n - t) for t in range(n + 1)], dtype=object)
    counts = np.bincount(cells * (n + 1) + alloc.sum(axis=1), minlength=size * (n + 1))
    return (counts.reshape(size, n + 1) @ weights / den**n).astype(np.float64)


def exposure_distribution_exact(design: BernoulliDesign, kind: str, network, unit: int
                                ) -> ExposureDistribution:
    """Brute-force exposure distribution: every allocation counted into its slot, exactly."""
    if kind != "network_interference":
        raise ValueError(f"unknown exposure mapping kind {kind!r}")
    degree = int(network.in_degrees[unit])
    if degree < 1:
        raise ValueError(
            f"unit {unit} has in-degree 0; its interference exposure set is degenerate"
        )
    mat = allocation_matrix(design)
    slots = 2 * (mat @ network.adjacency[:, unit]) + mat[:, unit]
    masses = exact_cell_masses(mat, slots, 2 * degree + 2, design.p_treat)
    return ExposureDistribution(ExposureSpec((degree, 1)), masses[slot_order(degree)])
