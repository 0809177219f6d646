"""Exposure sets, canonical orderings, parameter indexing, and exposure mappings.

An exposure summarizes everything a unit's potential outcome can depend on.
Exposures are integer vectors e = (e_1, ..., e_K) with 0 <= e_k <= m_k; the
all-zeros vector is the baseline.  Under additivity the potential outcome is
a sum of a baseline term and one effect term per nonzero component, which is
what :func:`indicator_vector` encodes.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

Exposure = tuple[int, ...]


@dataclass(frozen=True)
class ExposureSpec:
    """Component structure of an exposure set: K components with levels m_k.

    The exposure set is the product {0..m_1} x ... x {0..m_K}; the parameter
    set holds the baseline plus one effect parameter per component level.
    """

    levels: tuple[int, ...]

    def __post_init__(self):
        if len(self.levels) < 1:
            raise ValueError("spec needs at least one exposure component")
        if any(m < 1 for m in self.levels):
            raise ValueError(f"every component needs at least one level, got {self.levels}")
        object.__setattr__(self, "levels", tuple(int(m) for m in self.levels))

    @property
    def num_components(self) -> int:
        return len(self.levels)

    @property
    def num_exposures(self) -> int:
        out = 1
        for m in self.levels:
            out *= m + 1
        return out

    @property
    def num_parameters(self) -> int:
        return 1 + sum(self.levels)

    def contains(self, e: Exposure) -> bool:
        return len(e) == len(self.levels) and all(
            0 <= v <= m for v, m in zip(e, self.levels)
        )

    def validate_exposure(self, e: Exposure) -> Exposure:
        levels = self.levels
        if type(e) is tuple and len(e) == len(levels):
            for v, m in zip(e, levels):
                if type(v) is not int or v < 0 or v > m:
                    break
            else:
                return e
        e = tuple(int(v) for v in e)
        if not self.contains(e):
            raise ValueError(f"exposure {e} not in the set defined by levels {self.levels}")
        return e


@dataclass(frozen=True)
class ParameterIndex:
    """Position of a parameter: the baseline, or the effect of component k at level j."""

    kind: str  # "baseline" | "effect"
    component: int = 0  # 1-based, effect only
    level: int = 0  # 1-based, effect only

    def __post_init__(self):
        if self.kind not in ("baseline", "effect"):
            raise ValueError(f"unknown parameter kind {self.kind!r}")
        if self.kind == "effect" and (self.component < 1 or self.level < 1):
            raise ValueError("effect parameters need a 1-based component and level")

    def __str__(self):
        if self.kind == "baseline":
            return "alpha"
        return f"theta_{self.component},{self.level}"


BASELINE = ParameterIndex("baseline")


def parameter_order(spec: ExposureSpec) -> list[ParameterIndex]:
    """All parameters in canonical order: baseline first, then (k, j) lexicographic."""
    out = [BASELINE]
    for k, m in enumerate(spec.levels, start=1):
        out.extend(ParameterIndex("effect", k, j) for j in range(1, m + 1))
    return out


def parameter_position(spec: ExposureSpec, component: int, level: int) -> int:
    """Flat index of the effect parameter for ``component`` at ``level``.

    Index 0 is always the baseline.
    """
    if not 1 <= component <= spec.num_components:
        raise ValueError(f"component {component} out of range 1..{spec.num_components}")
    if not 1 <= level <= spec.levels[component - 1]:
        raise ValueError(
            f"level {level} out of range 1..{spec.levels[component - 1]} "
            f"for component {component}"
        )
    return 1 + sum(spec.levels[: component - 1]) + (level - 1)


def target_position(spec: ExposureSpec) -> int:
    """Flat index of the estimand: the first component at its maximum level."""
    return parameter_position(spec, 1, spec.levels[0])


def canonical_grid(levels: tuple[int, ...]) -> np.ndarray:
    """Every exposure as one row of an (exposures x components) array, in canonical order."""
    grid = np.indices([m + 1 for m in levels]).reshape(len(levels), -1).T
    first = grid[:, 0]
    group = np.where(first == levels[0], 1, np.where(first == 0, 2, 0))
    # lexsort reads its last key first: the group, then -e_K, ..., -e_1.
    return grid[np.lexsort(np.vstack([-grid.T, group]))]


# Per-spec caches keep this many specs.  Every cached call for a spec comes
# in a run of consecutive calls (one in-degree's weight solves, one spec of a
# sweep), and a dense_er setting solves about 36 distinct in-degrees, so 64
# never recomputes within a setting while a sweep over thousands of specs
# holds only the last 64.
SPEC_CACHE_SIZE = 64


@lru_cache(maxsize=SPEC_CACHE_SIZE)
def _canonical_exposures(levels: tuple[int, ...]) -> tuple[Exposure, ...]:
    return tuple(map(tuple, canonical_grid(levels).tolist()))


@lru_cache(maxsize=SPEC_CACHE_SIZE)
def exposure_positions(spec: ExposureSpec) -> dict[Exposure, int]:
    """Column index of each exposure in the canonical order."""
    return {e: j for j, e in enumerate(_canonical_exposures(spec.levels))}


def enumerate_exposures(spec: ExposureSpec) -> list[Exposure]:
    """All exposures in the canonical order used by the basis construction.

    Groups by first component: values 1..m_1-1 first, then m_1, then 0; each
    group is sorted in reverse reflected lexicographic order (components read
    from last to second, larger values first, ties broken by larger first
    component).
    """
    return list(_canonical_exposures(spec.levels))


def indicator_vector(spec: ExposureSpec, e: Exposure) -> np.ndarray:
    """0/1 vector v over the parameter set with v . theta = Y(e) under additivity.

    The baseline entry is always 1; the entry for component k at level j is 1
    exactly when e_k = j.
    """
    e = spec.validate_exposure(e)
    v = np.zeros(spec.num_parameters)
    v[0] = 1.0
    for k, value in enumerate(e, start=1):
        if value != 0:
            v[parameter_position(spec, k, value)] = 1.0
    return v


@lru_cache(maxsize=SPEC_CACHE_SIZE)
def _canonical_indicator_matrix(spec: ExposureSpec) -> np.ndarray:
    exposures = _canonical_exposures(spec.levels)
    mat = np.zeros((spec.num_parameters, len(exposures)))
    for j, e in enumerate(exposures):
        mat[:, j] = indicator_vector(spec, e)
    mat.setflags(write=False)
    return mat


def indicator_matrix(spec: ExposureSpec, exposures=None) -> np.ndarray:
    """Stack of indicator vectors, one column per exposure (canonical order)."""
    if exposures is None or tuple(exposures) == _canonical_exposures(spec.levels):
        return _canonical_indicator_matrix(spec)
    mat = np.zeros((spec.num_parameters, len(exposures)))
    for j, e in enumerate(exposures):
        mat[:, j] = indicator_vector(spec, e)
    return mat


def remap_exposures(spec: ExposureSpec, component: int, level: int):
    """Relabel exposures so the estimand becomes component 1 at its maximum level.

    Returns the remapped spec and a function sending old exposures to new
    ones: the chosen component is swapped to the front and its chosen level
    is swapped with the maximum level.  All constructions downstream assume
    this normal form.
    """
    if not 1 <= component <= spec.num_components:
        raise ValueError(f"component {component} out of range")
    m = spec.levels[component - 1]
    if not 1 <= level <= m:
        raise ValueError(f"level {level} out of range for component {component}")
    k = component - 1
    order = [k] + [i for i in range(spec.num_components) if i != k]
    new_spec = ExposureSpec(tuple(spec.levels[i] for i in order))

    def forward(e: Exposure) -> Exposure:
        e = spec.validate_exposure(e)
        swapped = list(e)
        if swapped[k] == level:
            swapped[k] = m
        elif swapped[k] == m:
            swapped[k] = level
        return tuple(swapped[i] for i in order)

    return new_spec, forward


def apply_exposure_mapping(kind: str, network, allocation, unit: int) -> Exposure:
    """Exposure of ``unit`` under the named mapping for a full allocation.

    ``sutva`` reads the unit's own treatment; ``network_interference`` returns
    (treated in-degree, own treatment); ``four_exposure`` returns (own
    treatment, any-treated-in-neighbor indicator).  The two network kinds
    require ``network``.
    """
    allocation = np.asarray(allocation)
    n = allocation.shape[0]
    if not 0 <= unit < n:
        raise ValueError(f"unit {unit} out of range for {n} units")
    z = int(allocation[unit])
    if kind == "sutva":
        return (z,)
    if kind in ("network_interference", "four_exposure"):
        if network is None:
            raise ValueError(f"mapping {kind!r} requires a network")
        if network.n != n:
            raise ValueError(f"allocation length {n} != network size {network.n}")
        d = int(network.adjacency[:, unit] @ allocation)
        if kind == "network_interference":
            return (d, z)
        return (z, 1 if d > 0 else 0)
    raise ValueError(f"unknown exposure mapping kind {kind!r}")
