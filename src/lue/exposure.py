"""Exposure sets, canonical orderings, and the parameter layout.

An exposure summarizes everything a unit's potential outcome can depend on.
Exposures are integer vectors e = (e_1, ..., e_K) with 0 <= e_k <= m_k; the
all-zeros vector is the baseline.  Under additivity the potential outcome is
a sum of a baseline term and one effect term per nonzero component, which is
what the columns of :func:`indicator_matrix` encode.
"""

from __future__ import annotations

from collections.abc import Mapping
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
        for m in self.levels:
            if isinstance(m, bool) or not isinstance(m, (int, np.integer)):
                raise ValueError(f"every level must be an integer, got {m!r}")
        if any(m < 1 for m in self.levels):
            raise ValueError(f"every component needs at least one level, got {self.levels}")
        object.__setattr__(self, "levels", tuple(int(m) for m in self.levels))

    @property
    def num_exposures(self) -> int:
        out = 1
        for m in self.levels:
            out *= m + 1
        return out

    @property
    def num_parameters(self) -> int:
        return 1 + sum(self.levels)

    def validate_exposure(self, e) -> Exposure:
        """The member of the exposure set that ``e`` equals (see :func:`exposure_columns`)."""
        return _canonical_exposures(self.levels)[exposure_columns(self, [e])[0]]


def target_position(spec: ExposureSpec) -> int:
    """Flat index of the estimand: the first component at its maximum level.

    The baseline sits at 0 and the first component's levels 1..m_1 at 1..m_1.
    """
    return spec.levels[0]


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


def exposure_columns(spec: ExposureSpec, exposures) -> list[int]:
    """Canonical column of each exposure, looked up by value.

    An exposure is the member whose components it equals: ``np.array([1, 0])``,
    numpy integers and ``(2.0, 1)`` are found, while ``(1.5, 0)`` is refused,
    not truncated.  Raises ``ValueError`` naming the first that equals no member.
    """
    positions = exposure_positions(spec)
    try:
        return [positions[tuple(e)] for e in exposures]
    except KeyError as missing:
        raise ValueError(f"exposure {missing.args[0]} is outside the set of levels "
                         f"{spec.levels}") from None


def exposure_vector(spec: ExposureSpec, values, what: str) -> np.ndarray:
    """A new float vector over the exposures in canonical order, named ``what`` in errors.

    ``values`` is that vector, or an {exposure: value} mapping whose keys are
    looked up by :func:`exposure_columns` and in which absent exposures are 0.
    """
    if isinstance(values, Mapping):
        vector = np.zeros(spec.num_exposures)
        vector[exposure_columns(spec, values)] = list(values.values())
        return vector
    vector = np.array(values, dtype=float)
    if vector.shape != (spec.num_exposures,):
        raise ValueError(f"need {spec.num_exposures} {what}, got shape {vector.shape}")
    return vector


def enumerate_exposures(spec: ExposureSpec) -> list[Exposure]:
    """All exposures in the canonical order used by the basis construction.

    Groups by first component: values 1..m_1-1 first, then m_1, then 0; each
    group is sorted in reverse reflected lexicographic order (components read
    from last to second, larger values first, ties broken by larger first
    component).
    """
    return list(_canonical_exposures(spec.levels))


@lru_cache(maxsize=SPEC_CACHE_SIZE)
def active_parameters(spec: ExposureSpec) -> tuple[np.ndarray, np.ndarray]:
    """Positions of the parameters active in each exposure, with a mask of the real ones.

    Row j of the (exposures x (K + 1)) position array lists the baseline 0,
    then ``offset_k + e_k - 1`` for each component k, in ascending order: the
    rows holding a 1 in indicator column j.  A component at level 0 points at
    the baseline and is False in the mask.  Both arrays are read-only.
    """
    grid = canonical_grid(spec.levels)
    offsets = np.cumsum((1,) + spec.levels[:-1])  # first position of each component
    on = grid > 0
    positions = np.hstack([np.zeros((len(grid), 1), dtype=int),
                           np.where(on, offsets + grid - 1, 0)])
    mask = np.hstack([np.ones((len(grid), 1), dtype=bool), on])
    positions.setflags(write=False)
    mask.setflags(write=False)
    return positions, mask


@lru_cache(maxsize=SPEC_CACHE_SIZE)
def indicator_matrix(spec: ExposureSpec) -> np.ndarray:
    """Read-only stack of indicator vectors, one column per exposure (canonical order).

    Column e is the 0/1 vector v over the parameter set with v . theta = Y(e)
    under additivity: the baseline entry is always 1, and the entry for
    component k at level j is 1 exactly when e_k = j.
    """
    positions, mask = active_parameters(spec)
    mat = np.zeros((spec.num_parameters, len(positions)))
    columns, _ = np.nonzero(mask)
    mat[positions[mask], columns] = 1.0
    mat.setflags(write=False)
    return mat
