"""Linear unbiased estimators: constraints, atomic constructions, and the affine basis.

A linear estimator is a weight vector over the exposures, in canonical
order; its value is w(e_obs) * Y_obs.  Unbiasedness for the effect of the
first component at its maximum level is a linear constraint system on the
weights (one row per parameter), and the whole solution set is spanned
affinely by a small family of two-term and four-term inverse-probability
estimators plus zero estimators.  Weights are stored against exposures,
never allocations, which rules out estimators whose weights depend on other
units' exposures.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .design import ExposureDistribution, uniform_distribution
from .exposure import (
    Exposure,
    ExposureSpec,
    ParameterIndex,
    _canonical_exposures,
    canonical_grid,
    enumerate_exposures,
    exposure_positions,
    indicator_matrix,
    indicator_vector,
    parameter_order,
    target_position,
)

UNBIASED_TOL = 1e-10
DECOMPOSE_TOL = 1e-8
RANK_RTOL = 1e-10


class LinearEstimator:
    """Exposure weights estimating the first component's maximum effect.

    ``vector`` is the only storage: the read-only weights in canonical
    exposure order, which is the column order of :class:`ConstraintMatrix`
    and :func:`basis_weights`.  The constructor takes that vector, or a
    mapping from exposures to weights in which absent exposures weigh 0.
    """

    def __init__(self, spec: ExposureSpec, weights, name: str = "",
                 target: ParameterIndex | None = None):
        if isinstance(weights, Mapping):
            positions = exposure_positions(spec)
            vector = np.zeros(spec.num_exposures)
            for e, w in weights.items():
                vector[positions[spec.validate_exposure(e)]] = w
        else:
            vector = np.asarray(weights, dtype=float)
            if vector.shape != (spec.num_exposures,):
                raise ValueError(f"need {spec.num_exposures} weights, got shape {vector.shape}")
        # Adding 0.0 copies the weights and stores every zero weight as +0.0.
        self.vector = vector + 0.0
        self.vector.setflags(write=False)
        self.spec, self.name = spec, name
        self.target = ParameterIndex("effect", 1, spec.levels[0]) if target is None else target

    @property
    def weights(self) -> dict[Exposure, float]:
        """The nonzero weights as {exposure: weight}, canonical order, derived from ``vector``."""
        exposures = _canonical_exposures(self.spec.levels)
        return {e: w for e, w in zip(exposures, self.vector.tolist()) if w != 0.0}

    def __array__(self, dtype=None, copy=None):
        return np.array(self.vector, dtype=dtype, copy=copy)

    def __repr__(self):
        return f"LinearEstimator({self.name!r}, levels={self.spec.levels}, weights={self.weights})"

    def support(self) -> set[Exposure]:
        return set(self.weights)

    def weight(self, e: Exposure) -> float:
        """Weight of exposure ``e``; 0 outside the exposure set."""
        j = exposure_positions(self.spec).get(tuple(e))
        return 0.0 if j is None else float(self.vector[j])

    def as_vector(self, exposures=None) -> np.ndarray:
        """Writable copy of the weights in canonical (or the given) exposure order."""
        if exposures is None:
            return self.vector.copy()
        positions = exposure_positions(self.spec)
        return self.vector[[positions[e] for e in exposures]]

    def to_text(self) -> str:
        """One ``e1,...,eK<TAB>weight`` line per support exposure, canonical order."""
        return "\n".join(f"{','.join(map(str, e))}\t{w!r}" for e, w in self.weights.items())


class EstimatorRows(Sequence):
    """Basis members as a read-only sequence over the rows of one weight array.

    ``np.asarray`` gives the (members x exposures) array in canonical column
    order; a member's estimator and its name are built only when it is
    indexed.  ``+`` joins two sequences of one spec.
    """

    def __init__(self, spec: ExposureSpec, weights: np.ndarray, ids: np.ndarray):
        weights.setflags(write=False)
        self.spec, self._weights, self._ids = spec, weights, ids

    def __len__(self) -> int:
        return len(self._ids)

    def __getitem__(self, member: int) -> LinearEstimator:
        e = _canonical_exposures(self.spec.levels)[self._ids[member]]
        m1 = self.spec.levels[0]
        name = f"two_term{e[1:]}" if e[0] == m1 else f"zero{e}" if e[0] == 0 else f"four_term{e}"
        return LinearEstimator(self.spec, self._weights[member], name)

    def __add__(self, other: "EstimatorRows") -> "EstimatorRows":
        if other.spec != self.spec:
            raise ValueError(f"cannot join estimators of levels {self.spec.levels} "
                             f"and {other.spec.levels}")
        return EstimatorRows(self.spec, np.concatenate([self._weights, other._weights]),
                             np.concatenate([self._ids, other._ids]))

    def __array__(self, dtype=None, copy=None):
        return np.array(self._weights, dtype=dtype, copy=copy)


@dataclass(frozen=True)
class ConstraintMatrix:
    """Dense unbiasedness constraints: rows are parameters, columns exposures.

    Entry (t, e) is p(e) when parameter t contributes to Y(e) and 0 otherwise,
    so the baseline row is exactly the probability vector.  An estimator is
    unbiased iff C w equals the target vector (1 at the estimand row).
    """

    spec: ExposureSpec
    matrix: np.ndarray
    exposures: tuple[Exposure, ...]
    parameters: tuple[ParameterIndex, ...]

    def target_vector(self) -> np.ndarray:
        t = np.zeros(self.spec.num_parameters)
        t[target_position(self.spec)] = 1.0
        return t


def constraint_matrix(spec: ExposureSpec, probs: ExposureDistribution) -> ConstraintMatrix:
    """Assemble the unbiasedness constraint system for the given exposure probabilities."""
    exposures = tuple(enumerate_exposures(spec))
    mat = indicator_matrix(spec, exposures) * probs.vector()
    return ConstraintMatrix(spec, mat, exposures, tuple(parameter_order(spec)))


def check_unbiased(est: LinearEstimator, probs: ExposureDistribution) -> float:
    """Max-norm residual of the unbiasedness constraints; 0 means unbiased."""
    c = constraint_matrix(est.spec, probs)
    return float(np.abs(c.matrix @ est.vector - c.target_vector()).max())


def check_zero_expectation(est: LinearEstimator, probs: ExposureDistribution) -> float:
    """Max-norm residual of C w against the all-zero target (zero estimators)."""
    c = constraint_matrix(est.spec, probs)
    return float(np.abs(c.matrix @ est.vector).max())


@lru_cache(maxsize=4)
def _layout(levels: tuple[int, ...]):
    """Which exposures and signs make up each basis member, free of probabilities.

    Returns (ids, atomic, rows, cols, signs): each member's identifier column,
    atomic members first; their number; each term's member, column and sign,
    grouped by member.  The member identified by e has the terms: two-term
    (e_1 = m_1) +(m_1, tail) -(0, tail); four-term (0 < e_1 < m_1) +(m_1, tail)
    -e +e' -(0, e'_tail), where e' zeroes the first nonzero tail component of e;
    zero (e_1 = 0) +e -(that component alone) -e' +baseline.  A row-major flat
    index is linear in the components, so each term's index is a shift of e's.
    Read-only, and cached because a build and its certificate share a spec.
    """
    grid = canonical_grid(levels)
    first = grid[:, 0]
    tail_nonzero = np.count_nonzero(grid[:, 1:], axis=1)
    atomic = (first == levels[0]) | ((first > 0) & (tail_nonzero >= 1))
    ids = np.flatnonzero(atomic | ((first == 0) & (tail_nonzero >= 2)))
    strides = np.cumprod([1] + [m + 1 for m in levels[:0:-1]])[::-1]
    column = np.argsort(grid @ strides)  # canonical column of each flat index
    e = grid[ids]
    first = e[:, 0]
    flat = e @ strides
    top = flat + (levels[0] - first) * strides[0]
    bottom = flat - first * strides[0]
    # Rows without a nonzero tail component are two-term and never use ``drop``.
    tail = e != 0
    tail[:, 0] = False
    lead = tail.argmax(axis=1)
    drop = e[np.arange(len(e)), lead] * strides[lead]
    two, zero = first == levels[0], first == 0
    # Four term slots per member, in the order above; two-term members use two.
    slots = np.stack([
        np.where(zero, flat, top),
        np.where(zero, drop, np.where(two, bottom, flat)),
        flat - drop,
        np.where(zero, 0, bottom - drop),
    ], axis=1)
    signs = np.where(zero[:, None], (1.0, -1.0, -1.0, 1.0), (1.0, -1.0, 1.0, -1.0))
    rows, slot = np.nonzero(~two[:, None] | (np.arange(4) < 2))
    cols, signs = column[slots[rows, slot]], signs[rows, slot]
    for array in (ids, rows, cols, signs):
        array.setflags(write=False)
    return ids, np.count_nonzero(atomic), rows, cols, signs


def basis_identifiers(spec: ExposureSpec) -> tuple[np.ndarray, np.ndarray]:
    """Canonical columns of the exposures identifying the basis members, as (atomic, zero).

    Atomic: first component at its maximum, or intermediate with a nonzero tail.
    Zero: first component 0 and at least two nonzero tail components.  Both are
    read-only.
    """
    ids, atomic, *_ = _layout(spec.levels)
    return ids[:atomic], ids[atomic:]


def _member_weights(spec: ExposureSpec, start: int, stop: int, probs) -> np.ndarray:
    """Weight rows of members start..stop-1: each term weighs +-1/p of its exposure."""
    _, _, rows, cols, signs = _layout(spec.levels)
    first, last = np.searchsorted(rows, (start, stop))
    n = spec.num_exposures
    p = np.full(n, 1.0 / n) if probs is None else probs.vector()
    cols = cols[first:last]
    weights = np.zeros((stop - start, n))
    weights[rows[first:last] - start, cols] = signs[first:last] / p[cols]
    return weights


def basis_weights(spec: ExposureSpec,
                  probs: ExposureDistribution | None = None) -> np.ndarray:
    """The affine basis as a (members x exposures) weight array.

    Rows are the members of :func:`basis_identifiers`, atomic then zero;
    columns are exposures in canonical order.  Each term of a member weighs
    +-1/p of its exposure, with uniform p when ``probs`` is omitted.
    """
    return _member_weights(spec, 0, len(_layout(spec.levels)[0]), probs)


def _basis_rows(spec: ExposureSpec, start: int, stop: int, probs) -> EstimatorRows:
    """Basis members start..stop-1, named after their identifying exposures."""
    ids = _layout(spec.levels)[0]
    return EstimatorRows(spec, _member_weights(spec, start, stop, probs), ids[start:stop])


def _basis_member(spec: ExposureSpec, e: Exposure, probs) -> LinearEstimator:
    member = int(np.searchsorted(_layout(spec.levels)[0], exposure_positions(spec)[e]))
    return _basis_rows(spec, member, member + 1, probs)[0]


def build_two_term_alue(spec: ExposureSpec, fixed_tail: tuple[int, ...],
                        probs: ExposureDistribution | None = None) -> LinearEstimator:
    """Two-term estimator contrasting (m_1, tail) against (0, tail).

    Weights are +1/p and -1/p on the two exposures; unbiased for any positive
    exposure probabilities (uniform when ``probs`` is omitted).
    """
    tail = tuple(int(v) for v in fixed_tail)
    if len(tail) != spec.num_components - 1:
        raise ValueError(f"tail {tail} must fix components 2..{spec.num_components}")
    e = spec.validate_exposure((spec.levels[0],) + tail)
    return _basis_member(spec, e, probs)


def build_four_term_alue(spec: ExposureSpec, e: Exposure,
                         probs: ExposureDistribution | None = None) -> LinearEstimator:
    """Four-term estimator identified by an exposure with intermediate first component.

    Requires 0 < e_1 < m_1 and a nonzero tail.  The second pair of terms
    zeroes the first nonzero tail component, so the telescoping sum leaves
    only the estimand.
    """
    e = spec.validate_exposure(e)
    m1 = spec.levels[0]
    if not 0 < e[0] < m1:
        raise ValueError(f"first component of {e} must be strictly between 0 and {m1}")
    if not any(e[1:]):
        raise ValueError(f"exposure {e} needs a nonzero tail component")
    return _basis_member(spec, e, probs)


def build_zero_estimator(spec: ExposureSpec, e: Exposure,
                         probs: ExposureDistribution | None = None) -> LinearEstimator:
    """Zero-expectation four-term combination identified by a baseline-first exposure.

    Requires e_1 = 0 and at least two nonzero tail components; the middle
    terms split the tail into the first nonzero component versus the rest.
    """
    e = spec.validate_exposure(e)
    if e[0] != 0:
        raise ValueError(f"zero estimators need first component 0, got {e}")
    if sum(1 for v in e[1:] if v != 0) < 2:
        raise ValueError(f"exposure {e} needs at least two nonzero tail components")
    return _basis_member(spec, e, probs)


def build_malue_set(spec: ExposureSpec,
                    probs: ExposureDistribution | None = None) -> EstimatorRows:
    """The affine-independent monotonic atomic estimators, one per identifying exposure."""
    return _basis_rows(spec, 0, _layout(spec.levels)[1], probs)


def build_zero_estimators(spec: ExposureSpec,
                          probs: ExposureDistribution | None = None) -> EstimatorRows:
    """All zero estimators in canonical order."""
    ids, atomic, *_ = _layout(spec.levels)
    return _basis_rows(spec, atomic, len(ids), probs)


def build_affine_basis(spec: ExposureSpec,
                       probs: ExposureDistribution | None = None) -> EstimatorRows:
    """Affine basis of the unbiased-estimator set: the atomic family plus zero estimators."""
    return _basis_rows(spec, 0, len(_layout(spec.levels)[0]), probs)


def malue_count(spec: ExposureSpec) -> int:
    """Closed-form size of the atomic family."""
    tail = 1
    for m in spec.levels[1:]:
        tail *= m + 1
    return tail + (spec.levels[0] - 1) * (tail - 1)


def zero_count(spec: ExposureSpec) -> int:
    """Closed-form number of zero estimators."""
    tail = 1
    for m in spec.levels[1:]:
        tail *= m + 1
    return tail - 1 - sum(spec.levels[1:])


def basis_count(spec: ExposureSpec) -> int:
    """Closed-form basis size: exposures minus effect parameters."""
    return spec.num_exposures - sum(spec.levels)


def lue_dimension(spec: ExposureSpec) -> int:
    """Dimension of the unbiased-estimator solution set."""
    return spec.num_exposures - sum(spec.levels) - 1


def affine_rank(basis) -> int:
    """Rank of the weight rows (estimators, or an array) with a constant-1 column appended."""
    weights = np.asarray(basis)
    aug = np.hstack([weights, np.ones((len(weights), 1))])
    return int(np.linalg.matrix_rank(aug, rtol=RANK_RTOL))


def affine_rank_is_full(basis, spec: ExposureSpec | None = None) -> bool:
    """Exact full-rank certificate for a canonically ordered basis.

    ``basis`` is read as its weight array: :class:`EstimatorRows`, or
    estimators or weight rows with their ``spec``.  On the identifying
    exposures the weights must be zero below a nonzero diagonal (each member
    is the last one whose support contains its identifier), which certifies
    full affine rank with no floating-point tolerance; any other pattern
    falls back to the SVD.
    """
    weights = np.asarray(basis)
    ids = np.concatenate(basis_identifiers(basis.spec if spec is None else spec))
    if len(ids) == len(weights):
        # Zero below a nonzero diagonal: each row's first nonzero is on it.
        nonzero = weights[:, ids] != 0
        diagonal = np.arange(len(ids))
        if nonzero[diagonal, diagonal].all() and (nonzero.argmax(axis=1) == diagonal).all():
            return True
    return affine_rank(weights) == len(weights)


def decompose_in_basis(est: LinearEstimator, basis,
                       probs: ExposureDistribution | None = None) -> np.ndarray:
    """Coefficients reproducing ``est`` from the basis (estimators, read as their weight array).

    The coefficients on the unbiased members must sum to one (they carry the
    estimand), while zero-expectation members enter as free displacements:
    their expectation vanishes, so they cannot contribute to the
    normalization.  Raises when the input is biased or the residual exceeds
    tolerance.
    """
    if probs is None:
        probs = uniform_distribution(est.spec)
    c = constraint_matrix(est.spec, probs)
    target = c.target_vector()
    residual = np.abs(c.matrix @ est.vector - target).max()
    if residual > UNBIASED_TOL:
        raise ValueError(f"estimator is not unbiased (constraint residual {residual:.3e})")
    weights = np.asarray(basis)
    images = c.matrix @ weights.T
    unbiased = np.abs(images - target[:, None]).max(axis=0) < UNBIASED_TOL
    stray = ~unbiased & (np.abs(images).max(axis=0) >= UNBIASED_TOL)
    if stray.any():
        i = int(stray.argmax())
        raise ValueError(
            f"basis member {basis[i].name or i} is neither unbiased nor zero-expectation")
    a = np.vstack([weights.T, unbiased])
    b = np.concatenate([est.vector, [1.0]])
    coeffs, *_ = np.linalg.lstsq(a, b, rcond=None)
    fit = float(np.abs(a @ coeffs - b).max())
    if fit > DECOMPOSE_TOL:
        raise ValueError(f"decomposition residual {fit:.3e} exceeds {DECOMPOSE_TOL:.1e}")
    return coeffs


def sample_random_lue(spec: ExposureSpec, probs: ExposureDistribution,
                      rng: np.random.Generator, scale: float = 1.0) -> LinearEstimator:
    """Random unbiased estimator: particular solution plus constraint-null-space noise."""
    c = constraint_matrix(spec, probs)
    w0, *_ = np.linalg.lstsq(c.matrix, c.target_vector(), rcond=None)
    null = null_space_basis(c.matrix)
    w = w0
    if null.shape[1]:
        w = w0 + null @ rng.normal(scale=scale, size=null.shape[1])
    return LinearEstimator(spec, w, name="random_lue")


def null_space_basis(matrix: np.ndarray) -> np.ndarray:
    """Orthonormal basis of the null space, columns as directions."""
    _, s, vt = np.linalg.svd(matrix)
    tol = (s[0] if s.size else 0.0) * RANK_RTOL
    rank = int((s > tol).sum())
    return vt[rank:].T


@dataclass(frozen=True)
class SupportCheck:
    valid: bool
    reason: str | None = None

    def __bool__(self):
        return self.valid


def check_support_condition(candidate_support, spec: ExposureSpec,
                            probs: ExposureDistribution) -> SupportCheck:
    """Decide whether a support can carry a minimum-integrated-variance estimator.

    Valid iff (a) the constraints restricted to the support are solvable, so
    an unbiased estimator with that support exists, and (b) no indicator
    vector of an exposure outside the support lies in the span of the
    support's indicator vectors.  Both are rank computations with a relative
    singular-value threshold.
    """
    support = [spec.validate_exposure(e) for e in candidate_support]
    if not support:
        return SupportCheck(False, "empty support")
    c = constraint_matrix(spec, probs)
    cols = [c.exposures.index(e) for e in support]
    restricted = c.matrix[:, cols]
    target = c.target_vector()
    rank = np.linalg.matrix_rank(restricted, rtol=RANK_RTOL)
    rank_aug = np.linalg.matrix_rank(np.hstack([restricted, target[:, None]]), rtol=RANK_RTOL)
    if rank_aug > rank:
        return SupportCheck(False, "no unbiased estimator with this support")
    span = np.vstack([indicator_vector(spec, e) for e in support]).T
    support_set = set(support)
    for e in c.exposures:
        if e in support_set:
            continue
        v = indicator_vector(spec, e)
        coeff, *_ = np.linalg.lstsq(span, v, rcond=None)
        if np.abs(span @ coeff - v).max() < RANK_RTOL:
            return SupportCheck(False, f"indicator of exposure {e} lies in the support span")
    return SupportCheck(True)
