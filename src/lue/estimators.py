"""Linear unbiased estimators: constraints, atomic constructions, and the affine basis.

A linear estimator is a sparse map from exposures to weights; its value is
w(e_obs) * Y_obs.  Unbiasedness for the effect of the first component at its
maximum level is a linear constraint system on the weights (one row per
parameter), and the whole solution set is spanned affinely by a small family
of two-term and four-term inverse-probability estimators plus zero
estimators.  Weights are stored against exposures, never allocations, which
rules out estimators whose weights depend on other units' exposures.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .design import ExposureDistribution, uniform_distribution
from .exposure import (
    Exposure,
    ExposureSpec,
    ParameterIndex,
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


@dataclass
class LinearEstimator:
    """Sparse exposure->weight map estimating the first component's maximum effect."""

    spec: ExposureSpec
    weights: dict[Exposure, float]
    name: str = ""
    target: ParameterIndex = field(default=None)  # defaults to theta_{1,m_1}

    def __post_init__(self):
        cleaned = {}
        for e, w in self.weights.items():
            e = self.spec.validate_exposure(e)
            if w != 0.0:
                cleaned[e] = float(w)
        self.weights = cleaned
        if self.target is None:
            self.target = ParameterIndex("effect", 1, self.spec.levels[0])

    @classmethod
    def _trusted(cls, spec: ExposureSpec, weights: dict[Exposure, float], name: str,
                 target: ParameterIndex) -> "LinearEstimator":
        """Skip validation: ``weights`` is keyed by valid exposures, with nonzero floats."""
        est = cls.__new__(cls)
        est.spec, est.weights, est.name, est.target = spec, weights, name, target
        return est

    def support(self) -> set[Exposure]:
        return set(self.weights)

    def weight(self, e: Exposure) -> float:
        return self.weights.get(tuple(e), 0.0)

    def as_vector(self, exposures=None) -> np.ndarray:
        """Dense weight vector in canonical (or given) exposure order."""
        return basis_matrix([self], exposures)[0]

    def to_text(self) -> str:
        """One ``e1,...,eK<TAB>weight`` line per support exposure, canonical order."""
        lines = []
        for e in enumerate_exposures(self.spec):
            w = self.weight(e)
            if w != 0.0:
                lines.append(f"{','.join(str(v) for v in e)}\t{w!r}")
        return "\n".join(lines)

    @classmethod
    def from_text(cls, spec: ExposureSpec, text: str, name: str = "") -> "LinearEstimator":
        weights = {}
        for line in text.splitlines():
            line = line.strip()
            if not line:
                continue
            key, value = line.split("\t")
            weights[tuple(int(v) for v in key.split(","))] = float(value)
        return cls(spec, weights, name=name)


def evaluate_estimator(est: LinearEstimator, observed_exposure: Exposure,
                       observed_outcome: float) -> float:
    """w(e_obs) * Y_obs; zero when the observed exposure is outside the support."""
    return est.weight(observed_exposure) * observed_outcome


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
    return float(np.abs(c.matrix @ est.as_vector(c.exposures) - c.target_vector()).max())


def check_zero_expectation(est: LinearEstimator, probs: ExposureDistribution) -> float:
    """Max-norm residual of C w against the all-zero target (zero estimators)."""
    c = constraint_matrix(est.spec, probs)
    return float(np.abs(c.matrix @ est.as_vector(c.exposures)).max())


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


def _entries(spec: ExposureSpec, start: int, stop: int, probs):
    """(member - start, column, weight) of every nonzero weight of members start..stop-1."""
    _, _, rows, cols, signs = _layout(spec.levels)
    first, last = np.searchsorted(rows, (start, stop))
    n = spec.num_exposures
    p = np.full(n, 1.0 / n) if probs is None else probs.vector()
    return rows[first:last] - start, cols[first:last], signs[first:last] / p[cols[first:last]]


def basis_weights(spec: ExposureSpec,
                  probs: ExposureDistribution | None = None) -> np.ndarray:
    """The affine basis as a (members x exposures) weight array.

    Rows are the members of :func:`basis_identifiers`, atomic then zero;
    columns are exposures in canonical order.  Each term of a member weighs
    +-1/p of its exposure, with uniform p when ``probs`` is omitted.
    """
    members = len(_layout(spec.levels)[0])
    rows, cols, values = _entries(spec, 0, members, probs)
    weights = np.zeros((members, spec.num_exposures))
    weights[rows, cols] = values
    return weights


def _as_estimators(spec: ExposureSpec, start: int, stop: int, probs) -> list[LinearEstimator]:
    """Basis members start..stop-1 as estimators named after their identifying exposures."""
    rows, cols, values = _entries(spec, start, stop, probs)
    exposures = enumerate_exposures(spec)
    m1 = spec.levels[0]
    target = ParameterIndex("effect", 1, m1)
    terms = list(zip([exposures[j] for j in cols.tolist()], values.tolist()))
    stops = np.cumsum(np.bincount(rows, minlength=stop - start)).tolist()
    names = [f"two_term{e[1:]}" if e[0] == m1 else f"zero{e}" if e[0] == 0 else f"four_term{e}"
             for e in map(exposures.__getitem__, _layout(spec.levels)[0][start:stop].tolist())]
    return [LinearEstimator._trusted(spec, dict(terms[begin:end]), name, target)
            for begin, end, name in zip([0] + stops, stops, names)]


def _basis_member(spec: ExposureSpec, e: Exposure, probs) -> LinearEstimator:
    member = int(np.searchsorted(_layout(spec.levels)[0], exposure_positions(spec)[e]))
    return _as_estimators(spec, member, member + 1, probs)[0]


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
                    probs: ExposureDistribution | None = None) -> list[LinearEstimator]:
    """The affine-independent monotonic atomic estimators, one per identifying exposure."""
    return _as_estimators(spec, 0, _layout(spec.levels)[1], probs)


def build_zero_estimators(spec: ExposureSpec,
                          probs: ExposureDistribution | None = None) -> list[LinearEstimator]:
    """All zero estimators in canonical order."""
    ids, atomic, *_ = _layout(spec.levels)
    return _as_estimators(spec, atomic, len(ids), probs)


def build_affine_basis(spec: ExposureSpec,
                       probs: ExposureDistribution | None = None) -> list[LinearEstimator]:
    """Affine basis of the unbiased-estimator set: the atomic family plus zero estimators."""
    return _as_estimators(spec, 0, len(_layout(spec.levels)[0]), probs)


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


def basis_matrix(basis: list[LinearEstimator], exposures=None) -> np.ndarray:
    """Stack of basis weight vectors, one row per estimator."""
    if exposures is None:
        positions = exposure_positions(basis[0].spec)
    else:
        positions = {e: j for j, e in enumerate(exposures)}
    mat = np.zeros((len(basis), len(positions)))
    for row, b in zip(mat, basis):
        for e, w in b.weights.items():
            row[positions[e]] = w
    return mat


def affine_rank(basis) -> int:
    """Rank of the weights (estimators, or one array row each) with a constant-1 column appended."""
    mat = basis if isinstance(basis, np.ndarray) else basis_matrix(basis)
    aug = np.hstack([mat, np.ones((mat.shape[0], 1))])
    return int(np.linalg.matrix_rank(aug, rtol=RANK_RTOL))


def affine_rank_is_full(basis, spec: ExposureSpec | None = None) -> bool:
    """Exact full-rank certificate for a canonically ordered basis.

    ``basis`` is a list of estimators, or an array laid out as by
    :func:`basis_weights` with its ``spec``.  On the identifying exposures the
    weights must be zero below a nonzero diagonal (each member is the last one
    whose support contains its identifier), which certifies full affine rank
    with no floating-point tolerance; any other pattern falls back to the SVD.
    """
    if not isinstance(basis, np.ndarray):
        spec = basis[0].spec
        basis = basis_matrix(basis)
    ids = np.concatenate(basis_identifiers(spec))
    if len(ids) == len(basis):
        # Zero below a nonzero diagonal: each row's first nonzero is on it.
        nonzero = basis[:, ids] != 0
        diagonal = np.arange(len(ids))
        if nonzero[diagonal, diagonal].all() and (nonzero.argmax(axis=1) == diagonal).all():
            return True
    return affine_rank(basis) == len(basis)


def decompose_in_basis(est: LinearEstimator, basis: list[LinearEstimator],
                       probs: ExposureDistribution | None = None) -> np.ndarray:
    """Coefficients reproducing ``est`` from the basis.

    The coefficients on the unbiased members must sum to one (they carry the
    estimand), while zero-expectation members enter as free displacements:
    their expectation vanishes, so they cannot contribute to the
    normalization.  Raises when the input is biased or the residual exceeds
    tolerance.
    """
    if probs is None:
        probs = uniform_distribution(est.spec)
    residual = check_unbiased(est, probs)
    if residual > UNBIASED_TOL:
        raise ValueError(f"estimator is not unbiased (constraint residual {residual:.3e})")
    c = constraint_matrix(est.spec, probs)
    target = c.target_vector()
    normalized = np.zeros(len(basis))
    for i, member in enumerate(basis):
        image = c.matrix @ member.as_vector(c.exposures)
        if np.abs(image - target).max() < UNBIASED_TOL:
            normalized[i] = 1.0
        elif np.abs(image).max() >= UNBIASED_TOL:
            raise ValueError(
                f"basis member {member.name or i} is neither unbiased nor zero-expectation"
            )
    a = np.vstack([basis_matrix(basis).T, normalized])
    b = np.concatenate([est.as_vector(), [1.0]])
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
    return LinearEstimator(spec, dict(zip(c.exposures, w)), name="random_lue")


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
