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

from collections.abc import Sequence
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .design import ExposureDistribution, probability_vector, uniform_distribution
from .exposure import (
    Exposure,
    ExposureSpec,
    _canonical_exposures,
    active_parameters,
    enumerate_exposures,
    exposure_columns,
    exposure_vector,
    indicator_matrix,
    target_position,
)

UNBIASED_TOL = 1e-10
DECOMPOSE_TOL = 1e-8
RANK_RTOL = 1e-10
# Term signs of a four-term, two-term and zero member; two-term members use two.
_SIGNS = np.array([(1.0, -1.0, 1.0, -1.0), (1.0, -1.0, 0.0, 0.0), (1.0, -1.0, -1.0, 1.0)])


class LinearEstimator:
    """Exposure weights estimating the first component's maximum effect.

    ``vector`` is the only storage: the read-only weights in canonical
    exposure order, which is the column order of :class:`ConstraintMatrix`
    and of an :class:`EstimatorRows` array.  The constructor takes that vector, or a
    mapping from exposures to weights in which absent exposures weigh 0.
    """

    def __init__(self, spec: ExposureSpec, weights, name: str = ""):
        self.vector = exposure_vector(spec, weights, "weights")
        self.vector += 0.0  # stores every zero weight as +0.0
        self.vector.setflags(write=False)
        self.spec, self.name = spec, name

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
        try:
            (j,) = exposure_columns(self.spec, [e])
        except ValueError:
            return 0.0
        return float(self.vector[j])

    def as_vector(self, exposures=None) -> np.ndarray:
        """Writable copy of the weights in canonical (or the given) exposure order."""
        if exposures is None:
            return self.vector.copy()
        return self.vector[exposure_columns(self.spec, exposures)]

    def to_text(self) -> str:
        """One ``e1,...,eK<TAB>weight`` line per support exposure, canonical order."""
        return "\n".join(f"{','.join(map(str, e))}\t{w!r}" for e, w in self.weights.items())


class EstimatorRows(Sequence):
    """Basis members as a read-only sequence over their nonzero weights.

    ``terms`` holds their read-only (rows, cols, values), rows ascending and
    grouped by member.  ``np.asarray`` scatters them into a new (members x
    exposures) array; a member's estimator is built only when it is indexed.
    ``+`` joins two sequences of one spec.
    """

    def __init__(self, spec: ExposureSpec, rows, cols, values, ids: np.ndarray):
        for array in (rows, cols, values):
            array.setflags(write=False)
        self.spec, self.terms, self._ids = spec, (rows, cols, values), ids

    def __len__(self) -> int:
        return len(self._ids)

    def __getitem__(self, member: int) -> LinearEstimator:
        e = _canonical_exposures(self.spec.levels)[self._ids[member]]
        m1 = self.spec.levels[0]
        name = f"two_term{e[1:]}" if e[0] == m1 else f"zero{e}" if e[0] == 0 else f"four_term{e}"
        rows, cols, values = self.terms
        first, last = np.searchsorted(rows, (member % len(self), member % len(self) + 1))
        weights = np.bincount(cols[first:last], values[first:last], self.spec.num_exposures)
        return LinearEstimator(self.spec, weights, name)

    def __add__(self, other: "EstimatorRows") -> "EstimatorRows":
        if other.spec != self.spec:
            raise ValueError(f"cannot join estimators of levels {self.spec.levels} "
                             f"and {other.spec.levels}")
        rows, cols, values = other.terms
        joined = zip((*self.terms, self._ids), (rows + len(self), cols, values, other._ids))
        return EstimatorRows(self.spec, *map(np.concatenate, joined))

    def __array__(self, dtype=None, copy=None):
        if copy is False:
            raise ValueError("EstimatorRows builds a new array on every conversion")
        rows, cols, values = self.terms
        weights = np.zeros((len(self), self.spec.num_exposures), dtype=dtype)
        weights[rows, cols] = values
        return weights


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

    def target_vector(self) -> np.ndarray:
        t = np.zeros(self.spec.num_parameters)
        t[target_position(self.spec)] = 1.0
        return t


def constraint_matrix(spec: ExposureSpec, probs: ExposureDistribution) -> ConstraintMatrix:
    """Assemble the unbiasedness constraint system for the given exposure probabilities."""
    exposures = tuple(enumerate_exposures(spec))
    mat = indicator_matrix(spec) * probability_vector(spec, probs)
    return ConstraintMatrix(spec, mat, exposures)


def constraint_residuals(spec: ExposureSpec, probabilities, weights, target=1.0) -> np.ndarray:
    """Relative unbiasedness residual of each row w of ``weights``.

    max_t |(C w - t)_t| / max(1, sum_e |C_te w_e|): C holds the canonical
    ``probabilities`` p(e) at the at most K + 1 active parameters of each
    exposure e, and t is ``target`` (0 for zero estimators) at the estimand's
    position, 0 elsewhere.  Both sums run over those entries, in exposure order.
    """
    positions, mask = active_parameters(spec)
    weights = np.atleast_2d(weights)
    size, count = spec.num_parameters, len(weights)
    pw = (probabilities * weights)[:, np.nonzero(mask)[0]]
    rows = (positions[mask] + size * np.arange(count)[:, None]).ravel()
    t = target * (np.arange(size) == target_position(spec))
    numerator = np.bincount(rows, pw.ravel(), size * count).reshape(count, size) - t
    scale = np.bincount(rows, np.abs(pw).ravel(), size * count).reshape(count, size)
    return (np.abs(numerator) / np.maximum(1.0, scale)).max(axis=1)


def _layouts(levels_seq):
    """Which exposures and signs make up each basis member, for many specs at once.

    Returns (ids, rows, cols, signs, atomic, offsets): the specs' layouts in
    turn, each numbered within its spec; their atomic counts; and a (3, specs
    + 1) array of each spec's first member, term and exposure, then totals.
    A layout is each member's identifier column, atomic members first, and
    each term's member, column and sign, grouped by member.  The member
    identified by e has the terms: two-term (e_1 = m_1) +(m_1, tail) -(0,
    tail); four-term (0 < e_1 < m_1) +(m_1, tail) -e +e' -(0, e'_tail), where
    e' zeroes the first nonzero tail component of e; zero (e_1 = 0) +e
    -(that component alone) -e' +baseline.

    Every column is index arithmetic on canonical positions, with no sort.
    There are N = (m_2+1)...(m_K+1) tails, and tail row r is the tail whose
    mixed-radix value, e_2 least significant, is N-1-r, so the zero tail is
    row N-1.  (e_1, tail r) sits at r(m_1-1) + m_1-1-e_1 when 0 < e_1 < m_1,
    at (m_1-1)N + r when e_1 = m_1 and at m_1 N + r when e_1 = 0.  If l_r is
    the value of tail r's first nonzero component alone, zeroing that
    component gives row r + l_r and keeping only it gives row N-1-l_r; the
    tail has a second nonzero component iff r + l_r < N-1.
    """
    width = max(map(len, levels_seq))
    # Each tail component's place value, e_2 least significant, padded with N.
    places = np.array([[m + 1 for m in levels[1:]] + [1] * (width - len(levels) + 1)
                       for levels in levels_seq]).cumprod(axis=1)
    m1, tails = np.array([levels[0] for levels in levels_seq]), places[:, -1]

    def segments(counts):
        """Each element's spec and its place in that spec's segment of ``counts``."""
        spec = np.arange(len(counts)).repeat(counts)
        return spec, np.arange(len(spec)) - (counts.cumsum() - counts)[spec]

    spec, r = segments(tails)
    value = tails[spec] - 1 - r
    # l_r is the value modulo the smallest place value that leaves it nonzero,
    # since every digit below the first nonzero one is zero.
    low = value[:, None] % places[spec]
    lead = low[np.arange(len(low)), (low != 0).argmax(axis=1)]
    second = lead < value
    four = (m1 - 1) * (tails - 1)
    atomic = four + tails
    sizes = np.array([four, tails, np.bincount(spec[second], minlength=len(tails))])
    # Each member's block (four-term, two-term, zero) and place in its spec.
    block = (np.arange(sizes.size) % 3).repeat(sizes.T.ravel())
    counts = sizes.sum(axis=0)
    member = segments(counts)[1]
    terms_of = 4 - 2 * (block == 1)
    term_block = block.repeat(terms_of)
    # Per tail: the columns of (m_1, tail) and (0, tail), and the baseline's.
    top, bottom = ((m1 - 1) * tails)[spec] + r, (m1 * tails)[spec] + r
    base = ((m1 + 1) * tails - 1)[spec]
    # Four-term members are the intermediate rows with a nonzero tail: the
    # first (m_1-1)(N-1) positions, e_1 fastest; t is each one's tail.
    t = np.arange(len(spec)).repeat(np.where(value > 0, m1[spec] - 1, 0))
    e = member[block == 0]
    zero, step = bottom[second], lead[second]
    blocks = (  # (identifier, term columns) of each block's members
        (e, (top[t], e, e + (m1 - 1)[spec[t]] * lead[t], bottom[t] + lead[t])),
        (top, (top, bottom)),
        (zero, (zero, base[second] - step, zero + step, base[second])),
    )
    ids = np.empty(len(block), dtype=np.intp)
    cols = np.empty(len(term_block), dtype=np.intp)
    for b, (identifier, columns) in enumerate(blocks):
        ids[block == b] = identifier
        cols[term_block == b] = np.array(columns).T.ravel()
    signs = _SIGNS[block].ravel()
    signs = signs[signs != 0]
    members = np.concatenate([[0], counts.cumsum()])
    terms = np.concatenate([[0], (4 * counts - 2 * tails).cumsum()])
    exposures = np.concatenate([[0], ((m1 + 1) * tails).cumsum()])
    return ids, member.repeat(terms_of), cols, signs, atomic, np.array([members, terms, exposures])


@lru_cache(maxsize=4)
def _layout(levels: tuple[int, ...]):
    """One spec's read-only (ids, atomic, rows, cols, signs); a build and its check share it."""
    ids, rows, cols, signs, atomic, _ = _layouts([levels])
    for array in (ids, rows, cols, signs):
        array.setflags(write=False)
    return ids, int(atomic[0]), rows, cols, signs


def _triangular(ids, rows, cols, offsets) -> np.ndarray:
    """Per spec of a :func:`_layouts` result: zero below a nonzero diagonal on the identifiers?

    One pass over the specs' block-diagonal union, identifier columns ranked by
    member: each member's first term must rank at its own position, not a repeat's.
    """
    members, terms, exposures = offsets
    spec = np.repeat(np.arange(len(members) - 1), np.diff(terms))
    rank = np.full(exposures[-1], members[-1])
    rank[ids + np.repeat(exposures[:-1], np.diff(members))] = np.arange(members[-1])
    first = np.full(members[-1], members[-1])
    np.minimum.at(first, rows + members[spec], rank[cols + exposures[spec]])
    return np.logical_and.reduceat(first == np.arange(members[-1]), members[:-1])


def _basis_rows(spec: ExposureSpec, start: int, stop: int, probs) -> EstimatorRows:
    """Basis members start..stop-1; each term weighs +-1/p, with uniform p if ``probs`` is None."""
    ids, _, rows, cols, signs = _layout(spec.levels)
    first, last = np.searchsorted(rows, (start, stop))
    n = spec.num_exposures
    p = np.full(n, 1.0 / n) if probs is None else probability_vector(spec, probs)
    cols = cols[first:last]
    return EstimatorRows(spec, rows[first:last] - start, cols, signs[first:last] / p[cols],
                         ids[start:stop])


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
    tail = spec.num_exposures // (spec.levels[0] + 1)
    return tail + (spec.levels[0] - 1) * (tail - 1)


def zero_count(spec: ExposureSpec) -> int:
    """Closed-form number of zero estimators."""
    return spec.num_exposures // (spec.levels[0] + 1) - 1 - sum(spec.levels[1:])


def basis_count(spec: ExposureSpec) -> int:
    """Closed-form basis size: exposures minus effect parameters."""
    return spec.num_exposures - sum(spec.levels)


def lue_dimension(spec: ExposureSpec) -> int:
    """Dimension of the unbiased-estimator solution set."""
    return spec.num_exposures - sum(spec.levels) - 1


def affine_rank_is_full(basis, spec: ExposureSpec | None = None) -> bool:
    """Exact full-rank certificate for a canonically ordered basis.

    ``basis`` is :class:`EstimatorRows`, read as its terms and its own
    identifiers, or estimators or weight rows with their ``spec``, read as
    their nonzero weights against the spec's layout.  Zero below a nonzero
    diagonal on the identifying exposures (each member is the last one whose
    support contains its identifier) certifies full affine rank with no
    tolerance; any other pattern falls back to the SVD rank of the weight
    rows with a constant-1 column appended.
    """
    spec = basis.spec if spec is None else spec
    rows, cols = basis.terms[:2] if isinstance(basis, EstimatorRows) else np.nonzero(basis)
    ids = basis._ids if isinstance(basis, EstimatorRows) else _layout(spec.levels)[0]
    offsets = np.array([[0, len(ids)], [0, len(rows)], [0, spec.num_exposures]])
    if len(ids) == len(basis) and _triangular(ids, rows, cols, offsets)[0]:
        return True
    weights = np.asarray(basis)
    aug = np.hstack([weights, np.ones((len(weights), 1))])
    return int(np.linalg.matrix_rank(aug, rtol=RANK_RTOL)) == len(basis)


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
    p = probability_vector(est.spec, probs)
    (residual,) = constraint_residuals(est.spec, p, est.vector)
    if residual > UNBIASED_TOL:
        raise ValueError(f"estimator is not unbiased (relative residual {residual:.3e})")
    weights = np.asarray(basis)
    unbiased = constraint_residuals(est.spec, p, weights) < UNBIASED_TOL
    stray = ~unbiased & (constraint_residuals(est.spec, p, weights, 0.0) >= UNBIASED_TOL)
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
                      rng: np.random.Generator) -> LinearEstimator:
    """Random unbiased estimator: particular solution plus constraint-null-space noise."""
    c = constraint_matrix(spec, probs)
    w0, *_ = np.linalg.lstsq(c.matrix, c.target_vector(), rcond=None)
    null = null_space_basis(c.matrix)
    w = w0
    if null.shape[1]:
        w = w0 + null @ rng.normal(size=null.shape[1])
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
    support's indicator vectors.  (a) is a rank computation with a relative
    singular-value threshold; (b) is one least-squares fit of every outside
    indicator on the support's, and names the first offender in canonical order.
    """
    cols = exposure_columns(spec, candidate_support)
    if not cols:
        return SupportCheck(False, "empty support")
    c = constraint_matrix(spec, probs)
    restricted = c.matrix[:, cols]
    target = c.target_vector()
    rank = np.linalg.matrix_rank(restricted, rtol=RANK_RTOL)
    rank_aug = np.linalg.matrix_rank(np.hstack([restricted, target[:, None]]), rtol=RANK_RTOL)
    if rank_aug > rank:
        return SupportCheck(False, "no unbiased estimator with this support")
    indicators = indicator_matrix(spec)
    outside = np.setdiff1d(np.arange(spec.num_exposures), cols)
    span, others = indicators[:, cols], indicators[:, outside]
    coeff, *_ = np.linalg.lstsq(span, others, rcond=None)
    spanned = np.abs(span @ coeff - others).max(axis=0) < RANK_RTOL
    if spanned.any():
        e = c.exposures[outside[spanned.argmax()]]
        return SupportCheck(False, f"indicator of exposure {e} lies in the support span")
    return SupportCheck(True)
