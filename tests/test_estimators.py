"""Constraint system, atomic constructions, affine basis, support condition."""

import hashlib

import numpy as np
import pytest

import lue.verify
from lue.design import ExposureDistribution, uniform_distribution
from lue.estimators import (
    RANK_RTOL,
    EstimatorRows,
    LinearEstimator,
    _layout,
    affine_rank_is_full,
    basis_count,
    basis_identifiers,
    build_affine_basis,
    build_malue_set,
    build_zero_estimators,
    check_support_condition,
    constraint_matrix,
    constraint_residuals,
    decompose_in_basis,
    lue_dimension,
    malue_count,
    sample_random_lue,
    zero_count,
)
from lue.exposure import (ExposureSpec, canonical_grid, enumerate_exposures, exposure_columns,
                          indicator_matrix)
from lue.verify import check_basis_ranks, specs_up_to

# Bound before any test replaces numpy's, so the reference rank is never counted as a fallback.
matrix_rank = np.linalg.matrix_rank


def affine_rank(basis):
    """Reference: SVD rank of the weight rows with a constant-1 column appended."""
    weights = np.asarray(basis)
    return int(matrix_rank(np.hstack([weights, np.ones((len(weights), 1))]), rtol=RANK_RTOL))


def random_distribution(spec, rng):
    raw = rng.dirichlet(np.ones(spec.num_exposures))
    return ExposureDistribution(spec, dict(zip(enumerate_exposures(spec), raw)))


def member(spec, e, probs=None):
    """The basis member identified by exposure ``e``: its row of the basis, by position."""
    ids = np.concatenate(basis_identifiers(spec))
    position = int(np.flatnonzero(ids == enumerate_exposures(spec).index(e))[0])
    return build_affine_basis(spec, probs)[position]


def reference_basis(spec, probs):
    """Names and weight rows of the basis, built one member at a time from its terms."""
    m1 = spec.levels[0]
    exposures = enumerate_exposures(spec)
    names, rows = [], []
    for group in ("atomic", "zero"):
        for e in exposures:
            nonzero = [k for k in range(1, len(e)) if e[k] != 0]
            if group == "atomic" and e[0] == m1:
                name, terms = f"two_term{e[1:]}", [(+1, e), (-1, (0,) + e[1:])]
            elif group == "atomic" and 0 < e[0] < m1 and nonzero:
                reduced = tuple(0 if k == nonzero[0] else v for k, v in enumerate(e))
                name, terms = f"four_term{e}", [(+1, (m1,) + e[1:]), (-1, e),
                                                (+1, reduced), (-1, (0,) + reduced[1:])]
            elif group == "zero" and e[0] == 0 and len(nonzero) >= 2:
                only = tuple(v if k == nonzero[0] else 0 for k, v in enumerate(e))
                rest = tuple(0 if k == nonzero[0] else v for k, v in enumerate(e))
                name, terms = f"zero{e}", [(+1, e), (-1, only), (-1, rest),
                                           (+1, (0,) * len(e))]
            else:
                continue
            row = np.zeros(len(exposures))
            for sign, t in terms:
                row[exposures.index(t)] = sign / probs[t]
            names.append(name)
            rows.append(row)
    return names, np.array(rows).reshape(len(rows), len(exposures))


def grid_layout(levels):
    """The basis layout derived from the sorted exposure grid, as an oracle for ``_layout``.

    Each member's terms are found by row-major flat-index shifts of its
    identifying exposure, mapped back to canonical columns by an argsort.
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
    # Four term slots per member; two-term members use two.
    slots = np.stack([
        np.where(zero, flat, top),
        np.where(zero, drop, np.where(two, bottom, flat)),
        flat - drop,
        np.where(zero, 0, bottom - drop),
    ], axis=1)
    signs = np.where(zero[:, None], (1.0, -1.0, -1.0, 1.0), (1.0, -1.0, 1.0, -1.0))
    rows, slot = np.nonzero(~two[:, None] | (np.arange(4) < 2))
    cols, signs = column[slots[rows, slot]], signs[rows, slot]
    return ids, np.count_nonzero(atomic), rows, cols, signs


class TestConstraintMatrix:
    def test_single_binary_component(self):
        spec = ExposureSpec((1,))
        probs = ExposureDistribution(spec, {(1,): 0.5, (0,): 0.5})
        c = constraint_matrix(spec, probs)
        # rows: baseline, effect; columns: (1,), (0,)
        np.testing.assert_allclose(c.matrix, [[0.5, 0.5], [0.5, 0.0]])
        np.testing.assert_allclose(c.target_vector(), [0.0, 1.0])

    def test_baseline_row_is_probability_vector(self):
        rng = np.random.default_rng(0)
        for levels in [(2, 1), (1, 1, 1), (3,)]:
            spec = ExposureSpec(levels)
            probs = random_distribution(spec, rng)
            c = constraint_matrix(spec, probs)
            np.testing.assert_allclose(c.matrix[0], probs.vector)

    def test_second_component_row(self):
        spec = ExposureSpec((1, 1))
        probs = uniform_distribution(spec)
        c = constraint_matrix(spec, probs)
        # columns follow (1,1),(1,0),(0,1),(0,0); the second component's effect
        # row marks exposures with that component at level 1
        np.testing.assert_allclose(c.matrix[2], [0.25, 0.0, 0.25, 0.0])

    def test_full_row_rank_for_positive_probs(self):
        rng = np.random.default_rng(1)
        for levels in [(3, 1), (2, 2), (1, 1, 1, 1)]:
            spec = ExposureSpec(levels)
            c = constraint_matrix(spec, random_distribution(spec, rng))
            assert np.linalg.matrix_rank(c.matrix) == spec.num_parameters


class TestEvaluateEstimator:
    """An estimator evaluated at an observed (exposure, outcome) is w(e) * Y."""

    def test_weighted_outcome(self):
        spec = ExposureSpec((1, 1))
        est = LinearEstimator(spec, {(1, 1): 4.0})
        assert est.weight((1, 1)) * 2.0 == 8.0

    def test_outside_support_is_zero(self):
        spec = ExposureSpec((1, 1))
        est = LinearEstimator(spec, {(1, 1): 4.0})
        assert est.weight((0, 0)) * 5.0 == 0.0
        assert est.weight((2, 0)) == 0.0

    def test_baseline_term(self):
        spec = ExposureSpec((2,))
        probs = ExposureDistribution(spec, {(2,): 0.125, (1,): 0.75, (0,): 0.125})
        est = member(spec, (2,), probs)
        assert est.weight((0,)) * 1.0 == pytest.approx(-8.0)


class TestConstraintResiduals:
    def test_two_term_is_unbiased(self):
        spec = ExposureSpec((3, 1))
        probs = uniform_distribution(spec)
        est = member(spec, (3, 0), probs)
        assert constraint_residuals(spec, probs.vector, est.vector)[0] < 1e-12

    def test_all_zero_weights_residual_one(self):
        spec = ExposureSpec((2, 1))
        probs = uniform_distribution(spec)
        est = LinearEstimator(spec, {})
        assert constraint_residuals(spec, probs.vector, est.vector)[0] == 1.0

    def test_relative_to_the_scale_of_the_terms(self):
        """A doubled two-term estimator misses 1 (as a zero: 2) of terms summing to 2."""
        spec = ExposureSpec((3, 1))
        probs = uniform_distribution(spec)
        est = member(spec, (3, 0), probs)
        assert constraint_residuals(spec, probs.vector, 2.0 * est.vector)[0] == 0.5
        assert constraint_residuals(spec, probs.vector, 2.0 * est.vector, 0.0)[0] == 1.0

    def test_rows_are_independent(self):
        """A stack of rows gives each row's own residual, bit for bit, under either target."""
        rng = np.random.default_rng(7)
        for levels in [(1,), (3, 1), (2, 1, 2)]:
            spec = ExposureSpec(levels)
            p = random_distribution(spec, rng).vector
            weights = rng.normal(size=(6, spec.num_exposures))
            for target in (1.0, 0.0):
                stacked = constraint_residuals(spec, p, weights, target)
                single = [constraint_residuals(spec, p, w, target)[0] for w in weights]
                assert stacked.tobytes() == np.array(single).tobytes()
            assert constraint_residuals(spec, p, weights[:0]).shape == (0,)

    def test_treated_two_term_unbiased_under_additivity(self):
        spec = ExposureSpec((3, 1))
        rng = np.random.default_rng(2)
        probs = random_distribution(spec, rng)
        est = member(spec, (3, 1), probs)
        assert constraint_residuals(spec, probs.vector, est.vector)[0] < 1e-12


class TestTwoTermConstruction:
    def test_supports(self):
        spec = ExposureSpec((3, 1))
        assert member(spec, (3, 0)).support() == {(3, 0), (0, 0)}
        assert member(spec, (3, 1)).support() == {(3, 1), (0, 1)}

    def test_weights_are_inverse_probabilities(self):
        spec = ExposureSpec((3, 1))
        rng = np.random.default_rng(3)
        probs = random_distribution(spec, rng)
        est = member(spec, (3, 1), probs)
        assert est.weight((3, 1)) == pytest.approx(1.0 / probs[(3, 1)])
        assert est.weight((0, 1)) == pytest.approx(-1.0 / probs[(0, 1)])


class TestFourTermConstruction:
    def test_signs_and_support(self):
        spec = ExposureSpec((3, 1))
        probs = uniform_distribution(spec)
        est = member(spec, (1, 1), probs)
        assert est.support() == {(3, 1), (1, 1), (1, 0), (0, 0)}
        assert est.weight((3, 1)) > 0 and est.weight((1, 0)) > 0
        assert est.weight((1, 1)) < 0 and est.weight((0, 0)) < 0

    def test_zeroes_first_nonzero_tail_component(self):
        spec = ExposureSpec((2, 1, 1))
        est = member(spec, (1, 0, 1))
        assert est.support() == {(2, 0, 1), (1, 0, 1), (1, 0, 0), (0, 0, 0)}

    def test_unbiased_under_random_probs(self):
        rng = np.random.default_rng(4)
        spec = ExposureSpec((3, 2))
        for _ in range(10):
            probs = random_distribution(spec, rng)
            est = member(spec, (2, 1), probs)
            assert constraint_residuals(spec, probs.vector, est.vector)[0] < 1e-12


class TestZeroEstimators:
    def test_counts(self):
        assert len(build_zero_estimators(ExposureSpec((3, 1)))) == 0
        assert zero_count(ExposureSpec((3, 1))) == 0
        assert zero_count(ExposureSpec((1, 1, 1))) == 1

    def test_three_component_support(self):
        spec = ExposureSpec((1, 1, 1))
        (zero,) = build_zero_estimators(spec)
        assert zero.support() == {(0, 1, 1), (0, 1, 0), (0, 0, 1), (0, 0, 0)}

    def test_zero_expectation_under_random_probs(self):
        rng = np.random.default_rng(5)
        spec = ExposureSpec((2, 1, 2))
        for _ in range(10):
            probs = random_distribution(spec, rng)
            for zero in build_zero_estimators(spec, probs):
                assert constraint_residuals(spec, probs.vector, zero.vector, 0.0)[0] < 1e-12


class TestMalueSet:
    def test_counts_match_closed_form(self):
        assert len(build_malue_set(ExposureSpec((3, 1)))) == malue_count(ExposureSpec((3, 1))) == 4
        assert len(build_malue_set(ExposureSpec((1,)))) == 1
        assert len(build_malue_set(ExposureSpec((1, 1, 1)))) == 4

    def test_every_member_unbiased_under_random_probs(self):
        rng = np.random.default_rng(6)
        for levels in [(3, 1), (2, 2), (2, 1, 1)]:
            spec = ExposureSpec(levels)
            probs = random_distribution(spec, rng)
            for est in build_malue_set(spec, probs):
                assert constraint_residuals(spec, probs.vector, est.vector)[0] < 1e-11

    def test_monotone_support(self):
        """Each atomic member's support chains with all components non-increasing."""
        for levels in [(3, 1), (2, 2), (2, 1, 1), (4, 3)]:
            spec = ExposureSpec(levels)
            for est in build_malue_set(spec):
                chain = sorted(est.support(), key=lambda e: sum(e), reverse=True)
                for upper, lower in zip(chain, chain[1:]):
                    assert all(u >= l for u, l in zip(upper, lower))


class TestAffineBasis:
    def test_example_counts(self):
        spec = ExposureSpec((3, 1))
        basis = build_affine_basis(spec)
        assert len(basis) == basis_count(spec) == 4
        assert affine_rank(basis) == 4
        assert lue_dimension(spec) == 3

    def test_three_component_counts(self):
        spec = ExposureSpec((1, 1, 1))
        basis = build_affine_basis(spec)
        assert len(basis) == 5
        assert affine_rank(basis) == 5
        assert lue_dimension(spec) == 4

    def test_sutva_unique_estimator(self):
        spec = ExposureSpec((1,))
        basis = build_affine_basis(spec)
        assert len(basis) == 1
        assert lue_dimension(spec) == 0

    def test_rank_under_random_distributions(self):
        rng = np.random.default_rng(7)
        for levels in [(3, 1), (2, 2), (2, 1, 1)]:
            spec = ExposureSpec(levels)
            probs = random_distribution(spec, rng)
            basis = build_affine_basis(spec, probs)
            assert affine_rank(basis) == basis_count(spec)

    def test_fast_certificate_agrees_with_svd(self):
        for levels in [(3, 1), (1, 1, 1), (2, 2, 1), (5, 2)]:
            basis = build_affine_basis(ExposureSpec(levels))
            assert affine_rank_is_full(basis)
            assert affine_rank(basis) == len(basis)

    def test_array_matches_member_by_member_reference(self):
        """Bit-equal weights, names and order under uniform and random probabilities.

        The list builders are a read-only view of the array, and a mapping
        lands in canonical order whatever order it is given in.
        """
        rng = np.random.default_rng(9)
        for levels in specs_up_to(64):
            spec = ExposureSpec(levels)
            for probs in (None, random_distribution(spec, rng)):
                names, rows = reference_basis(spec, probs or uniform_distribution(spec))
                weights = np.asarray(build_affine_basis(spec, probs))
                assert weights.tobytes() == rows.tobytes(), levels
                basis = build_affine_basis(spec, probs)
                assert [b.name for b in basis] == names, levels
                assert np.asarray(basis).tobytes() == weights.tobytes(), levels
                member = basis[-1]
                with pytest.raises(ValueError, match="read-only"):
                    member.vector[0] = 1.0
                reversed_mapping = dict(zip(enumerate_exposures(spec)[::-1], rows[-1][::-1]))
                again = LinearEstimator(spec, reversed_mapping)
                assert again.vector.tobytes() == rows[-1].tobytes(), levels
                atomic, zero = basis_identifiers(spec)
                assert (len(atomic), len(zero)) == (malue_count(spec), zero_count(spec))

    def test_layout_matches_grid_oracle(self):
        """Byte-equal ids, rows, cols and signs, dtypes included, and the same atomic count."""
        for levels in specs_up_to(256) + [(d, 1) for d in range(1, 301)]:
            ids, atomic, *arrays = _layout(levels)
            want_ids, want_atomic, *want = grid_layout(levels)
            assert atomic == want_atomic, levels
            for got, expected in zip([ids] + arrays, [want_ids] + want):
                assert got.dtype == expected.dtype, levels
                assert got.tobytes() == expected.tobytes(), levels
                assert not got.flags.writeable, levels

    def test_layout_terms_are_distinct_and_in_range(self):
        """No (member, column) pair twice, every column an exposure, every sign nonzero.

        The array scatter assigns and a member's ``bincount`` adds, so they
        agree, and the certificate reads the array's pattern, only if no pair
        repeats.
        """
        for levels in specs_up_to(256) + [(d, 1) for d in range(1, 301)]:
            ids, _, rows, cols, signs = _layout(levels)
            size = ExposureSpec(levels).num_exposures
            assert ((cols >= 0) & (cols < size)).all(), levels
            assert np.unique(rows * size + cols).size == len(rows), levels
            assert (signs != 0).all(), levels

    def test_basis_weights_bytes_are_pinned(self):
        """One sha256 over the uniform basis arrays of every spec with at most 256 exposures."""
        digest = hashlib.sha256()
        for levels in specs_up_to(256):
            digest.update(np.asarray(build_affine_basis(ExposureSpec(levels))).tobytes())
        assert digest.hexdigest() == (
            "5815b1800713835bd94583149de6b22a0e61d266e14fffd9642f13eff220d5c2")

    def test_array_conversion_follows_the_numpy_contract(self):
        """``dtype`` is honoured, and ``copy=False`` raises because every conversion is new."""
        basis = build_affine_basis(ExposureSpec((2, 2, 1)))
        weights = np.asarray(basis)
        assert weights.flags.writeable
        single = np.asarray(basis, dtype=np.float32)
        assert single.dtype == np.float32
        assert single.tobytes() == weights.astype(np.float32).tobytes()
        with pytest.raises(ValueError, match="new array"):
            np.array(basis, copy=False)

    def test_indexing_matches_the_array(self):
        """Negative positions count from the end; any position out of range raises IndexError."""
        basis = build_affine_basis(ExposureSpec((2, 2, 1)))
        weights = np.asarray(basis)
        for position in (0, 7, -1, -len(basis)):
            assert basis[position].vector.tobytes() == weights[position].tobytes()
        assert basis[-1].name == basis[len(basis) - 1].name
        for position in (len(basis), -len(basis) - 1):
            with pytest.raises(IndexError):
                basis[position]

    def test_single_members_are_rows_of_the_array(self):
        """The member at an identifier's position is the row named after that exposure."""
        spec = ExposureSpec((2, 1, 1))
        basis = build_affine_basis(spec)
        for e, row, name in [((2, 1, 0), 5, "two_term(1, 0)"),
                             ((1, 0, 1), 1, "four_term(1, 0, 1)"),
                             ((0, 1, 1), -1, "zero(0, 1, 1)")]:
            assert member(spec, e).weights == basis[row].weights
            assert member(spec, e).name == basis[row].name == name


class TestRankCertificate:
    """The certificate must refuse what is not a basis, as an array and as estimators."""

    spec = ExposureSpec((2, 2, 1))

    @pytest.fixture
    def fallbacks(self, monkeypatch):
        """The number of rows of each basis that the certificate sends to the SVD."""
        calls = []

        def spy(matrix, *args, **kwargs):
            calls.append(len(matrix))
            return matrix_rank(matrix, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "matrix_rank", spy)
        return calls

    def forms(self, weights):
        basis = [LinearEstimator(self.spec, dict(zip(enumerate_exposures(self.spec), row)))
                 for row in weights]
        rows, cols = np.nonzero(weights)
        ids = np.concatenate(basis_identifiers(self.spec))
        terms = EstimatorRows(self.spec, rows, cols, weights[rows, cols], ids)
        return (weights, self.spec), (basis, self.spec), (terms, self.spec)

    def test_full_basis_needs_no_fallback(self, fallbacks):
        for args in self.forms(np.asarray(build_affine_basis(self.spec))):
            assert affine_rank_is_full(*args)
        assert fallbacks == []

    def test_duplicated_row_is_rejected(self, fallbacks):
        weights = np.asarray(build_affine_basis(self.spec))
        weights[3] = weights[2]
        for args in self.forms(weights):
            assert not affine_rank_is_full(*args)
        assert len(fallbacks) == 3

    def test_zeroed_rows(self, fallbacks):
        """A zero row fails the triangular test; the SVD then decides.

        The origin is affinely independent of linearly independent rows, so one
        zero row still leaves full affine rank; two zero rows coincide.
        """
        weights = np.asarray(build_affine_basis(self.spec))
        weights[0] = 0.0
        for args in self.forms(weights):
            assert affine_rank_is_full(*args) == (affine_rank(weights) == len(weights))
        weights[7] = 0.0
        for args in self.forms(weights):
            assert not affine_rank_is_full(*args)
        assert len(fallbacks) == 6

    def test_row_zero_only_off_the_identifiers_falls_back(self, fallbacks):
        """Row 0 vanishes on every identifier column but not elsewhere.

        No term lies on an earlier member's identifier, so only the missing
        term on its own identifier sends it to the SVD.
        """
        weights = np.asarray(build_affine_basis(self.spec))
        ids = np.concatenate(basis_identifiers(self.spec))
        assert ids[0] == 0
        outside = np.setdiff1d(np.arange(self.spec.num_exposures), ids)
        weights[0] = 0.0
        weights[0, outside[0]] = 1.0
        for args in self.forms(weights):
            assert affine_rank_is_full(*args) == (affine_rank(weights) == len(weights))
        assert len(fallbacks) == 3

    def test_nonzero_diagonal_alone_is_not_enough(self, fallbacks):
        """Row 5 becomes the affine combination 2 w_0 - w_1, nonzero on its diagonal."""
        weights = np.asarray(build_affine_basis(self.spec))
        weights[5] = 2 * weights[0] - weights[1]
        ids = np.concatenate(basis_identifiers(self.spec))
        assert np.diagonal(weights[:, ids]).all()
        for args in self.forms(weights):
            assert not affine_rank_is_full(*args)
        assert len(fallbacks) == 3

    def test_permuted_basis_is_accepted_through_the_fallback(self, fallbacks):
        weights = np.asarray(build_affine_basis(self.spec))[::-1].copy()
        for args in self.forms(weights):
            assert affine_rank_is_full(*args)
        assert len(fallbacks) == 3

    def test_verify_sweep_certifies_through_the_public_binding(self, monkeypatch):
        calls = []

        def spy(weights, spec):
            calls.append(spec.levels)
            return affine_rank_is_full(weights, spec)

        monkeypatch.setattr(lue.verify, "affine_rank_is_full", spy)
        assert check_basis_ranks() == (True, "")
        assert calls == specs_up_to(256)

    def test_sweep_and_joined_sets_certify_without_an_array(self, monkeypatch):
        """The sweep and ``malues + zeros`` are certified on their terms alone."""

        def no_array(self, dtype=None, copy=None):
            raise AssertionError("the certificate built a weight array")

        def spy(basis, spec):
            assert isinstance(basis, EstimatorRows)
            return affine_rank_is_full(basis, spec)

        monkeypatch.setattr(EstimatorRows, "__array__", no_array)
        monkeypatch.setattr(lue.verify, "affine_rank_is_full", spy)
        assert check_basis_ranks() == (True, "")
        for levels in specs_up_to(64):
            spec = ExposureSpec(levels)
            assert affine_rank_is_full(build_malue_set(spec) + build_zero_estimators(spec))

    def test_joined_copies_of_a_basis_are_rejected(self, fallbacks):
        """Each identifier appears twice; only the SVD can decide, and it refuses."""
        basis = build_affine_basis(ExposureSpec((3, 2)))
        assert not affine_rank_is_full(basis + basis)
        assert fallbacks == [2 * len(basis)]


class TestLueDimension:
    def test_examples(self):
        assert lue_dimension(ExposureSpec((3, 1))) == 3
        assert lue_dimension(ExposureSpec((1,))) == 0
        assert lue_dimension(ExposureSpec((1, 1))) == 1

    def test_matches_basis_size_minus_one(self):
        for levels in specs_up_to(64):
            spec = ExposureSpec(levels)
            assert lue_dimension(spec) == basis_count(spec) - 1


class TestDecomposeInBasis:
    def test_basis_member_is_unit_vector(self):
        spec = ExposureSpec((3, 1))
        probs = uniform_distribution(spec)
        basis = build_affine_basis(spec, probs)
        coeffs = decompose_in_basis(basis[1], basis, probs)
        expected = np.zeros(len(basis))
        expected[1] = 1.0
        np.testing.assert_allclose(coeffs, expected, atol=1e-10)

    def test_average_of_two_term_estimators(self):
        spec = ExposureSpec((3, 1))
        probs = uniform_distribution(spec)
        basis = build_affine_basis(spec, probs)
        # canonical order: four-term (2,1), four-term (1,1), two-term (3,1), two-term (3,0)
        avg_weights = {}
        for est, scale in ((basis[2], 0.5), (basis[3], 0.5)):
            for e, w in est.weights.items():
                avg_weights[e] = avg_weights.get(e, 0.0) + scale * w
        avg = LinearEstimator(spec, avg_weights)
        coeffs = decompose_in_basis(avg, basis, probs)
        np.testing.assert_allclose(coeffs, [0.0, 0.0, 0.5, 0.5], atol=1e-10)

    def test_random_lues_decompose(self):
        """Unbiased members carry the estimand: their coefficients sum to one."""
        rng = np.random.default_rng(8)
        for levels in [(3, 1), (2, 1, 1), (2, 2)]:
            spec = ExposureSpec(levels)
            probs = random_distribution(spec, rng)
            basis = build_affine_basis(spec, probs)
            n_unbiased = malue_count(spec)
            for _ in range(20):
                est = sample_random_lue(spec, probs, rng)
                coeffs = decompose_in_basis(est, basis, probs)
                assert coeffs[:n_unbiased].sum() == pytest.approx(1.0, abs=1e-9)

    def test_zero_member_rejected_as_input(self):
        spec = ExposureSpec((1, 1, 1))
        probs = uniform_distribution(spec)
        basis = build_affine_basis(spec, probs)
        with pytest.raises(ValueError, match="not unbiased"):
            decompose_in_basis(basis[-1], basis, probs)

    def test_rejects_biased_input(self):
        spec = ExposureSpec((2, 1))
        probs = uniform_distribution(spec)
        basis = build_affine_basis(spec, probs)
        biased = LinearEstimator(spec, {(2, 1): 1.0})
        with pytest.raises(ValueError, match="not unbiased"):
            decompose_in_basis(biased, basis, probs)


SPEC_3_1 = ExposureSpec((3, 1))


class TestInputChecks:
    @pytest.mark.parametrize("call, message", [
        (lambda: LinearEstimator(ExposureSpec((2, 1)), np.ones(5)),
         r"^need 6 weights, got shape \(5,\)$"),
        (lambda: build_malue_set(ExposureSpec((2, 1)))
         + build_zero_estimators(ExposureSpec((2, 2))),
         r"^cannot join estimators of levels \(2, 1\) and \(2, 2\)$"),
        (lambda: decompose_in_basis(build_affine_basis(SPEC_3_1)[1], [
            build_affine_basis(SPEC_3_1)[1], LinearEstimator(SPEC_3_1, {(3, 1): 1.0}, "stray")]),
         "^basis member stray is neither unbiased nor zero-expectation$"),
        (lambda: decompose_in_basis(build_affine_basis(SPEC_3_1)[2],
                                    [build_affine_basis(SPEC_3_1)[3]]),
         r"^decomposition residual \S+ exceeds 1\.0e-08$"),
    ], ids=["weight_length", "join_specs", "stray_member", "fit_residual"])
    def test_rejected_input_is_named(self, call, message):
        with pytest.raises(ValueError, match=message):
            call()

    def test_empty_support_is_invalid(self):
        check = check_support_condition([], SPEC_3_1, uniform_distribution(SPEC_3_1))
        assert not check and check.reason == "empty support"


class TestSupportCondition:
    def setup_method(self):
        self.spec = ExposureSpec((3, 1))
        self.probs = uniform_distribution(self.spec)

    def test_two_term_supports_valid(self):
        for z in (0, 1):
            check = check_support_condition([(3, z), (0, z)], self.spec, self.probs)
            assert check.valid

    def test_four_term_support_invalid(self):
        check = check_support_condition([(3, 1), (1, 1), (1, 0), (0, 0)],
                                        self.spec, self.probs)
        assert not check.valid
        assert "(3, 0)" in check.reason

    def test_six_term_support_valid(self):
        support = [(0, 0), (0, 1), (1, 0), (1, 1), (3, 0), (3, 1)]
        assert check_support_condition(support, self.spec, self.probs).valid

    def test_unsolvable_support_invalid(self):
        # baseline alone cannot carry an unbiased estimator
        check = check_support_condition([(0, 0)], self.spec, self.probs)
        assert not check.valid
        assert "no unbiased estimator" in check.reason

    def test_span_test_matches_per_exposure_fits(self):
        """One fit of all outside indicators names the offender a fit per exposure finds first."""
        rng = np.random.default_rng(4)
        for levels in [(3, 1), (2, 2), (1, 1, 1), (2, 1, 1)]:
            spec = ExposureSpec(levels)
            exposures = enumerate_exposures(spec)
            for _ in range(30):
                probs = random_distribution(spec, rng)
                size = int(rng.integers(1, spec.num_exposures + 1))
                support = [exposures[i] for i in rng.choice(len(exposures), size, replace=False)]
                check = check_support_condition(support, spec, probs)
                if check.reason == "no unbiased estimator with this support":
                    continue
                span = indicator_matrix(spec)[:, exposure_columns(spec, support)]
                first = None
                for e, v in zip(exposures, indicator_matrix(spec).T):
                    fit, *_ = np.linalg.lstsq(span, v, rcond=None)
                    if e not in support and np.abs(span @ fit - v).max() < 1e-10:
                        first = e
                        break
                assert check.valid == (first is None), support
                if first is not None:
                    assert check.reason == f"indicator of exposure {first} lies in the support span"


class TestSerialization:
    def test_text_roundtrip(self):
        """Parsing the text lines gives back every nonzero weight, bit for bit."""
        spec = ExposureSpec((3, 1))
        est = member(spec, (1, 1))
        again = {}
        for line in est.to_text().split("\n"):
            exposure, weight = line.split("\t")
            again[tuple(int(v) for v in exposure.split(","))] = float(weight)
        assert again == est.weights
        assert LinearEstimator(spec, again).vector.tobytes() == est.vector.tobytes()

    def test_text_format(self):
        spec = ExposureSpec((1,))
        est = LinearEstimator(spec, {(1,): 2.0, (0,): -2.0})
        assert est.to_text() == "1\t2.0\n0\t-2.0"

    def test_drops_zero_weights(self):
        spec = ExposureSpec((1, 1))
        est = LinearEstimator(spec, {(1, 1): 0.0, (0, 0): 1.5})
        assert est.support() == {(0, 0)}
