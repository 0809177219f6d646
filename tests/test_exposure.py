"""Exposure sets, canonical ordering, the parameter layout, exposure slots."""

import ast
import dataclasses
import importlib
import pathlib
import pkgutil
import re

import numpy as np
import pytest

import lue
from lue.design import (ExposureDistribution, bernoulli_exposure_distribution,
                        bernoulli_exposure_prob, uniform_distribution)
from lue.estimators import LinearEstimator, build_affine_basis, check_support_condition
from lue.exposure import (
    EXPOSURE_LIMIT,
    ExposureSpec,
    active_parameters,
    enumerate_exposures,
    exposure_columns,
    indicator_matrix,
    target_position,
)
from lue.mivlue import PriorSpec, outcome_variance, solve_mivlue_limit, support_null_prior
from lue.networks import Network
from lue.simulation import (ExperimentConfig, NetworkConfig, OutcomeModel, clear_memos,
                            compute_imse, exposure_slots, slot_coefficients)
from lue.verify import specs_up_to


def reference_indicator_vector(spec, e):
    """Reference: the indicator vector of ``e`` built entry by entry."""
    v = np.zeros(spec.num_parameters)
    v[0] = 1.0
    offset = 1  # first position of the current component
    for value, m in zip(e, spec.levels):
        if value != 0:
            v[offset + value - 1] = 1.0
        offset += m
    return v


def indicator_column(spec, e):
    """``e``'s column of :func:`indicator_matrix`, looked up by value."""
    return indicator_matrix(spec)[:, exposure_columns(spec, [e])[0]]


def reference_exposure(network, allocation, unit):
    """Reference: ``unit``'s (treated in-degree, own treatment) under a full allocation."""
    return int(network.adjacency[:, unit] @ allocation), int(allocation[unit])


def exposures(network, allocation):
    """Every unit's exposure, decoded from the slot 2d + z that the simulation computes.

    Each must equal the unit-by-unit reference.
    """
    allocation = np.asarray(allocation)
    units = np.arange(network.n)
    slots = exposure_slots(allocation[None, :], slot_coefficients(network, units))[0]
    decoded = [(int(slot) // 2, int(slot) % 2) for slot in slots]
    assert decoded == [reference_exposure(network, allocation, unit) for unit in units]
    return decoded


def three_cycle():
    # 0 -> 1 -> 2 -> 0
    a = np.zeros((3, 3), dtype=int)
    a[0, 1] = a[1, 2] = a[2, 0] = 1
    return Network(a)


class TestExposureSpec:
    def test_counts(self):
        spec = ExposureSpec((3, 1))
        assert len(spec.levels) == 2
        assert spec.num_exposures == 8
        assert spec.num_parameters == 5

    def test_rejects_bad_levels(self):
        with pytest.raises(ValueError):
            ExposureSpec(())
        with pytest.raises(ValueError):
            ExposureSpec((2, 0))

    @pytest.mark.parametrize("levels, bad", [((2.7, 1), "2.7"), ((2, 1.0), "1.0"),
                                             ((True,), "True"), ((2, np.bool_(True)), "True"),
                                             ((np.float64(3.0),), "3.0")])
    def test_rejects_levels_that_are_not_integers(self, levels, bad):
        """A float or bool level is named, never truncated to an integer."""
        with pytest.raises(ValueError,
                           match=f"every level must be a positive integer, got .*{bad}"):
            ExposureSpec(levels)

    def test_refuses_more_exposures_than_the_limit(self):
        """The bound is on the exposure count: 2**20 exposures pass, one more level does not."""
        assert EXPOSURE_LIMIT == 2**20
        for levels in [(2**20 - 1,), (1,) * 20, (1023, 1023)]:
            assert ExposureSpec(levels).num_exposures == EXPOSURE_LIMIT
        for levels in [(2**20,), (1,) * 21, (1023, 1024), (10**400, 1)]:
            with pytest.raises(ValueError, match="the levels give more than 1,048,576 exposures"):
                ExposureSpec(levels)

    def test_accepts_numpy_integer_levels(self):
        spec = ExposureSpec((np.int64(3), np.int32(1)))
        assert spec.levels == (3, 1)
        assert all(type(m) is int for m in spec.levels)

    def test_validate_exposure(self):
        spec = ExposureSpec((2, 1))
        assert spec.validate_exposure((2, 1)) == (2, 1)
        assert spec.validate_exposure(np.array([1, 0])) == (1, 0)
        with pytest.raises(ValueError):
            spec.validate_exposure((3, 0))
        with pytest.raises(ValueError):
            spec.validate_exposure((1,))


SPEC_2_1 = ExposureSpec((2, 1))


class TestExposureLookup:
    """Every way into an exposure set looks an exposure up by value."""

    @pytest.mark.parametrize("e, member", [
        (np.array([1, 0]), (1, 0)), ((np.int64(1), np.int32(0)), (1, 0)), ((1.0, 0), (1, 0)),
        (np.array([1.0, 0.0]), (1, 0)), ((True, False), (1, 0)), ((2.0, 1), (2, 1))])
    def test_an_equal_exposure_is_its_member(self, e, member):
        found = SPEC_2_1.validate_exposure(e)
        assert found == member and all(type(v) is int for v in found)
        assert exposure_columns(SPEC_2_1, [e]) == [enumerate_exposures(SPEC_2_1).index(member)]
        probs = uniform_distribution(SPEC_2_1)
        assert probs[e] == probs[member]
        prior = PriorSpec(np.eye(SPEC_2_1.num_parameters))
        assert outcome_variance(prior, SPEC_2_1, e) == outcome_variance(prior, SPEC_2_1, member)
        assert LinearEstimator(SPEC_2_1, {tuple(e): 3.0}).weight(member) == 3.0
        assert LinearEstimator(SPEC_2_1, {member: 3.0}).weight(e) == 3.0

    @pytest.mark.parametrize("call, bad", [
        (lambda: SPEC_2_1.validate_exposure((2.7, True)), "(2.7, True)"),
        (lambda: LinearEstimator(SPEC_2_1, {(1.9, 0): 1.0}), "(1.9, 0)"),
        (lambda: ExposureDistribution(SPEC_2_1, {(0.5, 0): 1.0}), "(0.5, 0)"),
        (lambda: uniform_distribution(SPEC_2_1)[(1.5, 1)], "(1.5, 1)"),
        (lambda: LinearEstimator(SPEC_2_1, {(2, 1): 1.0}).as_vector([(2, 1), (0.5, 0)]),
         "(0.5, 0)"),
        (lambda: check_support_condition([(2.2, 0), (0, 0)], SPEC_2_1,
                                         uniform_distribution(SPEC_2_1)), "(2.2, 0)"),
        (lambda: solve_mivlue_limit(SPEC_2_1, uniform_distribution(SPEC_2_1),
                                    [(2, 0), (2.2, 0), (0, 0)]), "(2.2, 0)"),
        (lambda: support_null_prior(SPEC_2_1, [(0, 0), (1, 0.5)]), "(1, 0.5)"),
        (lambda: outcome_variance(PriorSpec(np.eye(4)), SPEC_2_1, (1.5, 0)), "(1.5, 0)"),
        (lambda: exposure_columns(SPEC_2_1, [(1, 1, 0)]), "(1, 1, 0)"),
        (lambda: bernoulli_exposure_prob(3, (1.5, 0), 0.5), "(1.5, 0)"),
    ], ids=["validate", "estimator_mapping", "pmf_mapping", "pmf_item", "as_vector",
            "support_condition", "limit_support", "null_prior", "outcome_variance",
            "columns", "bernoulli_prob"])
    def test_an_exposure_equal_to_no_member_is_refused_by_name(self, call, bad):
        """A fractional component is refused, never truncated to a neighbouring member."""
        with pytest.raises(ValueError, match=re.escape(f"exposure {bad} is outside the set")):
            call()

    def test_weight_is_zero_outside_the_set(self):
        est = LinearEstimator(SPEC_2_1, np.ones(SPEC_2_1.num_exposures))
        assert est.weight((1, 0)) == 1.0
        assert est.weight((1.5, 0)) == 0.0 and est.weight((3, 0)) == 0.0

    def test_bernoulli_prob_reads_the_member(self):
        """An equal exposure gives its member's mass."""
        assert bernoulli_exposure_prob(1, (0.0, True), 0.5) == 0.25
        mass = bernoulli_exposure_distribution(3, 0.3)[(1, 0)]
        for e in [(1, 0), (1.0, 0), np.array([1, 0]), (np.int64(1), False)]:
            assert bernoulli_exposure_prob(3, e, 0.3) == mass


def test_only_the_exposure_module_reads_the_position_table():
    """``exposure_positions`` is read in ``exposure.py`` alone; every other module
    goes through :func:`exposure_columns`, so an exposure is located one way."""
    sites = set()
    for path in sorted(pathlib.Path(lue.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name) and node.id == "exposure_positions":
                sites.add(path.name)
            elif isinstance(node, ast.alias) and node.name == "exposure_positions":
                sites.add(path.name)
    assert sites == {"exposure.py"}


class TestEnumerateExposures:
    def test_smallest_spec(self):
        assert enumerate_exposures(ExposureSpec((1,))) == [(1,), (0,)]

    def test_two_binary_components(self):
        assert enumerate_exposures(ExposureSpec((1, 1))) == [(1, 1), (1, 0), (0, 1), (0, 0)]

    def test_group_sizes_and_order(self):
        order = enumerate_exposures(ExposureSpec((3, 1)))
        assert len(order) == 8
        first_components = [e[0] for e in order]
        # intermediate values first (4 of them), then the maximum (2), then 0 (2)
        assert first_components[:4] == [2, 1, 2, 1]
        assert first_components[4:6] == [3, 3]
        assert first_components[6:] == [0, 0]
        assert order[:4] == [(2, 1), (1, 1), (2, 0), (1, 0)]

    def test_three_components(self):
        assert enumerate_exposures(ExposureSpec((2, 1, 1))) == [
            (1, 1, 1), (1, 0, 1), (1, 1, 0), (1, 0, 0),
            (2, 1, 1), (2, 0, 1), (2, 1, 0), (2, 0, 0),
            (0, 1, 1), (0, 0, 1), (0, 1, 0), (0, 0, 0),
        ]

    def test_bijection_over_family(self):
        """Every spec up to the size budget enumerates each exposure exactly once."""
        for levels in specs_up_to(256):
            spec = ExposureSpec(levels)
            exposures = enumerate_exposures(spec)
            assert len(exposures) == spec.num_exposures
            assert len(set(exposures)) == spec.num_exposures
            assert all(spec.validate_exposure(e) == e for e in exposures)


def test_per_spec_caches_are_bounded():
    """A sweep over thousands of specs keeps a bounded number of them cached.

    Every ``functools`` memo of ``lue`` is found by its ``cache_info`` in each
    module of the package, so a new one is checked too.  Each is bounded, and
    once all are filled, ``clear_memos`` empties each one and the stream cursors.
    """
    modules = [lue, *(importlib.import_module(f"lue.{info.name}")
                      for info in pkgutil.iter_modules(lue.__path__))]
    memos = list({id(value): value for module in modules for value in vars(module).values()
                  if hasattr(value, "cache_info")}.values())
    assert sorted(memo.__name__ for memo in memos) == sorted([
        "_network_point", "_entry_layout", "bernoulli_slot_pmf", "bernoulli_exposure_distribution",
        "uniform_distribution", "_layout", "_canonical_exposures", "exposure_positions",
        "active_parameters", "indicator_matrix"])
    for cached in memos:
        assert cached.cache_info().maxsize is not None, cached.__name__
    spec = ExposureSpec((2, 1))
    build_affine_basis(spec, uniform_distribution(spec))
    indicator_matrix(spec)
    compute_imse(ExperimentConfig(NetworkConfig("k_regular", 6, k=2), OutcomeModel("independent"),
                                  num_draws=1))
    assert all(cached.cache_info().currsize for cached in memos) and lue.simulation._cursors
    clear_memos()
    assert not any(cached.cache_info().currsize for cached in memos)
    assert not lue.simulation._cursors


class TestParameterIndexing:
    def test_positions_are_a_bijection(self):
        """Each component level owns one parameter position, and the baseline owns 0."""
        spec = ExposureSpec((2, 3, 1))
        positions, mask = active_parameters(spec)
        assert (positions[:, 0] == 0).all() and mask[:, 0].all()
        position_of, level_of = {}, {}
        for e, row, on in zip(enumerate_exposures(spec), positions[:, 1:], mask[:, 1:]):
            for k, (value, position, active) in enumerate(zip(e, row.tolist(), on)):
                assert active == (value > 0)
                if active:
                    assert position_of.setdefault((k, value), position) == position
                    assert level_of.setdefault(position, (k, value)) == (k, value)
        assert len(position_of) == sum(spec.levels)
        assert sorted(level_of) == list(range(1, spec.num_parameters))

    def test_target_is_first_component_max(self):
        """Row m_1 of the indicator matrix marks exactly the exposures with e_1 = m_1."""
        for levels in [(3, 1), (1, 2), (2, 3, 1)]:
            spec = ExposureSpec(levels)
            assert target_position(spec) == levels[0]
            first = np.array(enumerate_exposures(spec))[:, 0]
            np.testing.assert_array_equal(indicator_matrix(spec)[levels[0]], first == levels[0])


class TestIndicatorVector:
    def test_baseline_only(self):
        spec = ExposureSpec((3, 1))
        v = indicator_column(spec, (0, 0))
        assert v[0] == 1.0 and v.sum() == 1.0

    def test_full_exposure(self):
        spec = ExposureSpec((3, 1))
        v = indicator_column(spec, (3, 1))
        expected = np.zeros(5)
        expected[[0, 3, 4]] = 1.0  # baseline, component 1 level 3, component 2 level 1
        np.testing.assert_array_equal(v, expected)

    def test_three_components(self):
        spec = ExposureSpec((1, 1, 1))
        v = indicator_column(spec, (0, 1, 1))
        expected = np.zeros(4)
        expected[[0, 2, 3]] = 1.0
        np.testing.assert_array_equal(v, expected)

    def test_columns_of_indicator_matrix(self):
        """The entry-by-entry reference checks the cached matrix, column by column."""
        for levels in specs_up_to(64):
            spec = ExposureSpec(levels)
            expected = [reference_indicator_vector(spec, e) for e in enumerate_exposures(spec)]
            np.testing.assert_array_equal(indicator_matrix(spec), np.array(expected).T)

    def test_matrix_is_read_only(self):
        """The cached matrix is shared by every caller, so no caller may write to it."""
        matrix = indicator_matrix(ExposureSpec((3, 1)))
        with pytest.raises(ValueError, match="read-only"):
            matrix[0, 0] = 7.0

    def test_number_of_ones(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            levels = tuple(rng.integers(1, 4, size=rng.integers(1, 5)))
            spec = ExposureSpec(levels)
            e = tuple(int(rng.integers(m + 1)) for m in levels)
            ones = indicator_column(spec, e).sum()
            assert ones == 1 + sum(1 for v in e if v != 0)

    def test_additivity_identity(self):
        """v_e - v_e' = v_(e-e') - v_0 whenever e dominates e' componentwise."""
        rng = np.random.default_rng(1)
        for _ in range(100):
            levels = tuple(rng.integers(1, 4, size=rng.integers(1, 4)))
            spec = ExposureSpec(levels)
            e = tuple(int(rng.integers(m + 1)) for m in levels)
            e_small = tuple(int(rng.integers(v + 1)) if v else 0 for v in e)
            diff = tuple(a - b for a, b in zip(e, e_small))
            # the identity needs matching nonzero levels to cancel exactly
            if any(b and a != b for a, b in zip(e, e_small)):
                continue
            lhs = indicator_column(spec, e) - indicator_column(spec, e_small)
            rhs = indicator_column(spec, diff) - indicator_column(spec, (0,) * len(levels))
            np.testing.assert_array_equal(lhs, rhs)


class TestExposureMappings:
    def test_network_interference_on_cycle(self):
        net = three_cycle()
        z = np.array([1, 1, 0])
        # unit 0's only in-neighbor is unit 2, untreated
        assert exposures(net, z) == [(0, 1), (1, 1), (1, 0)]

    def test_invariant_to_non_in_neighbors(self):
        """Treated-degree exposure only moves with the unit's in-neighborhood."""
        rng = np.random.default_rng(2)
        n = 8
        a = (rng.random((n, n)) < 0.3).astype(int)
        np.fill_diagonal(a, 0)
        net = Network(a)
        for _ in range(50):
            z = rng.integers(0, 2, size=n)
            unit = int(rng.integers(n))
            non_neighbors = [j for j in range(n) if j != unit and a[j, unit] == 0]
            if not non_neighbors:
                continue
            z2 = z.copy()
            flip = rng.choice(non_neighbors)
            z2[flip] = 1 - z2[flip]
            e1 = exposures(net, z)[unit]
            e2 = exposures(net, z2)[unit]
            if flip == unit:
                continue
            assert e1 == e2


def test_num_exposures_is_kept_out_of_equality_hash_and_repr():
    """Stored once per spec, the size leaves a spec compared, hashed and shown by its levels."""
    spec = ExposureSpec((3, 1))
    assert spec.num_exposures == 8 and ExposureSpec([3, 2]).num_exposures == 12
    assert spec == ExposureSpec([3, 1]) and spec != ExposureSpec((3, 2))
    assert hash(spec) == hash(ExposureSpec((3, 1))) == hash(((3, 1),))
    assert repr(spec) == "ExposureSpec(levels=(3, 1))"
    with pytest.raises(dataclasses.FrozenInstanceError):
        spec.num_exposures = 9
