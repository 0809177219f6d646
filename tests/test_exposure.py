"""Exposure sets, canonical ordering, parameter indexing, exposure mappings."""

import numpy as np
import pytest

from lue.design import uniform_distribution
from lue.exposure import (
    ExposureSpec,
    ParameterIndex,
    _canonical_exposures,
    _canonical_indicator_matrix,
    apply_exposure_mapping,
    enumerate_exposures,
    exposure_positions,
    indicator_vector,
    parameter_order,
    parameter_position,
    remap_exposures,
    target_position,
)
from lue.networks import Network
from lue.verify import specs_up_to


def three_cycle():
    # 0 -> 1 -> 2 -> 0
    a = np.zeros((3, 3), dtype=int)
    a[0, 1] = a[1, 2] = a[2, 0] = 1
    return Network(a)


class TestExposureSpec:
    def test_counts(self):
        spec = ExposureSpec((3, 1))
        assert spec.num_components == 2
        assert spec.num_exposures == 8
        assert spec.num_parameters == 5

    def test_rejects_bad_levels(self):
        with pytest.raises(ValueError):
            ExposureSpec(())
        with pytest.raises(ValueError):
            ExposureSpec((2, 0))

    def test_validate_exposure(self):
        spec = ExposureSpec((2, 1))
        assert spec.validate_exposure((2, 1)) == (2, 1)
        assert spec.validate_exposure(np.array([1, 0])) == (1, 0)
        with pytest.raises(ValueError):
            spec.validate_exposure((3, 0))
        with pytest.raises(ValueError):
            spec.validate_exposure((1,))


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
            assert all(spec.contains(e) for e in exposures)


def test_per_spec_caches_are_bounded():
    """A sweep over thousands of specs keeps a bounded number of them cached."""
    for cached in (_canonical_exposures, exposure_positions, _canonical_indicator_matrix,
                   uniform_distribution):
        assert cached.cache_info().maxsize is not None, cached.__name__


class TestParameterIndexing:
    def test_baseline_first(self):
        spec = ExposureSpec((3, 1))
        order = parameter_order(spec)
        assert order[0] == ParameterIndex("baseline")
        assert order[1] == ParameterIndex("effect", 1, 1)
        assert order[4] == ParameterIndex("effect", 2, 1)
        assert len(order) == spec.num_parameters

    def test_positions_are_a_bijection(self):
        spec = ExposureSpec((2, 3, 1))
        seen = {0}
        for k, m in enumerate(spec.levels, start=1):
            for j in range(1, m + 1):
                pos = parameter_position(spec, k, j)
                assert pos not in seen
                seen.add(pos)
        assert seen == set(range(spec.num_parameters))

    def test_target_is_first_component_max(self):
        spec = ExposureSpec((3, 1))
        assert target_position(spec) == parameter_position(spec, 1, 3) == 3

    def test_out_of_range(self):
        spec = ExposureSpec((2, 1))
        with pytest.raises(ValueError):
            parameter_position(spec, 3, 1)
        with pytest.raises(ValueError):
            parameter_position(spec, 1, 3)


class TestIndicatorVector:
    def test_baseline_only(self):
        spec = ExposureSpec((3, 1))
        v = indicator_vector(spec, (0, 0))
        assert v[0] == 1.0 and v.sum() == 1.0

    def test_full_exposure(self):
        spec = ExposureSpec((3, 1))
        v = indicator_vector(spec, (3, 1))
        expected = np.zeros(5)
        expected[[0, 3, 4]] = 1.0  # baseline, component 1 level 3, component 2 level 1
        np.testing.assert_array_equal(v, expected)

    def test_three_components(self):
        spec = ExposureSpec((1, 1, 1))
        v = indicator_vector(spec, (0, 1, 1))
        expected = np.zeros(4)
        expected[[0, 2, 3]] = 1.0
        np.testing.assert_array_equal(v, expected)

    def test_number_of_ones(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            levels = tuple(rng.integers(1, 4, size=rng.integers(1, 5)))
            spec = ExposureSpec(levels)
            e = tuple(int(rng.integers(m + 1)) for m in levels)
            ones = indicator_vector(spec, e).sum()
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
            lhs = indicator_vector(spec, e) - indicator_vector(spec, e_small)
            rhs = indicator_vector(spec, diff) - indicator_vector(spec, (0,) * len(levels))
            np.testing.assert_array_equal(lhs, rhs)


class TestExposureMappings:
    def test_sutva_reads_own_treatment(self):
        assert apply_exposure_mapping("sutva", None, (1, 0, 1), 2) == (1,)
        assert apply_exposure_mapping("sutva", None, (1, 0, 1), 1) == (0,)

    def test_network_interference_on_cycle(self):
        net = three_cycle()
        z = np.array([1, 1, 0])
        # unit 0's only in-neighbor is unit 2, untreated
        assert apply_exposure_mapping("network_interference", net, z, 0) == (0, 1)
        assert apply_exposure_mapping("network_interference", net, z, 1) == (1, 1)
        assert apply_exposure_mapping("network_interference", net, z, 2) == (1, 0)

    def test_four_exposure(self):
        net = three_cycle()
        z = np.array([1, 0, 1])
        # unit 1 is untreated with a treated in-neighbor
        assert apply_exposure_mapping("four_exposure", net, z, 1) == (0, 1)
        # unit 0's in-neighbor (unit 2) is treated and unit 0 itself is treated
        assert apply_exposure_mapping("four_exposure", net, z, 0) == (1, 1)

    def test_requires_network(self):
        with pytest.raises(ValueError, match="requires a network"):
            apply_exposure_mapping("network_interference", None, (1, 0), 0)

    def test_unit_out_of_range(self):
        with pytest.raises(ValueError, match="out of range"):
            apply_exposure_mapping("sutva", None, (1, 0), 5)

    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown exposure mapping"):
            apply_exposure_mapping("mystery", None, (1, 0), 0)

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
            e1 = apply_exposure_mapping("network_interference", net, z, unit)
            e2 = apply_exposure_mapping("network_interference", net, z2, unit)
            if flip == unit:
                continue
            assert e1 == e2


class TestRemapExposures:
    def test_moves_target_to_front_max(self):
        spec = ExposureSpec((2, 3))
        new_spec, forward = remap_exposures(spec, component=2, level=1)
        assert new_spec.levels == (3, 2)
        # the chosen level 1 becomes the maximum 3 of the front component
        assert forward((0, 1)) == (3, 0)
        assert forward((0, 3)) == (1, 0)
        assert forward((2, 2)) == (2, 2)
        assert forward((0, 0)) == (0, 0)

    def test_forward_is_a_bijection(self):
        spec = ExposureSpec((2, 3))
        _, forward = remap_exposures(spec, 2, 2)
        images = {forward(e) for e in enumerate_exposures(spec)}
        assert len(images) == spec.num_exposures

    def test_identity_when_already_canonical(self):
        spec = ExposureSpec((2, 1))
        new_spec, forward = remap_exposures(spec, 1, 2)
        assert new_spec.levels == (2, 1)
        assert forward((2, 1)) == (2, 1)
