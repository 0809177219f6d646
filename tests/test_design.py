"""Designs, exposure probabilities, and the closed-form/enumeration cross-check."""

import math
import re

import numpy as np
import pytest

from lue.design import (
    BernoulliDesign,
    ExplicitDesign,
    ExposureDistribution,
    allocation_matrix,
    bernoulli_exposure_distribution,
    bernoulli_exposure_prob,
    exposure_distribution_exact,
    uniform_distribution,
)
from lue.exposure import ExposureSpec, enumerate_exposures
from lue.networks import Network, gen_erdos_renyi_directed


def three_cycle():
    a = np.zeros((3, 3), dtype=int)
    a[0, 1] = a[1, 2] = a[2, 0] = 1
    return Network(a)


class TestBernoulliExposureProb:
    def test_half_probability_examples(self):
        assert bernoulli_exposure_prob(4, (2, 1), 0.5) == pytest.approx(0.1875, abs=1e-15)
        assert bernoulli_exposure_prob(0, (0, 1), 0.5) == pytest.approx(0.5, abs=1e-15)
        assert bernoulli_exposure_prob(2, (0, 0), 0.5) == pytest.approx(0.125, abs=1e-15)

    def test_reduces_to_symmetric_form_at_half(self):
        for degree in (1, 3, 7):
            for d in range(degree + 1):
                for z in (0, 1):
                    expected = math.comb(degree, d) * 0.5 ** (degree + 1)
                    assert bernoulli_exposure_prob(degree, (d, z), 0.5) == pytest.approx(
                        expected, rel=1e-15)

    def test_degree_out_of_range(self):
        with pytest.raises(ValueError):
            bernoulli_exposure_prob(3, (4, 0), 0.5)

    def test_log_space_matches_direct_formula(self):
        """Dense-graph path agrees with exact binomial arithmetic."""
        degree, p = 80, 0.3
        for d in (0, 10, 40, 80):
            direct = math.comb(degree, d) * p ** (d + 1) * (1 - p) ** (degree - d)
            assert bernoulli_exposure_prob(degree, (d, 1), p) == pytest.approx(direct, rel=1e-10)

    def test_distribution_sums_to_one(self):
        for degree in (1, 4, 60):
            for p in (0.5, 0.2):
                total = math.fsum(
                    bernoulli_exposure_prob(degree, (d, z), p)
                    for d in range(degree + 1) for z in (0, 1)
                )
                assert total == pytest.approx(1.0, abs=1e-10)

    def test_distribution_is_the_scalar_formula_bit_for_bit(self):
        """The array pmf equals the scalar closed form, in both the direct and log branches.

        Where a mass underflows to 0, both raise the same message, naming the
        same first exposure in canonical order.
        """
        for degree in [*range(1, 301), 323, 500, 1000, 1074]:
            spec = ExposureSpec((degree, 1))
            for p in (0.1, 0.3, 0.5, 0.77):
                try:
                    scalar = [bernoulli_exposure_prob(degree, e, p)
                              for e in enumerate_exposures(spec)]
                except ValueError as exc:
                    assert "underflows float64" in str(exc), (degree, p)
                    with pytest.raises(ValueError, match=f"^{re.escape(str(exc))}$"):
                        bernoulli_exposure_distribution(degree, p)
                    continue
                expected = ExposureDistribution(spec, scalar).vector
                actual = bernoulli_exposure_distribution(degree, p).vector
                assert actual.tobytes() == expected.tobytes(), (degree, p)

    @pytest.mark.parametrize("degree,p,exposure", [(1074, 0.5, (1074, 1)),
                                                   (323, 0.1, (323, 1))])
    def test_underflow_names_degree_and_p_treat(self, degree, p, exposure):
        """A mass that underflows float64 is reported as such, by the scalar and array paths."""
        message = f"in-degree {degree} at p_treat {p}: the mass of exposure {exposure} underflows"
        with pytest.raises(ValueError, match=re.escape(message)):
            bernoulli_exposure_distribution(degree, p)
        with pytest.raises(ValueError, match=re.escape(message)):
            bernoulli_exposure_prob(degree, exposure, p)
        assert bernoulli_exposure_distribution(degree - 1, p).vector.min() > 0
        assert bernoulli_exposure_prob(degree - 1, (degree - 1, 1), p) > 0


class TestExposureDistribution:
    def test_rejects_nonpositive(self):
        spec = ExposureSpec((1,))
        with pytest.raises(ValueError, match="probability in"):
            ExposureDistribution(spec, {(1,): 1.0, (0,): 0.0})
        with pytest.raises(ValueError, match="probability in"):
            ExposureDistribution(spec, [0.5, float("nan")])

    def test_rejects_bad_total(self):
        spec = ExposureSpec((1,))
        with pytest.raises(ValueError, match="sum to"):
            ExposureDistribution(spec, {(1,): 0.6, (0,): 0.6})

    def test_rejects_foreign_exposures(self):
        spec = ExposureSpec((1,))
        with pytest.raises(ValueError, match="outside the set"):
            ExposureDistribution(spec, {(1,): 0.5, (0,): 0.5, (2,): 0.0})

    def test_rejects_wrong_length(self):
        spec = ExposureSpec((1,))
        with pytest.raises(ValueError, match="need 2 probabilities"):
            ExposureDistribution(spec, [0.25, 0.25, 0.5])

    def test_vector_in_canonical_order(self):
        dist = bernoulli_exposure_distribution(2, 0.5)
        order = enumerate_exposures(dist.spec)
        assert list(dist) == order
        np.testing.assert_allclose(dist.vector, [dist[e] for e in order])

    def test_vector_and_mapping_agree(self):
        spec = ExposureSpec((2, 1))
        raw = np.random.default_rng(0).dirichlet(np.ones(spec.num_exposures))
        from_vector = ExposureDistribution(spec, raw)
        from_mapping = ExposureDistribution(spec, dict(zip(enumerate_exposures(spec), raw)))
        np.testing.assert_array_equal(from_vector.vector, from_mapping.vector)
        assert not from_vector.vector.flags.writeable
        raw[0] = 0.0  # the distribution keeps its own copy
        assert from_vector.vector[0] > 0

    def test_uniform(self):
        spec = ExposureSpec((3, 1))
        dist = uniform_distribution(spec)
        np.testing.assert_allclose(dist.vector, np.full(8, 0.125))


class TestExactEnumeration:
    def test_three_cycle_uniform_quarters(self):
        design = BernoulliDesign(3, 0.5)
        dist = exposure_distribution_exact(design, "network_interference", three_cycle(), 0)
        for e in [(0, 0), (0, 1), (1, 0), (1, 1)]:
            assert dist[e] == pytest.approx(0.25, abs=1e-15)

    def test_sutva_marginal(self):
        design = BernoulliDesign(4, 0.3)
        net = gen_erdos_renyi_directed(4, 0.5, seed=0)
        dist = exposure_distribution_exact(design, "sutva", net, 2)
        assert dist[(1,)] == pytest.approx(0.3, abs=1e-12)
        assert dist[(0,)] == pytest.approx(0.7, abs=1e-12)

    def test_matches_closed_form_for_degree_two(self):
        a = np.zeros((3, 3), dtype=int)
        a[1, 0] = a[2, 0] = 1  # unit 0 has in-degree 2
        net = Network(a)
        design = BernoulliDesign(3, 0.5)
        dist = exposure_distribution_exact(design, "network_interference", net, 0)
        for e in dist:
            closed = bernoulli_exposure_prob(2, e, 0.5)
            assert dist[e] == pytest.approx(closed, abs=1e-12)

    def test_degree_zero_unit_rejected(self):
        a = np.zeros((2, 2), dtype=int)
        a[0, 1] = 1
        net = Network(a)
        design = BernoulliDesign(2, 0.5)
        with pytest.raises(ValueError, match="in-degree 0"):
            exposure_distribution_exact(design, "network_interference", net, 0)

    def test_closed_form_oracle_agreement(self):
        """Binomial closed form equals brute-force enumeration on sampled graphs."""
        for n in (3, 6, 9):
            net = gen_erdos_renyi_directed(n, 0.4, seed=n)
            for p_treat in (0.5, 0.25):
                design = BernoulliDesign(n, p_treat)
                for unit in range(n):
                    degree = int(net.in_degrees[unit])
                    if degree < 1:
                        continue
                    exact = exposure_distribution_exact(
                        design, "network_interference", net, unit)
                    for e in exact:
                        assert exact[e] == pytest.approx(
                            bernoulli_exposure_prob(degree, e, p_treat), abs=1e-12)


class TestAllocations:
    def test_exhaustive_uniform(self):
        mat, weights = allocation_matrix(BernoulliDesign(2, 0.5))
        assert mat.shape == (4, 2) and len(weights) == 4
        assert all(w == pytest.approx(0.25) for w in weights)

    def test_exhaustive_normalization(self):
        _, weights = allocation_matrix(BernoulliDesign(10, 0.37))
        assert len(weights) == 1024
        assert math.fsum(weights) == pytest.approx(1.0, abs=1e-12)

    def test_enumeration_budget(self):
        with pytest.raises(ValueError, match="refusing to enumerate"):
            allocation_matrix(BernoulliDesign(21))


class TestDesigns:
    def test_bernoulli_validation(self):
        with pytest.raises(ValueError):
            BernoulliDesign(3, 0.0)
        with pytest.raises(ValueError):
            BernoulliDesign(0, 0.5)

    def test_bernoulli_allocation_probability(self):
        design = BernoulliDesign(3, 0.25)
        assert design.allocation_probability((1, 0, 0)) == pytest.approx(0.25 * 0.75**2)
        mat, weights = allocation_matrix(design)
        np.testing.assert_array_equal(weights, [design.allocation_probability(z) for z in mat])

    def test_explicit_table_sums(self):
        with pytest.raises(ValueError, match="sum to"):
            ExplicitDesign(2, {(0, 0): 0.5, (1, 1): 0.4})

    def test_explicit_table_lookup_and_enumeration(self):
        design = ExplicitDesign(2, {(0, 0): 0.5, (1, 1): 0.25, (0, 1): 0.25})
        assert design.allocation_probability((1, 1)) == 0.25
        assert design.allocation_probability((1, 0)) == 0.0
        _, weights = allocation_matrix(design)
        assert math.fsum(weights) == pytest.approx(1.0, abs=1e-12)

    def test_positivity_under_bernoulli(self):
        """Every exposure of every unit gets positive mass when 0 < p < 1."""
        for degree in (1, 3, 6):
            for p in (0.05, 0.5, 0.95):
                dist = bernoulli_exposure_distribution(degree, p)
                assert dist.vector.min() > 0
