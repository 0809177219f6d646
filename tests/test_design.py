"""Designs, exposure probabilities, and the closed-form/enumeration cross-check."""

import hashlib
import math
import re
from fractions import Fraction

import numpy as np
import pytest

from lue.design import (
    LOG_SPACE_DEGREE,
    BernoulliDesign,
    ExposureDistribution,
    allocation_matrix,
    bernoulli_exposure_distribution,
    bernoulli_exposure_prob,
    exposure_distribution_exact,
    uniform_distribution,
)
from lue.exposure import ExposureSpec, apply_exposure_mapping, enumerate_exposures
from lue.networks import Network, gen_erdos_renyi_directed, gen_k_regular_directed


def three_cycle():
    a = np.zeros((3, 3), dtype=int)
    a[0, 1] = a[1, 2] = a[2, 0] = 1
    return Network(a)


class TestBernoulliExposureProb:
    def test_half_probability_examples(self):
        assert bernoulli_exposure_prob(4, (2, 1), 0.5) == pytest.approx(0.1875, abs=1e-15)
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

    @pytest.mark.parametrize("call, message", [
        (lambda: bernoulli_exposure_prob(3, (1, 2), 0.5),
         "own-treatment component must be 0 or 1, got 2"),
        (lambda: bernoulli_exposure_distribution(0, 0.5),
         "degree-0 units have a collapsed exposure set; exclude them"),
    ], ids=["own_treatment", "degree_0_pmf"])
    def test_rejected_input_is_named(self, call, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            call()

    def test_scalar_is_an_entry_of_the_pmf_bit_for_bit(self):
        """The scalar is the pmf's entry, in both the direct and log branches."""
        for degree in (1, 2, 7, 50, 51, 80, 300):
            for p in (0.1, 0.3, 0.5, 0.77):
                dist = bernoulli_exposure_distribution(degree, p)
                for e, mass in zip(dist, dist.vector):
                    scalar = bernoulli_exposure_prob(degree, e, p)
                    assert np.float64(scalar).tobytes() == mass.tobytes(), (degree, e, p)

    @pytest.mark.parametrize("degree,exposure,p", [(0, (0, 1), 0.3), (1074, (537, 1), 0.5)],
                             ids=["degree_0", "underflowing_degree"])
    def test_scalar_refuses_where_the_pmf_refuses(self, degree, exposure, p):
        """Degree 0, and a degree at which any mass underflows, raise the pmf's message.

        An exposure whose own mass is representable is refused too.
        """
        with pytest.raises(ValueError) as refused:
            bernoulli_exposure_distribution(degree, p)
        with pytest.raises(ValueError, match=f"^{re.escape(str(refused.value))}$"):
            bernoulli_exposure_prob(degree, exposure, p)

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

    def test_distribution_is_the_exact_binomial_law(self):
        """The pmf is C(k, d) p^(d+z) (1-p)^(k-d+1-z) in exact rationals, to a stated bound.

        The reference takes p as the exact rational value of the float and
        rounds each exact mass once, correctly, to float64.  The error is
        relative to max(mass, smallest normal), so subnormal masses are held
        to the same bound.  Direct masses are within 1e-14 (4.1e-15 seen);
        log-space ones, whose logs add lgammas of about 6,000 at k = 1000,
        within 1e-11 (1.8e-12 seen).  Where the pmf refuses a degree, the
        exposure it names has an exact mass that rounds to 0.
        """
        def exact_masses(degree, p, exposures):
            num, den = Fraction(p).as_integer_ratio()
            treated, untreated = [1], [1]
            for _ in range(degree + 1):
                treated.append(treated[-1] * num)
                untreated.append(untreated[-1] * (den - num))
            scale = den ** (degree + 1)
            return np.array([math.comb(degree, d) * treated[d + z] * untreated[degree - d + 1 - z]
                             / scale for d, z in exposures])

        refused = re.compile(r"in-degree (\d+) at p_treat ([\d.]+): the mass of exposure "
                             r"\((\d+), ([01])\) underflows float64")
        for degree in (1, 2, 7, 50, 51, 80, 300, 500, 1000, 1074):
            exposures = enumerate_exposures(ExposureSpec((degree, 1)))
            for p in (0.1, 0.3, 0.5, 0.77):
                try:
                    actual = bernoulli_exposure_distribution(degree, p).vector
                except ValueError as exc:
                    named = refused.fullmatch(str(exc))
                    assert named and named.groups()[:2] == (str(degree), str(p)), str(exc)
                    named_exposure = (int(named[3]), int(named[4]))
                    assert exact_masses(degree, p, [named_exposure])[0] == 0.0, str(exc)
                    continue
                exact = exact_masses(degree, p, exposures)
                error = np.abs(actual - exact) / np.maximum(exact, np.finfo(float).tiny)
                bound = 1e-14 if degree <= LOG_SPACE_DEGREE else 1e-11
                assert error.max() <= bound, (degree, p, error.max())

    def test_unit_pmf_bytes_are_pinned(self):
        """Pins every mass the weights are solved against at p_treat other than 0.5.

        At 0.5 every mass is dyadic and exact; at 0.1, 0.3 and 0.7 a change in
        how the binomial is formed could move last digits unseen.
        """
        digest = hashlib.sha256()
        for p in (0.1, 0.3, 0.7):
            for degree in range(1, 121):
                digest.update(bernoulli_exposure_distribution(degree, p).vector.tobytes())
        assert digest.hexdigest() == (
            "8a0292a5e97bd0e5b4f325dede67a1502fbf137b6a1bf2646300ccfd42fe0e51")

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


def per_allocation_distribution(design, network, unit):
    """Reference: each allocation row's exact mass, added into a dict by its mapped exposure.

    The sums are fractions, each rounded once to a float at the end.
    """
    acc = {}
    p = Fraction(design.p_treat)
    mat, _ = allocation_matrix(design)
    for z in mat:
        e = apply_exposure_mapping(network, z, unit)
        treated = int(z.sum())
        acc[e] = acc.get(e, 0) + p**treated * (1 - p) ** (design.n - treated)
    return ExposureDistribution(ExposureSpec((int(network.in_degrees[unit]), 1)),
                                {e: float(mass) for e, mass in acc.items()})


class TestExactEnumeration:
    def test_is_the_per_allocation_accumulation_bit_for_bit(self):
        for n in range(2, 9):
            graphs = [gen_erdos_renyi_directed(n, 0.5, seed=n),
                      gen_k_regular_directed(n, min(2, n - 1), seed=n)]
            for net in graphs:
                for p_treat in (0.5, 0.3):
                    design = BernoulliDesign(n, p_treat)
                    for unit in np.flatnonzero(net.in_degrees).tolist():
                        got = exposure_distribution_exact(design, "network_interference", net, unit)
                        want = per_allocation_distribution(design, net, unit)
                        assert got.vector.tobytes() == want.vector.tobytes(), (n, p_treat, unit)

    def test_three_cycle_uniform_quarters(self):
        design = BernoulliDesign(3, 0.5)
        dist = exposure_distribution_exact(design, "network_interference", three_cycle(), 0)
        for e in [(0, 0), (0, 1), (1, 0), (1, 1)]:
            assert dist[e] == pytest.approx(0.25, abs=1e-15)

    @pytest.mark.parametrize("kind", ["sutva", "four_exposure", "mystery"])
    def test_only_the_interference_mapping_is_known(self, kind):
        design = BernoulliDesign(3, 0.5)
        with pytest.raises(ValueError, match=f"unknown exposure mapping kind '{kind}'"):
            exposure_distribution_exact(design, kind, three_cycle(), 0)

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

    @pytest.mark.parametrize("p_treat, bound", [(0.5, 0.0), (0.3, 1e-15)])
    def test_closed_form_is_the_exact_pmf(self, p_treat, bound):
        """The closed form against exact enumeration: equal at p = 0.5, within 1e-15 at 0.3.

        At p = 0.5 every mass is C(d, k) / 2^(d + 1), which a float holds exactly.
        A closed form off by 1e-13 fails here, where criterion 10's 1e-12 lets it pass.
        """
        for n in range(2, 11):
            for net in (gen_erdos_renyi_directed(n, 0.3, seed=n),
                        gen_erdos_renyi_directed(n, 0.7, seed=n + 50),
                        gen_k_regular_directed(n, min(2, n - 1), seed=n)):
                design = BernoulliDesign(n, p_treat)
                for unit in np.flatnonzero(net.in_degrees).tolist():
                    exact = exposure_distribution_exact(design, "network_interference", net, unit)
                    closed = bernoulli_exposure_distribution(int(net.in_degrees[unit]), p_treat)
                    gap = np.abs(closed.vector - exact.vector).max()
                    assert gap <= bound, (n, unit, gap)

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

    def test_positivity_under_bernoulli(self):
        """Every exposure of every unit gets positive mass when 0 < p < 1."""
        for degree in (1, 3, 6):
            for p in (0.05, 0.5, 0.95):
                dist = bernoulli_exposure_distribution(degree, p)
                assert dist.vector.min() > 0
