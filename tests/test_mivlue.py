"""Optimality system assembly, solver, dilation limit, six-term closed forms."""

import numpy as np
import pytest

from lue.design import (
    BernoulliDesign,
    ExposureDistribution,
    bernoulli_exposure_distribution,
    uniform_distribution,
)
from lue.estimators import (build_affine_basis, check_support_condition, constraint_matrix,
                            decompose_in_basis)
from lue.exposure import (ExposureSpec, enumerate_exposures, indicator_vector,
                          target_position)
from lue.mivlue import (
    PriorSpec,
    SingularSystemError,
    assemble_system,
    default_base_perturbation,
    max_alpha3,
    outcome_variance,
    six_term_alpha_weights,
    solve_from_moments,
    solve_mivlue,
    solve_mivlue_limit,
    support_null_prior,
)
from lue.networks import Network
from lue.simulation import build_estimator_family

SIX_ORDER = [(0, 0), (0, 1), (1, 0), (1, 1), (2, 0), (2, 1)]


def random_distribution(spec, rng):
    raw = rng.dirichlet(np.ones(spec.num_exposures))
    return ExposureDistribution(spec, dict(zip(enumerate_exposures(spec), raw)))


def random_pd_prior(size, rng, jitter=0.1):
    a = rng.normal(size=(size, size))
    return PriorSpec(a @ a.T + jitter * np.eye(size))


class TestPriorSpec:
    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError, match="symmetric"):
            PriorSpec(np.array([[1.0, 0.5], [0.0, 1.0]]))

    def test_rejects_indefinite(self):
        with pytest.raises(ValueError, match="semi-definite"):
            PriorSpec(np.array([[1.0, 2.0], [2.0, 1.0]]))

    def test_base_perturbation_must_be_positive(self):
        with pytest.raises(ValueError, match="positive"):
            PriorSpec(np.eye(2), base_perturbation=np.eye(2))

    def test_dilation_composition(self):
        base = default_base_perturbation(2)
        prior = PriorSpec(np.eye(2), base_perturbation=base, dilation=10.0)
        np.testing.assert_allclose(prior.effective_covariance(), 10.0 * np.eye(2) + base)


class TestOutcomeVariance:
    def test_identity_counts_active_parameters(self):
        spec = ExposureSpec((3, 1))
        prior = PriorSpec(np.eye(spec.num_parameters))
        assert outcome_variance(prior, spec, (3, 1)) == pytest.approx(3.0)
        assert outcome_variance(prior, spec, (0, 0)) == pytest.approx(1.0)

    def test_perfect_correlation_doubles_amplitude(self):
        # second component's effect equals the baseline: Var(Y(0,1)) = (1+1)^2 * Var
        spec = ExposureSpec((1, 1))
        u = np.array([1.0, 0.0, 1.0])
        prior = PriorSpec(np.outer(u, u))
        assert outcome_variance(prior, spec, (0, 1)) == pytest.approx(4.0)

    def test_null_prior_vanishes_on_support(self):
        spec = ExposureSpec((3, 1))
        support = [(3, 0), (0, 0)]
        sigma = support_null_prior(spec, support)
        prior = PriorSpec(sigma)
        for e in support:
            assert outcome_variance(prior, spec, e) == pytest.approx(0.0, abs=1e-12)
        assert outcome_variance(prior, spec, (1, 1)) > 0.1

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="parameters"):
            outcome_variance(PriorSpec(np.eye(3)), ExposureSpec((3, 1)), (0, 0))


class TestAssembleSystem:
    def test_single_component_blocks(self):
        spec = ExposureSpec((1,))
        probs = ExposureDistribution(spec, {(1,): 0.5, (0,): 0.5})
        system = assemble_system(spec, probs, PriorSpec(np.eye(2)))
        # exposure (1,) activates both parameters, (0,) only the baseline
        np.testing.assert_allclose(np.diagonal(system.matrix)[:2], [0.5 * 2.0, 0.5 * 1.0])
        assert system.matrix.shape == (4, 4)

    def test_rhs_one_hot_at_estimand_row(self):
        spec = ExposureSpec((3, 1))
        system = assemble_system(spec, uniform_distribution(spec),
                                 PriorSpec(np.eye(spec.num_parameters)))
        expected = np.zeros(8 + 5)
        expected[8 + 3] = 1.0  # the first component's maximum-level row
        np.testing.assert_array_equal(system.rhs, expected)

    def test_symmetric_for_random_inputs(self):
        rng = np.random.default_rng(0)
        for _ in range(5):
            spec = ExposureSpec(tuple(rng.integers(1, 4, size=2)))
            system = assemble_system(spec, random_distribution(spec, rng),
                                     random_pd_prior(spec.num_parameters, rng))
            np.testing.assert_allclose(system.matrix, system.matrix.T)

    def test_full_rank_with_positive_diagonal(self):
        rng = np.random.default_rng(1)
        for _ in range(10):
            spec = ExposureSpec(tuple(rng.integers(1, 4, size=rng.integers(1, 4))))
            system = assemble_system(spec, random_distribution(spec, rng),
                                     random_pd_prior(spec.num_parameters, rng))
            size = system.matrix.shape[0]
            assert np.linalg.matrix_rank(system.matrix) == size

    def test_zero_variance_rejected_by_name(self):
        spec = ExposureSpec((1, 1))
        sigma = support_null_prior(spec, [(0, 0)])
        with pytest.raises(SingularSystemError, match=r"\(0, 0\)"):
            assemble_system(spec, uniform_distribution(spec), PriorSpec(sigma))


class TestSolveMivlue:
    def test_unique_solution_ignores_prior(self):
        """With one binary component the solution set is a point: the two-term estimator."""
        spec = ExposureSpec((1,))
        probs = ExposureDistribution(spec, {(1,): 0.3, (0,): 0.7})
        rng = np.random.default_rng(2)
        for _ in range(5):
            sol = solve_mivlue(spec, probs, random_pd_prior(2, rng))
            assert sol.estimator.weight((1,)) == pytest.approx(1 / 0.3, rel=1e-12)
            assert sol.estimator.weight((0,)) == pytest.approx(-1 / 0.7, rel=1e-12)

    def test_residuals_small(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            spec = ExposureSpec(tuple(rng.integers(1, 4, size=rng.integers(1, 4))))
            sol = solve_mivlue(spec, random_distribution(spec, rng),
                               random_pd_prior(spec.num_parameters, rng))
            assert sol.constraint_residual() < 1e-9
            assert sol.quotient_residual() < 1e-9

    def test_projected_perturbations_never_improve(self):
        """Any feasible movement of the weights increases the objective."""
        from lue.estimators import constraint_matrix, null_space_basis

        rng = np.random.default_rng(4)
        spec = ExposureSpec((2, 2))
        probs = random_distribution(spec, rng)
        prior = random_pd_prior(spec.num_parameters, rng)
        sol = solve_mivlue(spec, probs, prior)
        system = sol.system
        w = sol.estimator.as_vector(system.exposures)
        null = null_space_basis(constraint_matrix(spec, probs).matrix)
        diag = system.probabilities * system.variances
        for _ in range(200):
            direction = null @ rng.normal(size=null.shape[1])
            direction *= 1e-3 / np.linalg.norm(direction)
            perturbed = w + direction
            assert perturbed @ (diag * perturbed) >= sol.integrated_variance - 1e-15

    def test_monotone_weight_response(self):
        """Raising one outcome's variance never raises that exposure's |weight|."""
        rng = np.random.default_rng(5)
        for _ in range(50):
            levels = tuple(rng.integers(1, 4, size=rng.integers(1, 3)))
            spec = ExposureSpec(levels)
            n = spec.num_exposures
            p = rng.dirichlet(np.ones(n))
            variances = rng.uniform(0.2, 5.0, size=n)
            j = int(rng.integers(n))
            e_j = enumerate_exposures(spec)[j]
            previous = abs(solve_from_moments(spec, p, variances).estimator.weight(e_j))
            for factor in (2.0, 10.0, 100.0):
                scaled = variances.copy()
                scaled[j] *= factor
                current = abs(solve_from_moments(spec, p, scaled).estimator.weight(e_j))
                assert current <= previous + 1e-9
                previous = current

    def test_shifted_prior_estimator_stays_unbiased(self):
        """Weights ignore prior means; recentring the outcomes keeps unbiasedness."""
        rng = np.random.default_rng(6)
        spec = ExposureSpec((2, 1))
        probs = random_distribution(spec, rng)
        prior = random_pd_prior(spec.num_parameters, rng)
        sol_zero = solve_mivlue(spec, probs, prior)
        sol_again = solve_mivlue(spec, probs, prior)
        np.testing.assert_array_equal(
            sol_zero.estimator.as_vector(), sol_again.estimator.as_vector())
        # estimator w(e) (Y(e) - mu_Y(e)) + mu_target is unbiased pointwise in theta
        mu = rng.normal(size=spec.num_parameters)
        exposures = enumerate_exposures(spec)
        w = sol_zero.estimator.as_vector()
        p = probs.vector()
        estimand = target_position(spec)
        for _ in range(10):
            theta = rng.normal(size=spec.num_parameters) + mu
            outcome = np.array([indicator_vector(spec, e) @ theta for e in exposures])
            mean_outcome = np.array([indicator_vector(spec, e) @ mu for e in exposures])
            estimate = p @ (w * (outcome - mean_outcome)) + mu[estimand]
            assert estimate == pytest.approx(theta[estimand], abs=1e-9)

    def test_integrated_variance_is_weight_quadratic(self):
        rng = np.random.default_rng(7)
        spec = ExposureSpec((2, 1))
        probs = random_distribution(spec, rng)
        sol = solve_mivlue(spec, probs, random_pd_prior(4, rng))
        w = sol.estimator.as_vector()
        expected = w @ (probs.vector() * sol.system.variances * w)
        assert sol.integrated_variance == pytest.approx(expected, rel=1e-12)


class TestSolveMivlueLimit:
    def setup_method(self):
        self.spec = ExposureSpec((3, 1))
        self.probs = bernoulli_exposure_distribution(3, 0.5)

    def test_two_term_supports_recover_inverse_probability_weights(self):
        for z in (0, 1):
            support = [(3, z), (0, z)]
            limit = solve_mivlue_limit(self.spec, self.probs, support)
            est = limit.solution.estimator
            assert limit.off_support_mass() < 1e-6
            assert est.weight((3, z)) == pytest.approx(1 / self.probs[(3, z)], abs=1e-6)
            assert est.weight((0, z)) == pytest.approx(-1 / self.probs[(0, z)], abs=1e-6)

    def test_four_term_support_rejected(self):
        with pytest.raises(ValueError, match="rejected"):
            solve_mivlue_limit(self.spec, self.probs, [(3, 1), (1, 1), (1, 0), (0, 0)])

    def test_six_term_support_fills_all_six(self):
        support = [(0, 0), (0, 1), (1, 0), (1, 1), (3, 0), (3, 1)]
        limit = solve_mivlue_limit(self.spec, self.probs, support)
        assert limit.off_support_mass() < 1e-6
        for e in support:
            assert abs(limit.solution.estimator.weight(e)) > 1e-6

    def test_extreme_dilation_warns_but_stays_accurate(self):
        """Only an ill-conditioned tail system warns; residuals stay tiny either way."""
        sigma = support_null_prior(self.spec, [(3, 0), (0, 0)])
        prior = PriorSpec(sigma, base_perturbation=default_base_perturbation(5),
                          dilation=1e12)
        sol = solve_mivlue(self.spec, self.probs, prior)
        assert sol.constraint_residual() < 1e-9  # its tail system is 1x1: no warning due
        spec = ExposureSpec((1, 1, 1))
        sigma = support_null_prior(spec, [(1, 0, 0), (0, 0, 0), (1, 1, 0), (0, 1, 0)])
        prior = PriorSpec(sigma, base_perturbation=default_base_perturbation(4),
                          dilation=1e12)
        sol = solve_mivlue(spec, uniform_distribution(spec), prior)
        assert sol.warnings and "condition" in sol.warnings[0]
        assert sol.constraint_residual() < 1e-9

    def test_limit_is_the_dilated_solve(self):
        """The restricted solve equals a far-dilated full solve, with exact zeros off support."""
        rng = np.random.default_rng(10)
        cases = [(self.spec, self.probs, support) for support in (
            [(3, 0), (0, 0)], [(3, 1), (0, 1)],
            [(0, 0), (0, 1), (1, 0), (1, 1), (3, 0), (3, 1)],
            [(0, 0), (0, 1), (2, 0), (2, 1), (3, 0), (3, 1)],
            [(3, 0), (3, 1), (0, 0), (0, 1)])]
        while len(cases) < 60:
            spec = ExposureSpec(tuple(rng.integers(1, 4, size=rng.integers(1, 4))))
            probs = random_distribution(spec, rng)
            exposures = enumerate_exposures(spec)
            size = int(rng.integers(2, spec.num_exposures + 1))
            support = [exposures[i] for i in rng.choice(len(exposures), size, replace=False)]
            if check_support_condition(support, spec, probs):
                cases.append((spec, probs, support))
        for spec, probs, support in cases:
            limit = solve_mivlue_limit(spec, probs, support)
            base = default_base_perturbation(spec.num_parameters)
            prior = PriorSpec(support_null_prior(spec, support), base_perturbation=base,
                              dilation=1e8)
            dilated = solve_mivlue(spec, probs, prior).estimator.as_vector()
            weights = limit.solution.estimator.as_vector()
            assert np.abs(weights - dilated).max() <= 1e-9 * np.abs(dilated).max(), support
            off = [i for i, e in enumerate(enumerate_exposures(spec)) if e not in support]
            assert (weights[off] == 0.0).all(), support


class TestUnbiasedAtHighDegree:
    """Weights stay unbiased to machine precision where an LU of the block system did not."""

    @pytest.mark.parametrize("degree", [60, 100, 500])
    def test_simulation_families(self, degree):
        """MInd and MDil as the simulation builds them, for a unit with ``degree`` in-neighbours."""
        adjacency = np.zeros((degree + 1, degree + 1), dtype=int)
        adjacency[1:, 0] = 1
        network = Network(adjacency)
        design = BernoulliDesign(degree + 1, 0.5)
        dist = bernoulli_exposure_distribution(degree, 0.5)
        c = constraint_matrix(dist.spec, dist)
        for name in ("MInd", "MDil"):
            (est,) = build_estimator_family(name, network, design).values()
            w = est.as_vector(c.exposures)
            scale = np.maximum(1.0, np.abs(c.matrix * w).sum(axis=1))
            assert (np.abs(c.matrix @ w - c.target_vector()) / scale).max() <= 1e-12, name

    def test_missed_constraints_raise(self, monkeypatch):
        import lue.mivlue as mivlue

        spec = ExposureSpec((3, 1))
        monkeypatch.setattr(mivlue, "UNBIASED_TOL", -1.0)
        with pytest.raises(SingularSystemError, match="unbiasedness"):
            solve_mivlue(spec, uniform_distribution(spec), PriorSpec(np.eye(5)))


class TestSixTermClosedForm:
    def test_symmetric_rates_drop_the_four_term(self):
        a1, a2, a3 = six_term_alpha_weights([1 / 6] * 6, [1.0] * 6)
        assert a3 == 0.0
        assert a1 == pytest.approx(0.5, abs=1e-14)
        assert a2 == pytest.approx(0.5, abs=1e-14)

    def test_pairwise_symmetric_rates_exact_zero(self):
        probs = [0.1, 0.1, 0.25, 0.25, 0.15, 0.15]
        variances = [2.0, 2.0, 0.7, 0.7, 1.3, 1.3]
        _, _, a3 = six_term_alpha_weights(probs, variances)
        assert a3 == 0.0

    def test_sum_to_one(self):
        rng = np.random.default_rng(8)
        for _ in range(100):
            p = rng.dirichlet(np.ones(6))
            v = rng.uniform(0.1, 10, size=6)
            a1, a2, a3 = six_term_alpha_weights(p, v)
            assert a1 + a2 + a3 == pytest.approx(1.0, abs=1e-12)

    def test_matches_numeric_solver(self):
        rng = np.random.default_rng(9)
        spec = ExposureSpec((2, 1))
        for _ in range(50):
            probs = random_distribution(spec, rng)
            prior = random_pd_prior(4, rng)
            sol = solve_mivlue(spec, probs, prior)
            basis = build_affine_basis(spec, probs)
            a3_n, a2_n, a1_n = decompose_in_basis(sol.estimator, basis, probs)
            p6 = [probs[e] for e in SIX_ORDER]
            v6 = [outcome_variance(prior, spec, e) for e in SIX_ORDER]
            a1, a2, a3 = six_term_alpha_weights(p6, v6)
            assert a1 == pytest.approx(a1_n, abs=1e-8)
            assert a2 == pytest.approx(a2_n, abs=1e-8)
            assert a3 == pytest.approx(a3_n, abs=1e-8)

    def test_rejects_degenerate_inputs(self):
        with pytest.raises(ValueError, match="positive"):
            six_term_alpha_weights([0.0] + [0.2] * 5, [1.0] * 6)


class TestMaxAlpha3:
    def test_symmetric_design(self):
        assert max_alpha3([1 / 6] * 6) == pytest.approx(0.25)

    def test_bernoulli_half_degree_three(self):
        dist = bernoulli_exposure_distribution(3, 0.5)
        p6 = [dist[e] for e in [(0, 0), (0, 1), (1, 0), (1, 1), (3, 0), (3, 1)]]
        assert max_alpha3(p6) == pytest.approx(0.375)

    def test_limit_of_closed_form(self):
        """The four-term coefficient approaches its design-only maximum."""
        dist = bernoulli_exposure_distribution(3, 0.5)
        p6 = [dist[e] for e in [(0, 0), (0, 1), (1, 0), (1, 1), (3, 0), (3, 1)]]
        target = max_alpha3(p6)
        tiny, huge = 1e-8, 1e8
        v6 = [tiny, tiny + 1.0, 2 * tiny, 2 * tiny + 1.0, huge + tiny, huge + tiny + 1.0]
        _, _, a3 = six_term_alpha_weights(p6, v6)
        assert a3 == pytest.approx(target, abs=1e-4)

    def test_rejects_zero_probabilities(self):
        with pytest.raises(ValueError, match="positive"):
            max_alpha3([0.2, 0.2, 0.2, 0.2, 0.2, 0.0])
