"""The optimality system, its solve, the dilation limit, six-term closed forms."""

import hashlib
import math
import re
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from lue.design import (
    BernoulliDesign,
    ExposureDistribution,
    bernoulli_exposure_distribution,
    slot_order,
    uniform_distribution,
)
from lue.estimators import (build_affine_basis, check_support_condition, constraint_matrix,
                            constraint_residuals, decompose_in_basis)
from lue.exposure import (ExposureSpec, canonical_grid, enumerate_exposures, indicator_matrix,
                          target_position)
from lue.mivlue import (
    PSD_TOL,
    FactorPrior,
    PriorSpec,
    SingularSystemError,
    default_base_perturbation,
    max_alpha3,
    outcome_variance,
    outcome_variance_vector,
    six_term_alpha_weights,
    solve_from_moments,
    solve_mivlue,
    solve_mivlue_limit,
    support_null_prior,
)
from lue.networks import Network
from lue.simulation import (MDIL_RIDGE, OutcomeModel, build_estimator_family, clear_weight_memo,
                            family_weights)

SIX_ORDER = [(0, 0), (0, 1), (1, 0), (1, 1), (2, 0), (2, 1)]
# In-degrees of the simulation rows checked against the exact weights.
SIMULATION_DEGREES = [1, 2, 3, 5, 8, 13, 20, 30, 40, 60]


def random_distribution(spec, rng):
    raw = rng.dirichlet(np.ones(spec.num_exposures))
    return ExposureDistribution(spec, dict(zip(enumerate_exposures(spec), raw)))


def random_pd_prior(size, rng, jitter=0.1):
    a = rng.normal(size=(size, size))
    return PriorSpec(a @ a.T + jitter * np.eye(size))


def small_specs(limit=64, prefix=()):
    """Every spec with at most ``limit`` exposures, depth first."""
    size = math.prod(m + 1 for m in prefix)
    if prefix:
        yield ExposureSpec(prefix)
    for m in range(1, limit // size):
        yield from small_specs(limit, prefix + (m,))


def dense_outcome_variances(spec, prior):
    """Reference for outcome_variance_vector: the dense indicator contraction X^T M X."""
    x = indicator_matrix(spec)

    def quadratic_form(matrix):
        values = np.einsum("ij,ik,kj->j", x, matrix, x)
        return np.where(values < PSD_TOL, 0.0, values)

    if isinstance(prior, FactorPrior):
        return quadratic_form(np.diag(prior.diagonal) + np.outer(prior.factor, prior.factor))
    base = quadratic_form(prior.covariance)
    if prior.dilation is None:
        return base
    scaled = prior.dilation * base
    if prior.base_perturbation is not None:
        scaled = scaled + quadratic_form(prior.base_perturbation)
    return scaled


def simulation_priors(degree):
    """MInd's prior and MDil's at three eta1 values, dense and as the simulation factors them."""
    size = degree + 2
    priors = [PriorSpec(np.eye(size)), FactorPrior(*OutcomeModel("independent").covariance(degree))]
    for eta1 in (0.5, 1.0, 2.5):
        u = np.concatenate([[1.0], np.arange(1, degree + 1) / degree * eta1, [1.0]])
        priors.append(PriorSpec(np.outer(u, u) + MDIL_RIDGE * np.eye(size)))
        diagonal, factor = OutcomeModel("dilated", eta1=eta1).covariance(degree)
        priors.append(FactorPrior(diagonal + MDIL_RIDGE, factor))
    return priors


def solve_panel():
    """A seeded panel of solves: (spec, pmf, prior) triples.

    Each spec with at most 64 exposures gets a Dirichlet pmf and four priors:
    full rank, rank one plus a ridge, a dilated rank one with the base
    perturbation, and a null prior on two exposures, whose solve must fail.
    """
    rng = np.random.default_rng(11)
    for spec in small_specs():
        size = spec.num_parameters
        probs = random_distribution(spec, rng)
        a, u = rng.normal(size=(size, size)), rng.normal(size=(size, 1))
        support = [enumerate_exposures(spec)[i]
                   for i in rng.choice(spec.num_exposures, 2, replace=False)]
        priors = [PriorSpec(a @ a.T), PriorSpec(u @ u.T + MDIL_RIDGE * np.eye(size)),
                  PriorSpec(u @ u.T, base_perturbation=default_base_perturbation(size),
                            dilation=1e4),
                  PriorSpec(support_null_prior(spec, support))]
        for prior in priors:
            yield spec, probs, prior


def solve_panel_digest():
    """sha256 of every solve's weights, multipliers, variances and objective on the panel."""
    digest = hashlib.sha256()
    for spec, probs, prior in solve_panel():
        try:
            solution = solve_mivlue(spec, probs, prior)
        except SingularSystemError as exc:
            digest.update(str(exc).encode())
            continue
        update_with_solution(digest, solution)
    return digest.hexdigest()


def update_with_solution(digest, solution, *extra):
    """Hash a solve's weights, multipliers, variances, objective, ``extra`` values and warnings."""
    for values in (solution.estimator.vector, solution.multipliers,
                   solution.system.variances, [solution.integrated_variance, *extra]):
        digest.update(np.asarray(values, dtype=float).tobytes())
    digest.update("".join(solution.warnings).encode())


def limit_panel_digest():
    """sha256 of dilation-limit solves on a seeded panel, and of each refused support's message.

    Each spec with at most 64 exposures gets a Dirichlet pmf, the two-term
    support on the zero tail, which is always valid, and two random supports.
    """
    rng = np.random.default_rng(17)
    digest = hashlib.sha256()
    for spec in small_specs():
        probs = random_distribution(spec, rng)
        exposures = enumerate_exposures(spec)
        zero_tail = (0,) * (len(spec.levels) - 1)
        supports = [[(spec.levels[0], *zero_tail), (0, *zero_tail)]]
        for _ in range(2):
            size = int(rng.integers(2, spec.num_exposures + 1))
            supports.append([exposures[i]
                             for i in rng.choice(spec.num_exposures, size, replace=False)])
        for support in supports:
            try:
                limit = solve_mivlue_limit(spec, probs, support)
            except (ValueError, SingularSystemError) as exc:
                assert support is not supports[0], spec
                digest.update(str(exc).encode())
                continue
            update_with_solution(digest, limit.solution, limit.off_support_mass())
    return digest.hexdigest()


def moments_panel_digest():
    """sha256 of solves from seeded positive moments, and of each refusal's message.

    Per spec: one solve, then a vanishing probability, a vanishing or negative
    variance, both at once, and two shape mismatches, each of which is refused.
    """
    rng = np.random.default_rng(19)
    digest = hashlib.sha256()
    for spec in small_specs():
        n = spec.num_exposures
        p, variances = rng.dirichlet(np.ones(n)), rng.uniform(0.1, 10.0, n)
        update_with_solution(digest, solve_from_moments(spec, p, variances))
        bad_p, bad_variances = p.copy(), variances.copy()
        bad_p[rng.integers(n)] = 0.0
        bad_variances[rng.integers(n)] = -rng.uniform() * rng.integers(2)
        for args in ((bad_p, variances), (p, bad_variances), (bad_p, bad_variances),
                     (p[:-1], variances), (p, variances[:, None])):
            with pytest.raises((ValueError, SingularSystemError)) as refused:
                solve_from_moments(spec, *args)
            digest.update(str(refused.value).encode())
    return digest.hexdigest()


def with_spectrum(eigenvalues, seed=0):
    """Symmetric matrix with the given eigenvalues, in a random orthonormal basis."""
    size = len(eigenvalues)
    q, _ = np.linalg.qr(np.random.default_rng(seed).normal(size=(size, size)))
    m = (q * eigenvalues) @ q.T
    return (m + m.T) / 2


class TestPriorSpec:
    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError, match="symmetric"):
            PriorSpec(np.array([[1.0, 0.5], [0.0, 1.0]]))

    @pytest.mark.parametrize("asymmetry, accepted", [(0.5 * PSD_TOL, True),
                                                     (2 * PSD_TOL, False)])
    def test_symmetry_tolerance(self, asymmetry, accepted):
        """Inexact symmetry within PSD_TOL is accepted; beyond it, rejected."""
        cov = np.array([[2.0, 0.5, 0.0], [0.5, 2.0, 0.1], [0.0, 0.1, 2.0]])
        cov[2, 1] += asymmetry
        assert not np.array_equal(cov, cov.T)
        if accepted:
            PriorSpec(cov)
        else:
            with pytest.raises(ValueError, match="covariance must be symmetric"):
                PriorSpec(cov)

    def test_rejects_indefinite(self):
        with pytest.raises(ValueError, match="semi-definite"):
            PriorSpec(np.array([[1.0, 2.0], [2.0, 1.0]]))

    def test_base_perturbation_must_be_positive(self):
        with pytest.raises(ValueError, match="positive"):
            PriorSpec(np.eye(2), base_perturbation=np.eye(2))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_entries(self, bad):
        """Neither the symmetry test nor the Cholesky factor raises on NaN on its own."""
        matrix = np.eye(2)
        matrix[0, 0] = bad
        with pytest.raises(ValueError, match="^covariance entries must be finite$"):
            PriorSpec(matrix)
        base = default_base_perturbation(2)
        base[1, 0] = base[0, 1] = bad
        with pytest.raises(ValueError, match="^base perturbation entries must be finite$"):
            PriorSpec(np.eye(2), base_perturbation=base, dilation=10.0)

    @pytest.mark.parametrize("dilation", [math.nan, math.inf, -1.0, -1e-300])
    def test_rejects_non_finite_or_negative_dilation(self, dilation):
        with pytest.raises(ValueError, match="^dilation must be finite and non-negative"):
            PriorSpec(np.eye(2), dilation=dilation)

    def test_zero_dilation_is_accepted(self):
        base = default_base_perturbation(2)
        prior = PriorSpec(np.eye(2), base_perturbation=base, dilation=0.0)
        assert prior.dilation == 0.0

    @staticmethod
    def psd_cases():
        """(matrix, PSD within PSD_TOL?) pairs on both sides of the tolerance."""
        rng = np.random.default_rng(12)
        accepted = [a @ a.T for a in (rng.normal(size=(n, n)) for n in (1, 2, 5, 20, 64))]
        accepted += [u @ u.T for u in (rng.normal(size=(n, 1)) for n in (2, 7, 40))]
        accepted += [support_null_prior(ExposureSpec((3, 1)), [(3, 0), (0, 0)]),
                     support_null_prior(ExposureSpec((2, 2)), [(2, 0), (0, 0), (1, 1)]),
                     np.zeros((4, 4)), with_spectrum([-1e-12, 0.5, 1.0, 2.0, 3.0])]
        accepted += [prior.covariance for prior in simulation_priors(60)
                     if isinstance(prior, PriorSpec)]
        rejected = [np.array([[1.0, 2.0], [2.0, 1.0]]), with_spectrum([-1e-8, 0.5, 1.0, 2.0, 3.0])]
        return [(m, True) for m in accepted] + [(m, False) for m in rejected]

    def test_psd_check_is_the_eigenvalue_criterion(self):
        """Accepts exactly when the smallest eigenvalue is at least -PSD_TOL."""
        for matrix, psd in self.psd_cases():
            assert (np.linalg.eigvalsh(matrix).min() >= -PSD_TOL) == psd
            if psd:
                PriorSpec(matrix)
            else:
                with pytest.raises(ValueError, match="^covariance must be positive semi-definite$"):
                    PriorSpec(matrix)

    def test_base_perturbation_psd_check(self):
        """The same criterion on the base perturbation, whose entries are all positive."""
        cases = [(default_base_perturbation(5), True)]
        for gap, psd in ((1e-12, True), (1e-8, False), (1.0, False)):
            # Eigenvalues 2 + gap and -gap.
            cases.append((np.array([[1.0, 1.0 + gap], [1.0 + gap, 1.0]]), psd))
        for base, psd in cases:
            assert (np.linalg.eigvalsh(base).min() >= -PSD_TOL) == psd
            cov = np.eye(len(base))
            if psd:
                PriorSpec(cov, base_perturbation=base, dilation=10.0)
            else:
                with pytest.raises(ValueError,
                                   match="^base perturbation must be positive semi-definite$"):
                    PriorSpec(cov, base_perturbation=base, dilation=10.0)

    def test_dilation_composition(self):
        """Outcome variances under dilation are dilation * qf(covariance) + qf(base)."""
        spec = ExposureSpec((2,))
        cov = np.array([[2.0, 0.5, 0.0], [0.5, 1.0, 0.2], [0.0, 0.2, 3.0]])
        base = default_base_perturbation(3)
        indicators = indicator_matrix(spec).T
        dilated = PriorSpec(cov, base_perturbation=base, dilation=10.0)
        np.testing.assert_allclose(outcome_variance_vector(spec, dilated),
                                   [x @ (10.0 * cov + base) @ x for x in indicators])

    def test_base_perturbation_needs_a_dilation(self):
        """Only a dilation applies the base perturbation, so one given alone is refused."""
        with pytest.raises(ValueError, match="^base_perturbation applies only under a dilation"):
            PriorSpec(np.eye(3), base_perturbation=default_base_perturbation(3))


@pytest.mark.parametrize("call, message", [
    (lambda: PriorSpec(np.ones((2, 3))), r"^covariance must be square, got shape \(2, 3\)$"),
    (lambda: PriorSpec(np.eye(2), base_perturbation=np.ones((3, 3)), dilation=1.0),
     "^base perturbation must match the covariance shape$"),
    (lambda: solve_from_moments(ExposureSpec((1,)), [0.5, 0.5], [1.0]),
     "^need one probability and one variance per exposure$"),
    (lambda: six_term_alpha_weights(np.full(5, 0.2), np.ones(5)),
     "^need six probabilities and six variances, order"),
    (lambda: FactorPrior(np.ones(3), np.ones(4)),
     r"^diagonal \(3,\) and factor \(4,\) must be vectors of one size$"),
    (lambda: FactorPrior(np.eye(2), np.eye(2)), r"^diagonal \(2, 2\) and factor \(2, 2\) must be"),
    (lambda: FactorPrior(np.ones(2), [1.0, math.nan]), "^entries must be finite, and diagonal"),
    (lambda: FactorPrior([1.0, math.inf], np.ones(2)), "^entries must be finite, and diagonal"),
    (lambda: FactorPrior([1.0, -1e-300], np.ones(2)),
     "^entries must be finite, and diagonal entries non-negative$"),
], ids=["covariance_shape", "base_shape", "moment_lengths", "six_term_count", "factor_lengths",
        "factor_matrices", "factor_nan", "diagonal_inf", "diagonal_negative"])
def test_rejected_input_is_named(call, message):
    with pytest.raises(ValueError, match=message):
        call()


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

    def test_null_prior_rejects_an_empty_support(self):
        with pytest.raises(ValueError, match="empty support"):
            support_null_prior(ExposureSpec((2, 1)), [])

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="parameters"):
            outcome_variance(PriorSpec(np.eye(3)), ExposureSpec((3, 1)), (0, 0))


class TestKktSystemViews:
    """The written-out system, read only by `bench/worker.py`; ROADMAP item 1 deletes it."""

    def test_single_component_blocks(self):
        spec = ExposureSpec((1,))
        probs = ExposureDistribution(spec, {(1,): 0.5, (0,): 0.5})
        system = solve_mivlue(spec, probs, PriorSpec(np.eye(2))).system
        # exposure (1,) activates both parameters, (0,) only the baseline
        np.testing.assert_allclose(np.diagonal(system.matrix)[:2], [0.5 * 2.0, 0.5 * 1.0])
        assert system.matrix.shape == (4, 4)

    def test_rhs_one_hot_at_estimand_row(self):
        spec = ExposureSpec((3, 1))
        system = solve_mivlue(spec, uniform_distribution(spec),
                              PriorSpec(np.eye(spec.num_parameters))).system
        expected = np.zeros(8 + 5)
        expected[8 + 3] = 1.0  # the first component's maximum-level row
        np.testing.assert_array_equal(system.rhs, expected)

    def test_symmetric_for_random_inputs(self):
        rng = np.random.default_rng(0)
        for _ in range(5):
            spec = ExposureSpec(tuple(rng.integers(1, 4, size=2)))
            system = solve_mivlue(spec, random_distribution(spec, rng),
                                  random_pd_prior(spec.num_parameters, rng)).system
            np.testing.assert_allclose(system.matrix, system.matrix.T)

    def test_full_rank_with_positive_diagonal(self):
        rng = np.random.default_rng(1)
        for _ in range(10):
            spec = ExposureSpec(tuple(rng.integers(1, 4, size=rng.integers(1, 4))))
            system = solve_mivlue(spec, random_distribution(spec, rng),
                                  random_pd_prior(spec.num_parameters, rng)).system
            size = system.matrix.shape[0]
            assert np.linalg.matrix_rank(system.matrix) == size

    def test_zero_variance_rejected_by_name(self):
        spec = ExposureSpec((1, 1))
        sigma = support_null_prior(spec, [(0, 0)])
        with pytest.raises(SingularSystemError, match=r"\(0, 0\)"):
            solve_mivlue(spec, uniform_distribution(spec), PriorSpec(sigma))

    def test_first_vanishing_entry_is_named(self):
        """The first exposure in canonical order with a vanishing entry; its probability first."""
        spec = ExposureSpec((1, 1))
        exposures = enumerate_exposures(spec)
        p, variances = np.full(4, 0.25), np.ones(4)
        p[3], variances[1] = 0.0, -1.0
        with pytest.raises(SingularSystemError,
                           match=rf"^potential outcome at {re.escape(str(exposures[1]))} "
                                 r"has prior variance -1\.0; system is singular$"):
            solve_from_moments(spec, p, variances)
        p[1] = 0.0
        with pytest.raises(SingularSystemError,
                           match=rf"^exposure {re.escape(str(exposures[1]))} has probability "
                                 r"0\.0; system is singular$"):
            solve_from_moments(spec, p, variances)

    def test_pmf_of_another_spec_rejected(self):
        """(1, 3) and (3, 1) both have 8 exposures; a pmf of one is not a pmf of the other."""
        spec = ExposureSpec((1, 3))
        probs = bernoulli_exposure_distribution(3, 0.3)
        for call in (lambda: solve_mivlue(spec, probs, PriorSpec(np.eye(spec.num_parameters))),
                     lambda: constraint_matrix(spec, probs),
                     lambda: build_affine_basis(spec, probs)):
            with pytest.raises(ValueError, match=r"\(3, 1\).*\(1, 3\)"):
                call()


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
        w = sol_zero.estimator.as_vector()
        p = probs.vector
        estimand = target_position(spec)
        for _ in range(10):
            theta = rng.normal(size=spec.num_parameters) + mu
            outcome = theta @ indicator_matrix(spec)
            mean_outcome = mu @ indicator_matrix(spec)
            estimate = p @ (w * (outcome - mean_outcome)) + mu[estimand]
            assert estimate == pytest.approx(theta[estimand], abs=1e-9)

    def test_integrated_variance_is_weight_quadratic(self):
        rng = np.random.default_rng(7)
        spec = ExposureSpec((2, 1))
        probs = random_distribution(spec, rng)
        sol = solve_mivlue(spec, probs, random_pd_prior(4, rng))
        w = sol.estimator.as_vector()
        expected = w @ (probs.vector * sol.system.variances * w)
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

    @pytest.mark.parametrize("degree", [60, 100, 500, 1000])
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

    def test_refusal_names_the_residual(self, monkeypatch):
        import lue.mivlue as mivlue

        monkeypatch.setattr(mivlue, "constraint_residuals", lambda *args: [1e-9])
        message = "solved weights miss the unbiasedness constraints by 1.00e-09 relative"
        with pytest.raises(SingularSystemError, match=re.escape(message)):
            solve_from_moments(ExposureSpec((3, 1)), np.full(8, 0.125), np.ones(8))

    def test_cold_pair_at_degree_1000_is_linear_in_memory(self):
        """The solve sums groups in O(E) memory: no (m1 + 1) x E matrix, which is 16 MB here."""
        bernoulli_exposure_distribution(1000, 0.5)
        clear_weight_memo()
        tracemalloc.start()
        try:
            family_weights(("MInd", "MDil"), 1000, 0.5)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2_000_000


def exact_weights(spec, probabilities, variances):
    """Optimal weights and multipliers in exact rationals on the float inputs, as Fraction lists.

    Solves A diag(p/Var) A^T lam = t by Gauss-Jordan, with A the indicator
    matrix and t one-hot at the estimand, and sets w = A^T lam / Var.  Then
    asserts that every constraint row holds exactly.
    """
    a = indicator_matrix(spec).astype(bool)
    p = [Fraction(float(x)) for x in probabilities]
    var = [Fraction(float(x)) for x in variances]
    rate = [pe / ve for pe, ve in zip(p, var)]
    cols = [np.flatnonzero(row).tolist() for row in a]
    size = len(a)
    t = [Fraction(int(i == target_position(spec))) for i in range(size)]
    rows = [[sum((rate[e] for e in cols[i] if a[j, e]), Fraction(0)) for j in range(size)]
            + [t[i]] for i in range(size)]
    # The normal matrix is positive definite, so every diagonal pivot is nonzero.  Sparse
    # columns go first: on the arrow matrix of a (d, 1) spec that creates no fill.
    for k in sorted(range(size), key=lambda k: sum(map(bool, rows[k]))):
        head = rows[k]
        for i in range(size):
            factor = rows[i][k] / head[k] if i != k else 0
            if factor:
                rows[i] = [x - factor * y if y else x for x, y in zip(rows[i], head)]
    lam = [row[-1] / row[i] for i, row in enumerate(rows)]
    w = [sum((lam[i] for i in np.flatnonzero(a[:, e]).tolist()), Fraction(0)) / var[e]
         for e in range(a.shape[1])]
    for i in range(size):
        assert sum(p[e] * w[e] for e in cols[i]) == t[i], i
    return w, lam


def pairwise_sum(terms):
    """Exact sum of Fractions in a balanced tree, so that no partial sum's denominator outgrows
    those of its half: a running sum of d unlike terms costs O(d^3) in gcds, this O(d^2)."""
    terms = list(terms) or [Fraction(0)]
    while len(terms) > 1:
        terms = [sum(terms[i:i + 2], Fraction(0)) for i in range(0, len(terms), 2)]
    return terms[0]


def exact_row_weights(spec, probabilities, rates):
    """:func:`exact_weights` of a (d, 1) spec in O(d) rational operations, given exact rates p/Var.

    A zero rate drops its exposure: the solve restricted to the others, as in
    the dilation limit.  Each multiplier is written as affine in the
    own-treatment one, lam_z, with coefficients of a few rates: a level's
    through its own constraint, the intercept's through the intercept row.
    Then x = p w = rates * A^T lam, every row of A x is summed pairwise in that
    affine form, the one row that reads lam_z fixes it (0 if none does), and
    every row is asserted to hold exactly.
    """
    a = indicator_matrix(spec).astype(bool)
    degree = spec.levels[0]
    level, treated = canonical_grid(spec.levels).T.tolist()
    totals, treated_rates = [Fraction(0)] * (degree + 1), [Fraction(0)] * (degree + 1)
    for k, z, rate in zip(level, treated, rates):
        totals[k] += rate
        treated_rates[k] += z * rate
    # (constant, coefficient of lam_z); the level rows leave the intercept row R_0 lam_0 +
    # r_01 lam_z = -1, and level k's row R_k (lam_0 + lam_k) + r_k1 lam_z = t_k.
    intercept = (-1 / totals[0], -treated_rates[0] / totals[0])
    lam = [intercept]
    for k in range(1, degree + 1):
        if totals[k]:
            lam.append((Fraction(k == degree) / totals[k] - intercept[0],
                        -treated_rates[k] / totals[k] - intercept[1]))
        else:
            lam.append((Fraction(0), Fraction(0)))
    lam.append((Fraction(0), Fraction(1)))
    x = [tuple(rate * sum(lam[i][part] for i in np.flatnonzero(column).tolist())
               for part in (0, 1)) for rate, column in zip(rates, a.T)]
    rows = [tuple(pairwise_sum(x[e][part] for e in np.flatnonzero(row).tolist())
                  for part in (0, 1)) for row in a]
    t = [Fraction(int(i == target_position(spec))) for i in range(len(a))]
    lam_z = next(((t_i - c) / s for (c, s), t_i in zip(rows, t) if s), Fraction(0))
    for i, ((c, s), t_i) in enumerate(zip(rows, t)):
        assert c + s * lam_z == t_i, i
    w = [(c + s * lam_z) / Fraction(float(pe)) for (c, s), pe in zip(x, probabilities)]
    return w, [c + s * lam_z for c, s in lam]


class TestExactWeights:
    """Float weights against the exact rational solve of the same float inputs."""

    @staticmethod
    def error(got, want):
        """max |x - x*| / max |x*|, each exact difference rounded once to float."""
        return (max(float(abs(Fraction(float(x)) - y)) for x, y in zip(got, want))
                / max(abs(float(y)) for y in want))

    @classmethod
    def forward_error(cls, spec, probs, prior):
        """The larger relative error of the weights and multipliers."""
        solution = solve_mivlue(spec, probs, prior)
        exact = exact_weights(spec, probs.vector, outcome_variance_vector(spec, prior))
        return max(cls.error(got, want) for got, want in
                   zip((solution.estimator.vector, solution.multipliers), exact))

    @classmethod
    def row_error(cls, prior, degree, p_treat):
        """:meth:`forward_error` of a simulation row, in-degree ``degree``, by the O(d) form."""
        dist = bernoulli_exposure_distribution(degree, p_treat)
        solution = solve_mivlue(dist.spec, dist, prior)
        rates = cls.exact_rates(dist.vector, outcome_variance_vector(dist.spec, prior))
        exact = exact_row_weights(dist.spec, dist.vector, rates)
        return max(cls.error(got, want) for got, want in
                   zip((solution.estimator.vector, solution.multipliers), exact))

    @staticmethod
    def exact_rates(probabilities, variances):
        return [Fraction(float(p)) / Fraction(float(v)) for p, v in zip(probabilities, variances)]

    @staticmethod
    def mind_prior(degree):
        return FactorPrior(*OutcomeModel("independent").covariance(degree))

    @staticmethod
    def mdil_prior(degree, eta1):
        diagonal, u = OutcomeModel("dilated", eta1=eta1).covariance(degree)
        return FactorPrior(diagonal + MDIL_RIDGE, u)

    @pytest.mark.parametrize("p_treat, degree, eta1", [
        (0.3, 1, -2.0), (0.5, 1, -2.0), (0.5, 2, -2.0), (0.7, 2, -4.0), (0.7, 3, -6.0),
        (0.3, 22, -5.5), (0.5, 24, -6.0)])
    def test_refined_mdil_rows_are_the_exact_weights(self, p_treat, degree, eta1):
        """Rows whose first elimination pass misses the gate by 1e-10 to 4e-9 are exact."""
        assert self.row_error(self.mdil_prior(degree, eta1), degree, p_treat) <= 1e-15

    @pytest.mark.parametrize("degree", SIMULATION_DEGREES)
    @pytest.mark.parametrize("p_treat", [0.3, 0.5])
    def test_mind_rows_are_the_exact_weights(self, degree, p_treat):
        assert self.row_error(self.mind_prior(degree), degree, p_treat) <= 1e-15

    @pytest.mark.parametrize("degree", SIMULATION_DEGREES)
    @pytest.mark.parametrize("p_treat", [0.3, 0.5])
    @pytest.mark.parametrize("eta1", [-2.0, 1.0, 3.0])
    def test_mdil_rows_are_the_exact_weights(self, degree, p_treat, eta1):
        assert self.row_error(self.mdil_prior(degree, eta1), degree, p_treat) <= 1e-15

    @pytest.mark.parametrize("degree", [100, 300])
    @pytest.mark.parametrize("p_treat", [0.3, 0.5])
    def test_high_degree_rows_are_the_exact_weights(self, degree, p_treat):
        """MInd, and MDil at the eta1 = 1 that every setting but a dilated one uses."""
        for prior in (self.mind_prior(degree), self.mdil_prior(degree, 1.0)):
            assert self.row_error(prior, degree, p_treat) <= 1e-15

    @pytest.mark.parametrize("name", ["HT0", "HT1", "HTAvg"])
    @pytest.mark.parametrize("p_treat", [0.3, 0.5])
    def test_ht_rows_are_the_exact_weights(self, name, p_treat):
        """Each HT row is the solve restricted to its exposures at rate 1 each.

        HT0 and HT1 are the only unbiased weights on their two exposures; on
        HTAvg's four, equal rates make the optimum the mean of the two.
        """
        own = {"HT0": (0,), "HT1": (1,), "HTAvg": (0, 1)}[name]
        for degree in [*SIMULATION_DEGREES, 100, 300]:
            dist = bernoulli_exposure_distribution(degree, p_treat)
            level, treated = canonical_grid(dist.spec.levels).T
            rates = [Fraction(int(k in (0, degree) and z in own)) for k, z in zip(level, treated)]
            exact, _ = exact_row_weights(dist.spec, dist.vector, rates)
            row = family_weights((name,), degree, p_treat)[0][2 * level + treated]
            assert self.error(row, exact) <= 1e-15, degree

    @pytest.mark.parametrize("degree", [1, 2, 5, 13])
    def test_row_form_is_the_general_solve(self, degree):
        """The O(d) form returns the same rationals as the Gauss-Jordan solve."""
        dist = bernoulli_exposure_distribution(degree, 0.3)
        for prior in (self.mind_prior(degree), self.mdil_prior(degree, -2.0)):
            variances = outcome_variance_vector(dist.spec, prior)
            rates = self.exact_rates(dist.vector, variances)
            assert (exact_row_weights(dist.spec, dist.vector, rates)
                    == exact_weights(dist.spec, dist.vector, variances))

    def test_small_panel_solves_are_the_exact_weights(self):
        """Every solvable solve on the panel's specs with at most 16 exposures."""
        solved = 0
        for spec, probs, prior in solve_panel():
            if spec.num_exposures > 16:
                continue
            try:
                error = self.forward_error(spec, probs, prior)
            except SingularSystemError:
                continue
            assert error <= 1e-14, spec
            solved += 1
        assert solved == 126

    def test_every_mdil_row_solves_at_negative_eta1(self):
        """MInd, and MDil at eta1 in -6..-0.5: every row at in-degree 1..30 is unbiased."""
        for p_treat in (0.1, 0.3, 0.5, 0.7, 0.9):
            for degree in range(1, 31):
                dist = bernoulli_exposure_distribution(degree, p_treat)
                slots = slot_order(degree)
                rows = [family_weights(("MInd",), degree, p_treat)[0]]
                rows += [family_weights(("MDil",), degree, p_treat, eta1)[0]
                         for eta1 in np.arange(-6.0, 0.0, 0.5)]
                residuals = constraint_residuals(dist.spec, dist.vector, np.array(rows)[:, slots])
                assert residuals.max() <= 1e-15, (p_treat, degree, residuals.argmax())


class TestPinnedArithmetic:
    """Solver arithmetic is pinned bit for bit, beyond what the CSV digests reach."""

    def test_variances_are_the_dense_contraction_bit_for_bit(self):
        priors = [(ExposureSpec((degree, 1)), prior)
                  for degree in [*range(1, 100), 200, 500] for prior in simulation_priors(degree)]
        rng, factors = np.random.default_rng(5), np.random.default_rng(13)
        for spec in small_specs():
            if len(spec.levels) > 3 or max(spec.levels) > 4:
                continue
            size = spec.num_parameters
            priors += [(spec, random_pd_prior(size, rng, jitter=0.0)) for _ in range(10)]
            cov = random_pd_prior(size, rng).covariance
            priors.append((spec, PriorSpec(cov, default_base_perturbation(size), dilation=1e3)))
            diagonal, factor = factors.uniform(0.0, 2.0, size), factors.normal(size=size)
            priors.append((spec, FactorPrior(diagonal, factor)))
        for spec, prior in priors:
            expected = dense_outcome_variances(spec, prior)
            assert outcome_variance_vector(spec, prior).tobytes() == expected.tobytes(), spec

    def test_solve_panel_digest_is_pinned(self):
        """Catches reorderings of the solver's sums that the simulation pins miss."""
        expected = "3e9f2f5619fe2ba5ee89531fe35c7ca76cb73a4202176adf67e6977b7bf0f493"
        assert solve_panel_digest() == expected

    def test_limit_panel_digest_is_pinned(self):
        """The dilation limit's solve and its support refusals, which the solve panel misses."""
        expected = "327d7caa1d8e0d51a41c13cd318d8912e8b9823208c184df7feeb40194cc33f0"
        assert limit_panel_digest() == expected

    def test_moments_panel_digest_is_pinned(self):
        """The moment-level solve and its vanishing-entry and shape refusals."""
        expected = "b5cfa4d348e4ba5411d98931a2d4d53aa8710b4dc6cae16302234edc598a9aaa"
        assert moments_panel_digest() == expected

    def test_unbiasedness_gate_is_the_dense_formula(self):
        """The one residual, summed over active parameters, matches the dense C-block formula.

        Both values are relative to max(1, sum_e |C_te w_e|), so they may differ
        only by the rounding of sums over at most 64 exposures.  A stack of one
        spec's solved rows gives each row's own residual, bit for bit.
        """
        solved = 0
        rows = {}
        for spec, probs, prior in solve_panel():
            try:
                solution = solve_mivlue(spec, probs, prior)
            except SingularSystemError:
                continue
            w = solution.estimator.vector
            c = indicator_matrix(spec) * probs.vector
            target = np.zeros(spec.num_parameters)
            target[target_position(spec)] = 1.0
            dense = (np.abs(c @ w - target) / np.maximum(1.0, np.abs(c * w).sum(axis=1))).max()
            residual = solution.constraint_residual()
            assert residual == constraint_residuals(spec, probs.vector, w)[0]
            assert abs(residual - dense) <= 1e-15, spec
            rows.setdefault((spec, probs), []).append(w)
            solved += 1
        assert solved > 1000
        for (spec, probs), weights in rows.items():
            stacked = constraint_residuals(spec, probs.vector, np.array(weights))
            single = [constraint_residuals(spec, probs.vector, w)[0] for w in weights]
            assert stacked.tobytes() == np.array(single).tobytes(), spec


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
