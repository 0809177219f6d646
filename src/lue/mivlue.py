"""Minimum-integrated-variance weights: block KKT assembly, limits, closed forms.

The optimal weights minimize the prior-averaged variance subject to the
unbiasedness constraints.  Stationarity plus the constraints form a block
linear system

    [[W, C^T], [C, 0]] [w; lam] = b,

with W the diagonal of p(e) Var(Y(e)) and b equal to 1 at the estimand's
multiplier row.  Each solved weight is an inverse-variance quotient: the sum
of the multipliers of the parameters active in the exposure, divided by the
prior variance of its potential outcome.  Because W is diagonal, the system is
solved by range-space elimination (Nocedal & Wright, Numerical Optimization,
sec. 16.2): the first component's multipliers have a closed form, leaving a
system the size of the other components' levels.  Degenerate priors are the
limit of a dilation that sends off-support variances to infinity; that limit
is the same solve restricted to the support.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .design import ExposureDistribution
from .estimators import LinearEstimator, SupportCheck, check_support_condition
from .exposure import (
    ExposureSpec,
    enumerate_exposures,
    indicator_matrix,
    indicator_vector,
    target_position,
)

PSD_TOL = 1e-10
CONDITION_WARN = 1e12
UNBIASED_TOL = 1e-10
BASE_EPS = 1e-6


class SingularSystemError(RuntimeError):
    """The optimality system is rank deficient; the message names the culprit."""


@dataclass
class PriorSpec:
    """Mean-zero prior over the parameters, given by a covariance matrix.

    ``dilation`` scales the covariance and adds the small positive
    ``base_perturbation``, which is how degenerate priors are approached
    without losing full rank.
    """

    covariance: np.ndarray
    base_perturbation: np.ndarray | None = None
    dilation: float | None = None

    def __post_init__(self):
        cov = np.asarray(self.covariance, dtype=float)
        if cov.ndim != 2 or cov.shape[0] != cov.shape[1]:
            raise ValueError(f"covariance must be square, got shape {cov.shape}")
        if np.abs(cov - cov.T).max() > PSD_TOL:
            raise ValueError("covariance must be symmetric")
        if np.linalg.eigvalsh(cov).min() < -PSD_TOL:
            raise ValueError("covariance must be positive semi-definite")
        self.covariance = cov
        if self.base_perturbation is not None:
            base = np.asarray(self.base_perturbation, dtype=float)
            if base.shape != cov.shape:
                raise ValueError("base perturbation must match the covariance shape")
            if (base <= 0).any():
                raise ValueError("base perturbation entries must be positive")
            if np.linalg.eigvalsh(base).min() < -PSD_TOL:
                raise ValueError("base perturbation must be positive semi-definite")
            self.base_perturbation = base

    @property
    def num_parameters(self) -> int:
        return self.covariance.shape[0]

    def effective_covariance(self) -> np.ndarray:
        if self.dilation is None:
            return self.covariance
        cov = self.dilation * self.covariance
        if self.base_perturbation is not None:
            cov = cov + self.base_perturbation
        return cov


def identity_prior(spec: ExposureSpec) -> PriorSpec:
    return PriorSpec(np.eye(spec.num_parameters))


def default_base_perturbation(num_parameters: int, eps: float = BASE_EPS) -> np.ndarray:
    """Small positive-definite perturbation keeping every entry strictly positive."""
    return eps * (np.eye(num_parameters) + eps * np.ones((num_parameters, num_parameters)))


def support_null_prior(spec: ExposureSpec, support) -> np.ndarray:
    """Covariance whose null space is the span of the support's indicator vectors.

    Built as I - X X^T with X an orthonormal basis of that span, so dilating
    it blows up exactly the variances of off-support potential outcomes.
    """
    vs = np.vstack([indicator_vector(spec, e) for e in support]).T
    u, s, _ = np.linalg.svd(vs, full_matrices=False)
    x = u[:, s > PSD_TOL * s[0]]
    return np.eye(spec.num_parameters) - x @ x.T


def outcome_variance(prior: PriorSpec, spec: ExposureSpec, e) -> float:
    """Prior variance of the potential outcome at ``e``: the indicator quadratic form."""
    e = spec.validate_exposure(e)
    index = enumerate_exposures(spec).index(e)
    return float(outcome_variance_vector(spec, prior)[index])


@dataclass
class KktSystem:
    """Assembled optimality system with its row/column bookkeeping."""

    spec: ExposureSpec
    matrix: np.ndarray  # [[W, C^T], [C, 0]]
    rhs: np.ndarray
    exposures: tuple
    probabilities: np.ndarray
    variances: np.ndarray
    constraints: np.ndarray  # the C block

    @property
    def num_exposures(self) -> int:
        return len(self.exposures)


def outcome_variance_vector(spec: ExposureSpec, prior: PriorSpec) -> np.ndarray:
    """Prior variances of all potential outcomes, canonical exposure order.

    The quadratic form of a positive semi-definite matrix is clamped at zero
    below ``PSD_TOL``: sub-tolerance mass is rounding noise, and the dilation
    factor must scale exact zeros, not noise.
    """
    if prior.num_parameters != spec.num_parameters:
        raise ValueError(
            f"prior is over {prior.num_parameters} parameters, spec has {spec.num_parameters}"
        )
    indicators = indicator_matrix(spec)

    def quadratic_form(matrix):
        values = np.einsum("ij,ik,kj->j", indicators, matrix, indicators)
        return np.where(values < PSD_TOL, 0.0, values)

    base = quadratic_form(prior.covariance)
    if prior.dilation is None:
        return base
    scaled = prior.dilation * base
    if prior.base_perturbation is not None:
        scaled = scaled + quadratic_form(prior.base_perturbation)
    return scaled


def assemble_from_moments(spec: ExposureSpec, probabilities, variances) -> KktSystem:
    """Build the block system from exposure probabilities and outcome variances.

    The prior enters the optimization only through the outcome variances, so
    this is the ground-level assembly; rejects vanishing entries by name.
    """
    exposures = tuple(enumerate_exposures(spec))
    p = np.asarray(probabilities, dtype=float)
    variances = np.asarray(variances, dtype=float)
    if p.shape != (len(exposures),) or variances.shape != (len(exposures),):
        raise ValueError("need one probability and one variance per exposure")
    for e, p_e, var_e in zip(exposures, p, variances):
        if p_e <= 0.0:
            raise SingularSystemError(f"exposure {e} has probability {p_e}; system is singular")
        if var_e <= 0.0:
            raise SingularSystemError(
                f"potential outcome at {e} has prior variance {var_e}; system is singular"
            )
    c = indicator_matrix(spec) * p
    n_e, n_t = len(exposures), spec.num_parameters
    mat = np.zeros((n_e + n_t, n_e + n_t))
    mat[np.arange(n_e), np.arange(n_e)] = p * variances
    mat[:n_e, n_e:] = c.T
    mat[n_e:, :n_e] = c
    rhs = np.zeros(n_e + n_t)
    rhs[n_e + target_position(spec)] = 1.0
    return KktSystem(spec, mat, rhs, exposures, p, variances, c)


def assemble_system(spec: ExposureSpec, probs: ExposureDistribution,
                    prior: PriorSpec) -> KktSystem:
    """Build the block system for a prior; rejects vanishing variances or probabilities."""
    return assemble_from_moments(spec, probs.vector(), outcome_variance_vector(spec, prior))


@dataclass
class MivlueSolution:
    """Solved weights, multipliers, and the minimized objective.

    ``multipliers`` follow the sign convention in which each weight equals
    the quotient (multipliers . indicator of e) / Var(Y(e)).  The reported
    integrated variance is the weight-dependent part of the objective,
    sum_e p(e) w(e)^2 Var(Y(e)); the additive constant independent of the
    weights is dropped.
    """

    estimator: LinearEstimator
    multipliers: np.ndarray
    integrated_variance: float
    system: KktSystem
    warnings: list[str] = field(default_factory=list)

    def constraint_residual(self) -> float:
        w = self.estimator.vector
        rhs = self.system.rhs[self.system.num_exposures:]
        return float(np.abs(self.system.constraints @ w - rhs).max())

    def quotient_residual(self) -> float:
        """Max deviation of each weight from its multiplier/variance quotient."""
        sys = self.system
        indicators = indicator_matrix(sys.spec, sys.exposures)
        quotient = (indicators.T @ self.multipliers) / sys.variances
        return float(np.abs(self.estimator.vector - quotient).max())


def _solve_assembled(system: KktSystem, active=True) -> MivlueSolution:
    """Eliminate the first component in closed form and solve the small tail system.

    A weight is (mu_{e_1} + b_e . theta) / Var(e), where b_e indicates the tail
    levels of e (components 2..K).  With rates r = p / Var, their sums R_j and
    the r-weighted tail means mean_j over e_1 = j, the first-component rows
    give mu_j = t_j / R_j - mean_j . theta (t_0 = -1, t_{m_1} = 1, else 0) and
    the tail rows the centred system S theta = mean_0 - mean_{m_1}.  Exposures
    outside ``active`` get rate and weight 0: that is the dilation limit.
    """
    m1 = system.spec.levels[0]
    indicators = indicator_matrix(system.spec, system.exposures)
    first = (np.arange(1, m1 + 1) @ indicators[1:m1 + 1]).astype(int)
    tail = indicators[m1 + 1:].T
    # Row j holds the rates of group e_1 = j, so each group sums only its own
    # exposures: no group is ever a total minus the others.
    rate = system.probabilities / system.variances * active
    member = (first == np.arange(m1 + 1)[:, None]) * rate
    total = member.sum(axis=1)
    occupied = total > 0.0
    mean = np.divide(member @ tail, total[:, None], out=np.zeros((m1 + 1, tail.shape[1])),
                     where=occupied[:, None])
    centred = tail - mean[first]
    # S is singular when the active set omits a tail level; the minimum-norm
    # theta leaves every active weight unchanged.
    theta, _, _, singular = np.linalg.lstsq((centred * rate[:, None]).T @ centred,
                                            mean[0] - mean[m1], rcond=None)
    t = np.r_[-1.0, np.zeros(m1 - 1), 1.0]
    mu = np.divide(t, total, out=np.zeros(m1 + 1), where=occupied) - mean @ theta
    w = (mu[first] + tail @ theta) / system.variances * active
    c, target = system.constraints, system.rhs[system.num_exposures:]
    residual = (np.abs(c @ w - target) / np.maximum(1.0, np.abs(c * w).sum(axis=1))).max()
    if not residual <= UNBIASED_TOL:
        raise SingularSystemError(
            f"solved weights miss the unbiasedness constraints by {residual:.2e} relative")
    warnings = []
    if active is True and singular.size and singular[0] > CONDITION_WARN * singular[-1]:
        condition = singular[0] / singular[-1] if singular[-1] else np.inf
        warnings.append(f"optimality system condition estimate {condition:.2e} exceeds 1e12")
    multipliers = np.concatenate([mu[:1], mu[1:] - mu[0], theta])
    estimator = LinearEstimator(system.spec, w, name="mivlue")
    ivar = float(w @ (system.probabilities * system.variances * w))
    return MivlueSolution(estimator, multipliers, ivar, system, warnings)


def solve_mivlue(spec: ExposureSpec, probs: ExposureDistribution,
                 prior: PriorSpec) -> MivlueSolution:
    """Solve the optimality system for the minimum-integrated-variance weights."""
    return _solve_assembled(assemble_system(spec, probs, prior))


def solve_from_moments(spec: ExposureSpec, probabilities, variances) -> MivlueSolution:
    """Solve directly from exposure probabilities and outcome variances."""
    return _solve_assembled(assemble_from_moments(spec, probabilities, variances))


@dataclass
class LimitSolution:
    """Optimal weights in the dilation limit, with the support they sit on."""

    solution: MivlueSolution
    support: tuple

    def off_support_mass(self) -> float:
        exposures = self.solution.system.exposures
        off = [e not in self.support for e in exposures]
        return float(np.abs(self.solution.estimator.vector[off]).max(initial=0.0))


def solve_mivlue_limit(spec: ExposureSpec, probs: ExposureDistribution, support,
                       sigma: np.ndarray | None = None,
                       base_perturbation: np.ndarray | None = None) -> LimitSolution:
    """Limit of the optimal weights as the dilation of ``sigma`` grows without bound.

    Every exposure with positive variance under ``sigma`` then has rate 0; the
    others keep their base-perturbation variances.  So the limit is one solve
    with the base variances, restricted to the exposures ``sigma`` leaves
    variance-free.  The support must pass :func:`check_support_condition`;
    ``sigma`` defaults to the covariance whose null space is the support span,
    whose variance-free exposures are exactly the support.
    """
    support = tuple(spec.validate_exposure(e) for e in support)
    check: SupportCheck = check_support_condition(support, spec, probs)
    if not check:
        raise ValueError(f"support {list(support)} rejected: {check.reason}")
    if sigma is None:
        sigma = support_null_prior(spec, support)
    if base_perturbation is None:
        base_perturbation = default_base_perturbation(spec.num_parameters)
    active = outcome_variance_vector(spec, PriorSpec(sigma)) == 0.0
    system = assemble_system(spec, probs, PriorSpec(base_perturbation))
    return LimitSolution(_solve_assembled(system, active), support)


# Canonical ordering of the six-exposure problem: the support
# {(0,0), (0,j), (m,0), (m,j), (m1,0), (m1,j)} with m strictly between 0 and
# m1 and j a fixed nonzero second component.
SIX_TERM_ORDER = ("(0,0)", "(0,j)", "(m,0)", "(m,j)", "(m1,0)", "(m1,j)")
# The same six exposures in the (2, 1) spec, where m = 1, m1 = 2 and j = 1.
SIX_TERM_EXPOSURES = ((0, 0), (0, 1), (1, 0), (1, 1), (2, 0), (2, 1))


def _six_term_rates(probs, variances) -> np.ndarray:
    p = np.asarray(probs, dtype=float)
    v = np.asarray(variances, dtype=float)
    if p.shape != (6,) or v.shape != (6,):
        raise ValueError(f"need six probabilities and six variances, order {SIX_TERM_ORDER}")
    if (p <= 0).any() or (v <= 0).any():
        raise ValueError("probabilities and variances must all be positive")
    return p / v


def six_term_alpha_weights(probs, variances) -> tuple[float, float, float]:
    """Closed-form coefficients on the three-estimator basis of the six-exposure problem.

    Inputs are the probabilities and prior outcome variances of the six
    exposures in ``SIX_TERM_ORDER``.  Returns (a1, a2, a3): the coefficients
    on the untreated-tail two-term, the j-tail two-term, and the four-term
    estimator; they sum to one.
    """
    r00, r0j, rm0, rmj, rM0, rMj = _six_term_rates(probs, variances)
    denom = (
        rM0 * (r00 * rm0 * rMj + r00 * rmj * rMj)
        + rMj * (rM0 * rm0 * r0j + rM0 * rmj * r0j)
        + (rM0 + rMj)
        * (r00 * rm0 * r0j + r00 * rm0 * rmj + r00 * rmj * r0j + r0j * rm0 * rmj)
    )
    a1 = rM0 * (
        r00 * rm0 * r0j + r00 * rm0 * rMj + r00 * rm0 * rmj
        + r00 * rmj * r0j + r00 * rmj * rMj + r0j * rm0 * rmj
    ) / denom
    a2 = r0j * (
        rm0 * rMj * r00 + rmj * rMj * r00 + rM0 * rm0 * rmj
        + rM0 * rm0 * rMj + rM0 * rmj * rMj + rMj * rm0 * rmj
    ) / denom
    a3 = rm0 * rmj * (rMj * r00 - rM0 * r0j) / denom
    return float(a1), float(a2), float(a3)


def max_alpha3(probs) -> float:
    """Largest achievable four-term coefficient; depends only on the design.

    Attained in the limit of vanishing baseline and intermediate-level
    variances with the estimand's variance growing without bound.
    """
    p = np.asarray(probs, dtype=float)
    if p.shape != (6,):
        raise ValueError(f"need six probabilities, order {SIX_TERM_ORDER}")
    if (p <= 0).any():
        raise ValueError("probabilities must all be positive")
    p00, p0j, pm0, pmj, pM0, pMj = p
    return float(pmj * pMj / ((p0j + pmj) * (pM0 + pMj)))
