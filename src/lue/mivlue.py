"""Minimum-integrated-variance weights: the optimality solve, limits, closed forms.

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

from .design import ExposureDistribution, probability_vector
from .estimators import (UNBIASED_TOL, LinearEstimator, check_support_condition,
                         constraint_residuals)
from .exposure import (
    ExposureSpec,
    _canonical_exposures,
    active_parameters,
    exposure_columns,
    indicator_matrix,
    target_position,
)

PSD_TOL = 1e-10
CONDITION_WARN = 1e12
BASE_EPS = 1e-6


class SingularSystemError(RuntimeError):
    """The optimality system is rank deficient; the message names the culprit."""


def _check_psd(matrix: np.ndarray, name: str) -> None:
    """Reject ``matrix`` unless ``matrix + PSD_TOL * I`` has a Cholesky factor.

    A factor exists exactly when that shift is positive definite, which is
    the eigenvalue test ``min eig >= -PSD_TOL`` up to rounding, at about a
    quarter of the flops of a symmetric eigensolve (Higham, Accuracy and
    Stability of Numerical Algorithms, ch. 10).
    """
    try:
        np.linalg.cholesky(matrix + PSD_TOL * np.eye(len(matrix)))
    except np.linalg.LinAlgError:
        raise ValueError(f"{name} must be positive semi-definite") from None


@dataclass
class PriorSpec:
    """Mean-zero prior over the parameters, given by a covariance matrix.

    ``dilation`` scales the covariance and adds the small positive
    ``base_perturbation``, which is how degenerate priors are approached
    without losing full rank; :func:`outcome_variance_vector` applies it.
    A base perturbation without a dilation would be ignored, so it is rejected.
    """

    covariance: np.ndarray
    base_perturbation: np.ndarray | None = None
    dilation: float | None = None

    def __post_init__(self):
        cov = np.asarray(self.covariance, dtype=float)
        if cov.ndim != 2 or cov.shape[0] != cov.shape[1]:
            raise ValueError(f"covariance must be square, got shape {cov.shape}")
        if not np.isfinite(cov).all():
            raise ValueError("covariance entries must be finite")
        # Exact symmetry, the common case, needs no P x P temporaries.
        if not np.array_equal(cov, cov.T) and np.abs(cov - cov.T).max() > PSD_TOL:
            raise ValueError("covariance must be symmetric")
        _check_psd(cov, "covariance")
        self.covariance = cov
        if self.base_perturbation is not None:
            base = np.asarray(self.base_perturbation, dtype=float)
            if base.shape != cov.shape:
                raise ValueError("base perturbation must match the covariance shape")
            if not np.isfinite(base).all():
                raise ValueError("base perturbation entries must be finite")
            if (base <= 0).any():
                raise ValueError("base perturbation entries must be positive")
            _check_psd(base, "base perturbation")
            if self.dilation is None:
                raise ValueError("base_perturbation applies only under a dilation; none is given")
            self.base_perturbation = base
        # The chained comparison is False for NaN as well.
        if self.dilation is not None and not 0 <= self.dilation < np.inf:
            raise ValueError(f"dilation must be finite and non-negative, got {self.dilation!r}")

    @property
    def num_parameters(self) -> int:
        return self.covariance.shape[0]


class FactorPrior:
    """Prior with covariance diag(diagonal) + outer(factor, factor): PSD as given, never formed."""

    def __init__(self, diagonal, factor):
        s, f = np.asarray(diagonal, dtype=float), np.asarray(factor, dtype=float)
        if s.ndim != 1 or s.shape != f.shape:
            raise ValueError(f"diagonal {s.shape} and factor {f.shape} must be vectors of one size")
        if not (np.isfinite(s).all() and np.isfinite(f).all() and (s >= 0).all()):
            raise ValueError("entries must be finite, and diagonal entries non-negative")
        self.diagonal, self.factor, self.num_parameters = s, f, len(s)


def default_base_perturbation(num_parameters: int) -> np.ndarray:
    """Small positive-definite perturbation keeping every entry strictly positive."""
    eye, ones = np.eye(num_parameters), np.ones((num_parameters, num_parameters))
    return BASE_EPS * (eye + BASE_EPS * ones)


def support_null_prior(spec: ExposureSpec, support) -> np.ndarray:
    """Covariance whose null space is the span of the support's indicator vectors.

    Built as I - X X^T with X an orthonormal basis of that span, so dilating
    it blows up exactly the variances of off-support potential outcomes.
    """
    cols = exposure_columns(spec, support)
    if not cols:
        raise ValueError("support [] rejected: empty support")
    vs = indicator_matrix(spec)[:, cols]
    u, s, _ = np.linalg.svd(vs, full_matrices=False)
    x = u[:, s > PSD_TOL * s[0]]
    return np.eye(spec.num_parameters) - x @ x.T


def outcome_variance(prior: PriorSpec | FactorPrior, spec: ExposureSpec, e) -> float:
    """Prior variance of the potential outcome at ``e``: the indicator quadratic form."""
    (j,) = exposure_columns(spec, [e])
    return float(outcome_variance_vector(spec, prior)[j])


@dataclass
class KktSystem:
    """The optimality system as its exposure probabilities and outcome variances.

    The solve and its unbiasedness gate read only those two vectors; ``rhs``,
    the C block and the dense matrix, each built on read, are the system
    written out in full.
    """

    spec: ExposureSpec
    exposures: tuple
    probabilities: np.ndarray
    variances: np.ndarray

    @property
    def num_exposures(self) -> int:
        return len(self.exposures)

    @property
    def rhs(self) -> np.ndarray:
        """1 at the estimand's multiplier row, 0 elsewhere."""
        rhs = np.zeros(self.num_exposures + self.spec.num_parameters)
        rhs[self.num_exposures + target_position(self.spec)] = 1.0
        return rhs

    @property
    def constraints(self) -> np.ndarray:
        """The C block: each indicator column scaled by its exposure's probability."""
        return indicator_matrix(self.spec) * self.probabilities

    @property
    def matrix(self) -> np.ndarray:
        """[[W, C^T], [C, 0]] with W the diagonal of p(e) Var(Y(e))."""
        c, n_e = self.constraints, self.num_exposures
        mat = np.zeros((n_e + len(c), n_e + len(c)))
        mat[np.arange(n_e), np.arange(n_e)] = self.probabilities * self.variances
        mat[:n_e, n_e:] = c.T
        mat[n_e:, :n_e] = c
        return mat


def outcome_variance_vector(spec: ExposureSpec, prior: PriorSpec | FactorPrior) -> np.ndarray:
    """Prior variances of all potential outcomes, canonical exposure order.

    Each is the quadratic form of the exposure's indicator vector, which has
    at most K + 1 ones, so it sums only the covariance entries at those rows
    and columns, of either prior type: left to right in row-major order, the
    order of the dense contraction, which it matches bit for bit.  The form of
    a positive semi-definite matrix is clamped at zero below ``PSD_TOL``:
    sub-tolerance mass is rounding noise, and the dilation factor must scale
    exact zeros, not noise.
    """
    if prior.num_parameters != spec.num_parameters:
        raise ValueError(
            f"prior is over {prior.num_parameters} parameters, spec has {spec.num_parameters}"
        )
    positions, mask = active_parameters(spec)
    rows, cols = positions[:, :, None], positions[:, None, :]
    # Row q of each (pairs x exposures) array is the q-th (a, b) pair in row-major order.
    on = (mask[:, :, None] & mask[:, None, :]).reshape(len(mask), -1).T

    def quadratic_form(entries):
        terms = np.where(on, entries.reshape(len(mask), -1).T, 0.0)
        values = np.zeros(len(mask))
        for term in terms:
            values += term
        return np.where(values < PSD_TOL, 0.0, values)

    if isinstance(prior, FactorPrior):
        f, s = prior.factor, prior.diagonal
        return quadratic_form(f[rows] * f[cols] + s[rows] * (rows == cols))
    base = quadratic_form(prior.covariance[rows, cols])
    if prior.dilation is None:
        return base
    scaled = prior.dilation * base
    if prior.base_perturbation is not None:
        scaled = scaled + quadratic_form(prior.base_perturbation[rows, cols])
    return scaled


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
        """The relative unbiasedness residual of the weights, as the solve's gate reads it."""
        system = self.system
        return float(constraint_residuals(system.spec, system.probabilities,
                                          self.estimator.vector)[0])

    def quotient_residual(self) -> float:
        """Max deviation of each weight from its multiplier/variance quotient."""
        sys = self.system
        indicators = indicator_matrix(sys.spec)
        quotient = (indicators.T @ self.multipliers) / sys.variances
        return float(np.abs(self.estimator.vector - quotient).max())


def _solve_moments(spec: ExposureSpec, probabilities, variances, active=True) -> MivlueSolution:
    """Solve the optimality system from exposure probabilities and outcome variances.

    Rejects vanishing entries, naming the first in canonical order, then
    eliminates the first component in closed form.  A weight is
    (mu_{e_1} + b_e . theta) / Var(e), where b_e indicates the tail levels of e
    (components 2..K).  With rates r = p / Var, their sums R_j and
    the r-weighted tail means mean_j over e_1 = j, the first-component rows
    give mu_j = t_j / R_j - mean_j . theta (t_0 = -1, t_{m_1} = 1, else 0) and
    the tail rows the centred system S theta = mean_0 - mean_{m_1}.  Exposures
    outside ``active`` get rate and weight 0: that is the dilation limit.
    """
    exposures = _canonical_exposures(spec.levels)
    p = np.asarray(probabilities, dtype=float)
    variances = np.asarray(variances, dtype=float)
    if p.shape != (len(exposures),) or variances.shape != (len(exposures),):
        raise ValueError("need one probability and one variance per exposure")
    vanishing = (p <= 0.0) | (variances <= 0.0)
    if vanishing.any():
        j = int(np.argmax(vanishing))
        if p[j] <= 0.0:
            raise SingularSystemError(
                f"exposure {exposures[j]} has probability {p[j]}; system is singular")
        raise SingularSystemError(f"potential outcome at {exposures[j]} has prior variance "
                                  f"{variances[j]}; system is singular")
    m1 = spec.levels[0]
    positions, mask = active_parameters(spec)
    first = positions[:, 1]  # e_1's position is e_1, and 0 at level 0
    # Indicator rows m1 + 1.., without caching a P x E matrix; C-ordered, as BLAS summed them.
    columns, components = np.nonzero(mask[:, 2:])
    tail = np.zeros((spec.num_parameters - m1 - 1, len(positions)))
    tail[positions[:, 2:][columns, components] - m1 - 1, columns] = 1.0
    tail = tail.T
    # Row j holds the rates of group e_1 = j, so each group sums only its own
    # exposures: no group is ever a total minus the others.
    rate = p / variances * active
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
    w = (mu[first] + tail @ theta) / variances * active
    (residual,) = constraint_residuals(spec, p, w)
    if not residual <= UNBIASED_TOL:
        raise SingularSystemError(
            f"solved weights miss the unbiasedness constraints by {residual:.2e} relative")
    warnings = []
    if active is True and singular.size and singular[0] > CONDITION_WARN * singular[-1]:
        condition = singular[0] / singular[-1] if singular[-1] else np.inf
        warnings.append(f"optimality system condition estimate {condition:.2e} exceeds 1e12")
    multipliers = np.concatenate([mu[:1], mu[1:] - mu[0], theta])
    estimator = LinearEstimator(spec, w, name="mivlue")
    ivar = float(w @ (p * variances * w))
    return MivlueSolution(estimator, multipliers, ivar, KktSystem(spec, exposures, p, variances),
                          warnings)


def solve_mivlue(spec: ExposureSpec, probs: ExposureDistribution,
                 prior: PriorSpec | FactorPrior) -> MivlueSolution:
    """Solve the optimality system for the minimum-integrated-variance weights."""
    return _solve_moments(spec, probability_vector(spec, probs),
                          outcome_variance_vector(spec, prior))


def solve_from_moments(spec: ExposureSpec, probabilities, variances) -> MivlueSolution:
    """Solve directly from exposure probabilities and outcome variances."""
    return _solve_moments(spec, probabilities, variances)


@dataclass
class LimitSolution:
    """Optimal weights in the dilation limit, with the support they sit on."""

    solution: MivlueSolution
    support: tuple

    def off_support_mass(self) -> float:
        exposures = self.solution.system.exposures
        off = [e not in self.support for e in exposures]
        return float(np.abs(self.solution.estimator.vector[off]).max(initial=0.0))


def solve_mivlue_limit(spec: ExposureSpec, probs: ExposureDistribution, support) -> LimitSolution:
    """Limit of the optimal weights as the dilation of :func:`support_null_prior` grows.

    That covariance's null space is the span of the support's indicators, so
    dilating it sends the rate of every exposure outside that span to 0, while
    the others keep their base-perturbation variances.  The support must pass
    :func:`check_support_condition`, which leaves no outside exposure in that
    span; the limit is then one solve with the base variances, restricted to
    the support.
    """
    support = tuple(spec.validate_exposure(e) for e in support)
    check = check_support_condition(support, spec, probs)
    if not check:
        raise ValueError(f"support {list(support)} rejected: {check.reason}")
    active = np.zeros(spec.num_exposures, dtype=bool)
    active[exposure_columns(spec, support)] = True
    prior = PriorSpec(default_base_perturbation(spec.num_parameters))
    solution = _solve_moments(spec, probability_vector(spec, probs),
                              outcome_variance_vector(spec, prior), active)
    return LimitSolution(solution, support)


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
    p00, p0j, pm0, pmj, pM0, pMj = _six_term_rates(probs, np.ones(6))
    return float(pmj * pMj / ((p0j + pmj) * (pM0 + pMj)))
