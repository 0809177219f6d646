"""Self-check suites behind the ``verify`` subcommand.

Each check re-derives a property from an independent direction (closed form
against enumeration, constraints against constructions, closed-form weights
against the numeric solver) and reports pass/fail with the offending
instance serialized.  The check bodies accept the objects they verify as
arguments so a harness can inject corrupted inputs and confirm the checks
catch them.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .design import (
    BernoulliDesign,
    ExposureDistribution,
    bernoulli_exposure_prob,
    exposure_distribution_exact,
)
from .estimators import (
    affine_rank_is_full,
    basis_count,
    basis_identifiers,
    basis_weights,
    build_affine_basis,
    build_malue_set,
    build_zero_estimators,
    constraint_matrix,
    decompose_in_basis,
    lue_dimension,
    malue_count,
    zero_count,
)
from .exposure import ExposureSpec, enumerate_exposures
from .mivlue import (SIX_TERM_EXPOSURES, PriorSpec, outcome_variance, six_term_alpha_weights,
                     solve_mivlue)
from .networks import gen_erdos_renyi_directed, gen_k_regular_directed
from .simulation import (
    ExperimentConfig,
    NetworkConfig,
    OutcomeModel,
    compute_imse,
    sample_parameters,
    true_average_effect,
)

CONSTRAINT_TOL = 1e-10
SIX_TERM_TOL = 1e-8

PANEL_SPECS = ((1,), (3, 1), (2, 1), (1, 1, 1), (2, 2), (2, 1, 1), (4, 2), (1, 1, 1, 1))


@dataclass
class CheckResult:
    name: str
    passed: bool
    duration: float
    details: str = ""

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        suffix = f": {self.details}" if self.details and not self.passed else ""
        return f"[{status}] {self.name} ({self.duration:.2f}s){suffix}"


def _timed(name, fn) -> CheckResult:
    start = time.perf_counter()
    passed, details = fn()
    return CheckResult(name, passed, time.perf_counter() - start, details)


def verify_estimator_set(spec: ExposureSpec, probs: ExposureDistribution,
                         estimators=None, zeros=None) -> tuple[bool, str]:
    """Every atomic estimator must satisfy the constraints; zeros must vanish.

    Each set is read as its weight array and checked with one product.
    """
    if estimators is None:
        estimators = build_malue_set(spec, probs)
    if zeros is None:
        zeros = build_zero_estimators(spec, probs)
    c = constraint_matrix(spec, probs)
    for members, target, failure in (
            (estimators, c.target_vector(), "violates constraints (residual {:.3e})"),
            (zeros, np.zeros(spec.num_parameters), "has nonzero expectation ({:.3e})")):
        weights = np.asarray(members).reshape(len(members), spec.num_exposures)
        residuals = np.abs(c.matrix @ weights.T - target[:, None]).max(axis=0)
        bad = np.flatnonzero(residuals > CONSTRAINT_TOL)
        if bad.size:
            return False, f"estimator {members[bad[0]].name} {failure.format(residuals[bad[0]])}"
    return True, ""


def check_constraint_residuals(seed: int = 0) -> CheckResult:
    def body():
        rng = np.random.default_rng(seed)
        for levels in PANEL_SPECS:
            spec = ExposureSpec(levels)
            for _ in range(5):
                raw = rng.dirichlet(np.ones(spec.num_exposures))
                probs = ExposureDistribution(spec, dict(zip(enumerate_exposures(spec), raw)))
                ok, details = verify_estimator_set(spec, probs)
                if not ok:
                    return False, f"levels {levels}: {details}"
        return True, ""

    return _timed("constraint_residuals", body)


def check_basis_ranks(budget: int = 256) -> CheckResult:
    def body():
        for levels in specs_up_to(budget):
            spec = ExposureSpec(levels)
            atomic, zeros = basis_identifiers(spec)
            if len(atomic) != malue_count(spec) or len(zeros) != zero_count(spec):
                return False, (
                    f"levels {levels}: enumerated sizes ({len(atomic)}, {len(zeros)}) "
                    f"!= closed forms ({malue_count(spec)}, {zero_count(spec)})"
                )
            weights = basis_weights(spec)
            if len(weights) != basis_count(spec):
                return False, f"levels {levels}: basis size mismatch"
            if not affine_rank_is_full(weights, spec):
                return False, f"levels {levels}: basis is affinely dependent"
            if lue_dimension(spec) != basis_count(spec) - 1:
                return False, f"levels {levels}: dimension identity fails"
        return True, ""

    return _timed("basis_ranks", body)


def verify_six_term_closed_form(alpha_fn=six_term_alpha_weights, trials: int = 100,
                                seed: int = 0) -> tuple[bool, str]:
    """Closed-form coefficients must match the numeric optimality solve."""
    rng = np.random.default_rng(seed)
    spec = ExposureSpec((2, 1))
    for trial in range(trials):
        raw = rng.dirichlet(np.ones(6))
        probs = ExposureDistribution(spec, dict(zip(enumerate_exposures(spec), raw)))
        a = rng.normal(size=(4, 4))
        prior = PriorSpec(a @ a.T + 0.1 * np.eye(4))
        solution = solve_mivlue(spec, probs, prior)
        basis = build_affine_basis(spec, probs)
        a3_n, a2_n, a1_n = decompose_in_basis(solution.estimator, basis, probs)
        p6 = [probs[e] for e in SIX_TERM_EXPOSURES]
        v6 = [outcome_variance(prior, spec, e) for e in SIX_TERM_EXPOSURES]
        a1, a2, a3 = alpha_fn(p6, v6)
        err = max(abs(a1 - a1_n), abs(a2 - a2_n), abs(a3 - a3_n))
        if err > SIX_TERM_TOL:
            return False, (
                f"trial {trial}: closed form ({a1:.6g}, {a2:.6g}, {a3:.6g}) vs numeric "
                f"({a1_n:.6g}, {a2_n:.6g}, {a3_n:.6g}), p={p6}, var={v6}"
            )
        if abs(a1 + a2 + a3 - 1.0) > 1e-12:
            return False, f"trial {trial}: coefficients sum to {a1 + a2 + a3!r}"
    return True, ""


def check_six_term_closed_form(seed: int = 0) -> CheckResult:
    return _timed("six_term_closed_form", lambda: verify_six_term_closed_form(seed=seed))


def check_design_oracle() -> CheckResult:
    def body():
        graphs = []
        for n in (3, 5, 8, 10):
            graphs.append(gen_k_regular_directed(n, min(2, n - 1), seed=n))
            graphs.append(gen_erdos_renyi_directed(n, 0.4, seed=n + 100))
        for network in graphs:
            for p_treat in (0.5, 0.3):
                design = BernoulliDesign(network.n, p_treat)
                for unit in range(network.n):
                    degree = int(network.in_degrees[unit])
                    if degree < 1:
                        continue
                    exact = exposure_distribution_exact(
                        design, "network_interference", network, unit)
                    for e in exact:
                        closed = bernoulli_exposure_prob(degree, e, p_treat)
                        if abs(closed - exact[e]) > 1e-12:
                            return False, (
                                f"n={network.n} unit={unit} exposure={e}: closed {closed!r} "
                                f"vs exact {exact[e]!r}"
                            )
        return True, ""

    return _timed("design_oracle", body)


def check_enumeration_unbiasedness() -> CheckResult:
    def body():
        config = ExperimentConfig(
            network=NetworkConfig("k_regular", 8, k=2),
            outcome=OutcomeModel("independent", mu1=0.0),
            num_draws=5,
            allocation_mode="exhaustive",
            master_seed=3,
        )
        report = compute_imse(config)
        network = config.network.build(np.random.SeedSequence([3, 3]))
        for draw in range(config.num_draws):
            params = sample_parameters(network, config.outcome, [3, draw])
            theta_bar = true_average_effect(network, params)
            for name, result in report.results.items():
                gap = abs(result.per_draw_mean[draw] - theta_bar)
                if gap > 1e-10:
                    return False, f"{name} draw {draw}: |mean - truth| = {gap:.3e}"
        return True, ""

    return _timed("enumeration_unbiasedness", body)


def specs_up_to(budget: int) -> list[tuple[int, ...]]:
    """Every level tuple whose exposure-set size fits the budget."""
    out: list[tuple[int, ...]] = []

    def extend(prefix, remaining):
        for m in range(1, remaining):
            if m + 1 > remaining:
                break
            out.append(tuple(prefix + [m]))
            extend(prefix + [m], remaining // (m + 1))

    extend([], budget)
    return out


ALL_CHECKS = {
    "constraint_residuals": check_constraint_residuals,
    "basis_ranks": check_basis_ranks,
    "six_term_closed_form": check_six_term_closed_form,
    "design_oracle": check_design_oracle,
    "enumeration_unbiasedness": check_enumeration_unbiasedness,
}


def run_verify(name_filter: str | None = None) -> list[CheckResult]:
    results = []
    for name, check in ALL_CHECKS.items():
        if name_filter and name_filter not in name:
            continue
        results.append(check())
    return results
