"""Self-check suites behind the ``verify`` subcommand.

Each check re-derives a property from an independent direction (closed form
against enumeration, constraints against constructions, closed-form weights
against the numeric solver) and returns ``(passed, details)``, with the
offending instance serialized in ``details``.  ``run_verify`` times each
entry of ``ALL_CHECKS``; adding a check is one ``check_<name>()`` and one
entry.  Keyword arguments (``estimators``, ``alpha_fn``) let a harness inject
corrupted inputs and confirm the checks catch them.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from .design import (
    BernoulliDesign,
    ExposureDistribution,
    allocation_matrix,
    bernoulli_exposure_distribution,
    exact_cell_masses,
    probability_vector,
    slot_order,
)
from .estimators import (
    UNBIASED_TOL,
    _layouts,
    _triangular,
    affine_rank_is_full,
    basis_count,
    build_affine_basis,
    build_malue_set,
    build_zero_estimators,
    constraint_residuals,
    decompose_in_basis,
    lue_dimension,
    malue_count,
    zero_count,
)
from .exposure import ExposureSpec, exposure_columns
from .mivlue import SIX_TERM_EXPOSURES, PriorSpec, six_term_alpha_weights, solve_mivlue
from .networks import gen_erdos_renyi_directed, gen_k_regular_directed
from .simulation import (
    ExperimentConfig,
    NetworkConfig,
    OutcomeModel,
    compute_imse,
    included_units,
    joint_exposure_pmf,
    sample_parameters,
    true_average_effect,
)

SIX_TERM_TOL = 1e-8
# Random instances come from one fixed seed, so every run checks the same ones.
CHECK_SEED = 0
# Exposures per batch of the basis sweep, chosen by the sweep's peak memory.
_BATCH_EXPOSURES = 2048

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


def verify_estimator_set(spec: ExposureSpec, probs: ExposureDistribution,
                         estimators=None, zeros=None) -> tuple[bool, str]:
    """Every atomic estimator must satisfy the constraints; zeros must vanish.

    Each set is read as its weight array and checked with one call of the
    relative residual.
    """
    if estimators is None:
        estimators = build_malue_set(spec, probs)
    if zeros is None:
        zeros = build_zero_estimators(spec, probs)
    p = probability_vector(spec, probs)
    for members, target, failure in (
            (estimators, 1.0, "violates constraints (relative residual {:.3e})"),
            (zeros, 0.0, "has nonzero expectation (relative residual {:.3e})")):
        weights = np.asarray(members).reshape(len(members), spec.num_exposures)
        residuals = constraint_residuals(spec, p, weights, target)
        bad = np.flatnonzero(residuals > UNBIASED_TOL)
        if bad.size:
            return False, f"estimator {members[bad[0]].name} {failure.format(residuals[bad[0]])}"
    return True, ""


def check_constraint_residuals() -> tuple[bool, str]:
    rng = np.random.default_rng(CHECK_SEED)
    for levels in PANEL_SPECS:
        spec = ExposureSpec(levels)
        for _ in range(5):
            raw = rng.dirichlet(np.ones(spec.num_exposures))
            probs = ExposureDistribution(spec, raw)
            ok, details = verify_estimator_set(spec, probs)
            if not ok:
                return False, f"levels {levels}: {details}"
    return True, ""


def check_basis_ranks() -> tuple[bool, str]:
    """Basis sizes, rank and dimension of every spec with at most 256 exposures, by batches.

    A batch holds the specs starting in one window of ``_BATCH_EXPOSURES``
    exposures; a spec its triangular pass refuses is built and certified alone.
    """
    specs = specs_up_to(256)
    starts = np.cumsum([0] + [math.prod(m + 1 for m in levels) for levels in specs])[:-1]
    cuts = [0, *(np.flatnonzero(np.diff(starts // _BATCH_EXPOSURES)) + 1).tolist(), len(specs)]
    for batch in (specs[start:stop] for start, stop in zip(cuts, cuts[1:])):
        ids, rows, cols, _, atomic, offsets = _layouts(batch)
        passed = _triangular(ids, rows, cols, offsets).tolist()
        sizes = np.diff(offsets[0]).tolist()
        for levels, n_atomic, n_basis, ok in zip(batch, atomic.tolist(), sizes, passed):
            spec = ExposureSpec(levels)
            if n_atomic != malue_count(spec) or n_basis - n_atomic != zero_count(spec):
                return False, (
                    f"levels {levels}: enumerated sizes ({n_atomic}, {n_basis - n_atomic}) "
                    f"!= closed forms ({malue_count(spec)}, {zero_count(spec)})"
                )
            if n_basis != basis_count(spec):
                return False, f"levels {levels}: basis size mismatch"
            if not ok and not affine_rank_is_full(build_affine_basis(spec), spec):
                return False, f"levels {levels}: basis is affinely dependent"
            if lue_dimension(spec) != basis_count(spec) - 1:
                return False, f"levels {levels}: dimension identity fails"
    return True, ""


def check_six_term_closed_form(alpha_fn=six_term_alpha_weights,
                               trials: int = 100) -> tuple[bool, str]:
    """Closed-form coefficients must match the numeric optimality solve."""
    rng = np.random.default_rng(CHECK_SEED)
    spec = ExposureSpec((2, 1))
    six = exposure_columns(spec, SIX_TERM_EXPOSURES)
    for trial in range(trials):
        raw = rng.dirichlet(np.ones(6))
        probs = ExposureDistribution(spec, raw)
        a = rng.normal(size=(4, 4))
        prior = PriorSpec(a @ a.T + 0.1 * np.eye(4))
        solution = solve_mivlue(spec, probs, prior)
        basis = build_affine_basis(spec, probs)
        a3_n, a2_n, a1_n = decompose_in_basis(solution.estimator, basis, probs)
        p6 = [probs[e] for e in SIX_TERM_EXPOSURES]
        v6 = solution.system.variances[six].tolist()
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


def check_design_oracle() -> tuple[bool, str]:
    """Unit and pairwise joint pmfs against exact whole-network enumeration (exact at 0.5)."""
    graphs = []
    for n in (3, 5, 8, 10):
        graphs.append(gen_k_regular_directed(n, min(2, n - 1), seed=n))
        graphs.append(gen_erdos_renyi_directed(n, 0.4, seed=n + 100))
    for network in graphs:
        units = included_units(network)
        width = 2 * (int(network.in_degrees.max()) + 1)
        for p_treat in (0.5, 0.3):
            alloc = allocation_matrix(BernoulliDesign(network.n, p_treat))
            slots = (2 * (alloc @ network.adjacency) + alloc)[:, units]
            exact = np.zeros((len(units), width, len(units), width))
            for a, b in np.ndindex(len(units), len(units)):
                exact[a, :, b] = exact_cell_masses(alloc, slots[:, a] * width + slots[:, b],
                                                   width * width, p_treat).reshape(width, width)
            bound = 0.0 if p_treat == 0.5 else 1e-15
            for a, unit in enumerate(units):
                degree = int(network.in_degrees[unit])
                order = slot_order(degree)
                closed = bernoulli_exposure_distribution(degree, p_treat)
                own = exact[a, order, a, order]
                bad = np.flatnonzero(np.abs(closed.vector - own) > bound)
                if bad.size:
                    j = bad[0]
                    return False, (f"n={network.n} unit={unit} exposure={list(closed)[j]}: closed "
                                   f"{float(closed.vector[j])!r} vs exact {float(own[j])!r}")
            blocks = joint_exposure_pmf(network, units, width, p_treat).reshape(exact.shape)
            gaps = np.abs(blocks - exact).max(axis=(1, 3))
            if (gaps > bound).any():
                a, b = np.argwhere(gaps > bound)[0]
                return False, (f"n={network.n} p_treat={p_treat} units ({units[a]}, {units[b]}): "
                               f"joint pmf off by {gaps[a, b]:.3e} vs exact enumeration")
    return True, ""


def check_enumeration_unbiasedness() -> tuple[bool, str]:
    config = ExperimentConfig(
        network=NetworkConfig("k_regular", 8, k=2),
        outcome=OutcomeModel("independent", mu1=0.0),
        num_draws=5,
        allocation_mode="exhaustive",
        master_seed=3,
    )
    report = compute_imse(config)
    network = config.build_network()
    params = sample_parameters(network, config.outcome, config.master_seed,
                               range(config.num_draws))
    for draw, theta_bar in enumerate(true_average_effect(network, params)):
        for name, result in report.results.items():
            gap = abs(result.per_draw_mean[draw] - theta_bar)
            if gap > 1e-10:
                return False, f"{name} draw {draw}: |mean - truth| = {gap:.3e}"
    return True, ""


def specs_up_to(budget: int) -> list[tuple[int, ...]]:
    """Every level tuple whose exposure-set size fits the budget."""
    out: list[tuple[int, ...]] = []

    def extend(prefix, remaining):
        for m in range(1, remaining):
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
        start = time.perf_counter()
        passed, details = check()
        results.append(CheckResult(name, passed, time.perf_counter() - start, details))
    return results
