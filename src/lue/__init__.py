"""Linear unbiased estimators for causal effects under additive exposure models."""

from .design import (
    BernoulliDesign,
    ExposureDistribution,
    allocation_matrix,
    bernoulli_exposure_distribution,
    bernoulli_exposure_prob,
    bernoulli_slot_pmf,
    exposure_distribution_exact,
    uniform_distribution,
)
from .estimators import (
    ConstraintMatrix,
    LinearEstimator,
    SupportCheck,
    affine_rank,
    basis_count,
    build_affine_basis,
    build_malue_set,
    build_zero_estimators,
    check_support_condition,
    constraint_matrix,
    decompose_in_basis,
    lue_dimension,
    malue_count,
    sample_random_lue,
    zero_count,
)
from .exposure import (
    ExposureSpec,
    apply_exposure_mapping,
    enumerate_exposures,
    indicator_vector,
)
from .mivlue import (
    KktSystem,
    MivlueSolution,
    PriorSpec,
    SingularSystemError,
    max_alpha3,
    outcome_variance,
    six_term_alpha_weights,
    solve_from_moments,
    solve_mivlue,
    solve_mivlue_limit,
    support_null_prior,
)
from .networks import (
    Network,
    gen_erdos_renyi_directed,
    gen_k_regular_directed,
)
from .simulation import (
    ExperimentConfig,
    ImseReport,
    NetworkConfig,
    OutcomeModel,
    Parameters,
    build_estimator_family,
    compute_imse,
    sample_parameters,
)
from .verify import run_verify

__version__ = "0.2.0"

__all__ = [name for name in dir() if not name.startswith("_")]
