"""Outcome generation, the five estimator families, and integrated-MSE computation.

The harness targets the average interference effect on a directed network:
for every unit, the contrast between all in-neighbors treated and none
treated.  Potential outcomes are additive by default; the interaction model
adds a direct-by-interference term that breaks additivity by a controlled
amount, and the dilated model makes all parameters perfectly correlated with
the baseline.  Integrated MSE is the squared error of the per-allocation
estimate against each draw's true average effect, averaged over parameter
draws, with the allocation expectation taken exactly (from the pairwise joint
exposure pmf, enumerated once per setting) or over a shared Monte-Carlo
sample.
"""

from __future__ import annotations

import hashlib
import json
import logging
import time
from dataclasses import dataclass, field

import numpy as np

from .design import (
    BernoulliDesign,
    ExposureDistribution,
    allocation_matrix,
    bernoulli_exposure_distribution,
)
from .estimators import LinearEstimator
from .exposure import ExposureSpec, canonical_grid
from .mivlue import PriorSpec, identity_prior, solve_mivlue
from .networks import Network, gen_erdos_renyi_directed, gen_k_regular_directed

ESTIMATOR_NAMES = ("HT0", "HT1", "HTAvg", "MInd", "MDil")
# Own-treatment levels each two-term family contrasts, at full and zero treated degree.
_OWN_TREATMENT_LEVELS = {"HT0": (0,), "HT1": (1,), "HTAvg": (0, 1)}
MDIL_RIDGE = 1e-8
IMSE_DECOMPOSITION_TOL = 1e-9

# Sub-stream labels hung off (master_seed, draw): changing the interaction
# level must not disturb the common parameters or the allocation sample.
_STREAM_COMMON = 0
_STREAM_INTERACTION = 1
_STREAM_ALLOCATIONS = 2
_STREAM_NETWORK = 3

logger = logging.getLogger(__name__)


@dataclass
class UnitParameters:
    """Potential-outcome parameters of one unit.

    ``interference[d - 1]`` is the effect of exactly d treated in-neighbors;
    ``interaction`` is absent exactly when additivity holds.
    """

    alpha: float
    direct: float
    interference: np.ndarray
    interaction: np.ndarray | None = None

    def __post_init__(self):
        self.interference = np.asarray(self.interference, dtype=float)
        if self.interaction is not None:
            self.interaction = np.asarray(self.interaction, dtype=float)
            if self.interaction.shape != self.interference.shape:
                raise ValueError("interaction effects must match the interference length")

    @property
    def degree(self) -> int:
        return len(self.interference)


@dataclass(frozen=True)
class OutcomeModel:
    """How unit parameters are drawn: independent, dilated, or interaction."""

    kind: str
    mu1: float = 0.0
    eta1: float = 1.0
    delta1: float = 0.0

    def __post_init__(self):
        if self.kind not in ("independent", "dilated", "interaction"):
            raise ValueError(f"unknown outcome model kind {self.kind!r}")
        if self.kind == "interaction" and self.delta1 < 0:
            raise ValueError("interaction level must be nonnegative")


def sample_parameters(network: Network, model: OutcomeModel, seed) -> list[UnitParameters]:
    """Draw parameters for every unit, mutually independent, deterministic in ``seed``.

    Independent: baseline and direct effect standard normal, interference
    effect at treated degree d centered at (d/d_i) mu1.  Dilated: direct and
    interference effects are exact multiples of the baseline.  Interaction:
    the independent draw plus interaction effects centered at (d/d_i) delta1
    with unit variance, degenerate to exactly zero when delta1 is zero.
    Interaction noise comes from a separate stream so the shared parameters
    are bit-identical across interaction levels.

    Each stream is drawn as one vector in unit order: (alpha, direct,
    interference_1..d_i) per unit from the common stream (alpha alone under
    dilation), interaction_1..d_i per unit from the interaction stream.
    """
    n = network.n
    degrees = network.in_degrees
    ends = np.cumsum(degrees)
    starts = ends - degrees
    total = int(degrees.sum())
    # Unit owning each entry of the units' concatenated (d = 1..d_i) vectors, and its d / d_i.
    owner = np.repeat(np.arange(n), degrees)
    position = np.arange(total)
    scale = (position - starts[owner] + 1) / degrees[owner]
    words = _as_words(seed)
    rng_common = np.random.default_rng(np.random.SeedSequence([*words, _STREAM_COMMON]))
    if model.kind == "dilated":
        alpha = rng_common.normal(size=n)
        direct = alpha
        interference = scale * model.eta1 * alpha[owner]
    else:
        draws = rng_common.normal(size=2 * n + total)
        first = 2 * np.arange(n) + starts
        alpha = draws[first]
        direct = draws[first + 1]
        interference = scale * model.mu1 + draws[2 * (owner + 1) + position]
    bounds = list(zip(starts.tolist(), ends.tolist()))
    interaction = [None] * n
    if model.kind == "interaction" and model.delta1 > 0:
        rng_inter = np.random.default_rng(
            np.random.SeedSequence([*words, _STREAM_INTERACTION]))
        effects = scale * model.delta1 + rng_inter.normal(size=total)
        interaction = [effects[start:end] for start, end in bounds]
    return [UnitParameters(a, b, interference[start:end], x) for a, b, (start, end), x in zip(
        alpha.tolist(), direct.tolist(), bounds, interaction)]


def _as_words(seed) -> list[int]:
    if isinstance(seed, (list, tuple)):
        return [int(s) for s in seed]
    return [int(seed)]


def potential_outcome(params: UnitParameters, e) -> float:
    """Outcome at exposure (treated degree, own treatment) for one unit."""
    d, z = (int(v) for v in e)
    if not 0 <= d <= params.degree:
        raise ValueError(f"treated degree {d} out of range 0..{params.degree}")
    y = params.alpha + params.direct * z
    if d > 0:
        y += params.interference[d - 1]
        if params.interaction is not None and z:
            y += params.interaction[d - 1]
    return float(y)


def unit_exposure_distribution(design, network: Network, unit: int) -> ExposureDistribution:
    """Closed-form pmf of ``unit``'s (treated in-degree, own treatment), Bernoulli design."""
    return bernoulli_exposure_distribution(int(network.in_degrees[unit]), design.p_treat)


def included_units(network: Network) -> list[int]:
    """Units whose interference estimand exists: positive in-degree."""
    return np.flatnonzero(network.in_degrees >= 1).tolist()


def _slots(degree: int) -> np.ndarray:
    """Slot 2d + z of each exposure (d, z) of in-degree ``degree``, in canonical order."""
    return canonical_grid((degree, 1)) @ (2, 1)


def family_weights(names, degree: int, p_treat: float, eta1: float = 1.0) -> np.ndarray:
    """Weights of each named family for a unit of in-degree ``degree``, Bernoulli design.

    Row f, slot 2d + z holds family ``names[f]``'s weight on exposure (d, z);
    under a Bernoulli design a unit's exposure pmf, and so each of its
    estimators, depends on the unit only through its in-degree.  HT0/HT1 are
    the two-term inverse-probability estimators on untreated and treated
    exposures, HTAvg their mean; MInd solves the optimal-weight problem with
    independent standard-normal priors and MDil with the dilated prior, whose
    interference effects are (d / degree) eta1 times the baseline (rank one
    plus a small ridge to keep every outcome variance positive).
    :func:`compute_imse` passes the setting's eta1 under the dilated outcome
    model and 1 otherwise.
    """
    for name in names:
        if name not in ESTIMATOR_NAMES:
            raise ValueError(
                f"unknown estimator family {name!r}; expected one of {ESTIMATOR_NAMES}")
    dist = bernoulli_exposure_distribution(degree, p_treat)
    spec = dist.spec
    slots = _slots(degree)
    table = np.zeros((len(names), 2 * degree + 2))
    for row, name in enumerate(names):
        if name in _OWN_TREATMENT_LEVELS:
            levels = _OWN_TREATMENT_LEVELS[name]
            share = 1.0 / len(levels)
            for z in levels:
                table[row, 2 * degree + z] = share / dist[(degree, z)]
                table[row, z] = -share / dist[(0, z)]
            continue
        if name == "MInd":
            prior = identity_prior(spec)
        else:  # MDil
            u = np.concatenate([[1.0], np.arange(1, degree + 1) / degree * eta1, [1.0]])
            prior = PriorSpec(np.outer(u, u) + MDIL_RIDGE * np.eye(spec.num_parameters))
        table[row, slots] = solve_mivlue(spec, dist, prior).estimator.vector
    return table


def build_estimator_family(name: str, network: Network, design,
                           eta1: float = 1.0) -> dict[int, LinearEstimator]:
    """Per-unit estimators for one family; degree-0 units are excluded.

    The weights are :func:`family_weights` rows, computed once per distinct
    in-degree and read in canonical exposure order.
    """
    vectors = {}
    family = {}
    for unit in included_units(network):
        d_i = int(network.in_degrees[unit])
        if d_i not in vectors:
            vectors[d_i] = family_weights((name,), d_i, design.p_treat, eta1)[0, _slots(d_i)]
        family[unit] = LinearEstimator(ExposureSpec((d_i, 1)), vectors[d_i],
                                       name=f"{name}[{unit}]")
    return family


def true_average_effect(network: Network, params: list[UnitParameters]) -> float:
    """Mean full-neighborhood interference effect over units with positive degree."""
    units = included_units(network)
    if not units:
        raise ValueError("every unit has in-degree 0; the average estimand is undefined")
    return _mean_full_effect(params, units)


def _mean_full_effect(params: list[UnitParameters], units) -> float:
    return float(np.mean([params[i].interference[-1] for i in units]))


def estimate_average_effect(family: dict[int, LinearEstimator], network: Network,
                            allocation, params: list[UnitParameters]) -> float:
    """Average of unit-level estimates over units with positive in-degree."""
    units = included_units(network)
    if not units:
        raise ValueError("every unit has in-degree 0; the average estimand is undefined")
    z = np.asarray(allocation)
    treated = network.adjacency.T @ z
    total = 0.0
    for i in units:
        e = (int(treated[i]), int(z[i]))
        w = family[i].weight(e)
        if w != 0.0:
            total += w * potential_outcome(params[i], e)
    return total / len(units)


@dataclass(frozen=True)
class NetworkConfig:
    kind: str  # "k_regular" | "erdos_renyi"
    n: int
    k: int | None = None
    p_edge: float | None = None

    def __post_init__(self):
        if self.kind == "k_regular":
            if self.k is None:
                raise ValueError("k_regular networks need k")
        elif self.kind == "erdos_renyi":
            if self.p_edge is None:
                raise ValueError("erdos_renyi networks need p_edge")
        else:
            raise ValueError(f"unknown network kind {self.kind!r}")

    def build(self, seed) -> Network:
        if self.kind == "k_regular":
            return gen_k_regular_directed(self.n, self.k, seed)
        return gen_erdos_renyi_directed(self.n, self.p_edge, seed)


@dataclass(frozen=True)
class ExperimentConfig:
    """Declarative input of one simulation setting."""

    network: NetworkConfig
    outcome: OutcomeModel
    p_treat: float = 0.5
    estimators: tuple[str, ...] = ESTIMATOR_NAMES
    num_draws: int = 1000
    allocation_mode: str = "exhaustive"  # "exhaustive" | "sample"
    allocation_count: int = 1500
    master_seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "estimators", tuple(self.estimators))
        for name in self.estimators:
            if name not in ESTIMATOR_NAMES:
                raise ValueError(f"unknown estimator family {name!r}")
        if self.allocation_mode not in ("exhaustive", "sample"):
            raise ValueError(f"unknown allocation mode {self.allocation_mode!r}")
        if self.allocation_mode == "exhaustive" and self.network.n > 20:
            raise ValueError("exhaustive allocation mode needs n <= 20")
        if self.num_draws < 1:
            raise ValueError("need at least one parameter draw")

    def to_dict(self) -> dict:
        return {
            "network": {
                "kind": self.network.kind,
                "n": self.network.n,
                "k": self.network.k,
                "p_edge": self.network.p_edge,
            },
            "outcome": {
                "kind": self.outcome.kind,
                "mu1": self.outcome.mu1,
                "eta1": self.outcome.eta1,
                "delta1": self.outcome.delta1,
            },
            "p_treat": self.p_treat,
            "estimators": list(self.estimators),
            "num_draws": self.num_draws,
            "allocation_mode": self.allocation_mode,
            "allocation_count": self.allocation_count,
            "master_seed": self.master_seed,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "ExperimentConfig":
        network = NetworkConfig(**data["network"])
        outcome = OutcomeModel(**data["outcome"])
        return cls(
            network=network,
            outcome=outcome,
            p_treat=data.get("p_treat", 0.5),
            estimators=tuple(data.get("estimators", ESTIMATOR_NAMES)),
            num_draws=data.get("num_draws", 1000),
            allocation_mode=data.get("allocation_mode", "exhaustive"),
            allocation_count=data.get("allocation_count", 1500),
            master_seed=data.get("master_seed", 0),
        )


def payload_hash(payload) -> str:
    """First 12 hex digits of the sha256 of ``payload`` as canonical JSON."""
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:12]


def config_hash(config: ExperimentConfig) -> str:
    return payload_hash(config.to_dict())


@dataclass
class EstimatorImse:
    """Integrated MSE of one estimator family with its decomposition."""

    name: str
    imse: float
    bias_squared: float
    variance: float
    standard_error: float
    per_draw_mse: np.ndarray = field(repr=False)
    per_draw_mean: np.ndarray = field(repr=False)


@dataclass
class ImseReport:
    config: ExperimentConfig
    results: dict[str, EstimatorImse]
    metadata: dict

    def csv_rows(self) -> list[str]:
        """One row per estimator in the declared order."""
        net = self.config.network
        k_or_p = net.k if net.kind == "k_regular" else net.p_edge
        model = self.config.outcome
        mu_or_eta = model.eta1 if model.kind == "dilated" else model.mu1
        rows = []
        for name in self.config.estimators:
            r = self.results[name]
            rows.append(
                f"{name},{net.n},{k_or_p},{model.kind},{mu_or_eta},{model.delta1},"
                f"{r.imse!r},{r.bias_squared!r},{r.variance!r},{r.standard_error!r},"
                f"{self.config.master_seed}"
            )
        return rows


CSV_HEADER = "estimator,n,k_or_p,distribution,mu1_or_eta1,delta1,imse,bias2,variance,se,seed"


def _outcome_table(params, units, width):
    """(unit x exposure-slot) potential outcomes, bit-identical to :func:`potential_outcome`.

    Even slots hold z = 0 and odd slots z = 1, with d >= 1 from slot 2 on;
    each entry is summed in the same order, ((alpha + direct z) + interference_d)
    + interaction_d.
    """
    unit_params = [params[i] for i in units]
    degrees = np.array([p.degree for p in unit_params], dtype=np.intp)
    alpha = np.array([p.alpha for p in unit_params])
    direct = np.array([p.direct for p in unit_params])
    table = np.zeros((len(units), width))
    table[:, 0] = alpha + direct * 0
    table[:, 1] = alpha + direct * 1
    rows = np.repeat(np.arange(len(units)), degrees)
    first = np.repeat(np.cumsum(degrees) - degrees, degrees)
    cols = 2 * (np.arange(len(rows)) - first + 1)
    interference = np.concatenate([p.interference for p in unit_params])
    table[rows, cols] = table[rows, 0] + interference
    treated = table[rows, 1] + interference
    has_interaction = np.array([p.interaction is not None for p in unit_params])
    if has_interaction.any():
        interaction = np.concatenate([
            np.zeros(p.degree) if p.interaction is None else p.interaction
            for p in unit_params
        ])
        mask = np.repeat(has_interaction, degrees)
        treated[mask] += interaction[mask]
    table[rows, cols + 1] = treated
    return table


def slot_coefficients(network: Network, units) -> np.ndarray:
    """(n x units) float32 matrix C = (2A + I)[:, units], so that z @ C gives every slot 2d + z."""
    coefficients = 2 * network.adjacency + np.eye(network.n, dtype=np.int64)
    return coefficients[:, units].astype(np.float32)


def exposure_slots(alloc: np.ndarray, coefficients: np.ndarray) -> np.ndarray:
    """Exposure slot of every (allocation, unit) pair as integers.

    The float product goes through BLAS and is exact, in float32 too: every
    term is 0, 1 or 2, so every partial sum is an integer no larger than the
    slot itself, at most 2(n - 1) + 1.  That is below 2**24, up to which
    float32 holds every integer exactly, for any n under 8 million.  Rows go
    in blocks of about 64k allocation entries, so the float temporaries stay
    small and cache-resident.
    """
    slots = np.empty((len(alloc), coefficients.shape[1]), dtype=np.intp)
    block = max(1, 2**16 // coefficients.shape[0])
    for start in range(0, len(alloc), block):
        slots[start:start + block] = alloc[start:start + block] @ coefficients
    return slots


def joint_exposure_pmf(network: Network, units, width: int, p_treat: float) -> np.ndarray:
    """Pairwise joint pmf of the units' exposure slots under a Bernoulli design.

    Entry ``[a * width + s, b * width + t]`` is P(slot of ``units[a]`` is s and
    slot of ``units[b]`` is t); diagonal blocks are diagonal, so the diagonal
    of the result is each unit's own slot pmf.  A unit's slot depends only on
    its closed in-neighbourhood, so block (a, b) enumerates just the
    allocations of the union of the two neighbourhoods.
    """
    coefficients = slot_coefficients(network, units)
    neighbourhoods = [np.flatnonzero(column) for column in coefficients.T]
    joint = np.zeros((len(units) * width, len(units) * width))
    enumerations = {}
    for a in range(len(units)):
        for b in range(a, len(units)):
            members = np.union1d(neighbourhoods[a], neighbourhoods[b])
            if len(members) not in enumerations:
                alloc, probs = allocation_matrix(
                    BernoulliDesign(len(members), p_treat), "exhaustive")
                # Cast once per size: casting each block is slower than the product.
                enumerations[len(members)] = (alloc.astype(np.float32), probs)
            alloc, probs = enumerations[len(members)]
            slots = exposure_slots(alloc, coefficients[np.ix_(members, [a, b])])
            block = np.bincount(slots[:, 0] * width + slots[:, 1], weights=probs,
                                minlength=width * width).reshape(width, width)
            joint[a * width:(a + 1) * width, b * width:(b + 1) * width] = block
            joint[b * width:(b + 1) * width, a * width:(a + 1) * width] = block.T
    return joint


def compute_imse(config: ExperimentConfig) -> ImseReport:
    """Integrated MSE of each requested estimator family under one setting.

    Per parameter draw, the estimator mean and second moment are taken over
    allocations and the squared error is formed against that draw's true
    average effect; draws are then averaged.  The average estimate is linear
    in a (unit, exposure-slot) value vector v, so in exhaustive mode its
    exact moments are v . p and v' G v, with G from
    :func:`joint_exposure_pmf` built once per setting and p its diagonal.
    Sample mode averages over a batch of allocations drawn per draw and
    shared by every estimator: one float32 BLAS product gives every
    (allocation, unit) slot, offset in place into a flat index of the
    (unit x slot) value table, and each family is one ``take`` of it.
    Everything that does not change between draws (units, weights, slot
    coefficients) is built before the draw loop.  Fully deterministic given
    the master seed, and independent of the interaction level for families
    that never read treated outcomes.

    ``metadata["stage_seconds"]`` times the setting-level stages (network,
    families, joint_pmf) and, summed over draws, the per-draw ones: params,
    outcome_table, allocations, slots, gather and moments (the sample-mode
    allocations, slots and gather read 0 in exhaustive mode).
    """
    start = time.perf_counter()
    network = config.network.build(
        np.random.SeedSequence([config.master_seed, _STREAM_NETWORK])
    )
    design = BernoulliDesign(network.n, config.p_treat)
    units = included_units(network)
    if not units:
        raise ValueError("every unit has in-degree 0; the average estimand is undefined")
    if len(units) < network.n:
        logger.info(
            "excluding %d degree-0 unit(s) from the average estimand",
            network.n - len(units),
        )
    width = 2 * (int(network.in_degrees.max()) + 1)
    stages = {"network": time.perf_counter() - start}

    mark = time.perf_counter()
    n_families = len(config.estimators)
    # MDil's prior is the dilated model itself, at the setting's eta1 when it is dilated.
    eta1 = config.outcome.eta1 if config.outcome.kind == "dilated" else 1.0
    degrees, degree_rows = np.unique(network.in_degrees[units], return_inverse=True)
    tables = np.zeros((n_families, len(degrees), width))
    for row, degree in enumerate(degrees):
        tables[:, row, :2 * degree + 2] = family_weights(
            config.estimators, int(degree), config.p_treat, eta1)
    weight_tables = tables[:, degree_rows]
    stages["families"] = time.perf_counter() - mark

    mark = time.perf_counter()
    exhaustive = config.allocation_mode == "exhaustive"
    if exhaustive:
        joint = joint_exposure_pmf(network, units, width, config.p_treat)
        pmf = joint.diagonal()
    else:
        coefficients = slot_coefficients(network, units)
        # Start of each unit's row in a flattened (unit x slot) table.
        row_offsets = np.arange(len(units)) * width
        alloc_weights = np.full(config.allocation_count, 1.0 / config.allocation_count)
    stages["joint_pmf"] = time.perf_counter() - mark

    n_draws = config.num_draws
    mse = np.zeros((n_families, n_draws))
    means = np.zeros((n_families, n_draws))
    second = np.zeros((n_families, n_draws))
    theta_bars = np.zeros(n_draws)
    timers = dict.fromkeys(
        ("params", "outcome_table", "allocations", "slots", "gather", "moments"), 0.0)

    def lap(stage, since):
        now = time.perf_counter()
        timers[stage] += now - since
        return now

    for draw in range(n_draws):
        mark = time.perf_counter()
        params = sample_parameters(network, config.outcome, [config.master_seed, draw])
        theta_bar = _mean_full_effect(params, units)
        theta_bars[draw] = theta_bar
        mark = lap("params", mark)
        value_tables = weight_tables * _outcome_table(params, units, width)
        mark = lap("outcome_table", mark)
        if exhaustive:
            values = value_tables.reshape(n_families, -1) / len(units)
            first_moment = values @ pmf
            second_moment = np.einsum("fa,fa->f", values @ joint, values)
        else:
            rng = np.random.default_rng(
                np.random.SeedSequence([config.master_seed, draw, _STREAM_ALLOCATIONS])
            )
            alloc = design.sample(rng, config.allocation_count).astype(np.float32)
            mark = lap("allocations", mark)
            slots = exposure_slots(alloc, coefficients)
            slots += row_offsets
            mark = lap("slots", mark)
            estimates = np.empty((n_families, config.allocation_count))
            for row, value_table in enumerate(value_tables):
                estimates[row] = value_table.take(slots).mean(axis=1)
            mark = lap("gather", mark)
            # One dot per family: a matrix-vector product may sum in another order.
            first_moment = np.array([alloc_weights @ e for e in estimates])
            second_moment = np.array([alloc_weights @ (e * e) for e in estimates])
        means[:, draw] = first_moment
        second[:, draw] = second_moment
        mse[:, draw] = second_moment - 2.0 * theta_bar * first_moment + theta_bar**2
        lap("moments", mark)
    stages.update(timers)

    results = {}
    for row, name in enumerate(config.estimators):
        bias2 = (means[row] - theta_bars) ** 2
        variance = second[row] - means[row] ** 2
        se = float(np.std(mse[row], ddof=1) / np.sqrt(n_draws)) if n_draws > 1 else 0.0
        results[name] = EstimatorImse(
            name=name,
            imse=float(np.mean(mse[row])),
            bias_squared=float(np.mean(bias2)),
            variance=float(np.mean(variance)),
            standard_error=se,
            per_draw_mse=mse[row],
            per_draw_mean=means[row],
        )
    digest = config_hash(config)
    logger.info("setting %s stage seconds: %s", digest,
                " ".join(f"{stage}={seconds:.4f}" for stage, seconds in stages.items()))
    metadata = {
        "config_hash": digest,
        "seed": config.master_seed,
        "runtime_seconds": time.perf_counter() - start,
        "stage_seconds": stages,
        "excluded_degree_zero_units": network.n - len(units),
        "allocations_shared_across_estimators": True,
    }
    return ImseReport(config, results, metadata)
