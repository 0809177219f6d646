"""Outcome generation, the five estimator families, and integrated-MSE computation.

The harness targets the average interference effect on a directed network:
for every unit, the contrast between all in-neighbors treated and none
treated.  Potential outcomes are additive by default; the interaction model
adds a direct-by-interference term that breaks additivity by a controlled
amount, and the dilated model makes all parameters perfectly correlated with
the baseline.  Integrated MSE is the squared error of the per-allocation
estimate against each draw's true average effect, averaged over parameter
draws, with the allocation expectation taken exactly (from the pairwise joint
exposure pmf, in closed form once per setting) or over a shared Monte-Carlo
sample.
"""

from __future__ import annotations

import hashlib
import json
import logging
import time
from collections import namedtuple
from dataclasses import asdict, dataclass, field, fields
from functools import lru_cache, partial
from typing import NamedTuple

import numpy as np

from .design import (
    BernoulliDesign,
    ExposureDistribution,
    allocation_matrix,
    bernoulli_exposure_distribution,
    bernoulli_slot_pmf,
    slot_order,
)
from .estimators import LinearEstimator
from .exposure import SPEC_CACHE_SIZE, ExposureSpec, as_int, as_real
from .mivlue import FactorPrior, solve_mivlue
from .networks import Network, gen_erdos_renyi_directed, gen_k_regular_directed

ESTIMATOR_NAMES = ("HT0", "HT1", "HTAvg", "MInd", "MDil")
# Own-treatment levels each two-term family contrasts, at full and zero treated degree.
_OWN_TREATMENT_LEVELS = {"HT0": (0,), "HT1": (1,), "HTAvg": (0, 1)}
MDIL_RIDGE = 1e-8
# Entries of the dense joint exposure pmf G that exhaustive mode builds: 8 MB of float64.
JOINT_PMF_LIMIT = 2**20

# Sub-stream labels, the last seed word: (master_seed, chunk, label) for parameters,
# (master_seed, draw, label) for allocations and (master_seed, label) for the network.
# Changing the interaction level must not disturb the common parameters or the
# allocation sample.  No label is 0: SeedSequence pads entropy shorter than four words
# with zeros, so (master_seed, 3, 0) would be the network's stream.
_STREAM_COMMON = 4
_STREAM_INTERACTION = 1
_STREAM_ALLOCATIONS = 2
_STREAM_NETWORK = 3

logger = logging.getLogger(__name__)

_TRACED_BINDINGS = (allocation_matrix,)  # Unused here; the benchmark's tracer wraps it.


@dataclass(frozen=True)
class Parameters:
    """Potential-outcome parameters of every unit, one read-only array per kind.

    ``alpha`` and ``direct`` hold one entry per unit.  ``interference`` lays
    the units' effects of exactly d = 1..d_i treated in-neighbors end to end:
    unit i owns entries ``offsets[i]:offsets[i + 1]``.  ``interaction`` has the
    same layout and is absent exactly when additivity holds.  A block of draws
    stacks every kind but ``offsets`` along a leading axis, one row per draw.
    Each is a read-only copy.
    """

    alpha: np.ndarray
    direct: np.ndarray
    interference: np.ndarray
    offsets: np.ndarray
    interaction: np.ndarray | None = None

    def __post_init__(self):
        for name in ("alpha", "direct", "interference", "offsets", "interaction"):
            value = getattr(self, name)
            if value is not None:
                value = np.array(value, dtype=np.intp if name == "offsets" else np.float64)
                value.setflags(write=False)
                object.__setattr__(self, name, value)
        if self.interaction is not None and self.interaction.shape != self.interference.shape:
            raise ValueError("interaction effects must match the interference length")
        if (len(self.offsets) != self.alpha.shape[-1] + 1
                or self.offsets[-1] != self.interference.shape[-1]):
            raise ValueError("offsets must bound every unit's slice of the interference effects")


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
        for name in ("mu1", "eta1", "delta1"):
            object.__setattr__(self, name, as_real(getattr(self, name), name))
        if self.kind == "interaction" and self.delta1 < 0:
            raise ValueError("interaction level must be nonnegative")
        _refuse_unread(self, {"independent": ("eta1", "delta1"), "dilated": ("mu1", "delta1"),
                              "interaction": ("eta1",)}[self.kind])

    def covariance(self, degree: int) -> tuple[np.ndarray, np.ndarray]:
        """(s, f), the covariance diag(s) + f f^T of (alpha, interference 1..degree, direct).

        They are iid standard normals, or u alpha when dilated, u = (1, eta1/degree, ..., eta1, 1).
        """
        if self.kind != "dilated":
            return np.ones(degree + 2), np.zeros(degree + 2)
        return np.zeros(degree + 2), np.r_[1.0, np.arange(1, degree + 1) / degree * self.eta1, 1.0]


def _refuse_unread(config, names) -> None:
    """Refuse any field in ``names``, which ``config``'s kind never reads, off its default."""
    for f in fields(config):
        if f.name in names and getattr(config, f.name) != f.default:
            raise ValueError(f"{f.name} is not read under kind {config.kind!r}, "
                             f"got {getattr(config, f.name)!r}")


def sample_parameters(network: Network, model: OutcomeModel, seed, draws=None) -> Parameters:
    """Draw parameters for every unit, mutually independent, deterministic in ``seed``.

    Independent: baseline and direct effect standard normal, interference
    effect at treated degree d centered at (d/d_i) mu1.  Dilated: direct and
    interference effects are exact multiples of the baseline.  Interaction:
    the independent draw plus interaction effects centered at (d/d_i) delta1
    with unit variance, degenerate to exactly zero when delta1 is zero.
    Interaction noise comes from a separate stream so the shared parameters
    are bit-identical across interaction levels.

    ``seed`` is a nonnegative int or a list of them, whose last element is
    the draw index.  Given ``draws``, an iterable of draw indices, ``seed`` is
    the prefix instead and the result stacks one row per draw: row r is bit
    for bit the single draw at seed ``[*seed, draws[r]]``.  Draw r is row
    r mod 256 of each stream seeded by the ints ``[*prefix, r div 256,
    stream]``: one stream serves a chunk of 256 draws, so a draw depends
    only on (seed, r, stream), whatever block it is drawn in.  Each row is
    one vector in unit order: (alpha, direct, interference_1..d_i) per unit
    from the common stream (alpha alone under dilation), interaction_1..d_i
    per unit from the interaction stream.  Where each entry sits is the
    network's cached :class:`_EntryLayout`, gathered once for all rows.
    """
    n = network.n
    layout = _entry_layout(network.in_degrees.tobytes())
    single = draws is None
    seed = list(seed) if isinstance(seed, (list, tuple)) else [seed]
    if single:
        if not seed:
            raise ValueError("a single draw's seed needs the draw index as its last element")
        seed, draws = seed[:-1], seed[-1:]
    prefix = tuple(as_int(value, "a seed") for value in seed)
    draws = [as_int(draw, "a draw index") for draw in draws]
    if model.kind == "dilated":
        alpha = direct = _normals(prefix, draws, _STREAM_COMMON, n)
        interference = layout.scale * model.eta1 * alpha[:, layout.owner]
    else:
        common = _normals(prefix, draws, _STREAM_COMMON, 2 * n + len(layout.owner))
        alpha = common[:, layout.alpha_at]
        direct = common[:, layout.direct_at]
        interference = layout.scale * model.mu1 + common[:, layout.interference_at]
    interaction = None
    if model.kind == "interaction" and model.delta1 > 0:
        interaction = layout.scale * model.delta1 + _normals(
            prefix, draws, _STREAM_INTERACTION, len(layout.owner))
    row = 0 if single else slice(None)
    return Parameters(alpha[row], direct[row], interference[row], layout.offsets,
                      None if interaction is None else interaction[row])


# Draws per seeded stream.  Part of the seeding contract: changing it moves every draw.
_CHUNK = 256
# Per stream, the last chunk it drew from: ((prefix, chunk, row size), its live
# Generator, the next row it gives).  compute_imse's in-order blocks carry on from it.
_cursors: dict[int, tuple] = {}


def _normals(prefix: tuple, draws, stream: int, size: int) -> np.ndarray:
    """(draw x size) standard normals; draw r is row r mod C of chunk r div C's stream.

    That stream is seeded by the ints ``[*prefix, r div C, stream]``.  Its
    normals come out in sequence, so a run of consecutive draws in one chunk
    is one call, and a row is the same bytes whatever run it is drawn in.  A
    run behind its stream's cursor, or in another chunk, opens the chunk; one
    ahead of it discards the rows between.  So results never depend on the
    cursor.
    """
    out = np.empty((len(draws), size))
    # Where each run of consecutive draws within one chunk starts, and the end.
    bounds = [*(i for i in range(len(draws))
                if not i or draws[i] != draws[i - 1] + 1 or draws[i] % _CHUNK == 0), len(draws)]
    for start, stop in zip(bounds, bounds[1:]):
        chunk, row = divmod(draws[start], _CHUNK)
        key = (prefix, chunk, size)
        # Taken out while in use, so an interrupted draw leaves no cursor ahead of its row
        # and no two callers share a Generator.
        held, rng, at = _cursors.pop(stream, (None, None, 0))
        if held != key or at > row:
            rng, at = np.random.default_rng(
                np.random.SeedSequence([*prefix, chunk, stream])), 0
        for _ in range(at, row):  # one row at a time, so a discard holds one row
            rng.standard_normal(size)
        rng.standard_normal(out=out[start:stop])
        _cursors[stream] = key, rng, row + stop - start
    return out


class _EntryLayout(NamedTuple):
    """Where each unit's parameters sit, a function of the in-degrees alone; read-only.

    ``offsets`` bounds each unit's slice of the (d = 1..d_i) entries, ``owner``
    is the unit of each entry and ``scale`` its d / d_i.  ``alpha_at``,
    ``direct_at`` and ``interference_at`` index the common stream's vector,
    which holds (alpha, direct, interference_1..d_i) per unit in unit order.
    """

    offsets: np.ndarray
    owner: np.ndarray
    scale: np.ndarray
    alpha_at: np.ndarray
    direct_at: np.ndarray
    interference_at: np.ndarray
    tops: np.ndarray  # the d = d_i entry of each unit of positive in-degree


# Keyed on the raw int64 in-degree bytes, so every draw on one network shares one layout.
# Every caller draws one network at a time, so only the network in use is kept.
@lru_cache(maxsize=1)
def _entry_layout(degree_bytes: bytes) -> _EntryLayout:
    degrees = np.frombuffer(degree_bytes, dtype=np.int64)
    n = len(degrees)
    offsets = np.zeros(n + 1, dtype=np.intp)
    ends = np.cumsum(degrees, out=offsets[1:])
    starts = ends - degrees
    owner = np.repeat(np.arange(n), degrees)
    position = np.arange(len(owner))
    alpha_at = 2 * np.arange(n) + starts
    layout = _EntryLayout(
        offsets=offsets,
        owner=owner,
        scale=(position - starts[owner] + 1) / degrees[owner],
        alpha_at=alpha_at,
        direct_at=alpha_at + 1,
        interference_at=2 * (owner + 1) + position,
        tops=ends[degrees > 0] - 1,
    )
    for array in layout:
        array.setflags(write=False)
    return layout


def unit_exposure_distribution(design, network: Network, unit: int) -> ExposureDistribution:
    """Closed-form pmf of ``unit``'s (treated in-degree, own treatment), Bernoulli design."""
    return bernoulli_exposure_distribution(int(network.in_degrees[unit]), design.p_treat)


def included_units(network: Network) -> list[int]:
    """Units whose interference estimand exists: positive in-degree."""
    return np.flatnonzero(network.in_degrees >= 1).tolist()


def clear_weight_memo() -> None:
    """Forget every memoized :func:`family_weights` row, and zero the cache counts."""
    _weight_row.cache_clear()


def family_weights(names, degree: int, p_treat: float, eta1: float = 1.0) -> np.ndarray:
    """Weights of each named family for a unit of in-degree ``degree``, Bernoulli design.

    Row f, slot 2d + z holds family ``names[f]``'s weight on exposure (d, z);
    under a Bernoulli design a unit's exposure pmf, and so each of its
    estimators, depends on the unit only through its in-degree.  HT0/HT1 are
    the two-term inverse-probability estimators on untreated and treated
    exposures, HTAvg their mean.  MInd and MDil solve the optimal-weight
    problem under :meth:`OutcomeModel.covariance`, a :class:`FactorPrior`:
    MInd under the independent model's I, MDil under the dilated model's
    u u^T, u = (1, eta1/degree, ..., eta1, 1), plus a ridge keeping every
    outcome variance positive.  :func:`compute_imse` passes the setting's
    eta1 under the dilated outcome model and 1 otherwise.

    Rows are memoized per process, and the returned table is read-only.
    """
    names = tuple(names)
    for name in names:
        if name not in ESTIMATOR_NAMES:
            raise ValueError(
                f"unknown estimator family {name!r}; expected one of {ESTIMATOR_NAMES}")
    degree, p_treat, eta1 = as_int(degree, "degree"), float(p_treat), float(eta1)
    table = np.empty((len(names), 2 * degree + 2))
    for index, name in enumerate(names):
        table[index] = _weight_row(name, degree, p_treat, eta1 if name == "MDil" else None)
    table.setflags(write=False)
    return table


# A row is a pure function of its key (family, in-degree, p_treat, and eta1
# for MDil only), so it is solved once per process; the cache holds
# SPEC_CACHE_SIZE in-degrees' worth of every family.  A failed solve raises
# and is not cached.  The exposure pmf is cached per in-degree too, so a cold
# in-degree builds it once for all its families.
@lru_cache(maxsize=len(ESTIMATOR_NAMES) * SPEC_CACHE_SIZE)
def _weight_row(name: str, degree: int, p_treat: float, eta1: float | None) -> np.ndarray:
    """One :func:`family_weights` row, by slot, as a read-only array."""
    dist = bernoulli_exposure_distribution(degree, p_treat)
    row = np.zeros(2 * degree + 2)
    if name in _OWN_TREATMENT_LEVELS:
        levels = _OWN_TREATMENT_LEVELS[name]
        share = 1.0 / len(levels)
        for z in levels:
            row[2 * degree + z] = share / dist[(degree, z)]
            row[z] = -share / dist[(0, z)]
    else:
        if name == "MInd":
            prior = FactorPrior(*OutcomeModel("independent").covariance(degree))
        else:  # MDil
            diagonal, u = OutcomeModel("dilated", eta1=eta1).covariance(degree)
            prior = FactorPrior(diagonal + MDIL_RIDGE, u)
        row[slot_order(degree)] = solve_mivlue(dist.spec, dist, prior).estimator.vector
    row.setflags(write=False)
    return row


def build_estimator_family(name: str, network: Network, design,
                           eta1: float = 1.0) -> dict[int, LinearEstimator]:
    """Per-unit estimators for one family; degree-0 units are excluded.

    The weights are :func:`family_weights` rows, looked up once per distinct
    in-degree and read in canonical exposure order.
    """
    vectors = {}
    family = {}
    for unit in included_units(network):
        d_i = int(network.in_degrees[unit])
        if d_i not in vectors:
            vectors[d_i] = family_weights((name,), d_i, design.p_treat, eta1)[0, slot_order(d_i)]
        family[unit] = LinearEstimator(ExposureSpec((d_i, 1)), vectors[d_i],
                                       name=f"{name}[{unit}]")
    return family


def true_average_effect(network: Network, params: Parameters):
    """Mean full-neighborhood interference effect over units with positive degree.

    A float for one draw; an array of one mean per row for a block of draws.
    """
    tops = _entry_layout(network.in_degrees.tobytes()).tops
    if not len(tops):
        raise ValueError("every unit has in-degree 0; the average estimand is undefined")
    effects = params.interference[..., tops]
    # The gather need not be C-ordered; along the rows of a C-ordered copy, each sum
    # adds in the order of a 1-D sum, so each mean has the bits of np.mean.
    means = np.ascontiguousarray(effects).reshape(-1, len(tops)).sum(axis=1) / len(tops)
    return float(means[0]) if effects.ndim == 1 else means


@dataclass(frozen=True)
class NetworkConfig:
    kind: str  # "k_regular" | "erdos_renyi"
    n: int
    k: int | None = None
    p_edge: float | None = None

    def __post_init__(self):
        if self.kind not in ("k_regular", "erdos_renyi"):
            raise ValueError(f"unknown network kind {self.kind!r}")
        object.__setattr__(self, "n", as_int(self.n, "n", 1))
        if self.kind == "k_regular":
            object.__setattr__(self, "k", as_int(self.k, "k", 1))
        else:
            object.__setattr__(self, "p_edge", as_real(self.p_edge, "p_edge"))
        _refuse_unread(self, ("p_edge",) if self.kind == "k_regular" else ("k",))

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
        if isinstance(self.estimators, str):
            raise ValueError(
                f"estimators must be a list of family names, got the string {self.estimators!r}")
        object.__setattr__(self, "estimators", tuple(self.estimators))
        if not self.estimators:
            raise ValueError("estimators must name at least one family")
        for name in self.estimators:
            if name not in ESTIMATOR_NAMES:
                raise ValueError(f"unknown estimator family {name!r}")
            if self.estimators.count(name) > 1:
                raise ValueError(f"estimator family {name!r} is listed more than once")
        if self.allocation_mode not in ("exhaustive", "sample"):
            raise ValueError(f"unknown allocation mode {self.allocation_mode!r}")
        for name in ("num_draws", "allocation_count"):
            object.__setattr__(self, name, as_int(getattr(self, name), name, 1))
        object.__setattr__(self, "p_treat", as_real(self.p_treat, "p_treat"))
        object.__setattr__(self, "master_seed", as_int(self.master_seed, "master_seed"))

    def build_network(self) -> Network:
        """The setting's network, from its own sub-stream of the master seed."""
        return self.network.build(np.random.SeedSequence([self.master_seed, _STREAM_NETWORK]))

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "ExperimentConfig":
        """Inverse of :meth:`to_dict`; an unknown top-level key is refused by name.

        Absent top-level keys take the field defaults; the nested network and
        outcome accept only their own fields.
        """
        unknown = sorted(data.keys() - {f.name for f in fields(cls)})
        if unknown:
            raise ValueError(f"unknown config field {', '.join(map(repr, unknown))}")
        return cls(**{**data, "network": NetworkConfig(**data["network"]),
                      "outcome": OutcomeModel(**data["outcome"])})


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


def _outcome_table(params, width):
    """(draw x unit x exposure-slot) potential outcomes of the units that own parameter entries.

    ``params`` stacks a block of draws, or holds one draw, read as a block of one.
    Those units are the ones of positive in-degree, in unit order.  Even slots
    hold z = 0 and odd slots z = 1, with d >= 1 from slot 2 on; each entry is
    summed in the order ((alpha + direct z) + interference_d) + interaction_d,
    that of the scalar reference ``potential_outcome`` in
    ``tests/test_simulation.py``, which it matches bit for bit.
    """
    degrees = np.diff(params.offsets)
    owners = degrees > 0
    alpha = np.atleast_2d(params.alpha)[:, owners]
    direct = np.atleast_2d(params.direct)[:, owners]
    table = np.zeros((*alpha.shape, width))
    table[..., 0] = alpha + direct * 0
    table[..., 1] = alpha + direct * 1
    # True at (row, d - 1) for d = 1..d_i: row-major, the order the entries are drawn in.
    held = np.arange(1, width // 2) <= degrees[owners][:, None]
    levels = np.zeros((len(alpha), *held.shape))
    # One mask over every draw: a slice before a mask takes numpy's slow mixed-index path.
    every_held = np.broadcast_to(held, levels.shape)
    levels[every_held] = params.interference.ravel()
    np.add(table[..., :1], levels, out=table[..., 2::2], where=held)
    np.add(table[..., 1:2], levels, out=table[..., 3::2], where=held)
    if params.interaction is not None:
        levels[every_held] = params.interaction.ravel()
        table[..., 3::2] += levels
    return table


def slot_coefficients(network: Network, units) -> np.ndarray:
    """(n x units) float32 matrix C = (2A + I)[:, units], so that z @ C gives every slot 2d + z."""
    coefficients = 2 * network.adjacency.astype(np.float32)[:, units]
    coefficients[units, np.arange(len(units))] += 1
    return coefficients


def exposure_slots(alloc: np.ndarray, coefficients: np.ndarray, offsets=0,
                   out: np.ndarray | None = None) -> np.ndarray:
    """Exposure slot of every (allocation, unit) pair plus ``offsets``, as intp integers.

    The float product goes through BLAS and is exact, in float32 too: every
    term is 0, 1 or 2, so every partial sum is an integer no larger than the
    slot itself, at most 2(n - 1) + 1.  That is below 2**24, up to which
    float32 holds every integer exactly, for any n under 8 million.  The
    product is cast to intp, exactly, and ``offsets`` added in one pass, into
    ``out`` when given.  The sample kernel calls this once per row block of
    allocations, with each unit's row offset into its flat value table.
    """
    return np.add(alloc @ coefficients, offsets, out=out, dtype=np.intp, casting="unsafe")


def joint_exposure_pmf(network: Network, units, width: int, p_treat: float) -> np.ndarray:
    """Pairwise joint pmf of the units' exposure slots under a Bernoulli design, in closed form.

    Entry ``[a * width + s, b * width + t]`` is P(slot of ``units[a]`` is s and slot of
    ``units[b]`` is t).  The diagonal is each unit's :func:`bernoulli_slot_pmf` table, the
    pmf its weights are solved against, and each Bin below is such a table summed over
    own treatment.  Block (a, b) depends only
    on the pair's shape (s shared and p_a, p_b private in-neighbours, edges e_ab and e_ba):
    its slots are 2(S + P_a + e_ba z_b) + z_a and 2(S + P_b + e_ab z_a) + z_b, so it is
    sum_k Bin(s)[k] shift_k(Bin(p_a) (x) Bin(p_b)) placed per (z_a, z_b).  Each distinct
    shape is built once; no allocation is enumerated.
    """
    levels, count = width // 2, len(units)
    rows, cols = np.triu_indices(count, 1)
    neighbours, degrees = network.adjacency[:, units], network.in_degrees[units]
    shared = (neighbours.T @ neighbours)[rows, cols]
    e_ab, e_ba = neighbours[units][rows, cols], neighbours[units][cols, rows]
    keys = np.column_stack([shared, degrees[rows] - shared - e_ba,
                            degrees[cols] - shared - e_ab, e_ab, e_ba])
    shapes, shape_of_pair = np.unique(keys, axis=0, return_inverse=True)
    s, private_a, private_b, e_ab, e_ba = shapes.T
    pmf = np.zeros((levels, width))
    for m in range(levels):
        pmf[m, :2 * m + 2] = bernoulli_slot_pmf(m, p_treat).ravel()
    # binomial[m, k] = P(Bin(m, p_treat) = k), 0 for k > m.
    binomial = pmf[:, 0::2] + pmf[:, 1::2]
    private = binomial[private_a][:, :, None] * binomial[private_b][:, None, :]
    counts = np.zeros_like(private)
    for k in range(levels):
        counts[:, k:, k:] += binomial[s, k][:, None, None] * private[:, :levels - k, :levels - k]
    own = (1 - p_treat, p_treat)
    blocks = np.zeros((len(shapes), width, width))
    for z_a, z_b in np.ndindex(2, 2):
        # A treated in-neighbour moves the other unit's count up one; the top level is empty.
        moved = np.where((e_ba * z_b)[:, None, None], np.roll(counts, 1, axis=1), counts)
        moved = np.where((e_ab * z_a)[:, None, None], np.roll(moved, 1, axis=2), moved)
        blocks[:, z_a::2, z_b::2] = own[z_a] * own[z_b] * moved
    blocks = blocks[shape_of_pair.ravel()]
    joint = np.zeros((count, width, count, width))
    joint[rows, :, cols], joint[cols, :, rows] = blocks, blocks.transpose(0, 2, 1)
    joint = joint.reshape((count * width,) * 2)
    np.fill_diagonal(joint, pmf[degrees])
    return joint


def _exact_kernel(joint, config):
    """Exhaustive mode's moment kernel: each (draw, family) row's moments, exact, from G.

    The average estimate is linear in its (unit, exposure-slot) values v, so its exact moments
    are v . p and v' G v, p being G's diagonal; ``config`` is unread: one G serves every setting.
    """
    def exact_moments(values, draws, lap):
        values = values.reshape(*values.shape[:2], -1) / values.shape[2]
        # A batched product with p, but one 2-D product with G over every (draw, family)
        # row: a 2-D product with p sums in another order, one with G keeps the bits on
        # SkylakeX's dgemm, not on Haswell's (ROADMAP item 16).
        first_moment = values @ joint.diagonal()
        rows = values.reshape(-1, values.shape[-1])
        second_moment = np.einsum("ra,ra->r", rows @ joint, rows).reshape(first_moment.shape)
        lap("moments")
        return first_moment, second_moment
    return exact_moments


def _sample_kernel(coefficients, design, width, master_seed, config):
    """Sample mode's moment kernel: each (draw, family)'s moments over its draw's allocations.

    Draw r's allocations, shared by every family, come from [master_seed, r, _STREAM_ALLOCATIONS].
    """
    count, (n, units) = config.allocation_count, coefficients.shape
    weights = np.full(count, 1.0 / count)
    # Start of each unit's row in a flattened (unit x slot) table.
    row_offsets = np.arange(units) * width
    # Buffers made once per setting, of about 64k allocation entries: small and cache-resident.
    block_rows = min(count, max(1, 2**16 // n))
    alloc = np.empty((block_rows, n), dtype=np.float32)
    slots = np.empty((block_rows, units), dtype=np.intp)
    estimates = np.empty((len(config.estimators), count))

    def sample_moments(values, draws, lap):
        first_moment, second_moment = np.empty((2, len(draws), len(estimates)))
        for row, draw in enumerate(draws):
            rng = np.random.default_rng([master_seed, draw, _STREAM_ALLOCATIONS])
            for first_row in range(0, count, block_rows):
                size = min(block_rows, count - first_row)
                design.sample(rng, size, out=alloc[:size])
                lap("allocations")
                exposure_slots(alloc[:size], coefficients, row_offsets, out=slots[:size])
                lap("slots")
                for family, value_table in enumerate(values[row]):
                    np.add.reduce(value_table.take(slots[:size]), axis=1,
                                  out=estimates[family, first_row:first_row + size])
                lap("gather")
            # The sums over units, then one division: the bits of take(...).mean(axis=1).
            estimates[:] /= units
            lap("gather")
            # One dot per family: a matrix-vector product may sum in another order.
            first_moment[row] = [weights @ e for e in estimates]
            second_moment[row] = [weights @ (e * e) for e in estimates]
            lap("moments")
        return first_moment, second_moment
    return sample_moments


# One setting's read-only inputs to its block loop.  At a network point ``kernel`` makes each
# setting's kernel and ``tables`` is None; ``tables[f, degree_rows[u]]`` is f's weights for u.
_Setting = namedtuple("_Setting", "network units width degrees degree_rows kernel tables")


# A network point's setting without weights, and its network and joint_pmf stage seconds.
@lru_cache(maxsize=1)
def _network_point(network_config: NetworkConfig, master_seed: int, p_treat, exhaustive):
    start = time.perf_counter()
    network = network_config.build(np.random.SeedSequence([master_seed, _STREAM_NETWORK]))
    units = np.array(included_units(network), dtype=np.intp)
    if not len(units):
        raise ValueError("every unit has in-degree 0; the average estimand is undefined")
    width = 2 * (int(network.in_degrees.max()) + 1)
    if exhaustive and (len(units) * width) ** 2 > JOINT_PMF_LIMIT:
        raise ValueError(f"exhaustive mode's joint exposure pmf would hold "
                         f"{(len(units) * width) ** 2:,} entries, over {JOINT_PMF_LIMIT:,}")
    degrees, degree_rows = np.unique(network.in_degrees[units], return_inverse=True)
    built = time.perf_counter()
    kernel = (partial(_exact_kernel, joint_exposure_pmf(network, units, width, p_treat))
              if exhaustive else partial(_sample_kernel, slot_coefficients(network, units),
                                         BernoulliDesign(network.n, p_treat), width, master_seed))
    for array in (units, degrees, degree_rows, kernel.args[0]):  # G or the coefficients
        array.setflags(write=False)
    setting = _Setting(network, units, width, degrees, degree_rows, kernel, None)
    return setting, (built - start, time.perf_counter() - built)


def _setup(config: ExperimentConfig) -> tuple[_Setting, dict]:
    """The setting of ``config`` with its weight tables and kernel, and its setup metadata."""
    misses = _network_point.cache_info().misses
    setting, seconds = _network_point(config.network, config.master_seed, config.p_treat,
                                      config.allocation_mode == "exhaustive")
    built = _network_point.cache_info().misses > misses
    excluded = setting.network.n - len(setting.units)
    if excluded:
        logger.info("excluding %d degree-0 unit(s) from the average estimand", excluded)
    start = time.perf_counter()
    # MDil's prior is the dilated model itself, at the setting's eta1 when it is dilated.
    eta1 = config.outcome.eta1 if config.outcome.kind == "dilated" else 1.0
    tables = np.zeros((len(config.estimators), len(setting.degrees), setting.width))
    before = _weight_row.cache_info()
    for row, degree in enumerate(setting.degrees):
        tables[:, row, :2 * degree + 2] = family_weights(
            config.estimators, degree, config.p_treat, eta1)
    after = _weight_row.cache_info()
    tables.setflags(write=False)
    network_s, joint_s = seconds if built else (0.0, 0.0)
    return setting._replace(kernel=setting.kernel(config), tables=tables), {
        "stage_seconds": {"network": network_s, "families": time.perf_counter() - start,
                          "joint_pmf": joint_s},
        "weight_rows": {"solved": after.misses - before.misses, "reused": after.hits - before.hits},
        "setting": "built" if built else "reused", "excluded_degree_zero_units": excluded}


def compute_imse(config: ExperimentConfig) -> ImseReport:
    """Integrated MSE of each requested estimator family under one setting.

    Per parameter draw, the setting's kernel (:func:`_exact_kernel` or
    :func:`_sample_kernel`) takes each family's mean and second moment over
    allocations, the squared error is formed against that draw's true average
    effect, and draws are then averaged.  Draws run in blocks of about 2**16
    value-table entries.  Results are deterministic given the master seed,
    whatever the block size, and independent of the interaction level for
    families that never read treated outcomes.  Exhaustive mode refuses a
    setting whose G would hold more than ``JOINT_PMF_LIMIT`` entries, every
    time, before any weight is solved.

    ``metadata["stage_seconds"]`` times the setup stages (network, families,
    joint_pmf; network and joint_pmf read 0 when ``metadata["setting"]`` is
    ``reused``, not ``built``) and, summed over blocks, the per-draw ones:
    params, outcome_table, allocations, slots, gather and moments (the middle
    three read 0 in exhaustive mode).  ``metadata["weight_rows"]`` counts the
    setting's (family, in-degree) weight rows ``solved`` and ``reused``.
    """
    start = time.perf_counter()
    setting, observed = _setup(config)
    network, units, width, _, degree_rows, kernel, tables = setting
    stages = {**observed.pop("stage_seconds"), **dict.fromkeys(
        ("params", "outcome_table", "allocations", "slots", "gather", "moments"), 0.0)}

    def lap(stage):
        nonlocal mark
        now = time.perf_counter()
        stages[stage] += now - mark
        mark = now

    n_families = len(config.estimators)
    n_draws = config.num_draws
    means, second = np.zeros((2, n_families, n_draws))
    theta_bars = np.zeros(n_draws)
    block = max(1, 2**16 // (n_families * len(units) * width))
    value_tables = np.empty((min(block, n_draws), n_families, len(units), width))
    mark = time.perf_counter()
    for first_draw in range(0, n_draws, block):
        draws = range(first_draw, min(first_draw + block, n_draws))
        params = sample_parameters(network, config.outcome, config.master_seed, draws)
        theta_bars[draws] = true_average_effect(network, params)
        lap("params")
        outcomes = _outcome_table(params, width)
        values = value_tables[:len(outcomes)]
        for row in range(n_families):
            np.multiply(tables[row][degree_rows], outcomes, out=values[:, row])
        lap("outcome_table")
        means[:, draws], second[:, draws] = (moment.T for moment in kernel(values, draws, lap))
    mse = second - 2.0 * theta_bars * means + theta_bars**2

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
    weight_rows = observed["weight_rows"]
    logger.info("setting %s stage seconds: %s; weight rows solved=%d reused=%d; setting %s",
                digest, " ".join(f"{stage}={seconds:.4f}" for stage, seconds in stages.items()),
                weight_rows["solved"], weight_rows["reused"], observed["setting"])
    metadata = {
        "config_hash": digest,
        "seed": config.master_seed,
        "runtime_seconds": time.perf_counter() - start,
        **observed,
        "stage_seconds": stages,
    }
    return ImseReport(config, results, metadata)
