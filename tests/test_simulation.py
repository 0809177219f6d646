"""Outcome models, estimator families, and integrated-MSE computation."""

import ast
import json
import logging
import operator
import pathlib
import re
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

import lue.cli
import lue.design
import lue.mivlue
import lue.simulation
from lue.cli import _setting_seed, main
from lue.design import BernoulliDesign, allocation_matrix
from lue.estimators import LinearEstimator, constraint_residuals
from lue.exposure import indicator_matrix
from lue.mivlue import PriorSpec, SingularSystemError, solve_mivlue
from lue.networks import Network, gen_erdos_renyi_directed, gen_k_regular_directed
from lue.simulation import (
    ESTIMATOR_NAMES,
    MDIL_RIDGE,
    ExperimentConfig,
    NetworkConfig,
    OutcomeModel,
    Parameters,
    _outcome_table,
    build_estimator_family,
    compute_imse,
    config_hash,
    exposure_slots,
    family_weights,
    included_units,
    joint_exposure_pmf,
    sample_parameters,
    slot_coefficients,
    true_average_effect,
    unit_exposure_distribution,
)

OUTCOME_MODELS = [
    OutcomeModel("independent", mu1=1.0),
    OutcomeModel("dilated", eta1=1.5),
    OutcomeModel("interaction", mu1=2.0, delta1=3.0),
]
# k_regular, and an Erdos-Renyi graph whose seed gives in-degrees 0 to 4
EXACT_NETWORKS = [(NetworkConfig("k_regular", 8, k=2), 17),
                  (NetworkConfig("erdos_renyi", 8, p_edge=0.2), 4)]
# Dense graphs: every pair of units shares in-neighbours, and most are joined by an edge.
DENSE_NETWORKS = [(NetworkConfig("k_regular", 12, k=11), 5),
                  (NetworkConfig("erdos_renyi", 12, p_edge=0.6), 6)]


def three_cycle():
    a = np.zeros((3, 3), dtype=int)
    a[0, 1] = a[1, 2] = a[2, 0] = 1
    return Network(a)


def effects(params, unit, kind="interference"):
    """One unit's d = 1..d_i effects of one kind, of every draw of a block."""
    return getattr(params, kind)[..., params.offsets[unit]:params.offsets[unit + 1]]


def one_unit(alpha, direct, interference, interaction=None):
    return Parameters([alpha], [direct], interference, [0, len(interference)], interaction)


def potential_outcome(params, unit, e):
    """Reference: the outcome of ``unit`` at exposure (treated degree, own treatment)."""
    d, z = (int(v) for v in e)
    start, end = params.offsets[unit], params.offsets[unit + 1]
    if not 0 <= d <= end - start:
        raise ValueError(f"treated degree {d} out of range 0..{end - start}")
    y = params.alpha[unit] + params.direct[unit] * z
    if d > 0:
        y += params.interference[start + d - 1]
        if params.interaction is not None and z:
            y += params.interaction[start + d - 1]
    return float(y)


def estimate_average_effect(family, network, allocation, params):
    """Reference: one allocation's average of unit-level estimates, one unit at a time.

    ``family`` maps each unit of positive in-degree to its estimator.
    """
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
            total += w * potential_outcome(params, i, e)
    return total / len(units)


def enumerated_allocations(design):
    """Reference: every allocation (n <= 20) and its Bernoulli mass p^t (1 - p)^(n - t).

    t is the number of units the row treats.
    """
    alloc = allocation_matrix(design)
    treated = alloc.sum(axis=1)
    return alloc, design.p_treat**treated * (1.0 - design.p_treat) ** (design.n - treated)


def weight_tables_of(config, network, units, width):
    """Reference: the (family x unit x slot) weights of a setting, one unit at a time."""
    eta1 = config.outcome.eta1 if config.outcome.kind == "dilated" else 1.0
    weight_tables = np.zeros((len(config.estimators), len(units), width))
    for row, unit in enumerate(units):
        degree = int(network.in_degrees[unit])
        weight_tables[:, row, :2 * degree + 2] = family_weights(
            config.estimators, degree, config.p_treat, eta1)
    return weight_tables


def per_draw_moments(config):
    """Reference: each family's exhaustive mean and MSE (families x draws), one draw at a time."""
    network = config.build_network()
    units = included_units(network)
    width = 2 * (int(network.in_degrees.max()) + 1)
    weight_tables = weight_tables_of(config, network, units, width)
    joint = joint_exposure_pmf(network, units, width, config.p_treat)
    pmf = joint.diagonal()
    means, mse = [], []
    for draw in range(config.num_draws):
        params = sample_parameters(network, config.outcome, [config.master_seed, draw])
        theta_bar = true_average_effect(network, params)
        value_tables = weight_tables * _outcome_table(params, width)[0]
        values = value_tables.reshape(len(config.estimators), -1) / len(units)
        first_moment = values @ pmf
        second_moment = np.einsum("fa,fa->f", values @ joint, values)
        means.append(first_moment)
        mse.append(second_moment - 2.0 * theta_bar * first_moment + theta_bar**2)
    return np.array(means).T, np.array(mse).T


def sampled_moments(config):
    """Reference: each family's sample-mode mean and MSE (families x draws), in one shot per draw.

    A draw's allocations come from one ``design.sample`` call and its slots
    from one :func:`exposure_slots` product; each family averages its
    gathered values over units with ``mean``.
    """
    network = config.build_network()
    units = included_units(network)
    width = 2 * (int(network.in_degrees.max()) + 1)
    weight_tables = weight_tables_of(config, network, units, width)
    design = BernoulliDesign(network.n, config.p_treat)
    coefficients = slot_coefficients(network, units)
    alloc_weights = np.full(config.allocation_count, 1.0 / config.allocation_count)
    means, mse = [], []
    for draw in range(config.num_draws):
        params = sample_parameters(network, config.outcome, [config.master_seed, draw])
        theta_bar = true_average_effect(network, params)
        value_tables = weight_tables * _outcome_table(params, width)[0]
        rng = np.random.default_rng(np.random.SeedSequence(
            [config.master_seed, draw, lue.simulation._STREAM_ALLOCATIONS]))
        alloc = design.sample(rng, config.allocation_count).astype(np.float32)
        slots = exposure_slots(alloc, coefficients) + np.arange(len(units)) * width
        estimates = [table.take(slots).mean(axis=1) for table in value_tables]
        first_moment = np.array([alloc_weights @ e for e in estimates])
        second_moment = np.array([alloc_weights @ (e * e) for e in estimates])
        means.append(first_moment)
        mse.append(second_moment - 2.0 * theta_bar * first_moment + theta_bar**2)
    return np.array(means).T, np.array(mse).T


@pytest.mark.parametrize("module, name", [
    ("simulation", "potential_outcome"),
    ("simulation", "estimate_average_effect"),
    ("simulation", "_WEIGHT_ROWS"),
    ("simulation", "_WEIGHT_COUNTS"),
    ("simulation", "WEIGHT_MEMO_SIZE"),
    ("design", "ExplicitDesign"),
    ("design", "Design"),
    ("design", "TABLE_SUM_TOL"),
    ("design.BernoulliDesign", "allocation_probability"),
    ("exposure", "remap_exposures"),
    ("exposure", "parameter_position"),
    ("exposure.ExposureSpec", "num_components"),
    ("estimators", "build_two_term_alue"),
    ("estimators", "build_four_term_alue"),
    ("estimators", "build_zero_estimator"),
    ("estimators", "_basis_member"),
    ("estimators", "check_zero_expectation"),
    (None, "LimitSolution"),
    (None, "EstimatorRows"),
    ("mivlue", "_relative_residual"),
    ("mivlue", "assemble_system"),
    ("mivlue", "assemble_from_moments"),
])
def test_scalar_references_are_not_exported(module, name):
    """The package evaluates estimators only through the vectorised tables and the basis.

    Names with a module (or a class in one) are gone from it too; the others stay
    internal to theirs.
    """
    assert name not in lue.__all__ and not hasattr(lue, name)
    if module is not None:
        assert not hasattr(operator.attrgetter(module)(lue), name)


def test_every_import_is_used():
    """Each module of the package (``__init__`` aside) reads every name it imports."""
    unused = {}
    for path in sorted(pathlib.Path(lue.__file__).parent.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text())
        imported = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                imported |= {(alias.asname or alias.name).split(".")[0] for alias in node.names}
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                imported |= {alias.asname or alias.name for alias in node.names}
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        if imported - read:
            unused[path.name] = sorted(imported - read)
    assert not unused


def package_nodes():
    """Every AST node of the package, as (file name, innermost enclosing function, node)."""
    for path in sorted(pathlib.Path(lue.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        owner = {}
        # ast.walk is breadth-first, so an inner function overwrites its outer one.
        for func in ast.walk(tree):
            if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                owner.update((id(node), func.name) for node in ast.walk(func))
        for node in ast.walk(tree):
            yield path.name, owner.get(id(node), "<module>"), node


def test_the_binomial_law_is_written_once():
    """``math.comb`` and ``math.lgamma`` occur in one function of the package.

    That function states the Bernoulli exposure law, and every pmf reads its table.
    """
    sites = set()
    for name, owner, node in package_nodes():
        uses = (isinstance(node, ast.Attribute) and node.attr in ("comb", "lgamma")
                and isinstance(node.value, ast.Name) and node.value.id == "math")
        imports = (isinstance(node, ast.ImportFrom) and node.module == "math"
                   and {"comb", "lgamma"} & {alias.name for alias in node.names})
        if uses or imports:
            sites.add((name, owner))
    assert sites == {("design.py", "bernoulli_slot_pmf")}


def test_the_slot_order_is_written_once():
    """Outside ``exposure.py``, only ``design.slot_order`` calls ``canonical_grid``.

    Every reader of a (d, 1) exposure in slot order goes through that function.
    """
    sites = {(name, owner) for name, owner, node in package_nodes()
             if isinstance(node, ast.Call) and name != "exposure.py"
             and getattr(node.func, "id", getattr(node.func, "attr", None)) == "canonical_grid"}
    assert sites == {("design.py", "slot_order")}


def test_the_number_rules_are_written_once():
    """``numbers.Integral``, ``numbers.Real`` and ``operator.index`` occur only in the two rules.

    Every integer that enters the package goes through ``exposure.as_int`` and
    every real through ``exposure.as_real``.  ``cli``'s JSON type checks use neither name.
    """
    names = {("numbers", "Integral"), ("numbers", "Real"), ("operator", "index")}
    sites = set()
    for name, owner, node in package_nodes():
        uses = (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and (node.value.id, node.attr) in names)
        imports = (isinstance(node, ast.ImportFrom) and node.module in ("numbers", "operator")
                   and {alias.name for alias in node.names} & {"Integral", "Real", "index"})
        if uses or imports:
            sites.add((name, owner))
    assert sites == {("exposure.py", "as_int"), ("exposure.py", "as_real")}


def test_only_the_setup_builds_a_setting():
    """``compute_imse`` reaches G, the slot coefficients and the weight tables only via its setup.

    ``_network_point`` builds G and the slot coefficients once per network point,
    and ``_setup`` solves the weight tables that the point does not hold yet.
    The other sites are outside ``compute_imse``: the two enumeration oracles
    push every allocation through the slot map that the sample kernel runs,
    ``verify``'s design oracle checks G against that enumeration, and
    ``build_estimator_family`` is the per-unit view the benchmark reads.
    """
    names = {"joint_exposure_pmf", "slot_coefficients", "family_weights"}
    sites = set()
    for name, owner, node in package_nodes():
        called = isinstance(node, ast.Call) and getattr(
            node.func, "id", getattr(node.func, "attr", None))
        if called in names:
            sites.add((name, owner, called))
    assert sites == {("simulation.py", "_network_point", "joint_exposure_pmf"),
                     ("simulation.py", "_network_point", "slot_coefficients"),
                     ("simulation.py", "_setup", "family_weights"),
                     ("simulation.py", "build_estimator_family", "family_weights"),
                     ("design.py", "exposure_distribution_exact", "slot_coefficients"),
                     ("verify.py", "check_design_oracle", "slot_coefficients"),
                     ("verify.py", "check_design_oracle", "joint_exposure_pmf")}


def test_only_the_kernels_reduce_over_allocations():
    """Each mode's allocation moments are its kernel's, and only the setup reads the mode.

    In ``simulation.py``, ``exposure_slots``, ``.sample(`` and ``_STREAM_ALLOCATIONS``
    occur only in the sample kernel and a product with G only in the exhaustive one;
    ``compute_imse`` takes no product at all.  ``allocation_mode`` is read by the
    config's own check and by ``_setup``, which hands ``_network_point`` the mode.
    """
    tree = ast.parse(pathlib.Path(lue.simulation.__file__).read_text())
    sites = {"sampling": set(), "G": set(), "products": set(), "mode": set()}
    for top in tree.body:
        owner = getattr(top, "name", "<module>")
        for node in ast.walk(top):
            name = getattr(node, "id", getattr(node, "attr", None))
            if name in ("exposure_slots", "_STREAM_ALLOCATIONS") and isinstance(node.ctx, ast.Load):
                sites["sampling"].add(owner)
            if isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "sample":
                sites["sampling"].add(owner)
            if isinstance(node, ast.BinOp) and isinstance(node.op, ast.MatMult):
                sites["products"].add(owner)
                if any(getattr(leaf, "id", None) == "joint" for leaf in ast.walk(node)):
                    sites["G"].add(owner)
            if name == "allocation_mode" and isinstance(node, ast.Attribute):
                sites["mode"].add(owner)
    assert sites["sampling"] == {"_sample_kernel"}
    assert sites["G"] == {"_exact_kernel"}
    assert "compute_imse" not in sites["products"]
    assert sites["mode"] == {"ExperimentConfig", "_setup"}


# Public definitions that no entry point reaches, each kept for its reason.
UNREACHED_ON_PURPOSE = {
    "solve_from_moments": "kept on purpose: tests scale one outcome variance through it",
    "support_null_prior": "the reference prior that the limit solve is checked against",
    "clear_memos": "empties every memo for tests and for cold benchmark runs",
}


def test_every_public_definition_is_reached():
    """Each public function or class of the package is reached from an entry point.

    The entry points are ``cli.main``, ``verify.run_verify``, ``compute_imse``,
    every module-level statement but an import (``ALL_CHECKS`` among them),
    each name that ``bench/*.py`` reads or spells as a string, and each name
    that ``tests/test_acceptance.py`` imports.  A definition reaches the names
    its body reads, in its own module or through ``from .module import``, and
    a class reaches every name its methods read.  Only the names in
    ``UNREACHED_ON_PURPOSE`` may stay unreached, and each of them must.
    """
    repo = pathlib.Path(__file__).resolve().parent.parent
    scopes, reads = {}, {}
    roots = {("cli", "main"), ("verify", "run_verify"), ("simulation", "compute_imse")}
    for path in sorted(pathlib.Path(lue.__file__).parent.glob("*.py")):
        module, tree = path.stem, ast.parse(path.read_text())
        scope = scopes[module] = {}
        for node in tree.body:
            if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module:
                scope.update((alias.asname or alias.name, (node.module, alias.name))
                             for alias in node.names)
            elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                scope[node.name] = module, node.name
        for node in tree.body:
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                continue
            named = {scope[name.id] for name in ast.walk(node)
                     if isinstance(name, ast.Name) and name.id in scope}
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                reads[module, node.name] = named
            else:
                roots |= named
    bench = set()
    for path in sorted((repo / "bench").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                bench.add(node.id)
            elif isinstance(node, ast.Attribute):
                bench.add(node.attr)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                bench.add(node.value)
    roots |= {key for key in reads if key[1] in bench}
    for node in ast.walk(ast.parse((repo / "tests" / "test_acceptance.py").read_text())):
        if isinstance(node, ast.ImportFrom) and node.module.startswith("lue."):
            roots |= {(node.module.removeprefix("lue."), alias.name) for alias in node.names}

    def resolve(key):
        """The definition that ``key``, a (module, name) pair, is or imports."""
        while key not in reads and key[1] in scopes.get(key[0], {}):
            key = scopes[key[0]][key[1]]
        return key

    reached, todo = set(), [resolve(key) for key in roots]
    while todo:
        key = todo.pop()
        if key in reads and key not in reached:
            reached.add(key)
            todo.extend(resolve(read) for read in reads[key])
    unreached = {name for _, name in reads.keys() - reached if not name.startswith("_")}
    assert unreached == UNREACHED_ON_PURPOSE.keys()


# Draws per seeded parameter stream, the seeding contract of sample_parameters.
CHUNK = 256


def sequential_parameters(network, model, seed):
    """Reference: the per-unit draw loop, one RNG call per parameter block.

    ``seed``'s last element is the draw r.  Each stream is seeded by the
    ints ``[*prefix, r // CHUNK, label]``, label 4 (common) or 1
    (interaction), and the r % CHUNK draws before r in that chunk are drawn
    and dropped first.
    Returns one (alpha, direct, interference, interaction) tuple per unit.
    """
    *prefix, draw = list(seed) if isinstance(seed, (list, tuple)) else [seed]
    chunk, skip = divmod(draw, CHUNK)
    rng_common = np.random.default_rng(np.random.SeedSequence([*prefix, chunk, 4]))
    rng_inter = np.random.default_rng(np.random.SeedSequence([*prefix, chunk, 1]))
    entries = int(network.adjacency.sum())
    row = network.n if model.kind == "dilated" else 2 * network.n + entries
    rng_common.normal(size=skip * row)
    rng_inter.normal(size=skip * entries)
    out = []
    for i in range(network.n):
        d_i = int(network.adjacency[:, i].sum())
        scale = np.arange(1, d_i + 1) / d_i if d_i else np.zeros(0)
        if model.kind == "dilated":
            alpha = rng_common.normal()
            out.append((alpha, alpha, scale * model.eta1 * alpha, None))
            continue
        alpha = rng_common.normal()
        direct = rng_common.normal()
        interference = scale * model.mu1 + rng_common.normal(size=d_i)
        interaction = None
        if model.kind == "interaction" and model.delta1 > 0:
            interaction = scale * model.delta1 + rng_inter.normal(size=d_i)
        out.append((alpha, direct, interference, interaction))
    return out


class TestSampleParameters:
    @pytest.mark.parametrize("seed", [7, [3, 5], (11, 0, 2)], ids=["int", "list", "tuple"])
    @pytest.mark.parametrize("model", [
        *OUTCOME_MODELS,
        OutcomeModel("interaction", mu1=50, delta1=0),
        OutcomeModel("dilated", eta1=3),
    ], ids=["independent", "dilated", "interaction", "interaction_zero", "dilated_int"])
    @pytest.mark.parametrize("network", [
        gen_k_regular_directed(20, 4, seed=1),
        gen_erdos_renyi_directed(30, 0.08, seed=4),  # several degree-0 units
    ], ids=["k_regular", "erdos_renyi"])
    def test_batched_equals_sequential_reference(self, network, model, seed):
        """One vector per stream gives the per-unit loop's parameters bit for bit."""
        batched = sample_parameters(network, model, seed)
        reference = sequential_parameters(network, model, seed)
        assert len(reference) == network.n
        np.testing.assert_array_equal(np.diff(batched.offsets), network.in_degrees)
        assert batched.alpha.tobytes() == np.array([q[0] for q in reference]).tobytes()
        assert batched.direct.tobytes() == np.array([q[1] for q in reference]).tobytes()
        assert (batched.interaction is None) == all(q[3] is None for q in reference)
        for unit, (_, _, interference, interaction) in enumerate(reference):
            assert effects(batched, unit).tobytes() == interference.tobytes()
            if interaction is not None:
                assert effects(batched, unit, "interaction").tobytes() == interaction.tobytes()
        assert not any(getattr(batched, kind).flags.writeable
                       for kind in ("alpha", "direct", "interference", "offsets"))

    # 2**32 - 1 and 2**32 sit on either side of SeedSequence's split of an int into
    # 32-bit words; 2**64 - 1 takes two words, and a _setting_seed value is what
    # `lue simulate` passes.
    @pytest.mark.parametrize("seed", [0, 2**32 - 1, 2**32, 2**64 - 1, _setting_seed(7, 0)],
                             ids=["0", "2^32-1", "2^32", "2^64-1", "setting_seed"])
    @pytest.mark.parametrize("model", [
        OutcomeModel("independent", mu1=1.0),
        OutcomeModel("dilated", eta1=1.5),
        OutcomeModel("interaction", mu1=2.0, delta1=3.0),
        OutcomeModel("interaction", mu1=2.0, delta1=0.0),
    ], ids=["independent", "dilated", "interaction", "interaction_zero"])
    # Blocks of 1, 3, 81 and 300 draws.  Draw 256 is the first of the second chunk,
    # the 300 draws cross it, and the 81 cross 2**32, which is a chunk boundary too.
    @pytest.mark.parametrize("draws", [range(7, 8), range(3), range(2**32 - 40, 2**32 + 41),
                                       range(256, 257), range(100, 400)],
                             ids=["1", "3", "81", "1_at_256", "300"])
    def test_each_row_of_a_block_is_its_single_draw(self, seed, model, draws):
        """Row r of a block is the single draw at [seed, draws[r]] and the per-unit oracle's.

        Its θ̄ is that draw's :func:`true_average_effect` and the oracle's np.mean, bit for bit.
        """
        network = gen_erdos_renyi_directed(12, 0.2, seed=0)  # in-degrees 0 to 4
        block = sample_parameters(network, model, seed, draws)
        thetas = true_average_effect(network, block)
        assert block.alpha.shape == (len(draws), network.n) and thetas.shape == (len(draws),)
        assert (block.interaction is None) == (model.kind != "interaction" or not model.delta1)
        for row, draw in enumerate(draws):
            single = sample_parameters(network, model, [seed, draw])
            reference = sequential_parameters(network, model, [seed, draw])
            for kind in ("alpha", "direct", "interference", "interaction"):
                if getattr(single, kind) is not None:
                    assert getattr(block, kind)[row].tobytes() == getattr(single, kind).tobytes()
            assert block.alpha[row].tobytes() == np.array([q[0] for q in reference]).tobytes()
            assert block.direct[row].tobytes() == np.array([q[1] for q in reference]).tobytes()
            for unit, (_, _, interference, interaction) in enumerate(reference):
                assert effects(block, unit)[row].tobytes() == interference.tobytes()
                if interaction is not None:
                    assert (effects(block, unit, "interaction")[row].tobytes()
                            == interaction.tobytes())
            assert thetas[row].tobytes() == np.float64(
                true_average_effect(network, single)).tobytes()
            tops = [interference[-1] for _, _, interference, _ in reference if len(interference)]
            assert thetas[row].tobytes() == np.mean(tops).tobytes()

    @pytest.mark.parametrize("model", [OutcomeModel("dilated", eta1=1.5),
                                       OutcomeModel("interaction", mu1=2.0, delta1=3.0)],
                             ids=["dilated", "interaction"])
    @pytest.mark.parametrize("block", [1, 3, 81, 300])
    def test_rows_do_not_depend_on_the_block_size(self, model, block):
        """Draws 0..599 walked in blocks of any size are the one-block rows, across chunks."""
        network = gen_erdos_renyi_directed(12, 0.2, seed=0)
        whole = sample_parameters(network, model, 5, range(600))
        parts = [sample_parameters(network, model, 5, range(first, min(first + block, 600)))
                 for first in range(0, 600, block)]
        for kind in ("alpha", "direct", "interference", "interaction"):
            if getattr(whole, kind) is not None:
                assert (np.concatenate([getattr(part, kind) for part in parts]).tobytes()
                        == getattr(whole, kind).tobytes())

    @pytest.mark.parametrize("model", [OutcomeModel("dilated", eta1=1.5),
                                       OutcomeModel("interaction", mu1=2.0, delta1=3.0)],
                             ids=["dilated", "interaction"])
    def test_rows_do_not_depend_on_the_order_of_requests(self, model):
        """Blocks asked out of order, twice, or after other draws of the seed give the same rows."""
        network = gen_erdos_renyi_directed(12, 0.2, seed=0)
        other = gen_k_regular_directed(9, 2, seed=1)
        whole = sample_parameters(network, model, 5, range(600))
        requests = [range(300, 600), range(0, 300), range(81, 162), range(81, 162),
                    range(250, 260), range(200, 256), range(256, 257), range(255, 256),
                    [300, 5, 6, 256, 255, 7], [599, 598, 0]]
        for draws in requests:
            if draws[0] % CHUNK:
                # Leaves each stream where this request starts, but on rows of another size.
                sample_parameters(other, model, 5, range(draws[0] - draws[0] % CHUNK, draws[0]))
            for _ in range(2):
                part = sample_parameters(network, model, 5, draws)
                for kind in ("alpha", "direct", "interference", "interaction"):
                    if getattr(whole, kind) is not None:
                        assert (getattr(part, kind).tobytes()
                                == getattr(whole, kind)[list(draws)].tobytes())
            sample_parameters(network, model, 6, draws)

    @pytest.mark.parametrize("master", [7, _setting_seed(7, 0)], ids=["one_word", "two_words"])
    def test_no_parameter_stream_is_the_network_stream(self, master):
        """Chunk 3's streams share no bits with the network's, seeded [master, 3].

        SeedSequence pads entropy shorter than four words with zeros, so a
        parameter stream labelled 0 would be that very stream.
        """
        network = gen_k_regular_directed(6, 2, seed=0)
        model = OutcomeModel("interaction", mu1=0.0, delta1=1.0)
        params = sample_parameters(network, model, [master, 3 * CHUNK])
        entries = 2 * network.n + len(params.interference)
        rng = np.random.default_rng(np.random.SeedSequence([master, 3]))
        assert not np.isin(rng.standard_normal(entries), [
            *params.alpha, *params.direct, *params.interference, *params.interaction]).any()

    def test_streams_are_seeded_once_per_chunk(self, monkeypatch):
        """1,000 exhaustive draws seed each parameter stream at most ceil(1000 / 256) times.

        A count, not a timing, so it holds on any machine.  The network's seed
        is the one other SeedSequence; seeding each draw's streams made 2,001.
        """
        made = []
        seed_sequence = np.random.SeedSequence

        def counting(*args, **kwargs):
            made.append(args)
            return seed_sequence(*args, **kwargs)

        monkeypatch.setattr(lue.simulation.np.random, "SeedSequence", counting)
        config = ExperimentConfig(NetworkConfig("k_regular", 12, k=3),
                                  OutcomeModel("interaction", mu1=1.0, delta1=2.0),
                                  num_draws=1000, master_seed=11)
        compute_imse(config)
        assert 1 < len(made) <= 2 * -(-1000 // CHUNK) + 1

    def test_a_negative_seed_is_refused(self):
        with pytest.raises(ValueError, match="nonnegative"):
            sample_parameters(gen_k_regular_directed(5, 2, seed=0), OutcomeModel("independent"),
                              [3, -1])
        with pytest.raises(ValueError,
                           match="a draw index must be a nonnegative integer, got -300"):
            sample_parameters(gen_k_regular_directed(5, 2, seed=0), OutcomeModel("independent"),
                              3, [0, 1, -300])

    @pytest.mark.parametrize("seed, draws, bad", [
        ([3.7, 1], None, "3.7"), ([True, 1], None, "True"), ([3, 1.0], None, "1.0"),
        (3, [0, 1.5], "1.5"), (3, [0, True], "True"), ("7", [0], "'7'"),
    ], ids=["float_seed", "bool_seed", "float_draw", "float_draws", "bool_draws", "str_seed"])
    def test_a_seed_or_draw_that_is_not_an_int_is_refused(self, seed, draws, bad):
        """Refused by value, never truncated to a neighbouring int or read as 0 and 1."""
        with pytest.raises(ValueError,
                           match=re.escape(f"must be a nonnegative integer, got {bad}")):
            sample_parameters(gen_k_regular_directed(5, 2, seed=0),
                              OutcomeModel("interaction", mu1=1.0, delta1=2.0), seed, draws)

    def test_an_iterator_of_draws_feeds_every_stream(self):
        """The draws are read once, so the interaction stream sees them as the common one does."""
        network = gen_k_regular_directed(5, 2, seed=0)
        model = OutcomeModel("interaction", mu1=1.0, delta1=2.0)
        listed = sample_parameters(network, model, 3, [0, 1, 2])
        once = sample_parameters(network, model, 3, iter(range(3)))
        assert once.interaction.shape == (3, 10)
        for kind in ("alpha", "direct", "interference", "interaction"):
            assert getattr(once, kind).tobytes() == getattr(listed, kind).tobytes()

    @pytest.mark.parametrize("model", OUTCOME_MODELS, ids=lambda model: model.kind)
    def test_no_draws_give_an_empty_block(self, model):
        network = gen_k_regular_directed(5, 2, seed=0)
        params = sample_parameters(network, model, 3, [])
        assert params.alpha.shape == (0, 5) and params.interference.shape == (0, 10)
        effect = true_average_effect(network, params)
        assert isinstance(effect, np.ndarray) and effect.shape == (0,)

    def test_numpy_ints_are_the_ints_they_hold(self):
        network = gen_k_regular_directed(5, 2, seed=0)
        model = OutcomeModel("interaction", mu1=1.0, delta1=2.0)
        plain = sample_parameters(network, model, [3, 2**40], [254, 255, 256])
        numpy = sample_parameters(network, model, [np.uint8(3), np.uint64(2**40)],
                                  np.arange(254, 257))
        for kind in ("alpha", "direct", "interference", "interaction"):
            assert getattr(numpy, kind).tobytes() == getattr(plain, kind).tobytes()

    def test_a_single_draw_needs_its_index(self):
        with pytest.raises(ValueError, match="draw index"):
            sample_parameters(gen_k_regular_directed(5, 2, seed=0), OutcomeModel("independent"),
                              [])

    def test_dilated_variance_and_correlation(self):
        """Under dilation the top interference effect tracks the baseline exactly."""
        net = gen_k_regular_directed(4, 2, seed=0)
        model = OutcomeModel("dilated", eta1=1.0)
        alphas, tops = [], []
        for draw in range(10_000):
            params = sample_parameters(net, model, [99, draw])
            alphas.append(params.alpha[0])
            tops.append(effects(params, 0)[-1])
        alphas, tops = np.array(alphas), np.array(tops)
        assert np.var(tops) == pytest.approx(1.0, abs=0.05)
        assert np.corrcoef(alphas, tops)[0, 1] == pytest.approx(1.0, abs=0.02)

    @pytest.mark.parametrize("model", OUTCOME_MODELS, ids=["independent", "dilated",
                                                           "interaction"])
    @pytest.mark.parametrize("degree", [1, 3, 8])
    def test_covariance_is_the_drawn_law(self, model, degree):
        """Every entry of the sample covariance of (alpha, interference, direct) is within 4 SE.

        Units of a k-regular network with k = degree are independent draws, so
        each of 8 parameter draws of 500 units adds 500 samples.
        """
        net = gen_k_regular_directed(500, degree, seed=degree)
        samples = np.vstack([
            np.column_stack([params.alpha, params.interference.reshape(net.n, degree),
                             params.direct])
            for params in (sample_parameters(net, model, [21, draw]) for draw in range(8))])
        diagonal, factor = model.covariance(degree)
        sigma = np.diag(diagonal) + np.outer(factor, factor)
        # The standard error of a Gaussian sample covariance entry.
        se = np.sqrt((np.outer(np.diag(sigma), np.diag(sigma)) + sigma**2) / len(samples))
        assert (np.abs(np.cov(samples, rowvar=False) - sigma) <= 4 * se).all()

    def test_interaction_zero_level_is_exactly_additive(self):
        net = gen_k_regular_directed(5, 2, seed=1)
        params = sample_parameters(net, OutcomeModel("interaction", mu1=3.0, delta1=0.0), 7)
        assert params.interaction is None

    def test_independent_zero_mean(self):
        net = gen_k_regular_directed(4, 2, seed=2)
        draws = np.array([
            effects(sample_parameters(net, OutcomeModel("independent"), [5, d]), 1)[0]
            for d in range(10_000)
        ])
        assert abs(draws.mean()) < 3 / np.sqrt(len(draws))

    def test_interference_mean_scales_with_degree_share(self):
        net = gen_k_regular_directed(6, 3, seed=3)
        model = OutcomeModel("independent", mu1=30.0)
        draws = np.array([
            effects(sample_parameters(net, model, [11, d]), 0) for d in range(4000)
        ])
        np.testing.assert_allclose(draws.mean(axis=0), [10.0, 20.0, 30.0], atol=0.2)

    def test_common_parameters_shared_across_interaction_levels(self):
        """Changing the interaction strength must not move the other draws."""
        net = gen_k_regular_directed(5, 2, seed=4)
        base = sample_parameters(net, OutcomeModel("interaction", mu1=2.0, delta1=0.0), [3, 0])
        bumped = sample_parameters(net, OutcomeModel("interaction", mu1=2.0, delta1=6.0), [3, 0])
        for kind in ("alpha", "direct", "interference", "offsets"):
            np.testing.assert_array_equal(getattr(base, kind), getattr(bumped, kind))
        assert base.interaction is None and bumped.interaction is not None

    def test_deterministic_given_seed(self):
        net = gen_k_regular_directed(5, 2, seed=4)
        a = sample_parameters(net, OutcomeModel("independent"), [8, 1])
        b = sample_parameters(net, OutcomeModel("independent"), [8, 1])
        for kind in ("alpha", "direct", "interference", "offsets"):
            np.testing.assert_array_equal(getattr(a, kind), getattr(b, kind))

    def test_layout_is_built_once_per_in_degree_vector(self):
        """Networks with equal in-degrees share one layout; other in-degrees build their own."""
        lue.simulation._entry_layout.cache_clear()
        model = OutcomeModel("independent")
        first, second = (sample_parameters(gen_k_regular_directed(10, 3, seed), model, 0)
                         for seed in (1, 2))
        other = sample_parameters(gen_erdos_renyi_directed(10, 0.3, seed=4), model, 0)
        np.testing.assert_array_equal(first.offsets, second.offsets)
        assert not first.offsets.flags.writeable and not other.offsets.flags.writeable
        assert lue.simulation._entry_layout.cache_info().misses == 2

    def test_caller_arrays_are_copied_and_stay_writable(self):
        given = {"alpha": np.zeros(2), "direct": np.ones(2), "interference": np.arange(3.0),
                 "offsets": np.array([0, 2, 3], dtype=np.intp), "interaction": np.ones(3)}
        params = Parameters(**given)
        for kind, array in given.items():
            assert getattr(params, kind) is not array
            assert array.flags.writeable and not getattr(params, kind).flags.writeable
        given["alpha"][0] = 5.0
        assert params.alpha[0] == 0.0

    def test_arrays_become_read_only_of_their_kind_dtype(self):
        alpha, integers = np.zeros(2), np.arange(3)
        params = Parameters(alpha, alpha, integers, np.array([0, 2, 3], dtype=np.int32))
        assert params.interference.dtype == float and not params.interference.flags.writeable
        assert params.offsets.dtype == np.intp and not params.offsets.flags.writeable

    def test_inconsistent_layout_rejected(self):
        with pytest.raises(ValueError, match="match the interference"):
            one_unit(0.0, 0.0, np.zeros(2), np.zeros(1))
        with pytest.raises(ValueError, match="offsets"):
            Parameters([0.0, 1.0], [0.0, 1.0], np.zeros(3), [0, 1])


class TestPotentialOutcome:
    def test_direct_effect(self):
        params = one_unit(1.0, 2.0, np.zeros(2))
        assert potential_outcome(params, 0, (0, 1)) == 3.0

    def test_baseline(self):
        params = one_unit(1.5, 2.0, np.array([4.0]))
        assert potential_outcome(params, 0, (0, 0)) == 1.5

    def test_interaction_term(self):
        params = one_unit(0.0, 0.0, np.array([0.0, 5.0]), np.array([0.0, 3.0]))
        assert potential_outcome(params, 0, (2, 1)) == 8.0
        assert potential_outcome(params, 0, (2, 0)) == 5.0

    def test_degree_out_of_range(self):
        params = one_unit(0.0, 0.0, np.array([1.0]))
        with pytest.raises(ValueError, match="out of range"):
            potential_outcome(params, 0, (2, 1))


class TestOutcomeTable:
    @pytest.mark.parametrize("model", OUTCOME_MODELS, ids=lambda m: m.kind)
    @pytest.mark.parametrize("p_edge, seed, zeros", [(0.3, 3, 0), (0.15, 0, 4)],
                             ids=["no_degree_zero", "degree_zero"])
    def test_equals_potential_outcome_bitwise(self, model, p_edge, seed, zeros):
        """Vectorised table entries equal the scalar outcomes exactly, mixed degrees included.

        Degree-0 units own no parameter entries and get no row.
        """
        net = gen_erdos_renyi_directed(12, p_edge, seed=seed)
        assert len(set(net.in_degrees.tolist())) > 2
        assert np.count_nonzero(net.in_degrees == 0) == zeros
        units = included_units(net)
        width = 2 * (int(net.in_degrees.max()) + 1)
        params = sample_parameters(net, model, [6, 1])
        (table,) = _outcome_table(params, width)
        for row, unit in enumerate(units):
            degree = int(net.in_degrees[unit])
            for d in range(degree + 1):
                for z in (0, 1):
                    assert table[row, 2 * d + z] == potential_outcome(params, unit, (d, z))
            assert not table[row, 2 * (degree + 1):].any()

    def test_interaction_with_unequal_degrees(self):
        """The lower-degree unit's slots past its own degree stay zero."""
        params = Parameters([0.5, -1.0], [1.25, 0.75], [2.0, 3.0, 5.0], [0, 2, 3],
                            [4.0, 8.0, 16.0])
        (table,) = _outcome_table(params, 6)
        expected = [[potential_outcome(params, 0, (d, z)) for d in range(3) for z in (0, 1)],
                    [potential_outcome(params, 1, (d, z)) for d in range(2) for z in (0, 1)]
                    + [0.0, 0.0]]
        np.testing.assert_array_equal(table, expected)

    @pytest.mark.parametrize("model", OUTCOME_MODELS, ids=lambda m: m.kind)
    def test_stacked_draws_equal_each_draws_own_table(self, model):
        net = gen_erdos_renyi_directed(12, 0.15, seed=0)
        width = 2 * (int(net.in_degrees.max()) + 1)
        stacked = _outcome_table(sample_parameters(net, model, 6, range(4)), width)
        assert stacked.shape == (4, len(included_units(net)), width)
        for draw in range(4):
            (table,) = _outcome_table(sample_parameters(net, model, [6, draw]), width)
            np.testing.assert_array_equal(stacked[draw], table)


class TestExposureSlots:
    def test_float_product_equals_integer_product(self):
        net = gen_k_regular_directed(200, 8, seed=9)
        units = included_units(net)
        # 1000 rows span several row blocks, the last one partial
        alloc = BernoulliDesign(200, 0.5).sample(np.random.default_rng(2), 1000)
        slots = exposure_slots(alloc, slot_coefficients(net, units))
        assert slots.dtype == np.intp
        np.testing.assert_array_equal(slots, (2 * (alloc @ net.adjacency) + alloc)[:, units])

    def test_slot_coefficients_build_no_square_integer_temporaries(self):
        """The float32 (2A + I)[:, units], built in about two n x n float32 arrays."""
        net = gen_erdos_renyi_directed(1000, 0.01, seed=3)
        units = included_units(net)
        expected = (2 * net.adjacency + np.eye(net.n, dtype=np.int64))[:, units]
        tracemalloc.start()
        try:
            coefficients = slot_coefficients(net, units)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        np.testing.assert_array_equal(coefficients, expected.astype(np.float32))
        assert coefficients.dtype == np.float32
        assert peak < 10e6


class TestJointExposurePmf:
    @staticmethod
    def global_enumeration(net, units, width, p_treat):
        alloc, probs = enumerated_allocations(BernoulliDesign(net.n, p_treat))
        slots = (2 * (alloc @ net.adjacency) + alloc)[:, units]
        joint = np.zeros((len(units) * width,) * 2)
        for a in range(len(units)):
            for b in range(len(units)):
                cells = np.bincount(slots[:, a] * width + slots[:, b], weights=probs,
                                    minlength=width * width)
                joint[a * width:(a + 1) * width, b * width:(b + 1) * width] = (
                    cells.reshape(width, width))
        return joint

    @pytest.mark.parametrize("p_treat", [0.5, 0.3])
    @pytest.mark.parametrize("config,seed", EXACT_NETWORKS)
    def test_equals_global_enumeration(self, config, seed, p_treat):
        net = config.build(np.random.SeedSequence([seed, 3]))
        units = included_units(net)
        width = 2 * (int(net.in_degrees.max()) + 1)
        joint = joint_exposure_pmf(net, units, width, p_treat)
        expected = self.global_enumeration(net, units, width, p_treat)
        if p_treat == 0.5:  # dyadic masses: both sums are exact
            np.testing.assert_array_equal(joint, expected)
        else:
            np.testing.assert_allclose(joint, expected, rtol=0, atol=1e-15)
        for row, unit in enumerate(units):
            marginal = unit_exposure_distribution(BernoulliDesign(net.n, p_treat), net, unit)
            own = joint.diagonal()[row * width:(row + 1) * width]
            for (d, z), prob in zip(marginal, marginal.vector):
                assert own[2 * d + z] == pytest.approx(prob, rel=1e-13)

    @pytest.mark.parametrize("p_treat", [0.3, 0.5, 0.7])
    @pytest.mark.parametrize("config,seed", [(NetworkConfig("k_regular", 10, k=2), 1),
                                             (NetworkConfig("k_regular", 20, k=19), 1),
                                             EXACT_NETWORKS[1]],
                             ids=["k_regular_10_2", "k_regular_20_19", "erdos_renyi_8"])
    def test_diagonal_is_the_unit_pmf_bit_for_bit(self, config, seed, p_treat):
        """G's diagonal holds the very masses each unit's weights are solved against."""
        net = config.build(np.random.SeedSequence([seed, 3]))
        units = included_units(net)
        width = 2 * (int(net.in_degrees.max()) + 1)
        own = joint_exposure_pmf(net, units, width, p_treat).diagonal().reshape(-1, width)
        for row, unit in enumerate(units):
            degree = int(net.in_degrees[unit])
            expected = np.zeros(width)
            expected[lue.design.slot_order(degree)] = (
                lue.design.bernoulli_exposure_distribution(degree, p_treat).vector)
            assert own[row].tobytes() == expected.tobytes(), (unit, p_treat)


    @pytest.mark.parametrize("p_treat", [0.0, 1.0, 1.5])
    def test_rejects_p_treat_outside_the_unit_interval(self, p_treat):
        net = gen_k_regular_directed(5, 2, seed=1)
        with pytest.raises(ValueError, match=r"p_treat must be in \(0, 1\)"):
            joint_exposure_pmf(net, included_units(net), 6, p_treat)

    @pytest.mark.parametrize("config,seed", DENSE_NETWORKS)
    def test_dense_panel_equals_global_enumeration(self, config, seed):
        net = config.build(np.random.SeedSequence([seed, 3]))
        units = included_units(net)
        width = 2 * (int(net.in_degrees.max()) + 1)
        joint = joint_exposure_pmf(net, units, width, 0.5)
        np.testing.assert_array_equal(joint, self.global_enumeration(net, units, width, 0.5))

    @pytest.mark.parametrize("p_treat", [0.5, 0.3])
    @pytest.mark.parametrize("config,seed", EXACT_NETWORKS + DENSE_NETWORKS)
    def test_exactly_symmetric(self, config, seed, p_treat):
        net = config.build(np.random.SeedSequence([seed, 3]))
        units = included_units(net)
        joint = joint_exposure_pmf(net, units, 2 * (int(net.in_degrees.max()) + 1), p_treat)
        assert np.array_equal(joint, joint.T)

    @staticmethod
    def exact_block(net, i, j, p_treat, width):
        """Block (i, j) in exact arithmetic, over the allocations of N̄_i ∪ N̄_j.

        An allocation's mass depends only on how many members it treats, so
        the allocations are counted per (slot of i, slot of j, treated) first.
        """
        members = np.flatnonzero(net.adjacency[:, i] | net.adjacency[:, j])
        members = np.union1d(members, [i, j])
        alloc = allocation_matrix(BernoulliDesign(len(members)))
        own = np.searchsorted(members, [i, j])  # the columns of i and j among the members
        slots = 2 * (alloc @ net.adjacency[members][:, [i, j]]) + alloc[:, own]
        cells, counts = np.unique(np.column_stack([slots, alloc.sum(axis=1)]), axis=0,
                                  return_counts=True)
        p = Fraction(p_treat)
        block = [[Fraction(0)] * width for _ in range(width)]
        for (s, t, treated), count in zip(cells.tolist(), counts.tolist()):
            block[s][t] += count * p**treated * (1 - p) ** (len(members) - treated)
        return block

    @pytest.mark.parametrize("p_treat", [0.3, 0.7])
    @pytest.mark.parametrize("config,seed", EXACT_NETWORKS + DENSE_NETWORKS)
    def test_pair_blocks_match_exact_arithmetic(self, config, seed, p_treat):
        """Nonzero masses within 8 eps relative of the exact ones; structural zeros exactly 0."""
        net = config.build(np.random.SeedSequence([seed, 3]))
        units = included_units(net)
        width = 2 * (int(net.in_degrees.max()) + 1)
        joint = joint_exposure_pmf(net, units, width, p_treat)
        blocks = joint.reshape(len(units), width, len(units), width)
        tol = 8 * np.finfo(float).eps
        for a, b in [(0, 0), (0, 1), (1, 0), (0, len(units) - 1), (len(units) - 2, 2)]:
            exact = self.exact_block(net, units[a], units[b], p_treat, width)
            for s, t in np.ndindex(width, width):
                got, truth = blocks[a, s, b, t], exact[s][t]
                if truth == 0:
                    assert got == 0.0, (a, b, s, t)
                else:
                    assert abs(Fraction(got) - truth) <= tol * truth, (a, b, s, t)


def per_unit_family(name, network, design, eta1=1.0):
    """Reference: one exposure pmf and, for MInd/MDil, one solve per unit."""
    family = {}
    for unit in included_units(network):
        d_i = int(network.in_degrees[unit])
        dist = unit_exposure_distribution(design, network, unit)
        spec = dist.spec
        if name == "HT0":
            weights = {(d_i, 0): 1.0 / dist[(d_i, 0)], (0, 0): -1.0 / dist[(0, 0)]}
            est = LinearEstimator(spec, weights, name=f"HT0[{unit}]")
        elif name == "HT1":
            weights = {(d_i, 1): 1.0 / dist[(d_i, 1)], (0, 1): -1.0 / dist[(0, 1)]}
            est = LinearEstimator(spec, weights, name=f"HT1[{unit}]")
        elif name == "HTAvg":
            weights = {
                (d_i, 0): 0.5 / dist[(d_i, 0)],
                (0, 0): -0.5 / dist[(0, 0)],
                (d_i, 1): 0.5 / dist[(d_i, 1)],
                (0, 1): -0.5 / dist[(0, 1)],
            }
            est = LinearEstimator(spec, weights, name=f"HTAvg[{unit}]")
        elif name == "MInd":
            est = solve_mivlue(spec, dist, PriorSpec(np.eye(spec.num_parameters))).estimator
            est.name = f"MInd[{unit}]"
        else:  # MDil
            u = np.concatenate([[1.0], np.arange(1, d_i + 1) / d_i * eta1, [1.0]])
            cov = np.outer(u, u) + MDIL_RIDGE * np.eye(spec.num_parameters)
            est = solve_mivlue(spec, dist, PriorSpec(cov)).estimator
            est.name = f"MDil[{unit}]"
        family[unit] = est
    return family


class TestBuildEstimatorFamily:
    def setup_method(self):
        self.net = gen_k_regular_directed(10, 2, seed=5)
        self.design = BernoulliDesign(10, 0.5)

    def test_ht0_weights(self):
        family = build_estimator_family("HT0", self.net, self.design)
        dist = unit_exposure_distribution(self.design, self.net, 0)
        est = family[0]
        assert est.support() == {(2, 0), (0, 0)}
        assert est.weight((2, 0)) == pytest.approx(1 / dist[(2, 0)])
        assert est.weight((0, 0)) == pytest.approx(-1 / dist[(0, 0)])

    def test_htavg_halves_the_treated_weight(self):
        family = build_estimator_family("HTAvg", self.net, self.design)
        dist = unit_exposure_distribution(self.design, self.net, 3)
        assert family[3].weight((2, 1)) == pytest.approx(0.5 / dist[(2, 1)])

    def test_mind_satisfies_constraints_everywhere(self):
        family = build_estimator_family("MInd", self.net, self.design)
        for unit, est in family.items():
            dist = unit_exposure_distribution(self.design, self.net, unit)
            assert constraint_residuals(est.spec, dist.vector, est.vector)[0] < 1e-9

    def test_mdil_satisfies_constraints_everywhere(self):
        family = build_estimator_family("MDil", self.net, self.design)
        for unit, est in family.items():
            dist = unit_exposure_distribution(self.design, self.net, unit)
            assert constraint_residuals(est.spec, dist.vector, est.vector)[0] < 1e-9

    def test_unknown_family(self):
        with pytest.raises(ValueError, match="unknown estimator family"):
            build_estimator_family("HT2", self.net, self.design)

    @pytest.mark.parametrize("p_treat", [0.5, 0.3])
    def test_equals_per_unit_reference(self, p_treat):
        """Weights built once per in-degree equal a per-unit build to the last bit."""
        net = gen_erdos_renyi_directed(30, 0.15, seed=3)  # in-degrees 0 to 9
        design = BernoulliDesign(net.n, p_treat)
        for name in ESTIMATOR_NAMES:
            for eta1 in ((1.0, 1.5) if name == "MDil" else (1.0,)):
                family = build_estimator_family(name, net, design, eta1)
                reference = per_unit_family(name, net, design, eta1)
                assert list(family) == list(reference)
                for unit, est in family.items():
                    assert est.name == reference[unit].name
                    assert est.spec == reference[unit].spec
                    assert est.weights == reference[unit].weights


class TestEstimateAverageEffect:
    def test_zero_weights_give_zero(self):
        net = three_cycle()
        design = BernoulliDesign(3, 0.5)
        family = {unit: LinearEstimator(est.spec, 0.0 * est.vector, est.name)
                  for unit, est in build_estimator_family("HT0", net, design).items()}
        params = sample_parameters(net, OutcomeModel("independent"), 0)
        assert estimate_average_effect(family, net, np.array([1, 0, 1]), params) == 0.0

    def test_single_isolated_unit_rejected(self):
        net = Network(np.zeros((1, 1), dtype=int))
        params = one_unit(0.0, 0.0, np.zeros(0))
        with pytest.raises(ValueError, match="undefined"):
            estimate_average_effect({}, net, np.array([0]), params)

    def test_enumeration_recovers_truth_on_cycle(self):
        """Expectation over all 8 allocations equals the true effect exactly."""
        net = three_cycle()
        design = BernoulliDesign(3, 0.5)
        family = build_estimator_family("HT0", net, design)
        params = sample_parameters(net, OutcomeModel("independent"), 13)
        allocs, probs = enumerated_allocations(design)
        expectation = sum(
            p * estimate_average_effect(family, net, z, params)
            for z, p in zip(allocs, probs)
        )
        assert expectation == pytest.approx(true_average_effect(net, params), abs=1e-12)

    def test_truth_is_undefined_without_edges(self):
        net = Network(np.zeros((3, 3), dtype=int))
        params = sample_parameters(net, OutcomeModel("independent"), 0)
        with pytest.raises(ValueError, match="every unit has in-degree 0"):
            true_average_effect(net, params)

    @pytest.mark.parametrize("model", OUTCOME_MODELS, ids=lambda model: model.kind)
    @pytest.mark.parametrize("config,seed", EXACT_NETWORKS, ids=["k_regular", "erdos_renyi"])
    def test_truth_is_the_mean_of_the_top_entries_bit_for_bit(self, config, seed, model):
        """θ̄ read from the cached layout equals np.mean over each unit's last entry."""
        net = config.build(np.random.SeedSequence([seed, 3]))
        units = included_units(net)
        assert config.kind == "k_regular" or len(units) < net.n
        for draw in range(5):
            params = sample_parameters(net, model, [seed, draw])
            reference = float(np.mean(params.interference[params.offsets[1:][units] - 1]))
            truth = true_average_effect(net, params)
            assert np.float64(truth).tobytes() == np.float64(reference).tobytes(), draw


class TestExperimentConfig:
    def test_exhaustive_budget(self, monkeypatch):
        """Exhaustive mode is bounded by the entries of G, (units x width)^2, not by n.

        n = 30, k = 2 gives (30 x 6)^2 entries and runs, and so does the largest G
        at n <= 20, a complete graph's 800^2.  n = 200, k = 8 would give
        (200 x 18)^2 = 12,960,000, over 2^20: refused by that count before any
        weight is solved.
        """
        outcome = OutcomeModel("independent")
        for network in (NetworkConfig("k_regular", 30, k=2),
                        NetworkConfig("erdos_renyi", 20, p_edge=1.0)):
            compute_imse(ExperimentConfig(network=network, outcome=outcome, num_draws=2))
        solved = []
        monkeypatch.setattr(lue.simulation, "family_weights", lambda *args: solved.append(args))
        config = ExperimentConfig(network=NetworkConfig("k_regular", 200, k=8), outcome=outcome)
        assert config.allocation_mode == "exhaustive"
        with pytest.raises(ValueError, match="would hold 12,960,000 entries, over 1,048,576$"):
            compute_imse(config)
        assert solved == []

    @pytest.mark.parametrize("seed", ["7", True, 3.5, -1], ids=["str", "bool", "float", "negative"])
    def test_master_seed_must_be_a_nonnegative_int(self, seed):
        with pytest.raises(ValueError, match=re.escape(
                f"master_seed must be a nonnegative integer, got {seed!r}")):
            ExperimentConfig(network=NetworkConfig("k_regular", 10, k=2),
                             outcome=OutcomeModel("independent"), master_seed=seed)

    def test_numpy_scalars_are_the_python_numbers_they_hold(self):
        """Stored as Python numbers, so the rows and the config hash are those of Python input."""
        def config(integer, real32, real64):
            return ExperimentConfig(
                network=NetworkConfig("k_regular", integer(10), k=integer(2)),
                outcome=OutcomeModel("interaction", mu1=real32(1.0), delta1=real64(2.0)),
                p_treat=real32(0.5), num_draws=integer(3), allocation_mode="sample",
                allocation_count=integer(40), master_seed=integer(5))

        plain, numpy = config(int, float, float), config(np.int64, np.float32, np.float64)
        stored = [type(getattr(numpy, name)) for name in ("num_draws", "master_seed", "p_treat")]
        assert stored == [int, int, float]
        assert numpy == plain and config_hash(numpy) == config_hash(plain)
        assert compute_imse(numpy).csv_rows() == compute_imse(plain).csv_rows()

    def test_round_trip(self):
        config = ExperimentConfig(
            network=NetworkConfig("erdos_renyi", 12, p_edge=0.25),
            outcome=OutcomeModel("interaction", mu1=10.0, delta1=2.0),
            num_draws=50,
            allocation_mode="sample",
            allocation_count=200,
            master_seed=9,
        )
        again = ExperimentConfig.from_dict(config.to_dict())
        assert again == config
        assert config_hash(again) == config_hash(config) == "98db95ebbb44"
        with pytest.raises(ValueError, match="^unknown config field 'comment'$"):
            ExperimentConfig.from_dict({**config.to_dict(), "comment": "refused"})
        dilated = ExperimentConfig(network=NetworkConfig("k_regular", 12, k=3),
                                   outcome=OutcomeModel("dilated", eta1=2.0))
        assert ExperimentConfig.from_dict(dilated.to_dict()) == dilated
        with pytest.raises(TypeError):
            ExperimentConfig.from_dict({**config.to_dict(), "network": {
                "kind": "erdos_renyi", "n": 12, "p_edge": 0.25, "comment": "rejected"}})

    def test_network_comes_from_its_own_stream(self):
        config = ExperimentConfig(network=NetworkConfig("erdos_renyi", 12, p_edge=0.3),
                                  outcome=OutcomeModel("independent"), master_seed=5)
        expected = config.network.build(np.random.SeedSequence([5, 3]))
        np.testing.assert_array_equal(config.build_network().adjacency, expected.adjacency)

    def test_int_too_large_for_a_float_is_refused_by_name(self):
        """A 401-digit ``mu1`` is refused like an infinity; an int a float holds stays an int."""
        with pytest.raises(ValueError, match=r"^mu1 must be a finite number, got 10{400}$"):
            OutcomeModel("independent", mu1=10**400)
        with pytest.raises(ValueError, match=r"^delta1 must be a finite number, got -10{400}$"):
            OutcomeModel("interaction", delta1=-10**400)
        for mu1 in (0, 10**300):
            assert type(OutcomeModel("independent", mu1=mu1).mu1) is int

    def test_network_config_validation(self):
        with pytest.raises(ValueError, match="^k must be a positive integer, got None$"):
            NetworkConfig("k_regular", 10)
        with pytest.raises(ValueError, match="^p_edge must be a finite number, got None$"):
            NetworkConfig("erdos_renyi", 10)

    def test_unknown_estimator_rejected(self):
        with pytest.raises(ValueError, match="unknown estimator"):
            ExperimentConfig(
                network=NetworkConfig("k_regular", 10, k=2),
                outcome=OutcomeModel("independent"),
                estimators=("HT9",),
            )

    def test_empty_estimators_rejected(self):
        with pytest.raises(ValueError, match="estimators must name at least one family"):
            ExperimentConfig(
                network=NetworkConfig("k_regular", 10, k=2),
                outcome=OutcomeModel("independent"),
                estimators=[],
            )

    @pytest.mark.parametrize("count", [0, -3, 2.5, "abc", True, [1, 2], float("nan")])
    def test_sample_mode_needs_positive_integer_count(self, count):
        network, outcome = NetworkConfig("k_regular", 30, k=2), OutcomeModel("independent")
        with pytest.raises(ValueError, match="allocation_count must be a positive integer"):
            ExperimentConfig(network=network, outcome=outcome, allocation_mode="sample",
                             allocation_count=count)
        # Exhaustive mode never reads the count, but the count rule is the same in both modes.
        with pytest.raises(ValueError, match="allocation_count must be a positive integer"):
            ExperimentConfig(network=NetworkConfig("k_regular", 10, k=2), outcome=outcome,
                             allocation_count=count)


@pytest.mark.parametrize("call, message", [
    (lambda: OutcomeModel("mystery"), "^unknown outcome model kind 'mystery'$"),
    (lambda: OutcomeModel("interaction", delta1=-1.0), "^interaction level must be nonnegative$"),
    (lambda: NetworkConfig("ring", 10), "^unknown network kind 'ring'$"),
    (lambda: ExperimentConfig(network=NetworkConfig("k_regular", 10, k=2),
                              outcome=OutcomeModel("independent"), allocation_mode="random"),
     "^unknown allocation mode 'random'$"),
    (lambda: compute_imse(ExperimentConfig(network=NetworkConfig("erdos_renyi", 5, p_edge=0.0),
                                           outcome=OutcomeModel("independent"), num_draws=1)),
     "^every unit has in-degree 0; the average estimand is undefined$"),
    (lambda: BernoulliDesign(2.5), "^n must be a positive integer, got 2.5$"),
    (lambda: BernoulliDesign(True), "^n must be a positive integer, got True$"),
    (lambda: gen_k_regular_directed(6, 2.0, 1), "^k must be a nonnegative integer, got 2.0$"),
    (lambda: gen_erdos_renyi_directed(6.0, 0.5, 1), "^n must be a nonnegative integer, got 6.0$"),
    (lambda: family_weights(["HT0"], 2.5, 0.5), "^degree must be a nonnegative integer, got 2.5$"),
], ids=["outcome_kind", "negative_delta1", "network_kind", "allocation_mode", "no_edges",
        "float_units", "bool_units", "float_k", "float_er_n", "float_degree"])
def test_rejected_input_is_named(call, message):
    with pytest.raises(ValueError, match=message):
        call()


class TestComputeImse:
    def small_config(self, **overrides):
        base = dict(
            network=NetworkConfig("k_regular", 8, k=2),
            outcome=OutcomeModel("independent"),
            num_draws=25,
            allocation_mode="exhaustive",
            master_seed=17,
        )
        base.update(overrides)
        return ExperimentConfig(**base)

    def test_additive_outcomes_have_no_bias(self):
        report = compute_imse(self.small_config())
        for result in report.results.values():
            assert result.bias_squared < 1e-20

    def test_criterion_9_network_runs_exhaustively_unbiased(self):
        """Criterion 9's network, n = 40 and k = 4, in exhaustive mode and additive.

        Each family's exact mean over allocations is every draw's true average effect.
        """
        config = ExperimentConfig(network=NetworkConfig("k_regular", 40, k=4),
                                  outcome=OutcomeModel("interaction", mu1=50.0, delta1=0.0),
                                  num_draws=200, master_seed=909)
        report = compute_imse(config)
        network = config.build_network()
        theta = true_average_effect(network, sample_parameters(
            network, config.outcome, config.master_seed, range(config.num_draws)))
        for name, result in report.results.items():
            np.testing.assert_allclose(result.per_draw_mean, theta, rtol=0, atol=1e-10,
                                       err_msg=name)

    def test_decomposition_identity(self):
        report = compute_imse(self.small_config())
        for result in report.results.values():
            assert result.imse == pytest.approx(
                result.bias_squared + result.variance, abs=1e-9)

    def test_ht0_invariant_to_interaction(self):
        """Untreated-exposure weights never touch the interaction term."""
        reports = {
            d: compute_imse(self.small_config(
                outcome=OutcomeModel("interaction", mu1=5.0, delta1=float(d))))
            for d in (0, 4)
        }
        np.testing.assert_array_equal(
            reports[0].results["HT0"].per_draw_mse,
            reports[4].results["HT0"].per_draw_mse,
        )

    def test_ht1_bias_matches_interaction_oracle(self):
        """The treated two-term estimator's bias is the mean top-degree interaction."""
        config = self.small_config(
            outcome=OutcomeModel("interaction", mu1=0.0, delta1=3.0), num_draws=8)
        report = compute_imse(config)
        network = config.network.build(np.random.SeedSequence([config.master_seed, 3]))
        for draw in range(config.num_draws):
            params = sample_parameters(network, config.outcome, [config.master_seed, draw])
            theta_bar = true_average_effect(network, params)
            expected_bias = np.mean([effects(params, i, "interaction")[-1]
                                     for i in range(network.n)])
            observed_bias = report.results["HT1"].per_draw_mean[draw] - theta_bar
            assert observed_bias == pytest.approx(expected_bias, abs=1e-10)

    def test_sampled_mode_tracks_exact_mode(self):
        exact = compute_imse(self.small_config(num_draws=60))
        sampled = compute_imse(self.small_config(
            num_draws=60, allocation_mode="sample", allocation_count=3000))
        for name in exact.results:
            gap = abs(exact.results[name].imse - sampled.results[name].imse)
            spread = 3 * max(sampled.results[name].standard_error,
                             exact.results[name].standard_error)
            assert gap < max(spread, 0.35 * exact.results[name].imse)

    def test_permutation_equivariance(self):
        """Relabeling units (and their parameters) leaves the exact IMSE unchanged."""
        net = gen_k_regular_directed(7, 2, seed=21)
        design = BernoulliDesign(7, 0.5)
        rng = np.random.default_rng(0)
        perm = rng.permutation(7)
        permuted = Network(net.adjacency[np.ix_(perm, perm)])
        params = sample_parameters(net, OutcomeModel("independent"), 33)
        params_perm = Parameters(params.alpha[perm], params.direct[perm],
                                 np.concatenate([effects(params, i) for i in perm]),
                                 np.r_[0, np.cumsum(net.in_degrees[perm])])
        family = build_estimator_family("HTAvg", net, design)
        family_perm = build_estimator_family("HTAvg", permuted, design)
        allocs, probs = enumerated_allocations(design)
        first = sum(p * estimate_average_effect(family, net, z, params) ** 2
                    for z, p in zip(allocs, probs))
        second = sum(p * estimate_average_effect(family_perm, permuted, z[perm], params_perm) ** 2
                     for z, p in zip(allocs, probs))
        assert second == pytest.approx(first, abs=1e-10)

    def test_metadata_counts_excluded_units(self):
        # this ER seed yields several isolated units
        report = compute_imse(ExperimentConfig(
            network=NetworkConfig("erdos_renyi", 6, p_edge=0.15),
            outcome=OutcomeModel("independent"),
            num_draws=5,
            allocation_mode="exhaustive",
            master_seed=2,
        ))
        network = NetworkConfig("erdos_renyi", 6, p_edge=0.15).build(
            np.random.SeedSequence([2, 3]))
        isolated = int((network.in_degrees == 0).sum())
        assert report.metadata["excluded_degree_zero_units"] == isolated

    @pytest.mark.parametrize("p_treat", [0.5, 0.3])
    @pytest.mark.parametrize("model", OUTCOME_MODELS, ids=lambda m: m.kind)
    @pytest.mark.parametrize("network,seed", EXACT_NETWORKS)
    def test_exhaustive_moments_match_brute_force(self, network, seed, model, p_treat):
        """Per-draw mean and MSE of every family equal a direct pass over all allocations.

        The MSE is the second moment centred at the draw's true effect, so
        matching it next to the mean matches the second moment.
        """
        config = self.small_config(network=network, outcome=model, p_treat=p_treat,
                                   num_draws=2, master_seed=seed)
        report = compute_imse(config)
        net = network.build(np.random.SeedSequence([seed, 3]))
        design = BernoulliDesign(net.n, p_treat)
        allocs, probs = enumerated_allocations(design)
        eta1 = model.eta1 if model.kind == "dilated" else 1.0
        for name in ESTIMATOR_NAMES:
            family = build_estimator_family(name, net, design, eta1)
            for draw in range(config.num_draws):
                params = sample_parameters(net, model, [seed, draw])
                theta = true_average_effect(net, params)
                estimates = np.array([estimate_average_effect(family, net, z, params)
                                      for z in allocs])
                mean = probs @ estimates
                mse = probs @ (estimates - theta) ** 2
                scale = np.sqrt(probs @ estimates**2)
                result = report.results[name]
                assert result.per_draw_mean[draw] == pytest.approx(
                    mean, rel=1e-12, abs=1e-12 * scale)
                assert result.per_draw_mse[draw] == pytest.approx(
                    mse, rel=1e-12, abs=1e-12 * scale**2)

    @pytest.mark.parametrize("p_treat", [0.5, 0.3])
    @pytest.mark.parametrize("model", OUTCOME_MODELS, ids=lambda m: m.kind)
    @pytest.mark.parametrize("network,seed", EXACT_NETWORKS)
    def test_draw_blocks_equal_the_per_draw_reference(self, network, seed, model, p_treat):
        """Blocked moments equal, bit for bit, those taken one draw at a time."""
        config = self.small_config(network=network, outcome=model, p_treat=p_treat,
                                   num_draws=6, master_seed=seed)
        self.assert_equals_per_draw_reference(config)

    @pytest.mark.parametrize("network,seed", DENSE_NETWORKS)
    def test_several_draw_blocks_equal_the_per_draw_reference(self, network, seed):
        """Three blocks of draws or more, the last one partial."""
        config = self.small_config(network=network, master_seed=seed, p_treat=0.3, num_draws=100,
                                   outcome=OutcomeModel("interaction", mu1=2.0, delta1=3.0))
        net = config.build_network()
        units = included_units(net)
        block = 2**16 // (len(ESTIMATOR_NAMES) * len(units) * 2 * (net.in_degrees.max() + 1))
        assert config.num_draws > 2 * block and config.num_draws % block
        self.assert_equals_per_draw_reference(config)

    @pytest.mark.parametrize("network,seed", DENSE_NETWORKS)
    def test_several_sampled_draw_blocks_equal_the_per_draw_reference(self, network, seed):
        """Sample mode's blocks of draws, three or more, the last one partial, draw by draw."""
        config = self.small_config(network=network, master_seed=seed, p_treat=0.3, num_draws=100,
                                   outcome=OutcomeModel("interaction", mu1=2.0, delta1=3.0),
                                   allocation_mode="sample", allocation_count=40)
        net = config.build_network()
        units = included_units(net)
        block = 2**16 // (len(ESTIMATOR_NAMES) * len(units) * 2 * (net.in_degrees.max() + 1))
        assert config.num_draws > 2 * block and config.num_draws % block
        self.assert_equals_per_draw_reference(config, sampled_moments)

    def test_the_kernels_agree_on_one_value_table(self):
        """The sample kernel's means land within 4 standard errors of the exhaustive kernel's.

        Both kernels read the same seeded block of value tables.  The standard
        error of a mean over A allocations is sqrt(Var / A), with Var the
        exhaustive kernel's own second moment less its squared mean.
        """
        count = 20000
        base = dict(network=NetworkConfig("erdos_renyi", 14, p_edge=0.25), num_draws=4,
                    outcome=OutcomeModel("interaction", mu1=1.0, delta1=2.0), master_seed=3,
                    p_treat=0.4, allocation_count=count)
        point, exact, tables, _ = lue.simulation._setup(
            ExperimentConfig(**base, allocation_mode="exhaustive"))
        _, sample, _, _ = lue.simulation._setup(ExperimentConfig(**base, allocation_mode="sample"))
        draws = range(base["num_draws"])
        params = sample_parameters(point.network, base["outcome"], base["master_seed"], draws)
        outcomes = _outcome_table(params, point.width)
        values = np.stack([table[point.degree_rows] * outcomes for table in tables], axis=1)
        ignore = lambda stage: None  # noqa: E731
        first, second = exact(values, draws, ignore)
        sampled_first, _ = sample(values, draws, ignore)
        variance = second - first**2
        assert first.shape == sampled_first.shape == (len(draws), len(ESTIMATOR_NAMES))
        assert (variance > 0).all()
        assert (np.abs(sampled_first - first) <= 4 * np.sqrt(variance / count)).all()

    def test_allocation_blocks_equal_the_one_shot_reference(self):
        """Row blocks of sampled allocations: three or more, the last one partial.

        Every family's per-draw mean and MSE equal, bit for bit, those of one
        batch of all the draw's allocations.
        """
        config = self.small_config(
            network=NetworkConfig("k_regular", 40, k=4), num_draws=3,
            outcome=OutcomeModel("interaction", mu1=2.0, delta1=3.0),
            allocation_mode="sample", allocation_count=5000)
        block = 2**16 // config.network.n
        assert config.allocation_count > 2 * block and config.allocation_count % block
        self.assert_equals_per_draw_reference(config, sampled_moments)

    def test_sample_mode_memory_does_not_grow_with_allocations(self):
        """Warm, a sampled setting's traced peak stays in its row blocks and its F x A estimates.

        Drawing a draw's 15,000 allocations in one batch would peak at about 70 MB.
        """
        config = self.small_config(network=NetworkConfig("k_regular", 200, k=8), num_draws=2,
                                   allocation_mode="sample", allocation_count=15000)
        compute_imse(config)  # fills the weight memo and the pmf and layout caches
        tracemalloc.start()
        try:
            compute_imse(config)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20

    def test_sample_mode_holds_one_value_table(self):
        """Warm, a dense sampled setting's traced peak stays below three value tables.

        A value table, one float per (family, unit, exposure slot), is the largest
        array of a dense setting: 7.5 MB here.  A per-setting weight copy of it and
        a fresh product per draw peaked at 3.8 tables; one buffer filled in
        place peaks at 2.2.
        """
        config = self.small_config(network=NetworkConfig("erdos_renyi", 400, p_edge=0.5),
                                   num_draws=2, allocation_mode="sample", allocation_count=200)
        network = config.build_network()
        width = 2 * (int(network.in_degrees.max()) + 1)
        table_bytes = len(config.estimators) * len(included_units(network)) * width * 8
        compute_imse(config)  # fills the weight memo and the pmf and layout caches
        tracemalloc.start()
        try:
            compute_imse(config)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3 * table_bytes, peak / table_bytes

    @staticmethod
    def assert_equals_per_draw_reference(config, reference=per_draw_moments):
        report = compute_imse(config)
        means, mse = reference(config)
        for row, name in enumerate(config.estimators):
            np.testing.assert_array_equal(report.results[name].per_draw_mean, means[row])
            np.testing.assert_array_equal(report.results[name].per_draw_mse, mse[row])

    def test_exhaustive_never_enumerates(self, monkeypatch):
        """The joint pmf is a closed form: no allocation is enumerated, even for n = 20, k = 19."""
        def guarded(design, *args, **kwargs):
            raise AssertionError(f"asked for the 2^{design.n} allocations")

        monkeypatch.setattr(lue.simulation, "allocation_matrix", guarded)
        monkeypatch.setattr(lue.design, "allocation_matrix", guarded)
        for config in (self.small_config(network=NetworkConfig("k_regular", 10, k=2)),
                       self.small_config(network=NetworkConfig("k_regular", 20, k=19),
                                         num_draws=1)):
            report = compute_imse(config)
            for result in report.results.values():
                assert np.isfinite(result.imse) and result.bias_squared < 1e-20

    # Both modes draw blocks of 2**16 // (5 families * 8 units * 6 slots) = 273 draws,
    # so 600 draws take three calls and 7 draws one.
    @pytest.mark.parametrize("mode, num_draws", [("exhaustive", 600), ("sample", 7)])
    def test_each_draw_calls_the_module_sampler_on_one_layout(self, monkeypatch, mode,
                                                              num_draws):
        """One call of the module's ``sample_parameters`` per block, all on one entry layout.

        The blocks' draw indices cover every draw once, in order, and each block
        reads the layout twice: once to draw, once for its θ̄.
        """
        block = max(1, 2**16 // (len(ESTIMATOR_NAMES) * 8 * 6))
        calls = -(-num_draws // block)
        drawn = []
        original = lue.simulation.sample_parameters

        def recorded(network, model, seed, draws):
            drawn.append((seed, draws, original(network, model, seed, draws)))
            return drawn[-1][-1]

        monkeypatch.setattr(lue.simulation, "sample_parameters", recorded)
        lue.simulation._entry_layout.cache_clear()
        config = self.small_config(allocation_mode=mode, allocation_count=20,
                                   num_draws=num_draws)
        compute_imse(config)
        assert len(drawn) == calls
        assert [draw for _, draws, _ in drawn for draw in draws] == list(range(num_draws))
        layouts = lue.simulation._entry_layout.cache_info()
        assert (layouts.misses, layouts.hits) == (1, 2 * calls - 1)
        for seed, draws, params in drawn:
            assert seed == config.master_seed and len(params.alpha) == len(draws)
            np.testing.assert_array_equal(params.offsets, drawn[0][-1].offsets)
            assert not params.offsets.flags.writeable

    def test_only_the_network_in_use_keeps_its_layout(self):
        """Two settings of other in-degree vectors leave one cached layout: the last one's."""
        lue.simulation._entry_layout.cache_clear()
        for network in (NetworkConfig("k_regular", 8, k=2), NetworkConfig("k_regular", 8, k=3)):
            compute_imse(self.small_config(network=network, num_draws=2))
        layouts = lue.simulation._entry_layout.cache_info()
        assert (layouts.misses, layouts.currsize) == (2, 1)

    @staticmethod
    def count_calls(monkeypatch):
        """Counts of the weight solves and of the exposure pmfs built, from empty caches.

        Returns a function giving the counts so far; a pmf is built on a miss
        of its cache.
        """
        lue.simulation.clear_memos()
        pmfs = lue.simulation.bernoulli_exposure_distribution
        solves = []
        original = lue.simulation.solve_mivlue

        def counted(*args, **kwargs):
            solves.append(None)
            return original(*args, **kwargs)

        monkeypatch.setattr(lue.simulation, "solve_mivlue", counted)
        return lambda: {"solve_mivlue": len(solves),
                        "bernoulli_exposure_distribution": pmfs.cache_info().misses}

    @staticmethod
    def minus(after: dict, before: dict) -> dict:
        return {key: after[key] - before[key] for key in after}

    @staticmethod
    def distinct_degrees(config) -> set:
        net = config.build_network()
        return set(net.in_degrees[included_units(net)].tolist())

    def er_config(self, **overrides):
        return self.small_config(network=NetworkConfig("erdos_renyi", 20, p_edge=0.3),
                                 allocation_mode="sample", allocation_count=50, num_draws=2,
                                 **overrides)

    def test_one_solve_and_pmf_per_distinct_degree(self, monkeypatch):
        """Weights depend on a unit only through its in-degree, so each degree is solved once."""
        config = self.er_config()
        calls = self.count_calls(monkeypatch)
        report = compute_imse(config)
        net = config.network.build(np.random.SeedSequence([config.master_seed, 3]))
        units = included_units(net)
        distinct = len(set(net.in_degrees[units].tolist()))
        assert len(units) > distinct  # some degrees repeat
        assert calls() == {"solve_mivlue": 2 * distinct, "bernoulli_exposure_distribution": distinct}
        assert report.metadata["weight_rows"] == {"solved": 5 * distinct, "reused": 0}

    def test_second_run_reuses_every_row(self, monkeypatch):
        config = self.er_config()
        calls = self.count_calls(monkeypatch)
        first = compute_imse(config)
        before = calls()
        second = compute_imse(config)
        assert self.minus(calls(), before) == {"solve_mivlue": 0,
                                               "bernoulli_exposure_distribution": 0}
        rows = 5 * len(self.distinct_degrees(config))
        assert second.metadata["weight_rows"] == {"solved": 0, "reused": rows}
        assert second.csv_rows() == first.csv_rows()

    def test_another_network_point_solves_all_its_degrees(self, monkeypatch):
        """Tables live with their network point: shared in-degrees reuse only their pmfs."""
        first, second = self.er_config(master_seed=17), self.er_config(master_seed=18)
        new = self.distinct_degrees(second) - self.distinct_degrees(first)
        every = self.distinct_degrees(second)
        assert new and every - new
        calls = self.count_calls(monkeypatch)
        compute_imse(first)
        before = calls()
        report = compute_imse(second)
        assert self.minus(calls(), before) == {"solve_mivlue": 2 * len(every),
                                               "bernoulli_exposure_distribution": len(new)}
        assert report.metadata["weight_rows"] == {"solved": 5 * len(every), "reused": 0}

    def test_dilated_grid_shares_every_row_but_mdil(self, monkeypatch):
        """Only MDil's prior reads eta1, so a second eta1 solves MDil alone."""
        configs = [self.er_config(outcome=OutcomeModel("dilated", eta1=eta1))
                   for eta1 in (0.5, 2.0)]
        distinct = len(self.distinct_degrees(configs[0]))
        calls = self.count_calls(monkeypatch)
        compute_imse(configs[0])
        before = calls()
        report = compute_imse(configs[1])
        assert self.minus(calls(), before) == {"solve_mivlue": distinct,
                                               "bernoulli_exposure_distribution": 0}
        assert report.metadata["weight_rows"] == {"solved": distinct, "reused": 4 * distinct}

    def test_weight_tables_are_read_only(self):
        table = lue.simulation.family_weights(ESTIMATOR_NAMES, 4, 0.5)
        assert not table.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            table[0, 0] = 1.0

    def test_cold_solves_keep_no_indicator_matrix(self):
        """A weight solve builds only its tail columns: no P x E matrix stays cached."""
        lue.simulation.clear_memos()
        lue.simulation.family_weights(["MInd", "MDil"], 1000, 0.5)
        assert indicator_matrix.cache_info().currsize == 0

    @pytest.mark.parametrize("degree", [100, 500, 1000])
    def test_rows_are_the_dense_prior_solves(self, degree):
        """MInd and MDil, solved from the factored covariance, equal the dense PriorSpec solves."""
        lue.simulation.clear_memos()
        dist = lue.design.bernoulli_exposure_distribution(degree, 0.5)
        u = np.concatenate([[1.0], np.arange(1, degree + 1) / degree * -1.5, [1.0]])
        eye = np.eye(degree + 2)
        rows = family_weights(["MInd", "MDil"], degree, 0.5, -1.5)
        for row, cov in zip(rows, (eye, np.outer(u, u) + MDIL_RIDGE * eye)):
            dense = solve_mivlue(dist.spec, dist, PriorSpec(cov)).estimator.vector
            np.testing.assert_array_equal(row[lue.design.slot_order(degree)], dense)

    def test_cold_rows_factorise_no_prior(self, monkeypatch):
        """A cold MInd and MDil row builds, checks and factorises no P x P prior."""
        def failing(*args):
            raise AssertionError("a dense prior was checked")

        monkeypatch.setattr(lue.mivlue, "_check_psd", failing)
        lue.simulation.clear_memos()
        tracemalloc.start()
        try:
            lue.simulation.family_weights(["MInd", "MDil"], 1000, 0.5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 20e6

    @staticmethod
    def held_tables(config) -> dict:
        """The (family, MDil's eta1 or None) -> table dict that ``config``'s network point holds."""
        return lue.simulation._network_point(config.network, config.master_seed, config.p_treat,
                                             config.allocation_mode == "exhaustive").tables

    def test_a_point_holds_one_read_only_table_per_family_and_eta1(self):
        """Each held table is the family's rows by in-degree, bit for bit, and refuses writes."""
        configs = [self.er_config(outcome=OutcomeModel("dilated", eta1=eta1))
                   for eta1 in (0.5, 2.0)]
        lue.simulation.clear_memos()
        for config in configs:
            compute_imse(config)
        held = self.held_tables(configs[0])
        assert held.keys() == {("HT0", None), ("HT1", None), ("HTAvg", None), ("MInd", None),
                               ("MDil", 0.5), ("MDil", 2.0)}
        point, _, tables, _ = lue.simulation._setup(configs[1])
        assert tables[4] is held["MDil", 2.0]
        for (name, eta1), table in held.items():
            assert table.shape == (len(point.degrees), point.width)
            eta1 = 1.0 if eta1 is None else eta1
            for row, degree in enumerate(point.degrees):
                rows = family_weights([name], np.int64(degree), np.float64(0.5), eta1)
                assert table[row, :2 * degree + 2].tobytes() == rows[0].tobytes()
                assert not table[row, 2 * degree + 2:].any()
            with pytest.raises(ValueError, match="read-only"):
                table[0, 0] = 1.0

    def test_a_failed_solve_keeps_no_table(self, monkeypatch):
        """A solve failing after some in-degrees have solved leaves the point holding nothing."""
        config = self.er_config()
        distinct = len(self.distinct_degrees(config))
        calls = self.count_calls(monkeypatch)
        counted = lue.simulation.solve_mivlue

        def failing(*args, **kwargs):
            if calls()["solve_mivlue"] == distinct:  # MInd and MDil at half the in-degrees
                raise SingularSystemError("no solution")
            return counted(*args, **kwargs)

        monkeypatch.setattr(lue.simulation, "solve_mivlue", failing)
        with pytest.raises(SingularSystemError):
            compute_imse(config)
        assert self.held_tables(config) == {}
        monkeypatch.setattr(lue.simulation, "solve_mivlue", counted)
        report = compute_imse(config)
        assert report.metadata["weight_rows"] == {"solved": 5 * distinct, "reused": 0}
        assert calls()["solve_mivlue"] == 3 * distinct

    @pytest.mark.parametrize("mode", ["exhaustive", "sample"])
    def test_metadata_times_every_stage(self, mode):
        report = compute_imse(self.small_config(num_draws=3, allocation_mode=mode,
                                                allocation_count=50))
        stages = report.metadata["stage_seconds"]
        assert list(stages) == ["network", "families", "joint_pmf", "params", "outcome_table",
                                "allocations", "slots", "gather", "moments"]
        assert all(seconds >= 0.0 for seconds in stages.values())
        assert report.metadata["runtime_seconds"] >= sum(stages.values())
        sampled = [stages[name] for name in ("allocations", "slots", "gather")]
        assert all(sampled) if mode == "sample" else not any(sampled)

    @pytest.mark.parametrize("eta1", [0.5, 3.0])
    def test_mdil_prior_follows_the_setting_eta1(self, eta1):
        """Under the dilated model, MDil's weights are family_weights(..., eta1).

        MDil is unbiased under any prior, so the mean cannot tell priors apart;
        the per-draw MSE (the variance here) can.
        """
        model = OutcomeModel("dilated", eta1=eta1)
        config = self.small_config(network=NetworkConfig("k_regular", 6, k=3), outcome=model,
                                   num_draws=2, estimators=("MDil",))
        report = compute_imse(config)
        net = config.network.build(np.random.SeedSequence([config.master_seed, 3]))
        design = BernoulliDesign(net.n, config.p_treat)
        allocs, probs = enumerated_allocations(design)
        family = build_estimator_family("MDil", net, design, eta1)
        for draw in range(config.num_draws):
            params = sample_parameters(net, model, [config.master_seed, draw])
            theta = true_average_effect(net, params)
            estimates = np.array([estimate_average_effect(family, net, z, params)
                                  for z in allocs])
            mse = probs @ (estimates - theta) ** 2
            assert report.results["MDil"].per_draw_mse[draw] == pytest.approx(mse, rel=1e-12)

    def test_included_units_match_a_scan_of_the_degrees(self):
        for net in (gen_erdos_renyi_directed(30, 0.08, seed=4), three_cycle(),
                    Network(np.zeros((4, 4), dtype=int))):
            units = included_units(net)
            assert units == [i for i in range(net.n) if net.in_degrees[i] >= 1]
            assert all(type(unit) is int for unit in units)

    def test_reports_are_deterministic(self):
        a = compute_imse(self.small_config())
        b = compute_imse(self.small_config())
        for name in a.results:
            np.testing.assert_array_equal(a.results[name].per_draw_mse,
                                          b.results[name].per_draw_mse)
        assert a.csv_rows() == b.csv_rows()


STAGE_NAMES = ["network", "families", "joint_pmf", "params", "outcome_table", "allocations",
               "slots", "gather", "moments"]


class TestNetworkPointMemo:
    """Each network point's setting is built once and reused by the settings that follow."""

    BASE = dict(network=NetworkConfig("k_regular", 8, k=2),
                outcome=OutcomeModel("interaction", mu1=1.0, delta1=2.0),
                num_draws=4, allocation_count=30, master_seed=5)
    GRIDS = [
        {"network": {"kind": "k_regular", "n": 10, "k": [2, 3]},
         "outcome": {"kind": "interaction", "mu1": 50, "delta1": [0, 2, 4]},
         "num_draws": 5, "allocation_mode": "exhaustive"},
        {"network": {"kind": "erdos_renyi", "n": 12, "p_edge": [0.3, 0.5]},
         "outcome": {"kind": "independent", "mu1": [0, 10, 20]},
         "num_draws": 3, "allocation_mode": "sample", "allocation_count": 40},
    ]

    @staticmethod
    def simulate(tmp_path, capsys, grid) -> bytes:
        path = tmp_path / "grid.json"
        path.write_text(json.dumps(grid))
        assert main(["simulate", "--config", str(path), "--out-dir", str(tmp_path),
                     "--seed", "7"]) == 0
        return pathlib.Path(capsys.readouterr().out.strip()).read_bytes()

    @pytest.mark.parametrize("grid", GRIDS, ids=["delta1-exhaustive", "mu1-sample"])
    def test_a_grid_builds_each_network_point_once(self, tmp_path, capsys, monkeypatch, grid):
        """Two network points of three settings each: two builds, and a cold run's bytes."""
        built = []
        build = NetworkConfig.build

        def counted(network_config, seed):
            built.append(network_config)
            return build(network_config, seed)

        monkeypatch.setattr(NetworkConfig, "build", counted)
        lue.simulation._network_point.cache_clear()
        memoised = self.simulate(tmp_path, capsys, grid)
        assert len(built) == 2 and built[0] != built[1]
        compute = lue.cli.compute_imse

        def cold(config):
            lue.simulation._network_point.cache_clear()
            return compute(config)

        monkeypatch.setattr(lue.cli, "compute_imse", cold)
        assert self.simulate(tmp_path, capsys, grid) == memoised
        assert len(built) == 2 + 6

    @pytest.mark.parametrize("change", [
        {"p_treat": 0.3}, {"allocation_mode": "sample"}, {"master_seed": 6},
        {"network": NetworkConfig("k_regular", 9, k=2)},
        {"network": NetworkConfig("k_regular", 8, k=3)},
    ], ids=["p_treat", "mode", "seed", "n", "k"])
    def test_another_key_gives_the_cold_result(self, change):
        other = ExperimentConfig(**{**self.BASE, **change})
        lue.simulation._network_point.cache_clear()
        cold = compute_imse(other)
        compute_imse(ExperimentConfig(**self.BASE))
        warm = compute_imse(other)
        again = compute_imse(other)
        assert (warm.metadata["setting"], again.metadata["setting"]) == ("built", "reused")
        for report in (warm, again):
            assert report.csv_rows() == cold.csv_rows()
            for name, result in cold.results.items():
                np.testing.assert_array_equal(report.results[name].per_draw_mse,
                                              result.per_draw_mse)

    @pytest.mark.parametrize("mode", ["exhaustive", "sample"])
    def test_the_kept_arrays_are_read_only(self, mode):
        config = ExperimentConfig(**self.BASE, allocation_mode=mode)
        compute_imse(config)
        point = lue.simulation._network_point(config.network, config.master_seed,
                                              config.p_treat, mode == "exhaustive")
        _, kernel, tables, _ = lue.simulation._setup(config)
        kept = [point.network.adjacency, point.units, point.degrees, point.degree_rows,
                point.operator, *tables, *point.tables.values()]
        # The operator is G in exhaustive mode and the slot coefficients in sample mode.
        want = (joint_exposure_pmf(point.network, point.units, point.width, config.p_treat)
                if mode == "exhaustive" else slot_coefficients(point.network, point.units))
        assert point.operator.tobytes() == want.tobytes() and point.operator.dtype == want.dtype
        assert kernel.__qualname__.startswith({"exhaustive": "_exact_kernel.",
                                               "sample": "_sample_kernel."}[mode])
        for array in kept:
            with pytest.raises(ValueError, match="read-only"):
                array[(0,) * array.ndim] = 1

    def test_a_refused_point_raises_every_time_and_solves_no_row(self, monkeypatch):
        """Over JOINT_PMF_LIMIT, also after a sample-mode setting on the same network."""
        network = NetworkConfig("k_regular", 200, k=8)
        outcome = OutcomeModel("independent")
        compute_imse(ExperimentConfig(network, outcome, num_draws=1, allocation_mode="sample",
                                      allocation_count=10))
        refused = ExperimentConfig(network, outcome)
        solved = []
        monkeypatch.setattr(lue.simulation, "family_weights", lambda *args: solved.append(args))
        for _ in range(3):
            with pytest.raises(ValueError, match="would hold 12,960,000 entries"):
                compute_imse(refused)
        assert solved == []

    def test_only_one_joint_pmf_is_kept(self):
        """After exhaustive settings on two more networks, only the last network's G is held."""
        configs = [ExperimentConfig(NetworkConfig("k_regular", 16, k=4),
                                    OutcomeModel("independent"), num_draws=1, master_seed=seed)
                   for seed in (1, 2, 3)]
        compute_imse(configs[0])  # fills the weight memo and the pmf tables
        joint_bytes = (16 * 10) ** 2 * 8
        tracemalloc.start()
        try:
            compute_imse(configs[1])
            one = tracemalloc.get_traced_memory()[0]
            compute_imse(configs[2])
            two = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert one >= joint_bytes
        assert two - one < joint_bytes / 2

    @pytest.mark.parametrize("mode", ["exhaustive", "sample"])
    def test_every_setting_reports_itself(self, caplog, mode):
        """Excluded units are counted and logged per setting; a miss times G or the coefficients."""
        reports = []
        lue.simulation._network_point.cache_clear()
        with caplog.at_level(logging.INFO, logger="lue.simulation"):
            for mu1 in (0.0, 1.0):
                reports.append(compute_imse(ExperimentConfig(
                    NetworkConfig("erdos_renyi", 6, p_edge=0.15), OutcomeModel("independent", mu1),
                    num_draws=2, allocation_mode=mode, allocation_count=20, master_seed=2)))
        excluded = reports[0].metadata["excluded_degree_zero_units"]
        assert excluded > 0 and reports[1].metadata["excluded_degree_zero_units"] == excluded
        assert [r.metadata["setting"] for r in reports] == ["built", "reused"]
        assert [r.getMessage() for r in caplog.records if "excluding" in r.getMessage()] == [
            f"excluding {excluded} degree-0 unit(s) from the average estimand"] * 2
        built, reused = (r.metadata["stage_seconds"] for r in reports)
        assert list(built) == list(reused) == STAGE_NAMES
        assert built["network"] > 0 and built["joint_pmf"] > 0
        assert reused["network"] == reused["joint_pmf"] == 0.0


# Memos must never move bytes.  Configs 0 and 1 share a network point of 77 distinct
# in-degrees, more than the 64 specs a per-spec cache keeps; configs 2 and 4 share one
# whose MDil prior differs; config 2 crosses a 256-draw parameter chunk.
ORDER_CONFIGS = [
    ExperimentConfig(NetworkConfig("erdos_renyi", 800, p_edge=0.5), OutcomeModel("independent"),
                     num_draws=1, allocation_mode="sample", allocation_count=20, master_seed=5),
    ExperimentConfig(NetworkConfig("erdos_renyi", 800, p_edge=0.5),
                     OutcomeModel("independent", mu1=10.0), num_draws=1,
                     allocation_mode="sample", allocation_count=20, master_seed=5),
    ExperimentConfig(NetworkConfig("k_regular", 8, k=2), OutcomeModel("dilated", eta1=1.5),
                     num_draws=300, master_seed=3),
    ExperimentConfig(NetworkConfig("erdos_renyi", 12, p_edge=0.4),
                     OutcomeModel("interaction", mu1=1.0, delta1=2.0), num_draws=5,
                     allocation_mode="sample", allocation_count=30, master_seed=4),
    ExperimentConfig(NetworkConfig("k_regular", 8, k=2),
                     OutcomeModel("interaction", mu1=2.0, delta1=3.0), num_draws=3, master_seed=3),
]


def test_configs_give_the_same_bytes_in_any_order():
    """Two orders in one process give each config's per-draw bytes when run alone, cold."""
    def draw_bytes(report):
        return [(result.per_draw_mean.tobytes(), result.per_draw_mse.tobytes())
                for result in report.results.values()]

    network = ORDER_CONFIGS[0].build_network()
    assert len(set(network.in_degrees[included_units(network)].tolist())) > 64
    alone = []
    for config in ORDER_CONFIGS:
        lue.simulation.clear_memos()
        alone.append(draw_bytes(compute_imse(config)))
    for order in ([0, 1, 2, 3, 4], [2, 4, 1, 0, 3]):
        lue.simulation.clear_memos()
        reports = {index: compute_imse(ORDER_CONFIGS[index]) for index in order}
        assert [draw_bytes(reports[index]) for index in range(5)] == alone, order
        # The second config reuses the first's point and solves only the rows it lacks:
        # none after config 0, MDil's one row at a new eta1 after config 2.
        second = reports[order[1]].metadata
        assert second["setting"] == "reused"
        assert second["weight_rows"]["solved"] == (0 if order[0] == 0 else 1)
