"""Outcome models, estimator families, and integrated-MSE computation."""

import numpy as np
import pytest

import lue.simulation
from lue.design import BernoulliDesign, allocation_matrix
from lue.estimators import LinearEstimator, check_unbiased
from lue.mivlue import PriorSpec, identity_prior, solve_mivlue
from lue.networks import Network, gen_erdos_renyi_directed, gen_k_regular_directed
from lue.simulation import (
    ESTIMATOR_NAMES,
    MDIL_RIDGE,
    ExperimentConfig,
    NetworkConfig,
    OutcomeModel,
    UnitParameters,
    _outcome_table,
    build_estimator_family,
    compute_imse,
    config_hash,
    estimate_average_effect,
    exposure_slots,
    included_units,
    joint_exposure_pmf,
    potential_outcome,
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


def three_cycle():
    a = np.zeros((3, 3), dtype=int)
    a[0, 1] = a[1, 2] = a[2, 0] = 1
    return Network(a)


def sequential_parameters(network, model, seed):
    """Reference: the per-unit draw loop, one RNG call per parameter block."""
    words = list(seed) if isinstance(seed, (list, tuple)) else [seed]
    rng_common = np.random.default_rng(np.random.SeedSequence([*words, 0]))
    rng_inter = np.random.default_rng(np.random.SeedSequence([*words, 1]))
    out = []
    for i in range(network.n):
        d_i = int(network.adjacency[:, i].sum())
        scale = np.arange(1, d_i + 1) / d_i if d_i else np.zeros(0)
        if model.kind == "dilated":
            alpha = rng_common.normal()
            out.append(UnitParameters(alpha, alpha, scale * model.eta1 * alpha))
            continue
        alpha = rng_common.normal()
        direct = rng_common.normal()
        interference = scale * model.mu1 + rng_common.normal(size=d_i)
        interaction = None
        if model.kind == "interaction" and model.delta1 > 0:
            interaction = scale * model.delta1 + rng_inter.normal(size=d_i)
        out.append(UnitParameters(alpha, direct, interference, interaction))
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
        assert len(batched) == len(reference) == network.n
        for p, q in zip(batched, reference):
            assert type(p.alpha) is type(q.alpha) and p.alpha == q.alpha
            assert type(p.direct) is type(q.direct) and p.direct == q.direct
            assert p.interference.tobytes() == q.interference.tobytes()
            assert (p.interaction is None) == (q.interaction is None)
            if q.interaction is not None:
                assert p.interaction.tobytes() == q.interaction.tobytes()
        assert [p.degree for p in batched] == network.in_degrees.tolist()

    def test_dilated_variance_and_correlation(self):
        """Under dilation the top interference effect tracks the baseline exactly."""
        net = gen_k_regular_directed(4, 2, seed=0)
        model = OutcomeModel("dilated", eta1=1.0)
        alphas, tops = [], []
        for draw in range(10_000):
            params = sample_parameters(net, model, [99, draw])
            alphas.append(params[0].alpha)
            tops.append(params[0].interference[-1])
        alphas, tops = np.array(alphas), np.array(tops)
        assert np.var(tops) == pytest.approx(1.0, abs=0.05)
        assert np.corrcoef(alphas, tops)[0, 1] == pytest.approx(1.0, abs=0.02)

    def test_interaction_zero_level_is_exactly_additive(self):
        net = gen_k_regular_directed(5, 2, seed=1)
        params = sample_parameters(net, OutcomeModel("interaction", mu1=3.0, delta1=0.0), 7)
        assert all(p.interaction is None for p in params)

    def test_independent_zero_mean(self):
        net = gen_k_regular_directed(4, 2, seed=2)
        draws = np.array([
            sample_parameters(net, OutcomeModel("independent"), [5, d])[1].interference[0]
            for d in range(10_000)
        ])
        assert abs(draws.mean()) < 3 / np.sqrt(len(draws))

    def test_interference_mean_scales_with_degree_share(self):
        net = gen_k_regular_directed(6, 3, seed=3)
        model = OutcomeModel("independent", mu1=30.0)
        draws = np.array([
            sample_parameters(net, model, [11, d])[0].interference for d in range(4000)
        ])
        np.testing.assert_allclose(draws.mean(axis=0), [10.0, 20.0, 30.0], atol=0.2)

    def test_common_parameters_shared_across_interaction_levels(self):
        """Changing the interaction strength must not move the other draws."""
        net = gen_k_regular_directed(5, 2, seed=4)
        base = sample_parameters(net, OutcomeModel("interaction", mu1=2.0, delta1=0.0), [3, 0])
        bumped = sample_parameters(net, OutcomeModel("interaction", mu1=2.0, delta1=6.0), [3, 0])
        for p, q in zip(base, bumped):
            assert p.alpha == q.alpha and p.direct == q.direct
            np.testing.assert_array_equal(p.interference, q.interference)
        assert any(q.interaction is not None for q in bumped)

    def test_deterministic_given_seed(self):
        net = gen_k_regular_directed(5, 2, seed=4)
        a = sample_parameters(net, OutcomeModel("independent"), [8, 1])
        b = sample_parameters(net, OutcomeModel("independent"), [8, 1])
        for p, q in zip(a, b):
            assert p.alpha == q.alpha
            np.testing.assert_array_equal(p.interference, q.interference)


class TestPotentialOutcome:
    def test_direct_effect(self):
        params = UnitParameters(1.0, 2.0, np.zeros(2))
        assert potential_outcome(params, (0, 1)) == 3.0

    def test_baseline(self):
        params = UnitParameters(1.5, 2.0, np.array([4.0]))
        assert potential_outcome(params, (0, 0)) == 1.5

    def test_interaction_term(self):
        params = UnitParameters(0.0, 0.0, np.array([0.0, 5.0]), np.array([0.0, 3.0]))
        assert potential_outcome(params, (2, 1)) == 8.0
        assert potential_outcome(params, (2, 0)) == 5.0

    def test_degree_out_of_range(self):
        params = UnitParameters(0.0, 0.0, np.array([1.0]))
        with pytest.raises(ValueError, match="out of range"):
            potential_outcome(params, (2, 1))


class TestOutcomeTable:
    @pytest.mark.parametrize("model", OUTCOME_MODELS, ids=lambda m: m.kind)
    def test_equals_potential_outcome_bitwise(self, model):
        """Vectorised table entries equal the scalar outcomes exactly, mixed degrees included."""
        net = gen_erdos_renyi_directed(12, 0.3, seed=3)
        assert len(set(net.in_degrees.tolist())) > 2
        units = included_units(net)
        width = 2 * (int(net.in_degrees.max()) + 1)
        params = sample_parameters(net, model, [6, 1])
        table = _outcome_table(params, units, width)
        for row, unit in enumerate(units):
            p = params[unit]
            for d in range(p.degree + 1):
                for z in (0, 1):
                    assert table[row, 2 * d + z] == potential_outcome(p, (d, z))
            assert not table[row, 2 * (p.degree + 1):].any()

    def test_interaction_only_where_present(self):
        params = [UnitParameters(0.5, 1.25, np.array([2.0, 3.0]), np.array([4.0, 8.0])),
                  UnitParameters(-1.0, 0.75, np.array([5.0]))]
        table = _outcome_table(params, [0, 1], 6)
        expected = [[potential_outcome(params[0], (d, z)) for d in range(3) for z in (0, 1)],
                    [potential_outcome(params[1], (d, z)) for d in range(2) for z in (0, 1)]
                    + [0.0, 0.0]]
        np.testing.assert_array_equal(table, expected)


class TestExposureSlots:
    def test_float_product_equals_integer_product(self):
        net = gen_k_regular_directed(200, 8, seed=9)
        units = included_units(net)
        # 1000 rows span several row blocks, the last one partial
        alloc = BernoulliDesign(200, 0.5).sample(np.random.default_rng(2), 1000)
        slots = exposure_slots(alloc, slot_coefficients(net, units))
        assert slots.dtype == np.intp
        np.testing.assert_array_equal(slots, (2 * (alloc @ net.adjacency) + alloc)[:, units])


class TestJointExposurePmf:
    @staticmethod
    def global_enumeration(net, units, width, p_treat):
        alloc, probs = allocation_matrix(BernoulliDesign(net.n, p_treat), "exhaustive")
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
            for (d, z), prob in marginal.probs.items():
                assert own[2 * d + z] == pytest.approx(prob, rel=1e-13)


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
            est = solve_mivlue(spec, dist, identity_prior(spec)).estimator
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
            assert check_unbiased(est, dist) < 1e-9

    def test_mdil_satisfies_constraints_everywhere(self):
        family = build_estimator_family("MDil", self.net, self.design)
        for unit, est in family.items():
            dist = unit_exposure_distribution(self.design, self.net, unit)
            assert check_unbiased(est, dist) < 1e-9

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
        params = [UnitParameters(0.0, 0.0, np.zeros(0))]
        with pytest.raises(ValueError, match="undefined"):
            estimate_average_effect({}, net, np.array([0]), params)

    def test_enumeration_recovers_truth_on_cycle(self):
        """Expectation over all 8 allocations equals the true effect exactly."""
        net = three_cycle()
        design = BernoulliDesign(3, 0.5)
        family = build_estimator_family("HT0", net, design)
        params = sample_parameters(net, OutcomeModel("independent"), 13)
        allocs, probs = allocation_matrix(design, "exhaustive")
        expectation = sum(
            p * estimate_average_effect(family, net, z, params)
            for z, p in zip(allocs, probs)
        )
        assert expectation == pytest.approx(true_average_effect(net, params), abs=1e-12)


class TestExperimentConfig:
    def test_exhaustive_budget(self):
        with pytest.raises(ValueError, match="n <= 20"):
            ExperimentConfig(
                network=NetworkConfig("k_regular", 30, k=2),
                outcome=OutcomeModel("independent"),
                allocation_mode="exhaustive",
            )

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
        assert config_hash(again) == config_hash(config)

    def test_network_config_validation(self):
        with pytest.raises(ValueError, match="need k"):
            NetworkConfig("k_regular", 10)
        with pytest.raises(ValueError, match="need p_edge"):
            NetworkConfig("erdos_renyi", 10)

    def test_unknown_estimator_rejected(self):
        with pytest.raises(ValueError, match="unknown estimator"):
            ExperimentConfig(
                network=NetworkConfig("k_regular", 10, k=2),
                outcome=OutcomeModel("independent"),
                estimators=("HT9",),
            )


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
            expected_bias = np.mean([p.interaction[-1] for p in params])
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
        params_perm = [params[i] for i in perm]
        family = build_estimator_family("HTAvg", net, design)
        family_perm = build_estimator_family("HTAvg", permuted, design)
        allocs, probs = allocation_matrix(design, "exhaustive")
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
        allocs, probs = allocation_matrix(design, "exhaustive")
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

    def test_exhaustive_never_enumerates_the_whole_network(self, monkeypatch):
        """The joint pmf enumerates only unions of two closed in-neighbourhoods."""
        config = self.small_config(network=NetworkConfig("k_regular", 10, k=2))
        original = lue.simulation.allocation_matrix
        requested = []

        def guarded(design, *args, **kwargs):
            if 2**design.n > 2 ** (config.network.n - 1):
                raise AssertionError(f"asked for all 2^{design.n} allocations")
            requested.append(design.n)
            return original(design, *args, **kwargs)

        monkeypatch.setattr(lue.simulation, "allocation_matrix", guarded)
        report = compute_imse(config)
        assert requested
        for result in report.results.values():
            assert np.isfinite(result.imse) and result.bias_squared < 1e-20

    def test_one_solve_and_pmf_per_distinct_degree(self, monkeypatch):
        """Weights depend on a unit only through its in-degree, so each degree is solved once."""
        config = self.small_config(network=NetworkConfig("erdos_renyi", 20, p_edge=0.3),
                                   allocation_mode="sample", allocation_count=50, num_draws=2)
        calls = {"solve_mivlue": 0, "bernoulli_exposure_distribution": 0}
        for name in calls:
            original = getattr(lue.simulation, name)

            def counted(*args, _name=name, _original=original, **kwargs):
                calls[_name] += 1
                return _original(*args, **kwargs)

            monkeypatch.setattr(lue.simulation, name, counted)
        compute_imse(config)
        net = config.network.build(np.random.SeedSequence([config.master_seed, 3]))
        units = included_units(net)
        distinct = len(set(net.in_degrees[units].tolist()))
        assert len(units) > distinct  # some degrees repeat
        assert calls == {"solve_mivlue": 2 * distinct, "bernoulli_exposure_distribution": distinct}

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
        allocs, probs = allocation_matrix(design, "exhaustive")
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
