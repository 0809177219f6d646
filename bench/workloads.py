"""The benchmark's workloads: what one op runs, and whether a worker warms up first.

A simulate op is one ``lue simulate`` invocation through ``lue.cli.main`` on a
fixed single-setting config; the workload seed is passed as ``--seed``, so
the network, parameters and allocations all follow from it.  The basis sweep
is one ``run_verify("basis_ranks")`` call; its input does not depend on the
seed.
"""

from __future__ import annotations

from dataclasses import dataclass

FAMILIES = ["HT0", "HT1", "HTAvg", "MInd", "MDil"]


@dataclass(frozen=True)
class Workload:
    name: str
    # A worker of a warm workload runs one untimed warm-up op before timing
    # (it counts in setup_s): the same config with a single parameter draw.
    # It pays for the imports and fills the caches a timed op uses on the same
    # network, but leaves the per-draw work to the timed ops.  A cold workload
    # times the first op of a fresh worker, because every real invocation pays
    # for the lru caches it fills.
    warm: bool
    config: dict | None = None  # lue simulate config; None for the verify sweep
    check: str | None = None  # run_verify filter

    @property
    def simulate(self) -> bool:
        return self.config is not None

    @property
    def warm_up_config(self) -> dict:
        return dict(self.config, num_draws=1)


WORKLOADS = {
    # Exhaustive enumeration (Figure 3): 65,536 allocations that never change
    # between draws, so the per-draw kernel dominates.
    "sim_exact": Workload("sim_exact", warm=True, config={
        "network": {"kind": "k_regular", "n": 16, "k": 4},
        "outcome": {"kind": "independent", "mu1": 0},
        "num_draws": 40,
        "allocation_mode": "exhaustive",
        "estimators": FAMILIES,
    }),
    # Sampled allocations under interaction (Figure 4): fresh allocations per
    # draw, per-unit work that scales with n.
    "sim_sample": Workload("sim_sample", warm=True, config={
        "network": {"kind": "k_regular", "n": 200, "k": 8},
        "outcome": {"kind": "interaction", "mu1": 50, "delta1": 2},
        "num_draws": 30,
        "allocation_mode": "sample",
        "allocation_count": 1500,
        "estimators": FAMILIES,
    }),
    # In-degrees around 60-95: weight solves and closed-form exposure
    # probabilities dominate, and MInd/MDil are biased on every unit.
    "dense_er": Workload("dense_er", warm=True, config={
        "network": {"kind": "erdos_renyi", "n": 150, "p_edge": 0.5},
        "outcome": {"kind": "independent", "mu1": 0},
        "num_draws": 4,
        "allocation_mode": "sample",
        "allocation_count": 1500,
        "estimators": FAMILIES,
    }),
    # The criterion-2 sweep over 4,742 specs: the only workload that measures
    # the estimators and exposure modules.
    "basis_sweep": Workload("basis_sweep", warm=False, check="basis_ranks"),
}
