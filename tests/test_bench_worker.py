"""The benchmark worker's calls into lue, run as the worker makes them.

``bench/worker.py`` reads functions, attributes and module bindings of
``lue`` by name, and wraps some of them for tracing.  These tests import the
worker and run one traced simulate op, one traced verify op and the bias
check on small inputs, so a change that breaks any of those reads fails here
and not only when the benchmark runs.
"""

import json
import os

import pytest

import lue
import lue.cli
import lue.simulation
import lue.verify

BENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "bench")
CONFIG = {
    "network": {"kind": "k_regular", "n": 10, "k": 3},
    "outcome": {"kind": "independent", "mu1": 0},
    "num_draws": 3,
    "allocation_mode": "exhaustive",
    "estimators": ["HT0", "HT1", "HTAvg", "MInd", "MDil"],
}


@pytest.fixture
def bench(monkeypatch):
    monkeypatch.syspath_prepend(BENCH)
    import workloads
    import worker

    return worker, workloads.Workload


def traced(worker, run):
    """Layer metrics and result of ``run(tracer)`` with every trace binding installed."""
    tracer = worker.Tracer()
    tracer.op = 0
    uninstall = tracer.install(worker.trace_bindings(lue))
    try:
        result = run(tracer)
    finally:
        uninstall()
    return worker.layer_metrics(worker.layer_totals(tracer.spans), 0), result


def test_traced_simulate_op_and_bias_check(bench, tmp_path):
    worker, workload = bench
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(CONFIG))
    lue.simulation.clear_memos()  # the solve count below needs cold memos
    layers, record = traced(worker, lambda tracer: worker.simulate_op(
        lue, workload("guard", warm=False, config=CONFIG), str(config_path),
        str(tmp_path / "out"), 7, tracer))
    assert record["error"] is None
    assert layers["mivlue.solves"] == 2  # MInd and MDil at the one in-degree, 3
    assert layers["mivlue.biased_solves"] == 0
    # One sampler call per block of draws: exhaustive mode fits the 3 draws in one.
    assert layers["simulation.draws"] == 1
    checked, biased = worker.bias_counts(lue, CONFIG, record["master_seed"])
    assert (checked, biased) == (len(CONFIG["estimators"]) * CONFIG["network"]["n"], 0)


def test_traced_sample_op_counts_every_allocation_once(bench, tmp_path):
    """Allocations are drawn in row blocks; the trace still counts each one exactly once."""
    worker, workload = bench
    config = dict(CONFIG, network={"kind": "k_regular", "n": 40, "k": 3}, num_draws=2,
                  allocation_mode="sample", allocation_count=4000)
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config))
    layers, record = traced(worker, lambda tracer: worker.simulate_op(
        lue, workload("guard", warm=False, config=config), str(config_path),
        str(tmp_path / "out"), 7, tracer))
    assert record["error"] is None
    assert layers["design.allocations"] == config["num_draws"] * config["allocation_count"]


def test_traced_verify_op_counts_built_estimators(bench):
    worker, workload = bench
    layers, record = traced(worker, lambda tracer: worker.verify_op(
        lue, workload("guard", warm=False, check="constraint_residuals"), tracer))
    assert record["error"] is None
    assert layers["estimators.built"] > 0
