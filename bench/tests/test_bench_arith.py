"""The benchmark's own arithmetic: self times, residuals, medians and output checks.

    python3 -m pytest bench/tests
"""

import math
import os
import sys

import pytest

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

from checks import (  # noqa: E402
    check_simulate_csv,
    master_seed_of,
    median_with_count,
    quartile_spread,
    relative_residual,
)
from probe import REFERENCE_S  # noqa: E402
from run import result_line, summarize  # noqa: E402
from spans import OBSERVE, Span, Tracer, layer_totals, self_times_ns  # noqa: E402
from worker import layer_metrics  # noqa: E402


def test_self_time_subtracts_direct_children_only():
    spans = [
        Span("cli", 0, 100, -1, 0),
        Span("imse", 10, 40, 0, 0),
        Span("solve", 20, 30, 1, 0),
        Span("params", 50, 70, 0, 0),
    ]
    assert self_times_ns(spans) == [50, 20, 10, 20]


def test_self_time_counts_overlapping_children_once():
    spans = [Span("a", 0, 100, -1, 0), Span("b", 10, 60, 0, 0), Span("c", 40, 120, 0, 0)]
    assert self_times_ns(spans)[0] == 10


def test_self_times_of_a_traced_tree_add_up_to_its_root():
    tracer = Tracer()

    def leaf():
        return [1, 2, 3]

    wrapped_leaf = tracer.wrap("leaf", leaf, observe=lambda result: {"items": len(result)})

    def middle():
        return wrapped_leaf() + wrapped_leaf()

    with tracer.span("root"):
        tracer.wrap("middle", middle)()
    root = tracer.spans[0]
    assert [s.name for s in tracer.spans] == ["root", "middle", "leaf", OBSERVE, "leaf", OBSERVE]
    assert sum(self_times_ns(tracer.spans)) == root.end_ns - root.start_ns
    totals = layer_totals(tracer.spans)
    assert totals["leaf"]["calls"] == 2
    assert totals["leaf"]["counts"] == {"items": 6}
    assert totals["leaf"]["max"] == {"items": 3}


def test_install_restores_every_binding():
    class Owner:
        @staticmethod
        def f(x):
            return x + 1

    original = Owner.f
    tracer = Tracer()
    uninstall = tracer.install([(Owner, "f", "owner.f", None)])
    assert Owner.f(1) == 2 and tracer.spans[0].name == "owner.f"
    uninstall()
    assert Owner.f is original


# One binary exposure: C = [[p0, p1], [0, p1]] over (baseline, effect); the
# target picks the effect.  w = (-1/p0, 1/p1) is the Horvitz-Thompson estimator.
P0, P1 = 0.25, 0.75
C = [[P0, P1], [0.0, P1]]
TARGET = [0.0, 1.0]


def test_relative_residual_is_zero_for_an_unbiased_estimator():
    assert relative_residual(C, [-1 / P0, 1 / P1], TARGET) == pytest.approx(0.0, abs=1e-15)


def test_relative_residual_of_a_hand_built_biased_estimator():
    # Cw = (0.1, 1.1): row 1 is 0.1 / (1 + 1.1), row 2 is 0.1 / 1.1.
    residual = relative_residual(C, [-1 / P0, 1.1 / P1], TARGET)
    assert residual == pytest.approx(0.1 / 1.1, rel=1e-12)


def test_relative_residual_scales_with_the_terms():
    # An absolute miss of 1 left by terms of size 1e6 that cancel is a relative 5e-7.
    assert relative_residual([[1.0, 1.0]], [1e6, 1 - 1e6], [0.0]) == pytest.approx(
        1 / (2e6 - 1), rel=1e-9)


def test_median_with_its_op_count():
    assert median_with_count([3.0, 1.0, 2.0]) == (2.0, 3)
    assert median_with_count([4.0, 1.0, 2.0, 3.0]) == (2.5, 4)
    with pytest.raises(ValueError):
        median_with_count([])


def test_quartile_spread():
    assert quartile_spread([1.0] * 5) == 0.0
    assert quartile_spread([1, 2, 3, 4, 5]) == pytest.approx((4.5 - 1.5) / 3)


HEADER = "# config_hash=abc\n# seed=1\n# version=0.1.0\n" + (
    "estimator,n,k_or_p,distribution,mu1_or_eta1,delta1,imse,bias2,variance,se,seed\n")


def csv(*rows):
    return HEADER + "".join(
        f"{name},16,4,independent,0,0.0,{imse!r},{bias2!r},{var!r},0.1,99\n"
        for name, imse, bias2, var in rows)


def test_simulate_csv_passes_when_imse_splits():
    text = csv(("HT0", 6.5, 1e-30, 6.5), ("MInd", 4.0, 1.0, 3.0))
    assert check_simulate_csv(text, ["HT0", "MInd"]) == []
    assert master_seed_of(text) == 99


def test_simulate_csv_failures_are_reported():
    assert check_simulate_csv(csv(("HT0", 6.5, 1.0, 6.5)), ["HT0"])
    assert check_simulate_csv(csv(("HT0", math.inf, 1.0, 6.5)), ["HT0"])
    assert check_simulate_csv(csv(("HT0", 6.5, 0.0, 6.5)), ["HT0", "HT1"])
    assert check_simulate_csv(csv(("HT1", 6.5, 0.0, 6.5)), ["HT0"])
    assert check_simulate_csv("", ["HT0"])


def test_kernel_elements_reuse_exhaustive_rows_in_every_draw():
    def entry(calls, **counts):
        return {"self_s": 2.0, "calls": calls, "counts": counts, "max": counts}

    exhaustive = layer_metrics({
        "simulation.compute_imse": entry(1),
        "simulation.sample_parameters": entry(40),
        "design.allocation_matrix": entry(1, allocations=65536),
        "simulation.build_estimator_family": {
            "self_s": 0.0, "calls": 5, "counts": {"units": 80}, "max": {"units": 16}},
    }, bytes_out=10)
    assert exhaustive["simulation.kernel_elems"] == 40 * 65536 * 16 * 5
    assert exhaustive["simulation.kernel_ns_per_elem"] == pytest.approx(
        2e9 / (40 * 65536 * 16 * 5))
    sampled = layer_metrics({
        "simulation.sample_parameters": entry(30),
        "design.sample": entry(30, allocations=45000),
        "simulation.build_estimator_family": {
            "self_s": 0.0, "calls": 5, "counts": {"units": 1000}, "max": {"units": 200}},
    }, bytes_out=10)
    assert sampled["simulation.kernel_elems"] == 45000 * 200 * 5
    assert sampled["simulation.kernel_ns_per_elem"] == 0.0


def test_result_line_is_incorrect_when_a_metric_is_missing():
    declared = [{"name": "wall_s", "unit": "s"}, {"name": "setup_s", "unit": "s"}]
    summary = {"attempted": 3, "failed": 0}
    full = result_line(summary, {"wall_s": 1.5, "setup_s": 0.5}, declared)
    assert full["correct"] and full["metrics"]["wall_s"] == {"value": 1.5, "unit": "s"}
    partial = result_line(summary, {"wall_s": 1.5}, declared)
    assert not partial["correct"] and partial["failed"] == 1


def worker(ops, setup_s=1.0, rss_mb=50.0, bias=None):
    return {"spawned_at": 0.0, "first_op_at": setup_s, "rss_mb": rss_mb, "bias": bias,
            "ops": [dict(op, traced=False, error=None) for op in ops]}


def test_op_times_are_scaled_by_the_probe_passes_after_them():
    slow, fast = 2 * REFERENCE_S, REFERENCE_S / 2
    workers = [
        worker([{"index": 0, "wall_s": 3.0, "probe_s": [slow, slow, 9.0]}], setup_s=1.0),
        worker([{"index": 0, "wall_s": 0.5, "probe_s": [fast, 0.0, fast]}], setup_s=3.0),
    ]
    summary = summarize(workers, trace=False, simulate=False)
    assert summary["probe_passes"] == 6 and summary["probe_s"] == pytest.approx(1.25 * REFERENCE_S)
    assert summary["wall_measured_s"] == 1.75
    # The ops scale to 1.5 s and 1.0 s; set-up stays as measured.
    assert summary["wall_ops"] == 2
    assert summary["end_to_end"]["wall_s"] == pytest.approx(1.25)
    assert summary["end_to_end"]["setup_s"] == 2.0
    assert summary["end_to_end"]["unbiased_frac"] == 1.0


def test_unbiased_frac_is_left_out_when_no_estimator_was_checked():
    ops = [{"index": 0, "wall_s": 1.0, "probe_s": [REFERENCE_S]}]
    unchecked = summarize([worker(ops)], trace=False, simulate=True)
    assert "unbiased_frac" not in unchecked["end_to_end"]
    checked = summarize([worker(ops, bias={"checked": 750, "biased": 300})],
                        trace=False, simulate=True)
    assert checked["end_to_end"]["unbiased_frac"] == pytest.approx(0.6)
