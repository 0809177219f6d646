"""One benchmark worker process: set up, run ops until its time slice is spent, report.

Started by ``bench/run.py`` from the root of a checkout as

    python3 bench/worker.py '<json task>'

with BLAS pinned to one thread.  The last line of its standard output is a
JSON object with the worker's op records, setup end time, peak memory and
environment.  ``lue`` is imported from ``src/`` of the working directory,
never from an installed copy.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import platform
import resource
import sys
import time
import traceback
from contextlib import nullcontext, redirect_stderr, redirect_stdout

import numpy as np

from checks import (
    UNBIASED_TOL,
    check_simulate_csv,
    master_seed_of,
    relative_residual,
)
from probe import probe_for
from spans import Tracer, layer_totals
from workloads import WORKLOADS

# compute_imse builds its network from SeedSequence([master_seed, 3]).
NETWORK_STREAM = 3
# Share of a timed op's wall time spent on machine-speed probes right after it.
PROBE_SHARE = 0.1
BLAS_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def import_lue(root: str):
    src = os.path.join(root, "src")
    sys.path.insert(0, src)
    import lue
    import lue.cli
    import lue.verify

    if os.path.dirname(os.path.abspath(lue.__file__)) != os.path.join(src, "lue"):
        raise ImportError(f"lue imported from {lue.__file__}, not from {src}")
    return lue


def environment(lue) -> dict:
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "lue": lue.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "blas_threads": {name: os.environ.get(name) for name in BLAS_VARIABLES},
        "lue_threads": os.environ.get("LUE_THREADS"),
    }


def trace_bindings(lue) -> list[tuple]:
    """(owner, attribute, span name, observer) for every wrapped public binding."""
    sim, design, verify = lue.simulation, lue.design, lue.verify

    def solution_counts(solution):
        system = solution.system
        weights = solution.estimator.as_vector(system.exposures)
        target = system.rhs[system.num_exposures:]
        return {
            "kkt_dim": system.matrix.shape[0],
            "cond_warnings": int(bool(solution.warnings)),
            "biased": int(relative_residual(system.constraints, weights, target) > UNBIASED_TOL),
        }

    def count(key, size=len):
        return lambda result: {key: size(result)}

    return [
        (lue.cli, "compute_imse", "simulation.compute_imse", None),
        (sim.NetworkConfig, "build", "networks.build", None),
        (sim, "build_estimator_family", "simulation.build_estimator_family", count("units")),
        (sim, "sample_parameters", "simulation.sample_parameters", None),
        (sim, "solve_mivlue", "mivlue.solve_mivlue", solution_counts),
        (sim, "bernoulli_exposure_distribution", "design.bernoulli_exposure_distribution", None),
        (sim, "allocation_matrix", "design.allocation_matrix",
         count("allocations", lambda result: len(result[0]))),
        (design.BernoulliDesign, "sample", "design.sample", count("allocations")),
        (verify, "build_malue_set", "estimators.build_malue_set", count("built")),
        (verify, "build_zero_estimators", "estimators.build_zero_estimators", count("built")),
        (verify, "affine_rank_is_full", "estimators.affine_rank_is_full", None),
    ]


def layer_metrics(totals: dict, bytes_out: int) -> dict:
    """Per-layer metrics of one traced op from its per-span-name totals."""
    empty = {"self_s": 0.0, "calls": 0, "counts": {}, "max": {}}

    def t(name):
        return totals.get(name, empty)

    imse, family = t("simulation.compute_imse"), t("simulation.build_estimator_family")
    params, solve = t("simulation.sample_parameters"), t("mivlue.solve_mivlue")
    sample, alloc = t("design.sample"), t("design.allocation_matrix")
    malue, zero = t("estimators.build_malue_set"), t("estimators.build_zero_estimators")
    dist, build = t("design.bernoulli_exposure_distribution"), t("networks.build")
    # Exhaustive mode enumerates once and reuses the rows in every draw.
    rows = sample["counts"].get("allocations", 0) + params["calls"] * alloc["counts"].get(
        "allocations", 0)
    elems = rows * family["max"].get("units", 0) * family["calls"]
    return {
        "simulation.imse_self_s": imse["self_s"],
        "simulation.kernel_elems": elems,
        "simulation.kernel_ns_per_elem": imse["self_s"] * 1e9 / elems if elems else 0.0,
        "simulation.params_s": params["self_s"],
        "simulation.draws": params["calls"],
        "simulation.families_s": family["self_s"],
        "mivlue.solve_s": solve["self_s"],
        "mivlue.solves": solve["calls"],
        "mivlue.kkt_dim_max": solve["max"].get("kkt_dim", 0),
        "mivlue.cond_warnings": solve["counts"].get("cond_warnings", 0),
        "mivlue.biased_solves": solve["counts"].get("biased", 0),
        "design.exposure_dist_s": dist["self_s"],
        "design.exposure_dist_calls": dist["calls"],
        "design.sample_s": sample["self_s"],
        "design.alloc_matrix_s": alloc["self_s"],
        "design.allocations": sample["counts"].get("allocations", 0)
        + alloc["counts"].get("allocations", 0),
        "networks.build_s": build["self_s"],
        "networks.build_calls": build["calls"],
        "estimators.malue_s": malue["self_s"],
        "estimators.zero_s": zero["self_s"],
        "estimators.rank_s": t("estimators.affine_rank_is_full")["self_s"],
        "estimators.built": malue["counts"].get("built", 0) + zero["counts"].get("built", 0),
        "cli.self_s": t("cli.main")["self_s"],
        "cli.bytes_out": bytes_out,
        "verify.self_s": t("verify.run_verify")["self_s"],
    }


def simulate_op(lue, workload, config_path: str, out_dir: str, seed: int, tracer) -> dict:
    argv = ["simulate", "--config", config_path, "--out-dir", out_dir, "--seed", str(seed)]
    out, err = io.StringIO(), io.StringIO()
    error = None
    start = time.perf_counter()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            with tracer.span("cli.main") if tracer else nullcontext():
                code = lue.cli.main(argv)
        if code != 0:
            error = f"lue simulate exited {code}: {err.getvalue().strip()}"
    except (Exception, SystemExit):
        error = traceback.format_exc()
    record = {"wall_s": time.perf_counter() - start, "error": error}
    if error is not None:
        return record
    try:
        with open(out.getvalue().strip().splitlines()[-1], "rb") as handle:
            data = handle.read()
    except (IndexError, OSError) as exc:
        record["error"] = f"no CSV to read: {exc!r}"
        return record
    text = data.decode()
    record["digest"] = hashlib.sha256(data).hexdigest()
    record["bytes_out"] = len(data)
    problems = check_simulate_csv(text, workload.config["estimators"])
    if problems:
        record["error"] = "; ".join(problems)
    else:
        record["master_seed"] = master_seed_of(text)
    return record


def verify_op(lue, workload, tracer) -> dict:
    error = None
    start = time.perf_counter()
    try:
        with tracer.span("verify.run_verify") if tracer else nullcontext():
            results = lue.verify.run_verify(workload.check)
        if len(results) != 1 or not results[0].passed:
            error = "; ".join(r.line() for r in results) or "no check ran"
    except Exception:
        error = traceback.format_exc()
    return {"wall_s": time.perf_counter() - start, "error": error, "bytes_out": 0}


def bias_counts(lue, config: dict, master_seed: int) -> tuple[int, int]:
    """(estimators checked, estimators biased) over every requested family of one setting."""
    sim = lue.simulation
    network = sim.NetworkConfig(**config["network"]).build(
        np.random.SeedSequence([master_seed, NETWORK_STREAM]))
    design = lue.BernoulliDesign(network.n, config.get("p_treat", 0.5))
    checked = biased = 0
    for name in config["estimators"]:
        for unit, est in sim.build_estimator_family(name, network, design).items():
            probs = sim.unit_exposure_distribution(design, network, unit)
            c = lue.constraint_matrix(est.spec, probs)
            residual = relative_residual(c.matrix, est.as_vector(c.exposures), c.target_vector())
            checked += 1
            biased += residual > UNBIASED_TOL
    return checked, biased


def main(task: dict) -> dict:
    root = os.getcwd()
    lue = import_lue(root)
    workload = WORKLOADS[task["workload"]]
    out_dir = task["out_dir"]
    os.makedirs(out_dir, exist_ok=True)
    configs = {}
    if workload.simulate:
        for name, config in (("timed", workload.config), ("warm_up", workload.warm_up_config)):
            configs[name] = os.path.join(out_dir, f"{name}.json")
            with open(configs[name], "w") as handle:
                json.dump(config, handle)

    tracer = Tracer() if task["trace"] else None
    bindings = trace_bindings(lue) if tracer else []

    def run_op(index: int, traced: bool) -> dict:
        uninstall = None
        if traced:
            tracer.op = index
            uninstall = tracer.install(bindings)
        try:
            if workload.simulate:
                config_path = configs["warm_up" if index < 0 else "timed"]
                return simulate_op(lue, workload, config_path, out_dir, task["seed"],
                                   tracer if traced else None)
            return verify_op(lue, workload, tracer if traced else None)
        finally:
            if uninstall:
                uninstall()

    ops = []
    if workload.warm:
        ops.append(dict(run_op(-1, False), index=-1, traced=False))
    first_op_at = time.monotonic()
    while True:
        index = len(ops) - workload.warm
        # In a traced run, ops alternate traced/untraced so the run measures
        # the tracing overhead; the parity shifts with the worker index.
        traced = bool(tracer) and (index + task["index"]) % 2 == 0
        ops.append(dict(run_op(index, traced), index=index, traced=traced))
        ops[-1]["probe_s"] = probe_for(PROBE_SHARE * ops[-1]["wall_s"])
        elapsed = time.monotonic() - first_op_at
        if index + 1 >= task["min_ops"] and elapsed + ops[-1]["wall_s"] / 2 >= task["slice_s"]:
            break
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    if tracer:
        for op in ops:
            if op["traced"]:
                spans = [s for s in tracer.spans if s.op == op["index"]]
                op["layers"] = layer_metrics(layer_totals(spans), op.get("bytes_out", 0))
        tracer.dump(os.path.join(out_dir, "spans.jsonl"))

    # Every op of a run, the warm-up included, builds the same network.
    bias = None
    master_seed = next((op["master_seed"] for op in ops if "master_seed" in op), None)
    if task["bias_check"] and master_seed is not None:
        checked, biased = bias_counts(lue, workload.config, master_seed)
        bias = {"checked": checked, "biased": biased}
    return {
        "first_op_at": first_op_at,
        "ops": ops,
        "rss_mb": rss_mb,
        "bias": bias,
        "environment": environment(lue),
    }


if __name__ == "__main__":
    print(json.dumps(main(json.loads(sys.argv[1]))))
