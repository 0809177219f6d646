"""Benchmark of ``lue``: one workload, one seed, a fixed measuring time.

Run from the root of a source checkout:

    python3 bench/run.py --workload sim_exact --seed 1 --seconds 20 --trace 0

Ops run in fresh worker processes (``bench/worker.py``), one after another,
each single-threaded with BLAS pinned to one thread.  Op times are scaled to
a reference machine speed measured by ``probe.py`` between ops.  With
``--trace 0`` the last line of standard output is a JSON object with the
end-to-end metrics named in ``BENCHMARK.json``; with ``--trace 1`` it carries
the per-layer metrics instead.  Every op's output is checked, and a failed op
is counted, never fatal.  The full record (per-op times, probe times, CSV
digests, environment, spans) goes to
``bench/out/<workload>-seed<seed>-trace<0|1>/``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

from checks import median_with_count
from probe import scaled
from workloads import WORKLOADS

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
WARM_WORKERS = 3  # set-ups per run of a warm workload, for the setup_s median
MIN_COLD_WORKERS = 5  # cold ops vary by ~20% each; the median needs several
RUN_LIMIT_S = 165  # the whole run must end well inside 180 s
PINNED = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "LUE_THREADS": "1",
}


def git_commit(root: str) -> str:
    """HEAD of the checkout; "unknown" outside a git repository."""
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                              text=True, stdin=subprocess.DEVNULL)
    except OSError:
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def run_worker(task: dict, deadline: float) -> dict:
    """One worker to completion; a crash or timeout becomes an ``error`` entry."""
    spawned_at = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, os.path.join(BENCH_DIR, "worker.py"), json.dumps(task)],
            env=dict(os.environ, **PINNED), stdin=subprocess.DEVNULL,
            capture_output=True, text=True, timeout=max(1.0, deadline - spawned_at),
        )
    except subprocess.TimeoutExpired:
        return {"spawned_at": spawned_at, "error": "worker timed out"}
    try:
        if proc.returncode != 0:
            raise ValueError(f"exit code {proc.returncode}")
        result = json.loads(proc.stdout.strip().splitlines()[-1])
    except (ValueError, IndexError) as exc:
        return {"spawned_at": spawned_at, "error": f"{exc}: {proc.stderr.strip()[-2000:]}"}
    result["spawned_at"] = spawned_at
    return result


def run_workers(workload, args, out_dir: str) -> list[dict]:
    deadline = time.monotonic() + RUN_LIMIT_S
    workers: list[dict] = []
    timed = 0.0
    while time.monotonic() < deadline:
        if workload.warm and len(workers) == WARM_WORKERS:
            break
        if not workload.warm and len(workers) >= MIN_COLD_WORKERS and timed >= args.seconds:
            break
        index = len(workers)
        task = {
            "workload": workload.name,
            "seed": args.seed,
            "index": index,
            "trace": args.trace,
            "out_dir": os.path.join(out_dir, f"w{index}"),
            # A cold worker runs exactly one op; a warm one fills its share.
            "slice_s": args.seconds / WARM_WORKERS if workload.warm else 0.0,
            "min_ops": 2 if workload.warm and args.trace else 1,
            # The first worker that produces a CSV checks the estimators' bias.
            "bias_check": workload.simulate and not any(w.get("bias") for w in workers),
        }
        worker = run_worker(task, deadline)
        workers.append(worker)
        timed += sum(op["wall_s"] for op in worker.get("ops", ()) if op["index"] >= 0)
    return workers


def summarize(workers: list[dict], trace: bool, simulate: bool) -> dict:
    """Counts, the end-to-end or per-layer metric values, and what they rest on."""
    ops = [op for w in workers for op in w.get("ops", ())]
    crashed = [w["error"] for w in workers if "error" in w]
    timed = [op for op in ops if op["index"] >= 0]
    # Same code, config and seed: every timed op must write the same bytes.
    digests = [op["digest"] for op in timed if "digest" in op]
    for op in timed:
        if op["error"] is None and "digest" in op and op["digest"] != digests[0]:
            op["error"] = f"CSV digest {op['digest']} differs from {digests[0]}"
    attempted = len(ops) + len(crashed)
    failed = sum(op["error"] is not None for op in ops) + len(crashed)
    plain = [op for op in timed if not op["traced"]]
    bias = [w["bias"] for w in workers if w.get("bias")]
    checked = sum(b["checked"] for b in bias)
    biased = sum(b["biased"] for b in bias)
    summary = {
        "attempted": attempted,
        "failed": failed,
        "fail_frac": failed / attempted if attempted else 1.0,
        "biased": biased,
        "checked": checked,
        "biased_frac": biased / checked if checked else None,
        "digests": sorted(set(digests)),
        "errors": crashed + [op["error"] for op in ops if op["error"]],
    }
    live = [w for w in workers if "error" not in w]
    if not plain or not live:
        return summary
    # Op times are given at the machine speed at which a probe pass takes
    # probe.REFERENCE_S, each op by the probe passes right after it.  Set-up is
    # mostly process start and imports, which the probe does not track, so it
    # stays as measured.
    wall, count = median_with_count(scaled(op["wall_s"], op["probe_s"]) for op in plain)
    probes = [p for op in timed for p in op["probe_s"]]
    summary.update(wall_ops=count, probe_passes=len(probes), probe_s=statistics.median(probes),
                   wall_measured_s=statistics.median(op["wall_s"] for op in plain))
    summary["end_to_end"] = {
        "wall_s": wall,
        "setup_s": statistics.median(w["first_op_at"] - w["spawned_at"] for w in live),
        "peak_rss_mb": statistics.median(w["rss_mb"] for w in live),
        "pass_frac": 1.0 - summary["fail_frac"],
    }
    # Only the simulate workloads have per-unit estimators to check.  When no
    # worker got as far as the check, the metric is left out and the result
    # counts as incomplete.
    if not simulate:
        summary["end_to_end"]["unbiased_frac"] = 1.0
    elif checked:
        summary["end_to_end"]["unbiased_frac"] = 1.0 - summary["biased_frac"]
    layered = [op for op in timed if op["traced"]]
    if trace and layered:
        per_layer = {
            name: statistics.median(op["layers"][name] for op in layered)
            for name in layered[0]["layers"]
        }
        traced_wall = statistics.median(scaled(op["wall_s"], op["probe_s"]) for op in layered)
        per_layer["trace.overhead_frac"] = traced_wall / wall - 1.0
        summary["per_layer"] = per_layer
        summary["traced_ops"] = len(layered)
    return summary


def result_line(summary: dict, values: dict, declared: list[dict]) -> dict:
    """The result line: the declared metrics with their units, and the op counts."""
    metrics = {}
    for metric in declared:
        if metric["name"] in values:
            metrics[metric["name"]] = {"value": values[metric["name"]], "unit": metric["unit"]}
    complete = len(metrics) == len(declared)
    return {
        "correct": complete and summary["failed"] == 0,
        "attempted": max(1, summary["attempted"]),
        "failed": summary["failed"] if complete else max(1, summary["failed"]),
        "metrics": metrics,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "lue", "__init__.py")):
        print("error: no src/lue here; run from the root of a lue source checkout",
              file=sys.stderr)
        return 2
    with open(os.path.join(root, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    workload = WORKLOADS[args.workload]
    out_dir = os.path.join(BENCH_DIR, "out", f"{args.workload}-seed{args.seed}-trace{args.trace}")
    shutil.rmtree(out_dir, ignore_errors=True)
    os.makedirs(out_dir)

    workers = run_workers(workload, args, out_dir)
    summary = summarize(workers, bool(args.trace), workload.simulate)
    kind = "per_layer" if args.trace else "end_to_end"
    line = result_line(summary, summary.get(kind, {}), spec[kind])
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_commit": git_commit(root),
        "environment": next((w["environment"] for w in workers if "environment" in w), None),
        "summary": summary,
        "workers": workers,
        "result": line,
    }
    with open(os.path.join(out_dir, "report.json"), "w") as handle:
        json.dump(report, handle, indent=1)

    e2e = summary.get("end_to_end", {})
    print(f"{args.workload} seed={args.seed}: wall_s={e2e.get('wall_s', float('nan')):.4f} "
          f"(median of {summary.get('wall_ops', 0)} ops, measured "
          f"{summary.get('wall_measured_s', float('nan')):.4f} s, probe "
          f"{summary.get('probe_s', float('nan')) * 1e3:.2f} ms), "
          f"fail {summary['failed']}/{summary['attempted']}, "
          f"biased {summary['biased']}/{summary['checked']}, "
          f"digests {[d[:12] for d in summary['digests']]}", file=sys.stderr)
    for error in summary["errors"][:5]:
        print(f"op failed: {error}", file=sys.stderr)
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
