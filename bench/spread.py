"""Run the benchmark on several seeds and report each end-to-end metric's spread.

    python3 bench/spread.py --workload dense_er --seeds 1 2 3 4 5 --save a.json
    python3 bench/spread.py --workload dense_er --seeds 1 2 3 4 5 --against a.json

Run from the root of a source checkout.  For every metric it prints the
median over seeds and the quartile spread (q3 - q1) / median, next to the
metric's bound in ``BENCHMARK.json``.  ``--against`` compares with a saved
set: the medians may not be worse by more than the bound, and every seed's
CSV digests must be identical.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

from checks import quartile_spread

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))


def run_seed(workload: str, seed: int, seconds: float) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join(BENCH_DIR, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        capture_output=True, text=True, check=True,
    )
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    report_path = os.path.join(BENCH_DIR, "out", f"{workload}-seed{seed}-trace0", "report.json")
    with open(report_path) as handle:
        digests = json.load(handle)["summary"]["digests"]
    return {"result": line, "digests": digests}


def worse_by(metric: dict, before: float, after: float) -> float:
    """Share of ``before`` by which ``after`` is worse (negative when better)."""
    change = (after - before) / before
    return change if metric["better"] == "lower" else -change


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument("--save", help="write the runs to this JSON file")
    parser.add_argument("--against", help="compare with runs saved by --save")
    args = parser.parse_args(argv)
    with open("BENCHMARK.json") as handle:
        spec = json.load(handle)
    seconds = spec["run_seconds"]

    runs = {}
    for seed in args.seeds:
        runs[str(seed)] = run_seed(args.workload, seed, seconds)
        result = runs[str(seed)]["result"]
        values = {name: m["value"] for name, m in result["metrics"].items()}
        print(f"seed {seed}: correct={result['correct']} failed={result['failed']}/"
              f"{result['attempted']} {json.dumps(values)}", file=sys.stderr)
    if args.save:
        with open(args.save, "w") as handle:
            json.dump(runs, handle, indent=1)

    previous = None
    if args.against:
        with open(args.against) as handle:
            previous = json.load(handle)
    ok = all(run["result"]["correct"] for run in runs.values())
    for metric in spec["end_to_end"]:
        name, bound = metric["name"], metric["bound"]
        values = [run["result"]["metrics"][name]["value"] for run in runs.values()]
        median = statistics.median(values)
        spread = quartile_spread(values) if len(values) > 1 and median else 0.0
        verdict = "ok" if spread < bound / 3 else ("wide" if spread < bound else "FAIL")
        ok &= spread < bound
        line = f"{name:14s} median {median:.6g} spread {spread:.4f} bound {bound} {verdict}"
        if previous is not None:
            before = statistics.median(
                run["result"]["metrics"][name]["value"] for run in previous.values())
            change = worse_by(metric, before, median)
            ok &= change <= bound
            line += f" | saved median {before:.6g}, worse by {change:+.4f}"
        print(line)
    if previous is not None:
        for seed, run in runs.items():
            if seed in previous and previous[seed]["digests"] != run["digests"]:
                print(f"seed {seed}: digests differ {previous[seed]['digests']} vs "
                      f"{run['digests']}")
                ok = False
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
