"""Command-line entry point: weight solving, basis listing, simulation sweeps, self-checks.

Inputs are JSON, tabular outputs are CSV, and every output file starts with a
metadata header (config hash, seed, version) so runs are reproducible and
diffable.  Identical config and seed produce byte-identical output.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import logging
import os
import sys

import numpy as np

from . import __version__
from .design import ExposureDistribution, uniform_distribution
from .estimators import (
    basis_count,
    build_affine_basis,
    lue_dimension,
    malue_count,
    zero_count,
)
from .exposure import ExposureSpec, enumerate_exposures
from .mivlue import (SIX_TERM_EXPOSURES, PriorSpec, outcome_variance, six_term_alpha_weights,
                     solve_mivlue)
from .simulation import CSV_HEADER, ExperimentConfig, compute_imse, payload_hash
from .verify import run_verify

SIX_TERM_LEVELS = (2, 1)
GRID_FIELDS = (
    ("network", "n"),
    ("network", "k"),
    ("network", "p_edge"),
    ("outcome", "mu1"),
    ("outcome", "delta1"),
    ("outcome", "eta1"),
)

logger = logging.getLogger(__name__)


class InputError(ValueError):
    """Bad CLI input; the message carries the offending field path."""


def _header_lines(config_digest: str, seed) -> list[str]:
    return [
        f"# config_hash={config_digest}",
        f"# seed={seed}",
        f"# version={__version__}",
    ]


def _load_json(path: str, what: str) -> dict:
    try:
        with open(path) as handle:
            return json.load(handle)
    except FileNotFoundError:
        raise InputError(f"{what}: file not found: {path}")
    except json.JSONDecodeError as exc:
        raise InputError(f"{what}: malformed JSON: {exc}")


def _get(data: dict, path: str, expect=None, required: bool = True, default=None):
    node = data
    walked = []
    for part in path.split("."):
        walked.append(part)
        if not isinstance(node, dict) or part not in node:
            if required:
                raise InputError(f"{'.'.join(walked)}: missing required field")
            return default
        node = node[part]
    if expect is not None and not isinstance(node, expect):
        names = expect.__name__ if isinstance(expect, type) else "/".join(
            t.__name__ for t in expect)
        raise InputError(f"{path}: expected {names}, got {type(node).__name__}")
    return node


def _parse_weights_input(data: dict):
    levels = _get(data, "spec.levels", expect=list)
    try:
        spec = ExposureSpec(tuple(int(m) for m in levels))
    except (TypeError, ValueError) as exc:
        raise InputError(f"spec.levels: {exc}")
    raw_probs = _get(data, "probabilities", expect=dict, required=False)
    if raw_probs is None:
        probs = uniform_distribution(spec)
    else:
        table = {}
        for key, value in raw_probs.items():
            try:
                e = tuple(int(v) for v in key.split(","))
            except ValueError:
                raise InputError(f"probabilities.{key}: key must be comma-separated integers")
            if not isinstance(value, (int, float)):
                raise InputError(f"probabilities.{key}: expected a number")
            table[e] = float(value)
        try:
            probs = ExposureDistribution(spec, table)
        except ValueError as exc:
            raise InputError(f"probabilities: {exc}")
    cov = _get(data, "prior.covariance", expect=list)
    base = _get(data, "prior.base_perturbation", required=False)
    dilation = _get(data, "prior.dilation", expect=(int, float), required=False)
    try:
        prior = PriorSpec(
            np.array(cov, dtype=float),
            base_perturbation=None if base is None else np.array(base, dtype=float),
            dilation=None if dilation is None else float(dilation),
        )
    except ValueError as exc:
        raise InputError(f"prior: {exc}")
    return spec, probs, prior


def run_weights(args) -> int:
    data = _load_json(args.input, "input")
    spec, probs, prior = _parse_weights_input(data)
    solution = solve_mivlue(spec, probs, prior)
    lines = _header_lines(payload_hash(data), args.seed)
    for warning in solution.warnings:
        lines.append(f"# warning={warning}")
    if spec.levels == SIX_TERM_LEVELS:
        p6 = [probs[e] for e in SIX_TERM_EXPOSURES]
        v6 = [outcome_variance(prior, spec, e) for e in SIX_TERM_EXPOSURES]
        a1, a2, a3 = six_term_alpha_weights(p6, v6)
        lines.append(f"# alpha1={a1!r} alpha2={a2!r} alpha3={a3!r}")
    lines.append("exposure,weight,variance,probability")
    for e in enumerate_exposures(spec):
        weight = solution.estimator.weight(e)
        variance = outcome_variance(prior, spec, e)
        lines.append(f"{' '.join(str(v) for v in e)},{weight!r},{variance!r},{probs[e]!r}")
    _write_output(args.output, lines)
    return 0


def run_basis(args) -> int:
    levels = tuple(int(tok) for tok in args.m.split(","))
    if args.k is not None and args.k != len(levels):
        raise InputError(f"--k={args.k} disagrees with --m which has {len(levels)} components")
    spec = ExposureSpec(levels)
    basis = build_affine_basis(spec)
    lines = _header_lines(payload_hash({"levels": list(levels)}), args.seed)
    lines.append("# weights materialized under the uniform exposure distribution")
    lines.append(
        f"malue={malue_count(spec)} zero={zero_count(spec)} "
        f"basis={basis_count(spec)} dim={lue_dimension(spec)}"
    )
    for est in basis:
        lines.append(f"[{est.name}]")
        lines.append(est.to_text())
    _write_output(args.output, lines)
    return 0


def _expand_grid(data: dict) -> list[dict]:
    """Cross product over any list-valued grid field, in canonical field order."""
    axes = []
    for section, key in GRID_FIELDS:
        value = data.get(section, {}).get(key)
        if isinstance(value, list):
            axes.append(((section, key), value))
    settings = []
    for combo in itertools.product(*(values for _, values in axes)):
        setting = json.loads(json.dumps(data))  # deep copy
        for ((section, key), _), value in zip(axes, combo):
            setting[section][key] = value
        settings.append(setting)
    return settings


def _setting_seed(seed: int, index: int) -> int:
    digest = hashlib.sha256(f"{seed}:{index}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


def run_simulate(args) -> int:
    data = _load_json(args.config, "config")
    digest = payload_hash({"config": data, "seed": args.seed})
    lines = _header_lines(digest, args.seed)
    lines.append(CSV_HEADER)
    failures = []
    for index, setting in enumerate(_expand_grid(data)):
        setting["master_seed"] = _setting_seed(args.seed, index)
        try:
            lines.extend(compute_imse(ExperimentConfig.from_dict(setting)).csv_rows())
        except Exception as exc:
            logger.info("setting %d failed", index, exc_info=exc)
            failures.append((index, f"{type(exc).__name__}: {exc}"))
    os.makedirs(args.out_dir, exist_ok=True)
    out_path = os.path.join(args.out_dir, f"imse_{digest}.csv")
    with open(out_path, "w") as handle:
        handle.write("\n".join(lines) + "\n")
    print(out_path)
    for index, message in failures:
        print(f"setting {index} failed: {message}", file=sys.stderr)
    return 1 if failures else 0


def run_verify_cmd(args) -> int:
    results = run_verify(args.filter)
    if not results:
        print(f"no checks match filter {args.filter!r}", file=sys.stderr)
        return 2
    for result in results:
        print(result.line())
    return 0 if all(r.passed for r in results) else 1


def _write_output(path: str | None, lines: list[str]):
    text = "\n".join(lines) + "\n"
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w") as handle:
            handle.write(text)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lue",
        description="Linear unbiased estimators under additive exposure models",
    )
    parser.add_argument("--version", action="version", version=__version__)
    parser.add_argument("-v", "--verbose", action="store_true",
                        help="log informational detail (excluded units, timings)")
    sub = parser.add_subparsers(dest="command", required=True)

    weights = sub.add_parser("weights", help="solve minimum-integrated-variance weights")
    weights.add_argument("--input", required=True, help="JSON with spec, probabilities, prior")
    weights.add_argument("--output", default=None, help="output CSV (stdout when omitted)")
    weights.add_argument("--seed", type=int, default=0)
    weights.set_defaults(func=run_weights)

    basis = sub.add_parser("basis", help="list the affine basis for a spec")
    basis.add_argument("--k", type=int, default=None, help="number of exposure components")
    basis.add_argument("--m", required=True, help="comma-separated levels m1,..,mK")
    basis.add_argument("--output", default=None)
    basis.add_argument("--seed", type=int, default=0)
    basis.set_defaults(func=run_basis)

    simulate = sub.add_parser("simulate", help="run an integrated-MSE sweep")
    simulate.add_argument("--config", required=True, help="JSON experiment config (grids allowed)")
    simulate.add_argument("--out-dir", required=True)
    simulate.add_argument("--seed", type=int, default=0)
    simulate.set_defaults(func=run_simulate)

    verify = sub.add_parser("verify", help="run the self-check suites")
    verify.add_argument("--filter", default=None, help="only run checks whose name contains this")
    verify.set_defaults(func=run_verify_cmd)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    logging.basicConfig(level=logging.INFO if args.verbose else logging.WARNING)
    try:
        return args.func(args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
