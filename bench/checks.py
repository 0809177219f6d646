"""Output checks and the arithmetic the benchmark reports.

Nothing here imports ``lue``: the functions take numbers, arrays and CSV
text, so the benchmark's own tests run without the program.
"""

from __future__ import annotations

import math
import statistics

import numpy as np

CSV_COLUMNS = "estimator,n,k_or_p,distribution,mu1_or_eta1,delta1,imse,bias2,variance,se,seed"
IMSE_SPLIT_TOL = 1e-9
UNBIASED_TOL = 1e-10


def relative_residual(c, w, target) -> float:
    """max_t |(Cw - target)_t| / max(1, sum_e |C_te w_e|): unbiasedness relative to term size.

    ``c`` is the (parameters x exposures) constraint matrix, ``w`` the weight
    vector over the same exposures.
    """
    c, w = np.asarray(c, dtype=float), np.asarray(w, dtype=float)
    scale = np.maximum(1.0, np.abs(c * w).sum(axis=1))
    return float((np.abs(c @ w - np.asarray(target, dtype=float)) / scale).max())


def check_simulate_csv(text: str, families: list[str]) -> list[str]:
    """Problems with the CSV of a single-setting ``lue simulate`` run; empty when it passes.

    Rows: one per family, in the requested order.  Values: finite, and
    imse = bias2 + variance to IMSE_SPLIT_TOL relative.
    """
    lines = [line for line in text.splitlines() if line and not line.startswith("#")]
    if not lines or lines[0] != CSV_COLUMNS:
        return [f"header is {lines[0] if lines else None!r}"]
    rows = [line.split(",") for line in lines[1:]]
    problems = []
    if len(rows) != len(families):
        problems.append(f"{len(rows)} rows, expected {len(families)}")
    for i, row in enumerate(rows):
        if len(row) != 11:
            problems.append(f"row {i} has {len(row)} fields")
            continue
        if row[0] != families[i % len(families)]:
            problems.append(f"row {i} is {row[0]}, expected {families[i % len(families)]}")
        try:
            imse, bias2, variance, se = (float(v) for v in row[6:10])
        except ValueError:
            problems.append(f"row {i} has a non-numeric value")
            continue
        if not all(math.isfinite(v) for v in (imse, bias2, variance, se)):
            problems.append(f"row {i} ({row[0]}) has a non-finite value")
            continue
        scale = max(abs(imse), abs(bias2) + abs(variance))
        if abs(imse - (bias2 + variance)) > IMSE_SPLIT_TOL * scale:
            problems.append(f"row {i} ({row[0]}): imse {imse!r} != bias2 + variance")
    return problems


def master_seed_of(text: str) -> int:
    """The per-setting master seed, which ``lue simulate`` writes in the last column."""
    rows = [line for line in text.splitlines() if line and not line.startswith("#")]
    return int(rows[1].rsplit(",", 1)[1])


def median_with_count(values) -> tuple[float, int]:
    """Median and the number of samples it was taken over."""
    values = list(values)
    if not values:
        raise ValueError("median of no samples")
    return statistics.median(values), len(values)


def quartile_spread(values) -> float:
    """Distance between the first and third quartiles, as a share of the median."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)
