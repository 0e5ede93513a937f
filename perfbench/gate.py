"""Correctness checks on the outputs of one benchmark run.

Monte Carlo against analytic, per point: the benchmark builds its own
Clopper-Pearson interval for the Monte Carlo outage from the failure
count, at a level that keeps the chance of a false alarm in a whole run
below ``FAMILY_ALPHA`` (Bonferroni over the run's points, so the bound
widens with the number of points).  For a point with zero failures the
interval's top is the binomial upper bound 1 - (level/2)^(1/n), not the
zero ``std_err`` the program reports.  The analytic value must lie in the
interval widened by the gate's tolerance:

* ``exact``: 0, the Aloha closed forms are exact under the model;
* ``surrogate``: 0.015, acceptance criterion 05;
* ``csma``: 0.02, acceptance criterion 06.

At the Monte Carlo realization counts a run can afford, this only
catches gross errors.  The analytic outputs at the default seed's inputs
must also match the stored ``reference_analytic.json`` within
``REFERENCE_TOL``, which catches any change to the analytic numbers; that
tolerance admits an exact-derivative route in place of differencing.
"""

from __future__ import annotations

import json
import math
import os

from scipy.stats import beta as beta_dist

FAMILY_ALPHA = 1e-6
TOLERANCE = {"exact": 0.0, "surrogate": 0.015, "csma": 0.02}
REFERENCE_TOL = 1e-5
REFERENCE_FILE = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                              "reference_analytic.json")


def binomial_interval(k: int, n: int, level: float) -> tuple[float, float]:
    """Two-sided Clopper-Pearson interval with miss probability ``level``."""

    lo = 0.0 if k == 0 else float(beta_dist.ppf(level / 2.0, k, n - k + 1))
    hi = 1.0 if k == n else float(beta_dist.ppf(1.0 - level / 2.0, k + 1,
                                                n - k))
    return lo, hi


def _value_ok(column: str, value: float) -> bool:
    if not math.isfinite(value):
        return False
    if column.startswith("throughput_") or column == "mc_stderr":
        return value >= 0.0
    if column.endswith("_analytic") or column.endswith("_mc"):
        return 0.0 <= value <= 1.0
    return True


def bad_points(configs, rows: dict) -> tuple[int, list[str]]:
    """Points whose outputs are missing, non-finite or out of range.

    A point is one sweep value of one config; its rows in every output
    kind of that config must be valid.
    """

    bad = 0
    problems = []
    for config in configs:
        kinds = [name for name in rows if name.startswith(config.prefix + "_")]
        if not kinds:
            problems.append(f"{config.prefix}: no output")
            bad += config.points
            continue
        failed = set()
        for name in kinds:
            if len(rows[name]) != config.points:
                problems.append(f"{name}: {len(rows[name])} rows, "
                                f"expected {config.points}")
                failed.update(range(config.points))
            for i, row in enumerate(rows[name]):
                if not all(_value_ok(c, v) for c, v in row.items()):
                    problems.append(f"{name} row {i}: {row}")
                    failed.add(i)
        bad += len(failed)
    return bad, problems


def _identity(row: dict) -> dict:
    return {c: v for c, v in row.items()
            if not (c.endswith("_analytic") or c.endswith("_mc")
                    or c == "mc_stderr")}


def check_agreement(mc_configs, rows_a: dict, rows_mc: dict):
    """Analytic outage against the Monte Carlo interval, every point."""

    pairs = []
    for config in mc_configs:
        name = f"{config.prefix}_outage.csv"
        for a_row, mc_row in zip(rows_a.get(name, ()), rows_mc.get(name, ())):
            pairs.append((config, name, a_row, mc_row))
    problems = []
    if not pairs:
        return 0, ["no Monte Carlo points to check"]
    level = FAMILY_ALPHA / len(pairs)
    for config, name, a_row, mc_row in pairs:
        if _identity(a_row) != _identity(mc_row):
            problems.append(f"{name}: rows do not align: {a_row} vs {mc_row}")
            continue
        n = config.realizations
        k = round(mc_row["outage_mc"] * n)
        lo, hi = binomial_interval(k, n, level)
        tol = TOLERANCE[config.gate]
        p = a_row["outage_analytic"]
        if not lo - tol <= p <= hi + tol:
            problems.append(
                f"{name} {_identity(a_row)}: analytic {p:.6g} outside "
                f"[{lo:.6g}, {hi:.6g}] +- {tol} ({k}/{n} failures)")
    return len(pairs), problems


def check_reference(workload: str, rows: dict) -> list[str]:
    with open(REFERENCE_FILE, encoding="utf-8") as handle:
        reference = json.load(handle)[workload]
    problems = []
    for name, expected in reference.items():
        got = [row["outage_analytic"] for row in rows.get(name, ())]
        if len(got) != len(expected):
            problems.append(f"{name}: {len(got)} values, "
                            f"reference has {len(expected)}")
            continue
        for i, (g, e) in enumerate(zip(got, expected)):
            if not abs(g - e) <= REFERENCE_TOL:
                problems.append(f"{name} row {i}: {g!r} vs reference {e!r}")
    return problems


def check_digests(passes: list[dict], what: str) -> list[str]:
    """Every pass must have written byte-identical CSVs."""

    first = passes[0]
    return [f"{what}: pass {i} CSV digests differ from pass 0"
            for i, digests in enumerate(passes[1:], 1) if digests != first]
