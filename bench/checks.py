"""Output checks.  Each returns a list of problems; an empty list is a pass.

The checks test invariants of the outputs, never frozen digests of the
floats, so a change that only rounds a certified proxy outward still passes.
"""

from __future__ import annotations

import csv
import filecmp
import math
from pathlib import Path

from seqbound.bounds import TailBound
from seqbound.coupling import MARGINAL_SIGMAS, RECURSION_SIGMAS
from seqbound.sampling import check_tail_domination
from seqbound.window import CALIBRATION_TOLERANCE

# Baselines whose literature constants are not reproduced; the exact row
# need not lie below them.
COMPARISON_ONLY = frozenset({"kontorovich", "samson"})

EXPECTED_BOUNDS = {
    "markov": {"exact", "spectral", "uniform_decay", "scalar_collapse", "markov", "kontorovich", "samson"},
    "window": {"exact", "spectral", "uniform_decay", "scalar_collapse", "sparse_terminal"},
}

# An influence entry is an exact total-variation distance; the CSV keeps
# 12 significant digits.
INFLUENCE_TOLERANCE = 1e-10

# verify tests each Monte Carlo coordinate at RECURSION_SIGMAS or
# MARGINAL_SIGMAS standard errors with no correction for the dozens of
# coordinates per scenario, so on a correct program about 2.5% of verify
# scenarios fail a Monte Carlo row by chance.  Such a row is a false alarm,
# not a wrong output, as long as its deviation stays below ALARM_SIGMAS
# standard errors (probability about 6e-7 per row).
ALARM_SIGMAS = 5.0
# Monte Carlo rows of verification.csv: the standard error behind each row's
# allowance is its bound divided by this number of sigmas.
MC_ROW_SIGMAS = {
    "discrepancy_mc_exact": RECURSION_SIGMAS,
    "coupling_marginal_y": MARGINAL_SIGMAS,
    "coupling_marginal_z": MARGINAL_SIGMAS,
    "coupling_disagreement": MARGINAL_SIGMAS,
}


def _rows(path) -> list[dict]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def _number(text: str) -> float | None:
    return float(text) if text != "" else None


def dobrushin(rows) -> float:
    return max(
        0.5 * sum(abs(a - b) for a, b in zip(rows[x], rows[y]))
        for x in range(len(rows))
        for y in range(x + 1, len(rows))
    )


def check_markov_influence(path, doc: dict) -> list[str]:
    """influence.csv holds exactly the N-1 superdiagonal entries, each equal
    to the Dobrushin coefficient of the transition matrix."""
    scenario = doc["scenario"]
    n = scenario["horizon"]
    alpha = dobrushin(scenario["markov"]["transition"])
    rows = _rows(path)
    problems = []
    if len(rows) != n - 1:
        problems.append(f"influence.csv has {len(rows)} entries, expected {n - 1}")
    for row in rows:
        i, j, value = int(row["i"]), int(row["j"]), float(row["value"])
        if j != i + 1 or abs(value - alpha) > INFLUENCE_TOLERANCE:
            problems.append(f"influence entry ({i},{j}) = {value!r}, expected {alpha!r} on the superdiagonal")
            break
    return problems


def bound_proxies(path) -> dict[str, float | None]:
    """Proxy of each bound row in bounds.csv (None when not applicable)."""
    return {row["bound"]: _number(row["proxy"]) for row in _rows(path)}


def _alpha_problem(achieved: float, doc: dict, where: str) -> list[str]:
    target = doc["scenario"]["window"]["target_alpha"]
    tolerance = doc["scenario"]["window"].get("tolerance", CALIBRATION_TOLERANCE)
    if abs(achieved - target) > tolerance:
        return [f"{where}: achieved alpha {achieved!r} misses target {target} by more than {tolerance}"]
    return []


def _sparse_alpha(proxy: float) -> float:
    """Alpha behind a sparse_terminal proxy c_N^2 / (1 - alpha)^2, with c_N = 1."""
    return 1.0 - 1.0 / math.sqrt(proxy)


def check_bounds(path, doc: dict, grid_points: int) -> list[str]:
    """Every expected row is present, applicable rows span the t grid, and the
    exact proxy is at most every certified applicable proxy."""
    family = doc["scenario"]["family"]
    rows = _rows(path)
    counts: dict[str, int] = {}
    for row in rows:
        counts[row["bound"]] = counts.get(row["bound"], 0) + 1
    proxies = bound_proxies(path)
    problems = []
    missing = EXPECTED_BOUNDS[family] - set(counts)
    if missing:
        problems.append(f"bounds.csv lacks rows {sorted(missing)}")
    for name, proxy in proxies.items():
        expected = grid_points if proxy is not None else 1
        if counts[name] != expected:
            problems.append(f"bounds.csv has {counts[name]} rows for {name}, expected {expected}")
    exact = proxies.get("exact")
    if exact is None:
        return problems + ["bounds.csv has no applicable exact row"]
    for name, proxy in proxies.items():
        if proxy is not None and name not in COMPARISON_ONLY and exact > proxy:
            problems.append(f"exact proxy {exact!r} exceeds certified {name} proxy {proxy!r}")
    if family == "window":
        if proxies.get("sparse_terminal") is None:
            problems.append("bounds.csv has no applicable sparse_terminal row")
        else:
            problems += _alpha_problem(_sparse_alpha(proxies["sparse_terminal"]), doc, "bounds.csv")
    return problems


def check_sweep(path, doc: dict) -> list[str]:
    """One row per sweep horizon; exact <= scalar collapse and <= terminal-sparse;
    each horizon's calibration within tolerance."""
    rows = _rows(path)
    horizons = [int(row["N"]) for row in rows]
    problems = []
    if horizons != list(doc["sweep"]["horizons"]):
        problems.append(f"sweep.csv horizons {horizons} != {doc['sweep']['horizons']}")
    for row in rows:
        where = f"sweep N={row['N']}"
        exact = float(row["exact_proxy"])
        scalar = float(row["scalar_collapse_proxy"])
        sparse = _number(row["sparse_terminal_bound"])
        if sparse is None:
            problems.append(f"{where}: no terminal-sparse bound")
            continue
        if exact > scalar or exact > sparse:
            problems.append(f"{where}: exact {exact!r} above scalar {scalar!r} or sparse {sparse!r}")
        problems += _alpha_problem(_sparse_alpha(sparse), doc, where)
    return problems


def check_window_spec(spec, doc: dict) -> list[str]:
    """The built window spec reports an achieved alpha within tolerance."""
    return _alpha_problem(spec.meta["achieved_alpha"], doc, "built window")


def check_tail(estimate, proxies: dict[str, float | None], n_samples: int) -> list[str]:
    """check_tail_domination passes for every applicable bound in bounds.csv."""
    problems = []
    if estimate.n_samples != n_samples:
        problems.append(f"tail used {estimate.n_samples} samples, expected {n_samples}")
    applicable = {name: proxy for name, proxy in proxies.items() if proxy is not None}
    if not applicable:
        problems.append("no applicable bound to check the tail against")
    for name, proxy in sorted(applicable.items()):
        report = check_tail_domination(estimate, TailBound(name=name, proxy=proxy))
        if not report.passed:
            problems.append(f"empirical tail exceeds bound {name} at {len(report.failures())} thresholds")
    return problems


def check_verification(path) -> tuple[list[str], list[str]]:
    """Problems and false alarms among the failed rows of verification.csv.

    A failed row is a false alarm when it is a Monte Carlo row whose
    deviation is at most ALARM_SIGMAS standard errors; every other failed
    row, an exact check above all, is a problem.  A discrepancy_mc_bound
    row takes its standard error from the discrepancy_mc_exact row of the
    same (k, j).
    """
    rows = _rows(path)
    if not rows:
        return ["verification.csv has no rows"], []
    sigma = {}
    for row in rows:
        if row["check"] in MC_ROW_SIGMAS:
            sigma[(row["check"], row["k"], row["j"])] = float(row["bound"]) / MC_ROW_SIGMAS[row["check"]]
    problems, alarms = [], []
    for row in rows:
        if row["pass"] == "1":
            continue
        check, observed, bound = row["check"], float(row["observed"]), float(row["bound"])
        where = f"{check} k={row['k']} j={row['j']}: observed {observed!r}, bound {bound!r}"
        if check == "discrepancy_mc_bound":
            se, excess = sigma.get(("discrepancy_mc_exact", row["k"], row["j"]), 0.0), observed - bound
        elif check in MC_ROW_SIGMAS:
            se, excess = sigma[(check, row["k"], row["j"])], observed
        else:
            problems.append(f"failed exact check {where}")
            continue
        if se > 0.0 and excess <= ALARM_SIGMAS * se:
            alarms.append(f"{where} ({excess / se:.2f} standard errors)")
        else:
            problems.append(f"failed Monte Carlo check {where} by more than {ALARM_SIGMAS} standard errors")
    return problems, alarms


def check_same_files(first: Path, again: Path) -> list[str]:
    """Every CSV of one run of an operation is byte-identical to the first run's."""
    names = sorted(p.name for p in first.glob("*.csv"))
    if sorted(p.name for p in again.glob("*.csv")) != names:
        return [f"{again} holds other files than {first}"]
    return [
        f"{again / name} differs from {first / name}"
        for name in names
        if not filecmp.cmp(first / name, again / name, shallow=False)
    ]
