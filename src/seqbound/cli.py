"""Command-line front end.

Subcommands: ``describe`` (scenario summary), ``matrix`` (influence and
resolvent CSVs plus operator norms), ``bounds`` (comparison table and CSV),
``verify`` (oscillation, recursion, coupling-marginal, and tail-domination
suites), and ``sweep`` (proxy-versus-horizon CSV for calibrated window
scenarios).

Settings resolve as flag > environment variable > config file > default;
environment variables mirror the flags with the ``SEQBOUND_`` prefix
(SEQBOUND_CONFIG, SEQBOUND_OUT, SEQBOUND_SEED, SEQBOUND_BUDGET, SEQBOUND_T,
SEQBOUND_N_SAMPLES).

Exit codes: 0 success, 1 verification failure, 2 configuration or argument
error, 3 enumeration budget exceeded, 4 window calibration failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import itertools
import os
import sys
from pathlib import Path

import numpy as np

from .bounds import compare_bounds
from .config import MAX_SEED, RunSettings, ScenarioConfig, load_config
from .coupling import (
    verify_coupling_marginals,
    verify_discrepancy_recursion,
    verify_oscillation_bound,
)
from .errors import CalibrationError, ConfigError, EnumerationBudgetError
from .influence import (
    dobrushin_coefficient,
    influence_enumeration_cost,
    interdependence_matrix,
)
from .process import DEFAULT_ENUMERATION_BUDGET, ProcessSpec, prefix_expectation_table
from .report import format_number, merge_reports, write_csv
from .resolvent import causal_resolvent, operator_norms, spectral_decay
from .sampling import (
    TAIL_HEADER,
    check_tail_domination,
    default_t_grid,
    empirical_tail,
    tail_csv_rows,
    tightness_ratios,
)

ENV_PREFIX = "SEQBOUND_"
BOUNDS_HEADER = ("bound", "proxy", "applicable", "reason", "t", "delta")
MATRIX_HEADER = ("i", "j", "value")
SWEEP_HEADER = ("N", "exact_proxy", "scalar_collapse_proxy", "sparse_terminal_bound")


# ============================================================
# Settings resolution: flag > env > config > default
# ============================================================


def _env(name: str) -> str | None:
    return os.environ.get(ENV_PREFIX + name)


def _parse_grid_text(text: str, where: str) -> tuple[float, ...]:
    values = []
    for piece in text.split(","):
        piece = piece.strip()
        if not piece:
            continue
        try:
            value = float(piece)
        except ValueError:
            raise ConfigError(where, f"expected comma-separated numbers, got {text!r}") from None
        if not np.isfinite(value) or value < 0:
            raise ConfigError(where, f"thresholds must be finite and nonnegative, got {piece}")
        values.append(value)
    if not values:
        raise ConfigError(where, f"expected at least one threshold, got {text!r}")
    return tuple(values)


def _resolve_int(
    flag_value, env_name: str, config_value, minimum: int, maximum: int | None = None
):
    if flag_value is not None:
        return flag_value
    raw = _env(env_name)
    if raw is not None:
        where = f"${ENV_PREFIX}{env_name}"
        try:
            value = int(raw)
        except ValueError:
            raise ConfigError(where, f"expected an integer, got {raw!r}") from None
        if value < minimum:
            raise ConfigError(where, f"must be >= {minimum}, got {value}")
        if maximum is not None and value > maximum:
            raise ConfigError(where, f"must be <= {maximum}, got {value}")
        return value
    return config_value


def _resolve_settings(args, config: ScenarioConfig) -> ScenarioConfig:
    """Overlay flags and environment variables onto the config's run settings."""
    run = config.run
    if args.t is not None:
        t_grid: tuple[float, ...] | None = args.t
    elif _env("T") is not None:
        t_grid = _parse_grid_text(_env("T"), f"${ENV_PREFIX}T")
    else:
        t_grid = run.t_grid
    resolved = RunSettings(
        seed=_resolve_int(args.seed, "SEED", run.seed, 0, MAX_SEED),
        budget=_resolve_int(args.budget, "BUDGET", run.budget, 1),
        n_samples=_resolve_int(args.n_samples, "N_SAMPLES", run.n_samples, 1),
        t_grid=t_grid,
    )
    return dataclasses.replace(config, run=resolved)


def _load(args) -> tuple[ScenarioConfig, Path]:
    path = args.config or _env("CONFIG")
    if path is None:
        raise ConfigError(
            "--config", "a config file is required (pass --config or set SEQBOUND_CONFIG)"
        )
    config = _resolve_settings(args, load_config(path))
    out = Path(args.out or _env("OUT") or ".")
    return config, out


def _write(out: Path, name: str, header, rows) -> Path:
    out.mkdir(parents=True, exist_ok=True)
    path = out / name
    write_csv(path, header, rows)
    return path


# ============================================================
# Commands
# ============================================================


def _signature_lines(spec: ProcessSpec) -> list[str]:
    def one(j: int) -> str:
        coords = spec.signature_coords(j)
        return f"  step {j} reads " + (",".join(map(str, coords)) if coords else "-")

    steps = range(1, spec.horizon + 1)
    if spec.horizon <= 12:
        return [one(j) for j in steps]
    head = [one(j) for j in steps[:6]]
    tail = [one(j) for j in steps[-2:]]
    return head + ["  ..."] + tail


def cmd_describe(args) -> int:
    config, _ = _load(args)
    print(f"scenario: {config.family}")
    print(f"horizon: {config.horizon}")
    print(f"alphabet: {config.alphabet_size}")
    print(f"seed: {config.run.seed}")
    print(f"target: {config.target_name}")
    try:
        spec = config.build()
    except EnumerationBudgetError as exc:
        print(f"warning: scenario could not be built within budget: {exc}")
        return 0
    budget = config.run.budget if config.run.budget is not None else DEFAULT_ENUMERATION_BUDGET
    cost = influence_enumeration_cost(spec)
    print("signatures:")
    for line in _signature_lines(spec):
        print(line)
    if spec.family == "markov":
        print(f"dobrushin alpha: {format_number(dobrushin_coefficient(spec.meta['transition']))}")
    if spec.family == "window":
        print(f"calibrated beta: {format_number(spec.meta['beta'])}")
        print(f"achieved alpha: {format_number(spec.meta['achieved_alpha'])}")
    line = f"influence enumeration: {cost} kernel evaluations (budget {budget})"
    if cost > budget:
        line += "\nwarning: exact influence enumeration exceeds the budget; "
        line += "matrix/bounds/verify will fail until the budget is raised"
    print(line)
    return 0


def _matrix_rows(entries: np.ndarray):
    # One row at a time, so the CSV writer streams an O(N) slice, not all N^2 cells.
    for i, row in enumerate(entries, start=1):
        cols = np.flatnonzero(row)
        yield from zip(itertools.repeat(i), (cols + 1).tolist(), row[cols].tolist())


def cmd_matrix(args) -> int:
    config, out = _load(args)
    spec = config.build()
    infl = interdependence_matrix(spec, budget=config.run.budget)
    gamma = causal_resolvent(infl)
    h_path = _write(out, "influence.csv", MATRIX_HEADER, _matrix_rows(infl.entries))
    g_path = _write(out, "resolvent.csv", MATRIX_HEADER, _matrix_rows(gamma.entries))
    norms = operator_norms(infl.entries)
    print(f"wrote {h_path}")
    print(f"wrote {g_path}")
    print(f"||H||_1 = {format_number(norms.l1)}")
    print(f"||H||_inf = {format_number(norms.linf)}")
    print(f"||H||_2 = {format_number(norms.l2)}")
    print(f"kappa = {format_number(spectral_decay(gamma))}")
    return 0


def _resolved_grid(config: ScenarioConfig, c) -> np.ndarray:
    if config.run.t_grid is not None:
        return np.asarray(config.run.t_grid, dtype=float)
    return default_t_grid(c)


def cmd_bounds(args) -> int:
    config, out = _load(args)
    spec = config.build()
    f = config.target()
    c = config.sensitivity(spec, f)
    report = compare_bounds(spec, f=f, c=c, budget=config.run.budget)
    grid = _resolved_grid(config, c)
    # Print a handful of representative thresholds; the CSV keeps the full grid.
    shown = grid if len(grid) <= 5 else tuple(grid[i] for i in (0, len(grid) // 3, 2 * len(grid) // 3, len(grid) - 1))
    print(report.table(shown))
    path = _write(out, "bounds.csv", BOUNDS_HEADER, report.csv_rows(grid))
    print(f"wrote {path}")
    return 0


def cmd_verify(args) -> int:
    config, out = _load(args)
    spec = config.build()
    f = config.target()
    run = config.run
    # f's table first: its budget check fails before H and Gamma are built,
    # and its last level, f on every trajectory, serves an oracle sensitivity.
    table = prefix_expectation_table(spec, f, run.budget)
    c = config.sensitivity(spec, f, table[-1])
    bound_report = compare_bounds(spec, f=f, c=c, budget=run.budget)
    gamma = bound_report.resolvent
    suites = [
        ("oscillation", verify_oscillation_bound(spec, table, gamma, c)),
        (
            "recursion",
            verify_discrepancy_recursion(
                spec, gamma, n_samples=run.n_samples, seed=run.seed, budget=run.budget
            ),
        ),
        ("coupling-marginals", verify_coupling_marginals(spec)),
    ]
    grid = _resolved_grid(config, c)
    estimate = empirical_tail(
        spec, f, grid, n_samples=run.n_samples, seed=run.seed, budget=run.budget
    )
    applicable = bound_report.applicable()
    suites.append(
        ("tail-domination", merge_reports(check_tail_domination(estimate, b) for b in applicable))
    )

    merged = merge_reports(report for _, report in suites)
    out.mkdir(parents=True, exist_ok=True)
    v_path = out / "verification.csv"
    merged.to_csv(v_path)
    t_path = _write(out, "tails.csv", TAIL_HEADER, tail_csv_rows(estimate, applicable))
    for name, report in suites:
        status = "pass" if report.passed else f"FAIL ({len(report.failures())} rows)"
        print(
            f"suite {name}: {len(report.rows)} checks, {status}, "
            f"worst slack {format_number(report.worst_slack)}"
        )
    # Ratio of bound to empirical frequency, minimized over positive
    # thresholds (at t = 0 both sides are 1 and the ratio is uninformative).
    positive = np.asarray(estimate.t_grid) > 0.0
    for bound in applicable:
        ratios = tightness_ratios(estimate, bound)[positive]
        tightest = float(np.min(ratios)) if ratios.size else float("inf")
        print(f"tightness {bound.name}: {format_number(tightest)}")
    print(f"wrote {v_path}")
    print(f"wrote {t_path}")
    if not merged.passed:
        print("failing checks:")
        for row in merged.failures():
            coords = " ".join(
                f"{label}={value}" for label, value in (("k", row.k), ("j", row.j)) if value is not None
            )
            print(
                f"  {row.check} {coords}: observed {format_number(row.observed)} "
                f"> bound {format_number(row.bound)}"
            )
        return 1
    return 0


def cmd_sweep(args) -> int:
    config, out = _load(args)
    if config.sweep is None:
        raise ConfigError("sweep", "missing required section for the sweep command")
    if config.family != "window":
        raise ConfigError(
            "scenario.family", f"sweep requires the window family, got {config.family}"
        )
    rows = []
    for horizon in config.sweep.horizons:
        spec = config.build(horizon=horizon)
        f = config.target(horizon)
        c = config.sensitivity(spec, f)
        report = compare_bounds(spec, f=f, c=c, budget=config.run.budget)
        exact = report["exact"].proxy
        scalar = report["scalar_collapse"].proxy
        # Only terminal-sparse sensitivities get a sparse_terminal row.
        sparse = next((b.proxy for b in report.bounds if b.name == "sparse_terminal"), None)
        rows.append((horizon, exact, scalar, sparse))
        print(
            f"N={horizon}: exact {format_number(exact)}, scalar collapse "
            f"{format_number(scalar)}, terminal-sparse {format_number(sparse)}"
        )
    path = _write(out, "sweep.csv", SWEEP_HEADER, rows)
    print(f"wrote {path}")
    return 0


# ============================================================
# Parser
# ============================================================


def _int_at_least(minimum: int, maximum: int | None = None):
    def convert(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from None
        if value < minimum:
            raise argparse.ArgumentTypeError(f"must be >= {minimum}, got {value}")
        if maximum is not None and value > maximum:
            raise argparse.ArgumentTypeError(f"must be <= {maximum}, got {value}")
        return value

    return convert


def _grid_flag(text: str) -> tuple[float, ...]:
    try:
        return _parse_grid_text(text, "--t")
    except ConfigError as exc:
        raise argparse.ArgumentTypeError(exc.message) from None


def build_parser() -> argparse.ArgumentParser:
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("--config", metavar="PATH", help="scenario config file (YAML)")
    shared.add_argument("--out", metavar="DIR", help="directory for CSV outputs (default .)")
    shared.add_argument("--seed", type=_int_at_least(0, MAX_SEED), help="RNG seed")
    shared.add_argument(
        "--budget", type=_int_at_least(1), help="max kernel/function evaluations for exact work"
    )
    shared.add_argument(
        "--t", type=_grid_flag, metavar="T1,T2,...", help="comma-separated tail thresholds"
    )
    shared.add_argument(
        "--n-samples", dest="n_samples", type=_int_at_least(1), help="Monte Carlo sample count"
    )

    parser = argparse.ArgumentParser(
        prog="seqbound",
        description="Concentration bounds for finite-alphabet dependent sequences.",
    )
    commands = parser.add_subparsers(dest="command", required=True)
    for name, handler, text in (
        ("describe", cmd_describe, "print a scenario summary and feasibility estimate"),
        ("matrix", cmd_matrix, "write influence/resolvent CSVs and print operator norms"),
        ("bounds", cmd_bounds, "compare all bounds, print a table, write bounds.csv"),
        ("verify", cmd_verify, "run verification suites; exit 1 on any failed check"),
        ("sweep", cmd_sweep, "write proxy-versus-horizon CSV for a window scenario"),
    ):
        sub = commands.add_parser(name, parents=[shared], help=text)
        sub.set_defaults(handler=handler)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except EnumerationBudgetError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except CalibrationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
