"""Command-line front end.

Subcommands: ``describe`` (scenario summary), ``matrix`` (influence and
resolvent CSVs plus operator norms), ``bounds`` (comparison table and CSV),
``verify`` (oscillation, recursion, coupling-marginal, and tail-domination
suites), and ``sweep`` (proxy-versus-horizon CSV for the families whose
horizon is free: markov, window, and independent with one shared marginal;
the scenario is built once, at the largest horizon, and each smaller
horizon from which the family is prefix-closed reads its leading steps).

Settings resolve as flag > environment variable > config file > default;
environment variables mirror the flags with the ``SEQBOUND_`` prefix
(SEQBOUND_CONFIG, SEQBOUND_OUT, SEQBOUND_SEED, SEQBOUND_BUDGET, SEQBOUND_T,
SEQBOUND_N_SAMPLES).  A run setting from any source is checked by the rule
of its config key (``config.RUN_SETTINGS``).

Exit codes: 0 success, 1 verification failure, 2 configuration or argument
error, 3 enumeration budget exceeded, 4 window calibration failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys
from pathlib import Path

import numpy as np

from .bounds import compare_bounds
from .config import RUN_SETTINGS, ScenarioConfig, load_config
from .coupling import (
    verify_coupling_marginals,
    verify_discrepancy_recursion,
    verify_oscillation_bound,
)
from .errors import CalibrationError, ConfigError, EnumerationBudgetError, ResolventOverflowError
from .influence import (
    dobrushin_coefficient,
    influence_enumeration_cost,
    interdependence_matrix,
)
from .process import DEFAULT_ENUMERATION_BUDGET, ProcessSpec, prefix_expectation_table
from .report import format_number, merge_reports, write_csv, write_matrix_csv
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
# The environment variable of each run setting, after the prefix.
ENV_NAMES = {"seed": "SEED", "budget": "BUDGET", "t_grid": "T", "n_samples": "N_SAMPLES"}
BOUNDS_HEADER = ("bound", "proxy", "applicable", "reason", "t", "delta")
SWEEP_HEADER = ("N", "exact_proxy", "scalar_collapse_proxy", "sparse_terminal_bound")


# ============================================================
# Settings resolution: flag > env > config > default
# ============================================================


def _env(name: str) -> str | None:
    return os.environ.get(ENV_PREFIX + name)


def _read_setting(name: str, text: str, where: str):
    """Run setting ``name`` read from a flag or environment variable and
    checked by the rule of its config key.  Integers are read with int(),
    thresholds with float(); text that is not a number reaches the checker
    as text, which rejects it."""

    def read(piece: str, kind):
        try:
            return kind(piece)
        except ValueError:
            return piece

    if name == "t_grid":
        value = [read(piece, float) for piece in text.split(",") if piece.strip()]
    else:
        value = read(text, int)
    return RUN_SETTINGS[name](value, where)


def _resolve_settings(args, config: ScenarioConfig) -> ScenarioConfig:
    """Overlay flags and environment variables onto the config's run settings."""
    overlay = {}
    for name, env_name in ENV_NAMES.items():
        if getattr(args, name) is not None:
            overlay[name] = getattr(args, name)
        elif _env(env_name) is not None:
            overlay[name] = _read_setting(name, _env(env_name), f"${ENV_PREFIX}{env_name}")
    return dataclasses.replace(config, run=dataclasses.replace(config.run, **overlay))


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


def cmd_matrix(args) -> int:
    config, out = _load(args)
    spec = config.build()
    infl = interdependence_matrix(spec, budget=config.run.budget)
    gamma = causal_resolvent(infl)
    out.mkdir(parents=True, exist_ok=True)
    h_path, g_path = out / "influence.csv", out / "resolvent.csv"
    write_matrix_csv(h_path, infl)
    write_matrix_csv(g_path, gamma)
    norms = operator_norms(infl)
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
    if gamma is None:
        raise ResolventOverflowError("resolvent Gamma overflows double precision; verify needs it")
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
    # Ratio of bound to empirical frequency, minimized over the thresholds
    # where the bound is below 1: where it is clipped at 1 the ratio reads
    # the empirical tail alone, the same for every bound.
    for bound in applicable:
        below_one = np.array([bound.delta_at(float(t)) < 1.0 for t in estimate.t_grid])
        ratios = tightness_ratios(estimate, bound)[below_one]
        tightest = format_number(float(np.min(ratios))) if ratios.size else "-"
        print(f"tightness {bound.name}: {tightest}")
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
    """Exact, scalar-collapse and terminal-sparse proxies at each horizon.

    The largest horizon is built and bounded first, and every row before any
    is printed, so a failure prints no row.  Each smaller horizon from
    ``config.prefix_from`` on is that build's leading steps.
    """
    config, out = _load(args)
    if config.sweep is None:
        raise ConfigError("sweep", "missing required section for the sweep command")
    if config.prefix_from is None:
        raise ConfigError(
            "scenario.family",
            f"sweep needs a free horizon; {config.family} is pinned to horizon {config.horizon}",
        )
    horizons = config.sweep
    largest = config.build(horizon=horizons[-1])
    rows = []
    for horizon in reversed(horizons):
        if horizon == largest.horizon:
            spec = largest
        else:
            within = largest if horizon >= config.prefix_from else None
            spec = config.build(horizon=horizon, within=within)
        f = config.target(horizon)
        c = config.sensitivity(spec, f)
        report = compare_bounds(spec, f=f, c=c, budget=config.run.budget)
        # Only terminal-sparse sensitivities get a sparse_terminal row.
        sparse = next((b.proxy for b in report.bounds if b.name == "sparse_terminal"), None)
        rows.append((horizon, report["exact"].proxy, report["scalar_collapse"].proxy, sparse))
    rows.reverse()
    for horizon, exact, scalar, sparse in rows:
        print(
            f"N={horizon}: exact {format_number(exact)}, scalar collapse "
            f"{format_number(scalar)}, terminal-sparse "
            f"{'-' if sparse is None else format_number(sparse)}"
        )
    path = _write(out, "sweep.csv", SWEEP_HEADER, rows)
    print(f"wrote {path}")
    return 0


# ============================================================
# Parser
# ============================================================


def _flag(name: str):
    """argparse type of run setting ``name``'s flag; a bad value raises
    ArgumentTypeError with the checker's message, which argparse prefixes
    with the flag."""

    def convert(text: str):
        try:
            return _read_setting(name, text, name)
        except ConfigError as exc:
            raise argparse.ArgumentTypeError(exc.message) from None

    return convert


def build_parser() -> argparse.ArgumentParser:
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("--config", metavar="PATH", help="scenario config file (YAML)")
    shared.add_argument("--out", metavar="DIR", help="directory for CSV outputs (default .)")
    shared.add_argument("--seed", type=_flag("seed"), help="RNG seed")
    shared.add_argument(
        "--budget", type=_flag("budget"), help="max kernel/function evaluations for exact work"
    )
    shared.add_argument(
        "--t",
        dest="t_grid",
        type=_flag("t_grid"),
        metavar="T1,T2,...",
        help="comma-separated tail thresholds",
    )
    shared.add_argument(
        "--n-samples", dest="n_samples", type=_flag("n_samples"), help="Monte Carlo sample count"
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
        ("sweep", cmd_sweep, "write proxy-versus-horizon CSV for a free-horizon scenario"),
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
