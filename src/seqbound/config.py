"""Scenario configuration: YAML schema, strict validation, and builders.

A config document has up to five top-level sections::

    scenario:      family, horizon, alphabet, one family parameter block
    target:        builtin target function name plus its parameters
    sensitivity:   how to obtain the per-coordinate sensitivity vector
    run:           seed, budget, n_samples, t_grid
    sweep:         horizon list for proxy-versus-N sweeps

Unknown keys anywhere are hard errors carrying the dotted path of the
offending key.  Every value is checked by the rule of its kind: a number is
a YAML int or float, finite and never a boolean, within the key's range; a
numeric array has its shape checked and then every entry as a number; a
choice is a string from a fixed set.  The CLI's flags and environment
variables for the run settings go through the same checkers
(``RUN_SETTINGS``).  The full schema is documented in docs/config_schema.md.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from typing import Callable

import numpy as np
import yaml

from .errors import ConfigError
from .influence import dobrushin_coefficient
from .process import (
    ProcessSpec,
    build_causal_tree,
    build_from_tables,
    build_independent,
    build_markov,
    leading_steps,
)
from .report import format_number
from .sampling import MIN_TAIL_SAMPLES
from .targets import (
    TargetFunction,
    as_sensitivity,
    bounded_differences,
    constant,
    count_symbol,
    lipschitz_vector_oracle,
    parity,
    sum_symbols,
    table_target,
    terminal_indicator,
    terminal_symbol,
)
from .window import build_calibrated_window, check_calibration

DEFAULT_SEED = 20260816
DEFAULT_N_SAMPLES = 100_000
MAX_SEED = 2**64 - 1

# Builds the scenario's process at horizon n under an enumeration budget.  Given
# a build at a larger horizon from which the family is prefix-closed at n, it
# reads n off that build's leading steps instead.
Builder = Callable[[int, "int | None", "ProcessSpec | None"], ProcessSpec]


# ============================================================
# Validation plumbing
# ============================================================
#
# Each checker below takes a value and its dotted path and checks one kind of
# value: a number, a numeric array, or a named choice.


def _join(path: str, key: str) -> str:
    return f"{path}.{key}" if path else key


def _as_mapping(node, path: str) -> dict:
    if node is None:
        return {}
    if not isinstance(node, dict):
        raise ConfigError(path, f"expected a mapping, got {type(node).__name__}")
    for key in node:
        if not isinstance(key, str):
            raise ConfigError(path, f"mapping keys must be strings, got {key!r}")
    return node


def _check_keys(mapping: dict, allowed: set[str], path: str) -> None:
    for key in sorted(set(mapping) - allowed):
        raise ConfigError(
            _join(path, key), f"unknown key (allowed: {', '.join(sorted(allowed))})"
        )


def _require(mapping: dict, key: str, path: str):
    if key not in mapping or mapping[key] is None:
        raise ConfigError(_join(path, key), "missing required key")
    return mapping[key]


def _get(mapping: dict, key: str, path: str, check: Callable, *args, **limits):
    """The required ``mapping[key]`` through ``check`` under its dotted path."""
    return check(_require(mapping, key, path), _join(path, key), *args, **limits)


def _number(value, path: str, *, integer=False, minimum=None, maximum=None, below=None):
    """A YAML int, or unless ``integer`` a finite float, within the limits.

    A boolean is neither.  A float-kind value comes back as a Python float.
    """
    if isinstance(value, bool) or not isinstance(value, int if integer else (int, float)):
        kind = "an integer" if integer else "a number"
        raise ConfigError(path, f"expected {kind}, got {value!r}")
    if not integer:
        # False for NaN, the infinities and ints beyond the float range.
        if not -sys.float_info.max <= value <= sys.float_info.max:
            raise ConfigError(path, "must be finite")
        value = float(value)
    if minimum is not None and value < minimum:
        raise ConfigError(path, f"must be >= {minimum}, got {value}")
    if maximum is not None and value > maximum:
        raise ConfigError(path, f"must be <= {maximum}, got {value}")
    if below is not None and value >= below:
        raise ConfigError(path, f"must be < {below}, got {value}")
    return value


def _array(value, path: str, ndim: int | tuple[int, ...], **limits) -> np.ndarray:
    """A nonempty float array with ``ndim`` dimensions (or one of several).

    The shape is read off the value as a float array; then every entry must
    pass ``_number`` with ``limits``, and an error names the entry's index.
    """
    try:
        arr = np.array(value, dtype=float)
    except (TypeError, ValueError, OverflowError):
        raise ConfigError(path, "expected a numeric array") from None
    dims = (ndim,) if isinstance(ndim, int) else ndim
    if arr.ndim not in dims:
        shape = "- or ".join(map(str, dims))
        raise ConfigError(path, f"expected a {shape}-dimensional array, got shape {arr.shape}")
    if arr.size == 0:
        raise ConfigError(path, "must be nonempty")
    for i, entry in enumerate(np.array(value, dtype=object).flat):
        try:
            _number(entry, path, **limits)
        except ConfigError as exc:
            where = "".join(f"[{j}]" for j in np.unravel_index(i, arr.shape))
            raise ConfigError(path, f"entry {where}: {exc.message}") from None
    return arr


def _shaped(arr: np.ndarray, path: str, shape: tuple[int, ...]) -> np.ndarray:
    """``arr`` if it has ``shape``."""
    if arr.shape != shape:
        raise ConfigError(path, f"must have shape {shape}, got {arr.shape}")
    return arr


def _choice(value, path: str, choices) -> str:
    """A string from ``choices``."""
    if not isinstance(value, str) or value not in choices:
        raise ConfigError(path, f"expected one of {', '.join(choices)}, got {value!r}")
    return value


# The checker of each run setting, for the `run` section and for the CLI's
# flags and environment variables; t_grid's limit holds for each threshold.
RUN_SETTINGS: dict[str, Callable] = {
    "seed": lambda value, path: _number(value, path, integer=True, minimum=0, maximum=MAX_SEED),
    "budget": lambda value, path: _number(value, path, integer=True, minimum=1),
    "n_samples": lambda value, path: _number(value, path, integer=True, minimum=MIN_TAIL_SAMPLES),
    "t_grid": lambda value, path: tuple(_array(value, path, 1, minimum=0.0).tolist()),
}


# ============================================================
# Scenario families
# ============================================================
#
# One record per family.  Its parser validates the `scenario.<family>` block
# against the declared horizon and alphabet and returns the family's builder
# and the smallest horizon from which the family is prefix-closed (None when
# the horizon is pinned): its spec at any such n is the first n steps of its
# spec at a larger horizon.  Builders look the process builders up by name
# when they run.


@dataclass(frozen=True, eq=False)
class Family:
    """Block keys, block parser, and the lines ``describe`` prints for a build."""

    keys: set[str]
    parse: Callable[[dict, str, int, int], tuple[Builder, int | None]]
    describe: Callable[[ProcessSpec], list[str]] = lambda spec: []


def _parse_independent(params: dict, path: str, horizon: int, alphabet: int):
    marginals = _get(params, "marginals", path, _array, (1, 2))
    expected = (alphabet,) if marginals.ndim == 1 else (horizon, alphabet)
    _shaped(marginals, _join(path, "marginals"), expected)
    # A matrix has one row per step; one shared marginal extends to any horizon.
    if marginals.ndim == 2:
        return (lambda n, budget, within: build_independent(marginals)), None

    def build(n, budget, within):
        return build_independent(marginals, n) if within is None else leading_steps(within, n)

    return build, 1


def _parse_markov(params: dict, path: str, horizon: int, alphabet: int):
    transition = _get(params, "transition", path, _array, 2)
    if transition.shape != (alphabet, alphabet):
        raise ConfigError(
            _join(path, "transition"),
            f"must be {alphabet}x{alphabet} for the declared alphabet, "
            f"got {transition.shape}",
        )
    init = _get(params, "init", path, _array, 1)
    if init.shape != (alphabet,):
        raise ConfigError(
            _join(path, "init"), f"must have length {alphabet}, got {init.shape[0]}"
        )

    def build(n, budget, within):
        return build_markov(transition, init, n) if within is None else leading_steps(within, n)

    return build, 1


def _describe_markov(spec: ProcessSpec) -> list[str]:
    return [f"dobrushin alpha: {format_number(dobrushin_coefficient(spec.meta['transition']))}"]


def _per_node(value, path: str, shape: tuple[int, ...], used: list[bool]):
    """One array of ``shape`` shared by every node, or a list with one entry
    per node: an array of ``shape`` where ``used`` says the node reads one,
    null elsewhere.  The split is ``build_causal_tree``'s rule; that builder
    checks the arrays as kernels."""
    try:
        shared = None not in value and np.array(value, dtype=float).ndim == len(shape)
    except (TypeError, ValueError, OverflowError):
        shared = False
    if shared or not isinstance(value, list) or len(value) != len(used):
        return _shaped(_array(value, path, len(shape)), path, shape)
    entries = []
    for j, (entry, needed) in enumerate(zip(value, used)):
        where = f"{path}[{j}]"
        if entry is not None:
            entry = _array(entry, where, len(shape))
            if not needed:
                raise ConfigError(where, f"must be null: node {j + 1} does not read it")
            _shaped(entry, where, shape)
        elif needed:
            raise ConfigError(where, f"missing: node {j + 1} reads it")
        entries.append(entry)
    return entries


def _parse_tree(params: dict, path: str, horizon: int, alphabet: int):
    parent = _get(params, "parent", path, _array, 1, integer=True)
    if len(parent) != horizon:
        raise ConfigError(
            _join(path, "parent"),
            f"must list one parent per step: got {len(parent)} for horizon {horizon}",
        )
    for j, p in enumerate(parent):
        if not 0 <= p <= j:
            raise ConfigError(
                _join(path, "parent"),
                f"entry [{j}]: must be 0 (root) or an earlier node (at most {j}), got {int(p)}",
            )
    roots = [p == 0 for p in parent]
    edge = _get(
        params, "edge_transition", path, _per_node, (alphabet, alphabet), [not r for r in roots]
    )
    root = _get(params, "root_marginal", path, _per_node, (alphabet,), roots)
    return (lambda n, budget, within: build_causal_tree(parent, edge, root)), None


def _parse_window(params: dict, path: str, horizon: int, alphabet: int):
    width = _get(params, "width", path, _number, integer=True, minimum=1)
    target_alpha = _get(params, "target_alpha", path, _number, minimum=0.0, below=1.0)

    # Below width + 1, beta is solved over min(width, n - 1) distances, so it
    # depends on n; the calibration check runs at every horizon either way.
    def build(n, budget, within):
        if within is None:
            return build_calibrated_window(n, alphabet, width, target_alpha, budget)
        return check_calibration(leading_steps(within, n), budget)

    return build, width + 1


def _describe_window(spec: ProcessSpec) -> list[str]:
    return [
        f"calibrated beta: {format_number(spec.meta['beta'])}",
        f"achieved alpha: {format_number(spec.meta['achieved_alpha'])}",
    ]


def _parse_table(params: dict, path: str, horizon: int, alphabet: int):
    kernels = _require(params, "kernels", path)
    path = _join(path, "kernels")
    if not isinstance(kernels, list):
        raise ConfigError(path, "expected a list of per-step tables")
    if len(kernels) != horizon:
        raise ConfigError(
            path, f"must list one table per step: got {len(kernels)} for horizon {horizon}"
        )
    tables = []
    for j, table in enumerate(kernels):
        where = f"{path}[{j}]"
        arr = _array(table, where, (1, 2))
        # Step j + 1 has one row per history; step 1 may give its one row bare.
        shape = (alphabet,) if arr.ndim == 1 and j == 0 else (alphabet**j, alphabet)
        tables.append(_shaped(arr, where, shape))
    return (lambda n, budget, within: build_from_tables(tables)), None


_FAMILIES: dict[str, Family] = {
    "independent": Family({"marginals"}, _parse_independent),
    "markov": Family({"transition", "init"}, _parse_markov, _describe_markov),
    "tree": Family({"parent", "edge_transition", "root_marginal"}, _parse_tree),
    "window": Family({"width", "target_alpha"}, _parse_window, _describe_window),
    "table": Family({"kernels"}, _parse_table),
}

# Each builtin target's parameter keys (all required) and its constructor
# (n, alphabet, params) -> TargetFunction.
_TARGETS: dict[str, tuple[set[str], Callable]] = {
    "sum_symbols": (set(), lambda n, s, p: sum_symbols(n, s)),
    "count_symbol": ({"symbol"}, lambda n, s, p: count_symbol(n, s, p["symbol"])),
    "terminal_symbol": (set(), lambda n, s, p: terminal_symbol(n, s)),
    "terminal_indicator": ({"symbol"}, lambda n, s, p: terminal_indicator(n, s, p["symbol"])),
    "parity": (set(), lambda n, s, p: parity(n)),
    "constant": ({"value"}, lambda n, s, p: constant(n, p["value"])),
    "table": ({"values"}, lambda n, s, p: table_target(p["values"], n, s)),
}


# ============================================================
# Parsed configuration
# ============================================================


@dataclass(frozen=True, eq=False)
class RunSettings:
    """Execution knobs shared by every command."""

    seed: int = DEFAULT_SEED
    budget: int | None = None
    n_samples: int = DEFAULT_N_SAMPLES
    t_grid: tuple[float, ...] | None = None


@dataclass(frozen=True, eq=False)
class ScenarioConfig:
    """A fully validated scenario: process family, target, and run settings."""

    family: str
    horizon: int
    alphabet_size: int
    builder: Builder
    prefix_from: int | None  # smallest prefix-closed horizon; None when pinned
    target_name: str
    target_builder: Callable[[int], TargetFunction]
    sensitivity_mode: str  # "target" | "oracle" | "declared"
    declared_sensitivity: tuple[float, ...] | None
    run: RunSettings
    sweep: tuple[int, ...] | None  # strictly increasing horizons of a proxy-versus-N sweep

    def build(self, horizon: int | None = None, within: ProcessSpec | None = None) -> ProcessSpec:
        """Construct the process, optionally at a different horizon (sweeps).

        Given ``within``, a build at a larger horizon, the result is its
        leading steps; ``horizon`` must then be at least ``prefix_from``.
        """
        n = self.horizon if horizon is None else int(horizon)
        if self.prefix_from is None and n != self.horizon:
            raise ValueError(
                f"{self.family} scenario is pinned to horizon {self.horizon}, asked for {n}"
            )
        return self.builder(n, self.run.budget, within)

    def describe(self, spec: ProcessSpec) -> list[str]:
        """The family's summary lines for ``spec``, one of its builds."""
        return _FAMILIES[self.family].describe(spec)

    def target(self, horizon: int | None = None) -> TargetFunction:
        return self.target_builder(self.horizon if horizon is None else int(horizon))

    def sensitivity(
        self, spec: ProcessSpec, f: TargetFunction, values: np.ndarray | None = None
    ) -> np.ndarray:
        """Resolve the sensitivity vector per the configured mode.

        Where the mode needs the exhaustive oracle, ``values``, f on every
        trajectory in rank order (the last level of f's
        ``prefix_expectation_table``), stands in for another pass over f.
        """
        if self.sensitivity_mode == "declared":
            return as_sensitivity(self.declared_sensitivity, spec.horizon)
        if self.sensitivity_mode != "oracle" and f.sensitivity is not None:
            return as_sensitivity(f.sensitivity, spec.horizon)
        if values is not None:
            return bounded_differences(np.reshape(values, (spec.alphabet.size,) * spec.horizon))
        return lipschitz_vector_oracle(f, spec.alphabet, spec.horizon, self.run.budget)


# ============================================================
# Parsing
# ============================================================


def _parse_scenario(node) -> tuple[str, int, int, Builder, int | None]:
    scenario = _as_mapping(node, "scenario")
    family = _get(scenario, "family", "scenario", _choice, _FAMILIES)
    _check_keys(scenario, {"family", "horizon", "alphabet", family}, "scenario")
    horizon = _get(scenario, "horizon", "scenario", _number, integer=True, minimum=1)
    alphabet = _get(scenario, "alphabet", "scenario", _number, integer=True, minimum=1)
    path = _join("scenario", family)
    params = _get(scenario, family, "scenario", _as_mapping)
    _check_keys(params, _FAMILIES[family].keys, path)
    builder, prefix_from = _FAMILIES[family].parse(params, path, horizon, alphabet)
    return family, horizon, alphabet, builder, prefix_from


def _parse_target(node, horizon: int, alphabet: int) -> tuple[str, Callable, bool]:
    target = _as_mapping(node, "target")
    name = _get(target, "name", "target", _choice, sorted(_TARGETS))
    allowed, make = _TARGETS[name]
    _check_keys(target, {"name"} | allowed, "target")
    params: dict = {}
    if "symbol" in allowed:
        params["symbol"] = _get(
            target, "symbol", "target", _number, integer=True, minimum=0, maximum=alphabet - 1
        )
    if "value" in allowed:
        params["value"] = _get(target, "value", "target", _number)
    # A value table lists f by trajectory rank, so it fixes the horizon.
    if "values" in allowed:
        values = _get(target, "values", "target", _array, 1)
        params["values"] = _shaped(values, "target.values", (alphabet**horizon,))
    return name, lambda n: make(n, alphabet, params), "values" not in allowed


def _parse_sensitivity(node, horizon: int) -> tuple[str, tuple[float, ...] | None]:
    if node is None:
        return "target", None
    section = _as_mapping(node, "sensitivity")
    _check_keys(section, {"mode", "declared"}, "sensitivity")
    if "mode" in section and "declared" in section:
        raise ConfigError("sensitivity", "give either mode or declared, not both")
    if "declared" in section:
        declared = _get(section, "declared", "sensitivity", _array, 1, minimum=0.0)
        if declared.shape[0] != horizon:
            raise ConfigError(
                "sensitivity.declared",
                f"must have one entry per step: got {declared.shape[0]} for horizon {horizon}",
            )
        return "declared", tuple(declared.tolist())
    return _choice(section.get("mode", "target"), "sensitivity.mode", ("target", "oracle")), None


def _parse_run(node) -> RunSettings:
    run = _as_mapping(node, "run")
    _check_keys(run, set(RUN_SETTINGS), "run")
    return RunSettings(
        **{
            name: check(run[name], _join("run", name))
            for name, check in RUN_SETTINGS.items()
            if run.get(name) is not None
        }
    )


def _parse_sweep(node) -> tuple[int, ...] | None:
    if node is None:
        return None
    sweep = _as_mapping(node, "sweep")
    _check_keys(sweep, {"horizons"}, "sweep")
    horizons = _get(sweep, "horizons", "sweep", _array, 1, integer=True, minimum=1)
    horizons = tuple(int(n) for n in horizons)
    if any(b <= a for a, b in zip(horizons, horizons[1:])):
        raise ConfigError("sweep.horizons", "must be strictly increasing")
    return horizons


def parse_config(data) -> ScenarioConfig:
    """Validate a loaded YAML document into a ScenarioConfig."""
    doc = _as_mapping(data, "")
    _check_keys(doc, {"scenario", "target", "sensitivity", "run", "sweep"}, "")
    if "scenario" not in doc:
        raise ConfigError("scenario", "missing required section")
    if "target" not in doc:
        raise ConfigError("target", "missing required section")
    family, horizon, alphabet, builder, prefix_from = _parse_scenario(doc["scenario"])
    target_name, target_builder, target_free = _parse_target(doc["target"], horizon, alphabet)
    mode, declared = _parse_sensitivity(doc.get("sensitivity"), horizon)
    run = _parse_run(doc.get("run"))
    sweep = _parse_sweep(doc.get("sweep"))
    if sweep is not None and mode == "declared":
        raise ConfigError(
            "sensitivity.declared", "a fixed declared vector cannot follow a horizon sweep"
        )
    if sweep is not None and not target_free:
        raise ConfigError(
            "target.name", f"a fixed {target_name} target cannot follow a horizon sweep"
        )
    return ScenarioConfig(
        family=family,
        horizon=horizon,
        alphabet_size=alphabet,
        builder=builder,
        prefix_from=prefix_from,
        target_name=target_name,
        target_builder=target_builder,
        sensitivity_mode=mode,
        declared_sensitivity=declared,
        run=run,
        sweep=sweep,
    )


def load_config(path) -> ScenarioConfig:
    """Read and validate a YAML config file.

    The text is parsed with ``yaml.CSafeLoader`` (libyaml) when PyYAML was
    built with it, and with ``yaml.SafeLoader`` otherwise.  Both share the
    safe constructor and resolver, so they yield the same documents; only
    the wording of a parse error differs.
    """
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        raise ConfigError("", f"cannot read config file {path}: {exc}") from None
    try:
        data = yaml.load(text, Loader=getattr(yaml, "CSafeLoader", yaml.SafeLoader))
    except yaml.YAMLError as exc:
        raise ConfigError("", f"invalid YAML: {exc}") from None
    return parse_config(data)
