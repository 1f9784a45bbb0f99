"""Scenario configuration: YAML schema, strict validation, and builders.

A config document has up to five top-level sections::

    scenario:      family, horizon, alphabet, one family parameter block
    target:        builtin target function name plus its parameters
    sensitivity:   how to obtain the per-coordinate sensitivity vector
    run:           seed, budget, n_samples, t_grid
    sweep:         horizon list for proxy-versus-N sweeps

Unknown keys anywhere are hard errors carrying the dotted path of the
offending key; every scalar is type- and range-checked.  The full schema is
documented in docs/config_schema.md.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np
import yaml

from .errors import ConfigError
from .process import (
    ProcessSpec,
    build_causal_tree,
    build_from_tables,
    build_independent,
    build_markov,
    leading_steps,
)
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
from .window import CALIBRATION_TOLERANCE, build_calibrated_window, check_calibration

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


def _get_int(
    mapping: dict,
    key: str,
    path: str,
    *,
    required: bool = False,
    default=None,
    minimum=None,
    maximum=None,
):
    if key not in mapping or mapping[key] is None:
        if required:
            raise ConfigError(_join(path, key), "missing required key")
        return default
    value = mapping[key]
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(_join(path, key), f"expected an integer, got {value!r}")
    if minimum is not None and value < minimum:
        raise ConfigError(_join(path, key), f"must be >= {minimum}, got {value}")
    if maximum is not None and value > maximum:
        raise ConfigError(_join(path, key), f"must be <= {maximum}, got {value}")
    return value


def _get_number(
    mapping: dict,
    key: str,
    path: str,
    *,
    required: bool = False,
    default=None,
    minimum=None,
    below=None,
):
    if key not in mapping or mapping[key] is None:
        if required:
            raise ConfigError(_join(path, key), "missing required key")
        return default
    value = mapping[key]
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(_join(path, key), f"expected a number, got {value!r}")
    value = float(value)
    if not np.isfinite(value):
        raise ConfigError(_join(path, key), "must be finite")
    if minimum is not None and value < minimum:
        raise ConfigError(_join(path, key), f"must be >= {minimum}, got {value}")
    if below is not None and value >= below:
        raise ConfigError(_join(path, key), f"must be < {below}, got {value}")
    return value


def _numeric(mapping: dict, key: str, path: str) -> np.ndarray:
    value = _require(mapping, key, path)
    try:
        return np.array(value, dtype=float)
    except (TypeError, ValueError):
        raise ConfigError(_join(path, key), "expected a numeric array") from None


def _get_array(mapping: dict, key: str, path: str, ndim: int) -> np.ndarray:
    arr = _numeric(mapping, key, path)
    if arr.ndim != ndim:
        raise ConfigError(
            _join(path, key), f"expected a {ndim}-dimensional array, got shape {arr.shape}"
        )
    if arr.size == 0 or not np.all(np.isfinite(arr)):
        raise ConfigError(_join(path, key), "entries must be finite and nonempty")
    return arr


# ============================================================
# Scenario families
# ============================================================
#
# One parser per `scenario.<family>` block.  It validates the block against
# the declared horizon and alphabet and returns the family's builder and the
# smallest horizon from which the family is prefix-closed (None when the
# horizon is pinned): its spec at any such n is the first n steps of its spec
# at a larger horizon.  Builders look the process builders up by name when
# they run.


def _parse_independent(params: dict, path: str, horizon: int, alphabet: int):
    marginals = _numeric(params, "marginals", path)
    if marginals.ndim == 1:
        expected: tuple[int, ...] = (alphabet,)
    elif marginals.ndim == 2:
        expected = (horizon, alphabet)
    else:
        raise ConfigError(
            _join(path, "marginals"), f"expected a vector or matrix, got shape {marginals.shape}"
        )
    if marginals.shape != expected or not np.all(np.isfinite(marginals)):
        raise ConfigError(
            _join(path, "marginals"),
            f"must be finite with shape {expected}, got {marginals.shape}",
        )
    # A matrix has one row per step; one shared marginal extends to any horizon.
    if marginals.ndim == 2:
        return (lambda n, budget, within: build_independent(marginals)), None

    def build(n, budget, within):
        return build_independent(marginals, n) if within is None else leading_steps(within, n)

    return build, 1


def _parse_markov(params: dict, path: str, horizon: int, alphabet: int):
    transition = _get_array(params, "transition", path, 2)
    if transition.shape != (alphabet, alphabet):
        raise ConfigError(
            _join(path, "transition"),
            f"must be {alphabet}x{alphabet} for the declared alphabet, "
            f"got {transition.shape}",
        )
    init = _get_array(params, "init", path, 1)
    if init.shape != (alphabet,):
        raise ConfigError(
            _join(path, "init"), f"must have length {alphabet}, got {init.shape[0]}"
        )

    def build(n, budget, within):
        return build_markov(transition, init, n) if within is None else leading_steps(within, n)

    return build, 1


def _parse_tree(params: dict, path: str, horizon: int, alphabet: int):
    parent = _require(params, "parent", path)
    if (
        not isinstance(parent, list)
        or not parent
        or any(isinstance(p, bool) or not isinstance(p, int) for p in parent)
    ):
        raise ConfigError(_join(path, "parent"), "expected a list of integers")
    if len(parent) != horizon:
        raise ConfigError(
            _join(path, "parent"),
            f"must list one parent per step: got {len(parent)} for horizon {horizon}",
        )
    edge = _require(params, "edge_transition", path)
    root = _require(params, "root_marginal", path)
    return (lambda n, budget, within: build_causal_tree(parent, edge, root)), None


def _parse_window(params: dict, path: str, horizon: int, alphabet: int):
    width = _get_int(params, "width", path, required=True, minimum=1)
    target_alpha = _get_number(params, "target_alpha", path, required=True, minimum=0.0, below=1.0)
    tolerance = _get_number(params, "tolerance", path, default=CALIBRATION_TOLERANCE, minimum=0.0)

    # Below width + 1, beta is solved over min(width, n - 1) distances, so it
    # depends on n; the calibration check runs at every horizon either way.
    def build(n, budget, within):
        if within is None:
            return build_calibrated_window(
                n, alphabet, width, target_alpha, tolerance=tolerance, budget=budget
            )
        return check_calibration(leading_steps(within, n), tolerance, budget)

    return build, width + 1


def _parse_table(params: dict, path: str, horizon: int, alphabet: int):
    kernels = _require(params, "kernels", path)
    if not isinstance(kernels, list) or not kernels:
        raise ConfigError(_join(path, "kernels"), "expected a list of per-step tables")
    if len(kernels) != horizon:
        raise ConfigError(
            _join(path, "kernels"),
            f"must list one table per step: got {len(kernels)} for horizon {horizon}",
        )
    return (lambda n, budget, within: build_from_tables(kernels)), None


# Each family's block keys and its parser.
_FAMILIES: dict[str, tuple[set[str], Callable]] = {
    "independent": ({"marginals"}, _parse_independent),
    "markov": ({"transition", "init"}, _parse_markov),
    "tree": ({"parent", "edge_transition", "root_marginal"}, _parse_tree),
    "window": ({"width", "target_alpha", "tolerance"}, _parse_window),
    "table": ({"kernels"}, _parse_table),
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
class SweepConfig:
    """Strictly increasing horizons for a proxy-versus-N sweep."""

    horizons: tuple[int, ...]


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
    sweep: SweepConfig | None

    def build(self, horizon: int | None = None, within: ProcessSpec | None = None) -> ProcessSpec:
        """Construct the process, optionally at a different horizon (sweeps).

        Given ``within``, a build at a larger horizon, the result is its
        leading steps; ``horizon`` must then be at least ``prefix_from``.
        """
        n = self.horizon if horizon is None else int(horizon)
        spec = self.builder(n, self.run.budget, within)
        # Independent matrices, trees and tables fix their own horizon.
        if spec.horizon != n:
            raise ValueError(
                f"{self.family} scenario is pinned to horizon {spec.horizon}, asked for {n}"
            )
        if spec.alphabet.size != self.alphabet_size:
            raise ValueError(
                f"config declares alphabet {self.alphabet_size} but the kernels "
                f"imply {spec.alphabet.size}"
            )
        return spec

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
    family = _require(scenario, "family", "scenario")
    if family not in _FAMILIES:
        raise ConfigError(
            "scenario.family", f"unknown family {family!r} (one of {', '.join(_FAMILIES)})"
        )
    _check_keys(scenario, {"family", "horizon", "alphabet", family}, "scenario")
    horizon = _get_int(scenario, "horizon", "scenario", required=True, minimum=1)
    alphabet = _get_int(scenario, "alphabet", "scenario", required=True, minimum=1)
    path = _join("scenario", family)
    params = _as_mapping(_require(scenario, family, "scenario"), path)
    keys, parse = _FAMILIES[family]
    _check_keys(params, keys, path)
    builder, prefix_from = parse(params, path, horizon, alphabet)
    return family, horizon, alphabet, builder, prefix_from


def _parse_target(node, alphabet: int) -> tuple[str, Callable[[int], TargetFunction], bool]:
    target = _as_mapping(node, "target")
    name = _require(target, "name", "target")
    if name not in _TARGETS:
        raise ConfigError(
            "target.name",
            f"unknown target {name!r} (one of {', '.join(sorted(_TARGETS))})",
        )
    allowed, make = _TARGETS[name]
    _check_keys(target, {"name"} | allowed, "target")
    params: dict = {}
    if "symbol" in allowed:
        params["symbol"] = _get_int(
            target, "symbol", "target", required=True, minimum=0, maximum=alphabet - 1
        )
    if "value" in allowed:
        params["value"] = _get_number(target, "value", "target", required=True)
    if "values" in allowed:
        values = _numeric(target, "values", "target")
        if values.ndim != 1 or not np.all(np.isfinite(values)):
            raise ConfigError("target.values", "expected a finite flat list of values")
        params["values"] = values
    # A value table is indexed by trajectory rank, so it fixes the horizon.
    return name, lambda n: make(n, alphabet, params), "values" not in allowed


def _parse_sensitivity(node, horizon: int) -> tuple[str, tuple[float, ...] | None]:
    if node is None:
        return "target", None
    section = _as_mapping(node, "sensitivity")
    _check_keys(section, {"mode", "declared"}, "sensitivity")
    if "mode" in section and "declared" in section:
        raise ConfigError("sensitivity", "give either mode or declared, not both")
    if "declared" in section:
        try:
            declared = np.array(section["declared"], dtype=float)
        except (TypeError, ValueError):
            raise ConfigError("sensitivity.declared", "expected a numeric vector") from None
        if declared.ndim != 1 or not np.all(np.isfinite(declared)) or declared.size == 0:
            raise ConfigError("sensitivity.declared", "expected a finite nonempty vector")
        if float(declared.min()) < 0.0:
            raise ConfigError("sensitivity.declared", "entries must be nonnegative")
        if declared.shape[0] != horizon:
            raise ConfigError(
                "sensitivity.declared",
                f"must have one entry per step: got {declared.shape[0]} for horizon {horizon}",
            )
        return "declared", tuple(float(v) for v in declared)
    mode = section.get("mode", "target")
    if mode not in ("target", "oracle"):
        raise ConfigError("sensitivity.mode", f"expected 'target' or 'oracle', got {mode!r}")
    return mode, None


def _parse_run(node) -> RunSettings:
    run = _as_mapping(node, "run")
    _check_keys(run, {"seed", "budget", "n_samples", "t_grid"}, "run")
    t_grid = None
    if run.get("t_grid") is not None:
        raw = run["t_grid"]
        if not isinstance(raw, list) or not raw:
            raise ConfigError("run.t_grid", "expected a nonempty list of thresholds")
        values = []
        for i, v in enumerate(raw):
            if isinstance(v, bool) or not isinstance(v, (int, float)) or not np.isfinite(v):
                raise ConfigError("run.t_grid", f"entry {i + 1} is not a finite number: {v!r}")
            if v < 0:
                raise ConfigError("run.t_grid", f"entry {i + 1} must be nonnegative, got {v}")
            values.append(float(v))
        t_grid = tuple(values)
    return RunSettings(
        seed=_get_int(run, "seed", "run", default=DEFAULT_SEED, minimum=0, maximum=MAX_SEED),
        budget=_get_int(run, "budget", "run", default=None, minimum=1),
        n_samples=_get_int(run, "n_samples", "run", default=DEFAULT_N_SAMPLES, minimum=1),
        t_grid=t_grid,
    )


def _parse_sweep(node) -> SweepConfig | None:
    if node is None:
        return None
    sweep = _as_mapping(node, "sweep")
    _check_keys(sweep, {"horizons"}, "sweep")
    raw = _require(sweep, "horizons", "sweep")
    if not isinstance(raw, list) or not raw:
        raise ConfigError("sweep.horizons", "expected a nonempty list of horizons")
    horizons = []
    for i, v in enumerate(raw):
        if isinstance(v, bool) or not isinstance(v, int) or v < 1:
            raise ConfigError(
                "sweep.horizons", f"entry {i + 1} must be a positive integer, got {v!r}"
            )
        horizons.append(v)
    if any(b <= a for a, b in zip(horizons, horizons[1:])):
        raise ConfigError("sweep.horizons", "must be strictly increasing")
    return SweepConfig(horizons=tuple(horizons))


def parse_config(data) -> ScenarioConfig:
    """Validate a loaded YAML document into a ScenarioConfig."""
    doc = _as_mapping(data, "")
    _check_keys(doc, {"scenario", "target", "sensitivity", "run", "sweep"}, "")
    if "scenario" not in doc:
        raise ConfigError("scenario", "missing required section")
    if "target" not in doc:
        raise ConfigError("target", "missing required section")
    family, horizon, alphabet, builder, prefix_from = _parse_scenario(doc["scenario"])
    target_name, target_builder, target_free = _parse_target(doc["target"], alphabet)
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
