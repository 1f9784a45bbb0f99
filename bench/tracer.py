"""Spans and counters recorded around the public functions of seqbound.

The tracer patches each public function under every module-level name that
binds it, so callers that imported it by name (``from .influence import
interdependence_matrix``) reach the wrapper too.  Each wrapped call records
a span: name, start, end and the index of its parent span.  Hot functions
get a counter instead of a span.  Spans stay in memory until the caller
writes them out.

Counts are taken only through public names.  A name that no longer exists
is skipped, so every metric derived from it is missing rather than zero.
"""

from __future__ import annotations

import functools
import importlib
import os
import sys
import time
from collections import Counter, defaultdict
from dataclasses import dataclass

PACKAGE = "seqbound"

# Public functions recorded as spans, by layer (= module of seqbound).
SPANNED = {
    "config": (
        "load_config",
        "ScenarioConfig.build",
        "ScenarioConfig.target",
        "ScenarioConfig.sensitivity",
    ),
    "process": (
        "exact_expectation",
        "prefix_expectation_table",
        "build_independent",
        "build_markov",
        "build_causal_tree",
        "build_sliding_window",
        "build_from_tables",
    ),
    "window": ("build_calibrated_window",),
    "influence": (
        "interdependence_matrix",
        "column_sum_alpha",
        "dobrushin_coefficient",
        "uniform_decay_profile",
        "tv_distance",
    ),
    "resolvent": (
        "causal_resolvent",
        "spectral_norm",
        "operator_norms",
        "spectral_decay",
        "variance_proxy",
        "decay_lower_bound",
    ),
    "bounds": (
        "compare_bounds",
        "exact_tail",
        "spectral_tail",
        "uniform_decay_tail",
        "scalar_collapse_tail",
        "markov_tail",
        "tree_tail",
        "sparse_terminal_tail",
        "kontorovich_baseline",
        "samson_baseline",
    ),
    "targets": ("lipschitz_vector_oracle", "evaluate_batch"),
    "sampling": (
        "sample_trajectories",
        "empirical_tail",
        "default_t_grid",
        "check_tail_domination",
        "tightness_ratios",
        "tail_csv_rows",
    ),
    "coupling": (
        "coupled_pair_process",
        "exact_pair_discrepancy",
        "simulate_coupled_paths",
        "maximal_coupling_draws",
        "verify_oscillation_bound",
        "verify_discrepancy_recursion",
        "verify_coupling_marginals",
    ),
    "report": ("write_csv", "merge_reports"),
    "cli": ("main",),
}

# Functions called up to millions of times per run: counted, never spanned.
COUNTED = {
    "process": ("kernel_at",),
    "coupling": ("maximal_coupling_joint",),
    "report": ("make_check",),
}

# Counters fed by hooks on public functions, and the functions they need.
HOOK_COUNTERS = {
    "process.kernel_evals": ("process.kernel_at",),
    "coupling.pair_kernel_evals": ("process.kernel_at",),
    "influence.table_cells": (
        "influence.interdependence_matrix",
        "influence.influence_enumeration_cost",
    ),
    "sampling.symbols_drawn": ("sampling.sample_trajectories",),
    "sampling.path_bytes_computed": ("sampling.sample_trajectories",),
    "targets.oracle_evals": ("targets.lipschitz_vector_oracle",),
    "report.bytes_written": ("report.write_csv",),
}


@dataclass(frozen=True)
class Span:
    name: str
    start: float
    end: float
    parent: int | None  # index into the span list, None for a root


def self_times(spans: list[Span]) -> list[float]:
    """Self time of each span: its duration minus the part its children cover.

    Child intervals are clipped to the parent and merged before they are
    subtracted, so overlapping children are not counted twice.
    """
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[span.parent].append((span.start, span.end))
    out = []
    for index, span in enumerate(spans):
        covered = 0.0
        reach = span.start
        for start, end in sorted(children.get(index, ())):
            start, end = max(start, reach), min(end, span.end)
            if end > start:
                covered += end - start
                reach = end
        out.append((span.end - span.start) - covered)
    return out


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


class Tracer:
    """Records spans and counters while ``recording`` is true."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self.counters: Counter = Counter()
        self.recording = False
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def reset(self) -> None:
        self.spans = []
        self.counters = Counter()
        self._stack = []

    # ---------------------------------------------------------------- spans

    def begin(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, self.clock(), 0.0, parent))
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def end(self, index: int) -> None:
        self._stack.pop()
        span = self.spans[index]
        self.spans[index] = Span(span.name, span.start, self.clock(), span.parent)

    def spanned(self, name: str, fn, after=None):
        """Wrapper of ``fn`` recording a span; ``after(args, kwargs, result)``
        runs once the span has ended, so its cost is not charged to ``name``."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.recording:
                return fn(*args, **kwargs)
            self.counters[name + ".calls"] += 1
            index = self.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end(index)
            if after is not None:
                after(args, kwargs, result)
            return result

        return wrapper

    def counted(self, name: str, fn, before=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self.recording:
                self.counters[name + ".calls"] += 1
                if before is not None:
                    before(args, kwargs)
            return fn(*args, **kwargs)

        return wrapper

    # ------------------------------------------------------------- patching

    def _replace_everywhere(self, target, wrapper) -> None:
        for mod_name, module in list(sys.modules.items()):
            if module is None or not (mod_name == PACKAGE or mod_name.startswith(PACKAGE + ".")):
                continue
            for attr, value in list(vars(module).items()):
                if value is target:
                    self._undo.append((module, attr, value))
                    setattr(module, attr, wrapper)

    def install(self) -> list[str]:
        """Patch every listed public function; return the names not found."""
        missing = []
        hooks = _Hooks(self, importlib.import_module(PACKAGE + ".influence"))
        if hooks.enumeration_cost is None:
            missing.append("influence.influence_enumeration_cost")
        listed = [(layer, names, False) for layer, names in SPANNED.items()]
        listed += [(layer, names, True) for layer, names in COUNTED.items()]
        for layer, names, hot in listed:
            module = importlib.import_module(f"{PACKAGE}.{layer}")
            for qualname in names:
                owner_name, _, attr = qualname.rpartition(".")
                owner = getattr(module, owner_name, None) if owner_name else module
                fn = getattr(owner, attr, None) if owner is not None else None
                if fn is None:
                    missing.append(f"{layer}.{qualname}")
                    continue
                metric = f"{layer}.{qualname}"
                if hot:
                    wrapper = self.counted(metric, fn, hooks.before.get(metric))
                else:
                    wrapper = self.spanned(metric, fn, hooks.after.get(metric))
                if owner_name:
                    self._undo.append((owner, attr, fn))
                    setattr(owner, attr, wrapper)
                else:
                    self._replace_everywhere(fn, wrapper)
        return missing

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._undo):
            setattr(owner, attr, value)
        self._undo = []


class _Hooks:
    """Counters read off the arguments and results of public calls."""

    def __init__(self, tracer: Tracer, influence_module):
        self.tracer = tracer
        # Captured before patching, so computing a count records no span.
        self.enumeration_cost = getattr(influence_module, "influence_enumeration_cost", None)
        self.after = {
            "influence.interdependence_matrix": self.table_cells,
            "sampling.sample_trajectories": self.paths,
            "targets.lipschitz_vector_oracle": self.oracle,
            "report.write_csv": self.csv_bytes,
        }
        self.before = {"process.kernel_at": self.kernel_at}

    def table_cells(self, args, kwargs, result) -> None:
        if self.enumeration_cost is None:
            return
        spec = args[0] if args else kwargs["spec"]
        prune = args[1] if len(args) > 1 else kwargs.get("prune", True)
        rows = self.enumeration_cost(spec, prune)
        self.tracer.counters["influence.table_cells"] += rows * spec.alphabet.size

    def paths(self, args, kwargs, result) -> None:
        self.tracer.counters["sampling.symbols_drawn"] += int(result.size)
        self.tracer.counters["sampling.path_bytes_computed"] += int(result.nbytes)

    def oracle(self, args, kwargs, result) -> None:
        alphabet = args[1] if len(args) > 1 else kwargs["alphabet"]
        horizon = args[2] if len(args) > 2 else kwargs["horizon"]
        size = getattr(alphabet, "size", alphabet)
        self.tracer.counters["targets.oracle_evals"] += int(size) ** int(horizon)

    def csv_bytes(self, args, kwargs, result) -> None:
        path = args[0] if args else kwargs["path"]
        self.tracer.counters["report.bytes_written"] += os.path.getsize(path)

    def kernel_at(self, args, kwargs) -> None:
        """Count raw kernel evaluations by wrapping each spec's kernel once."""
        spec = args[0] if args else kwargs["spec"]
        kernel = spec.kernel
        if getattr(kernel, "_bench_counted", False):
            return
        tracer = self.tracer
        pair = spec.family == "coupled-pair"

        @functools.wraps(kernel)
        def counting(*a, **k):
            if tracer.recording:
                tracer.counters["process.kernel_evals"] += 1
                if pair:
                    tracer.counters["coupling.pair_kernel_evals"] += 1
            return kernel(*a, **k)

        counting._bench_counted = True
        object.__setattr__(spec, "kernel", counting)
