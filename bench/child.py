"""Run one workload in this process and write its measurements as JSON.

run.py starts this script in a fresh process, with ``src`` on PYTHONPATH:

    python3 bench/child.py PLAN.json RESULT.json

A run is a sequence of rounds until the time budget is spent.  A round sets
up every scenario (load_config + build + target + sensitivity), runs every
operation of the workload, then checks the outputs; a fixed reference task
is timed before the setup, before each operation and after the last.  The
timed operations are only the calls a user makes; the checks run after them.
With tracing on, untraced and traced rounds alternate.  The tracer's wrappers
are installed only for the operations of a traced round, so the untraced
rounds run unpatched code and give the solve time against which the tracing
overhead is measured.
"""

from __future__ import annotations

import contextlib
import gc
import io
import json
import os
import shutil
import statistics
import sys
import time
import traceback
from collections import defaultdict
from pathlib import Path

import numpy as np
import seqbound.cli as cli_mod
import seqbound.config as config_mod
import seqbound.sampling as sampling_mod

import checks
from tracer import COUNTED, HOOK_COUNTERS, SPANNED, Tracer, layer_of, self_times

CLI_OPERATIONS = ("matrix", "bounds", "sweep", "verify")
MAX_PROBLEMS = 20


def _built(path):
    """What the CLI does before any operation: load, build, target, sensitivity.

    Module attributes are read at call time, so a traced run reaches the
    patched functions.
    """
    cfg = config_mod.load_config(path)
    spec = cfg.build()
    f = cfg.target()
    return cfg, spec, f, cfg.sensitivity(spec, f)


def run_operation(op: str, path: str, out: Path):
    if op in CLI_OPERATIONS:
        return cli_mod.main([op, "--config", path, "--out", str(out)])
    if op == "tail":
        cfg, spec, f, c = _built(path)
        return sampling_mod.empirical_tail(
            spec,
            f,
            sampling_mod.default_t_grid(c),
            n_samples=cfg.run.n_samples,
            seed=cfg.run.seed,
            budget=cfg.run.budget,
        )
    raise ValueError(f"unknown operation {op!r}")


def check_operation(op: str, scenario: dict, out: Path, value, first_value, first_out: Path | None):
    """Problems with one operation's outputs, and the Monte Carlo false alarms
    of a verify run (see checks.check_verification)."""
    doc = scenario["doc"]
    problems: list[str] = []
    alarms: list[str] = []
    if op == "verify" and value in (0, 1):
        problems, alarms = checks.check_verification(out / "verification.csv")
        if value != (1 if problems or alarms else 0):
            problems.append(f"verify exited {value} but verification.csv has {len(problems) + len(alarms)} failed rows")
    elif op in CLI_OPERATIONS and value != 0:
        return [f"{op} exited {value}"], alarms
    if op == "matrix" and doc["scenario"]["family"] == "markov":
        problems += checks.check_markov_influence(out / "influence.csv", doc)
    elif op == "bounds":
        problems += checks.check_bounds(out / "bounds.csv", doc, sampling_mod.DEFAULT_GRID_POINTS)
    elif op == "sweep":
        problems += checks.check_sweep(out / "sweep.csv", doc)
    elif op == "tail":
        proxies = checks.bound_proxies(out.parent / f"{scenario['name']}-bounds" / "bounds.csv")
        problems += checks.check_tail(value, proxies, doc["run"]["n_samples"])
        if first_value is not None and (
            value.frequencies.tobytes() != first_value.frequencies.tobytes()
            or value.mean != first_value.mean
        ):
            problems.append("tail estimate differs from the first run of the same seed")
    if first_out is not None:
        problems += checks.check_same_files(first_out, out)
    return problems, alarms


# Host speed on a shared machine drifts by up to 45% between runs, over
# seconds to minutes, and no averaging inside a run removes it.  Every round
# therefore times a fixed reference task between its steps, and every time
# of the round is scaled to a host on which the median of those timings is
# REFERENCE_NOMINAL_S.  The task uses no seqbound code, so a change to
# seqbound cannot move it; the raw wall times stay in the round record.
REFERENCE_NOMINAL_S = 0.1


def reference_task() -> float:
    """Fixed work mixing interpreter loops, BLAS matrix-vector products and a
    large argsort, the three kinds of work the workloads do."""
    rng = np.random.default_rng(12345)
    table: dict[tuple[int, int], float] = {}
    for i in range(100_000):
        key = (i % 97, i % 89)
        table[key] = table.get(key, 0.0) + i * 0.5
    a = rng.random((400, 400))
    v = np.ones(400)
    for _ in range(500):
        v = a @ v
        v /= np.linalg.norm(v)
    order = np.argsort(rng.random(200_000), kind="stable")
    return float(v[0]) + float(order[0]) + len(table)


def timed_reference() -> float:
    start = time.perf_counter()
    reference_task()
    return time.perf_counter() - start


class Run:
    def __init__(self, plan: dict):
        self.scenarios = plan["scenarios"]
        self.root = Path(plan["out"]) / "rounds"
        self.tracer = Tracer() if plan["trace"] else None
        self.missing_hooks: list[str] = []
        self.rounds: list[dict] = []
        self.first_values: dict[tuple[str, str], object] = {}
        self.problems: list[str] = []
        # Monte Carlo false alarms of each (scenario, operation); they repeat
        # exactly from round to round.
        self.alarms: dict[tuple[str, str], list[str]] = {}
        self.attempted = 0
        self.failed = 0
        self.spans: list[list] = []

    def _fail(self, where: str, problems: list[str]) -> None:
        self.failed += 1
        for problem in problems:
            if len(self.problems) < MAX_PROBLEMS:
                self.problems.append(f"round {len(self.rounds)} {where}: {problem}")

    def round(self, traced: bool) -> dict:
        index = len(self.rounds)
        round_dir = self.root / f"{index:03d}"
        clock = time.perf_counter
        log = io.StringIO()
        # Start every round from the same heap state: the previous round's
        # garbage would otherwise be collected at a random point of this one.
        gc.collect()
        started = clock()
        references = [timed_reference()]

        setup_start = clock()
        built = []
        for scenario in self.scenarios:
            try:
                with contextlib.redirect_stdout(log):
                    built.append(_built(scenario["path"]))
            except Exception:
                built.append(None)
                self._fail(f"{scenario['name']} setup", [traceback.format_exc(limit=3)])
        setup_s = clock() - setup_start

        tracer = self.tracer
        if traced:
            self.missing_hooks = tracer.install()
            tracer.reset()
            tracer.recording = True
        results = []
        with contextlib.redirect_stdout(log), contextlib.redirect_stderr(log):
            for scenario in self.scenarios:
                for op in scenario["operations"]:
                    out = round_dir / f"{scenario['name']}-{op}"
                    references.append(timed_reference())
                    span = tracer.begin(f"bench.{op}") if traced else None
                    t0 = clock()
                    try:
                        value, error = run_operation(op, scenario["path"], out), None
                    except Exception:
                        value, error = None, traceback.format_exc(limit=3)
                    seconds = clock() - t0
                    if traced:
                        tracer.end(span)
                    results.append((scenario, op, out, value, error, seconds))
        solve_s = sum(result[-1] for result in results)
        if traced:
            tracer.recording = False
            tracer.uninstall()
        references.append(timed_reference())

        for scenario, spec_parts in zip(self.scenarios, built):
            self.attempted += 1
            if spec_parts is not None and scenario["doc"]["scenario"]["family"] == "window":
                problems = checks.check_window_spec(spec_parts[1], scenario["doc"])
                if problems:
                    self._fail(f"{scenario['name']} setup", problems)
        ops = []
        for scenario, op, out, value, error, seconds in results:
            self.attempted += 1
            key = (scenario["name"], op)
            first_out = self.root / "000" / out.name if index > 0 and op != "tail" else None
            if error is not None:
                problems = [error]
            else:
                problems, self.alarms[key] = check_operation(
                    op, scenario, out, value, self.first_values.get(key), first_out
                )
            if problems:
                self._fail(f"{scenario['name']} {op}", problems)
            if index == 0 and op == "tail":
                self.first_values[key] = value
            ops.append({"scenario": scenario["name"], "op": op, "seconds": seconds, "ok": not problems})
        if index > 0:
            shutil.rmtree(round_dir, ignore_errors=True)

        reference_s = statistics.median(references)
        record = {
            "round": index,
            "traced": traced,
            "setup_s": setup_s,
            "solve_s": solve_s,
            "reference_s": reference_s,
            "scale": REFERENCE_NOMINAL_S / reference_s,
            "seconds": clock() - started,
            "ops": ops,
        }
        if traced:
            record.update(self._trace_summary(index))
        self.rounds.append(record)
        return record

    def _trace_summary(self, index: int) -> dict:
        spans = self.tracer.spans
        own = self_times(spans)
        by_name: dict[str, float] = defaultdict(float)
        for span, seconds in zip(spans, own):
            by_name[span.name] += seconds
        for span in spans:
            self.spans.append([index, span.name, span.start, span.end, span.parent])
        return {
            "self_s": dict(by_name),
            "counters": dict(self.tracer.counters),
            "roots_s": sum(s.end - s.start for s in spans if s.parent is None),
        }


def _median(values):
    return statistics.median(values) if values else None


def summarize(run: Run) -> dict:
    """Medians over rounds; every ``*_s`` is scaled to the reference host
    speed except ``*_wall_s`` and ``reference_s``."""
    plain = [r for r in run.rounds if not r["traced"]]
    traced = [r for r in run.rounds if r["traced"]]
    metrics: dict[str, float] = {
        "setup_s": _median([r["setup_s"] * r["scale"] for r in run.rounds]),
        "solve_s": _median([r["solve_s"] * r["scale"] for r in plain]),
        "setup_wall_s": _median([r["setup_s"] for r in run.rounds]),
        "solve_wall_s": _median([r["solve_s"] for r in plain]),
        "reference_s": _median([r["reference_s"] for r in run.rounds]),
        "fail_frac": run.failed / run.attempted if run.attempted else 1.0,
        "verify_mc_alarms": sum(len(alarms) for alarms in run.alarms.values()),
    }
    op_times: dict[str, list[float]] = defaultdict(list)
    for r in plain:
        per_round: dict[str, float] = defaultdict(float)
        for op in r["ops"]:
            per_round[op["op"]] += op["seconds"] * r["scale"]
        for op, seconds in per_round.items():
            op_times[op].append(seconds)
    for op, values in op_times.items():
        metrics[f"{op}_s"] = _median(values)
    if traced:
        metrics.update(layer_metrics(traced, run.missing_hooks))
        traced_solve = _median([r["solve_s"] * r["scale"] for r in traced])
        metrics["trace.solve_s"] = traced_solve
        metrics["trace.overhead_frac"] = traced_solve / metrics["solve_s"] - 1.0
        metrics["trace.unattributed_s"] = _median(
            [(r["solve_s"] - r["roots_s"]) * r["scale"] for r in traced]
        )
    return metrics


def layer_metrics(traced: list[dict], missing_hooks: list[str]) -> dict[str, float]:
    """Median self time per public function and per layer, and the counters
    of the last traced round (they repeat exactly from round to round)."""
    spanned = [f"{layer}.{name}" for layer, names in SPANNED.items() for name in names]
    counted = [f"{layer}.{name}" for layer, names in COUNTED.items() for name in names]
    spanned = [name for name in spanned if name not in missing_hooks]
    roots = sorted({f"bench.{op['op']}" for r in traced for op in r["ops"]})
    metrics: dict[str, float] = {}
    for name in spanned + roots:
        metrics[f"{name}.self_s"] = _median([r["self_s"].get(name, 0.0) * r["scale"] for r in traced])
    for layer in sorted({layer_of(name) for name in spanned + roots}):
        metrics[f"{layer}.self_s"] = _median(
            [
                sum(s for name, s in r["self_s"].items() if layer_of(name) == layer) * r["scale"]
                for r in traced
            ]
        )
    counters = traced[-1]["counters"]
    for name in spanned + [name for name in counted if name not in missing_hooks]:
        metrics[f"{name}.calls"] = counters.get(f"{name}.calls", 0)
    for name, hooks in HOOK_COUNTERS.items():
        if not any(hook in missing_hooks for hook in hooks):
            metrics[name] = counters.get(name, 0)
    calls = metrics.get("process.kernel_at.calls")
    if calls:
        metrics["process.kernel_cache.hit_ratio"] = 1.0 - metrics["process.kernel_evals"] / calls
    return metrics


def main(argv) -> int:
    plan_path, result_path = argv[1], argv[2]
    with open(plan_path, encoding="utf-8") as fh:
        plan = json.load(fh)
    run = Run(plan)
    min_rounds = 4 if plan["trace"] else 3
    started = time.perf_counter()
    while True:
        run.round(traced=bool(plan["trace"]) and len(run.rounds) % 2 == 1)
        elapsed = time.perf_counter() - started
        typical = statistics.median(r["seconds"] for r in run.rounds)
        if len(run.rounds) >= min_rounds and elapsed + typical > plan["seconds"]:
            break
    shutil.rmtree(run.root, ignore_errors=True)
    if run.tracer is not None:
        with open(Path(plan["out"]) / "spans.json", "w", encoding="utf-8") as fh:
            json.dump({"fields": ["round", "name", "start", "end", "parent"], "spans": run.spans}, fh)
    result = {
        "metrics": summarize(run),
        "attempted": run.attempted,
        "failed": run.failed,
        "problems": run.problems,
        "alarms": [f"{name} {op}: {alarm}" for (name, op), alarms in run.alarms.items() for alarm in alarms],
        "missing_hooks": run.missing_hooks,
        "rounds": run.rounds,
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "elapsed_s": time.perf_counter() - started,
    }
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
