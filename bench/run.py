"""seqbound benchmark: one seeded workload, timed end to end or traced per layer.

Usage, from the root of a checkout:

    python3 bench/run.py --workload markov-long --seed 1 --seconds 40 --trace 0

The workload's YAML configs are generated from ``--seed`` into
``.bench_out/``; a fresh child process (bench/child.py) runs the workload
through seqbound's public entry points for about ``--seconds`` seconds and
checks every output.  This script prints each metric by name with its unit,
then, as the last line, one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics of
BENCHMARK.json with ``--trace 0``, its per-layer metrics with ``--trace 1``.
A metric whose public hook no longer exists is left out, never reported as 0.

The child runs with BLAS pinned to one thread, so one process and one
compute thread make the load on any machine.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import subprocess
import sys
from pathlib import Path

import workloads

ROOT = Path(__file__).resolve().parent.parent
BLAS_THREADS = "1"
# A run must end within 180 s; stop the child well before that.
CHILD_TIMEOUT_S = 170


def unit_of(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_mb"):
        return "MB"
    if name.endswith("bytes_written") or name.endswith("bytes_computed"):
        return "B"
    if name.endswith("_frac") or name.endswith("_ratio"):
        return "ratio"
    return "count"


def write_plan(run_dir: Path, args) -> Path:
    import yaml

    scenarios = []
    (run_dir / "configs").mkdir(parents=True, exist_ok=True)
    for scenario in workloads.generate(args.workload, args.seed):
        path = run_dir / "configs" / f"{scenario.name}.yaml"
        path.write_text(yaml.safe_dump(scenario.doc, sort_keys=False), encoding="utf-8")
        scenarios.append(
            {
                "name": scenario.name,
                "path": str(path),
                "doc": scenario.doc,
                "operations": list(scenario.operations),
            }
        )
    plan = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "out": str(run_dir),
        "scenarios": scenarios,
    }
    plan_path = run_dir / "plan.json"
    plan_path.write_text(json.dumps(plan, indent=1), encoding="utf-8")
    return plan_path


def run_child(run_dir: Path, plan_path: Path) -> tuple[dict | None, float, str]:
    """Run the workload in a fresh process; return its result, peak RSS in MB
    and the tail of its log."""
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = BLAS_THREADS
    result_path = run_dir / "result.json"
    log_path = run_dir / "child.log"
    with open(log_path, "w", encoding="utf-8") as log:
        proc = subprocess.Popen(
            [sys.executable, str(ROOT / "bench" / "child.py"), str(plan_path), str(result_path)],
            cwd=ROOT,
            env=env,
            stdout=log,
            stderr=subprocess.STDOUT,
        )
        try:
            code = proc.wait(timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            code = None
    peak_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
    log_tail = log_path.read_text(encoding="utf-8", errors="replace")[-4000:]
    if code != 0 or not result_path.is_file():
        return None, peak_mb, log_tail or f"child exited with {code}"
    return json.loads(result_path.read_text(encoding="utf-8")), peak_mb, log_tail


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "seqbound" / "__init__.py").is_file():
        print(f"error: no seqbound sources under {ROOT / 'src'}; nothing to benchmark", file=sys.stderr)
        return 2
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    listed = declared["per_layer" if args.trace else "end_to_end"]

    run_dir = ROOT / ".bench_out" / f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    plan_path = write_plan(run_dir, args)
    result, peak_mb, log_tail = run_child(run_dir, plan_path)
    if result is None:
        print(f"error: the workload run failed:\n{log_tail}", file=sys.stderr)
        return 1

    metrics = dict(result["metrics"])
    if not args.trace:
        metrics["peak_rss_mb"] = peak_mb
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{len(result['rounds'])} rounds in {result['elapsed_s']:.1f} s, "
          f"BLAS threads {result['blas_threads']}, cpus {os.cpu_count()}")
    for name in sorted(metrics):
        print(f"  {name} = {metrics[name]:.6g} {unit_of(name)}")
    for problem in result["problems"]:
        print(f"  FAILED {problem}")
    for alarm in result["alarms"]:
        print(f"  verify false alarm, a Monte Carlo row that failed by chance: {alarm}")
    for hook in result["missing_hooks"]:
        print(f"  missing hook {hook}: its metrics are not reported")

    out_metrics = {}
    for entry in listed:
        if metrics.get(entry["name"]) is not None:
            out_metrics[entry["name"]] = {"value": metrics[entry["name"]], "unit": entry["unit"]}
    (run_dir / "metrics.json").write_text(json.dumps(metrics, indent=1), encoding="utf-8")
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": out_metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
