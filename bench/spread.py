"""Run-to-run spread of the end-to-end metrics over several seeds.

    python3 bench/spread.py --workload markov-long --seeds 1-10

Runs bench/run.py once per seed, one run at a time, untraced and for the
``run_seconds`` of BENCHMARK.json, and prints for each
metric the median, the quartiles and the spread: the distance between the
first and third quartile as a share of the median.  A metric whose spread
is more than a third of its bound in BENCHMARK.json is marked.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seed_list(text: str) -> list[int]:
    if "-" in text:
        first, last = (int(x) for x in text.split("-"))
        return list(range(first, last + 1))
    return [int(x) for x in text.split(",")]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=seed_list, default=seed_list("1-10"))
    args = parser.parse_args(argv)
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = declared["run_seconds"]
    bounds = {m["name"]: m.get("bound") for m in declared["end_to_end"]}

    values: dict[str, list[float]] = {}
    for seed in args.seeds:
        command = [sys.executable, str(ROOT / "bench" / "run.py"), "--workload", args.workload,
                   "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
        done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, check=False)
        if done.returncode != 0:
            print(f"seed {seed}: exit {done.returncode}\n{done.stderr}", file=sys.stderr)
            return 1
        result = json.loads(done.stdout.strip().splitlines()[-1])
        print(f"seed {seed}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']} " + " ".join(
                  f"{name}={m['value']:.5g}" for name, m in result["metrics"].items()), flush=True)
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])

    for name, series in values.items():
        if len(series) < 2:
            continue
        q1, median, q3 = statistics.quantiles(series, n=4)
        spread = (q3 - q1) / median if median else float("nan")
        bound = bounds.get(name)
        mark = " OVER A THIRD OF BOUND" if bound and spread > bound / 3 else ""
        print(f"{name}: median {median:.6g} q1 {q1:.6g} q3 {q3:.6g} spread {spread:.4f}"
              + (f" (bound {bound})" if bound else "") + mark)
    return 0


if __name__ == "__main__":
    sys.exit(main())
