"""Seeded workload generator.

Each workload is a list of scenarios.  A scenario is one YAML document that
``seqbound.config.load_config`` accepts, plus the operations the benchmark
runs on it.  Everything random is drawn from ``random.Random`` seeded with
the workload name and ``--seed``, so one seed always yields the same files.

Operations:

- ``matrix``, ``bounds``, ``sweep``, ``verify``: the CLI subcommand of that
  name, run in-process through ``seqbound.cli.main``.
- ``tail``: ``load_config`` + ``build`` + ``target`` + ``sensitivity``, then
  ``sampling.empirical_tail`` on the default threshold grid.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable

# Sizes of each workload, in one place.
MARKOV_HORIZON = 500
MARKOV_TAIL_SAMPLES = 20_000
WINDOW_HORIZON = 48
WINDOW_ALPHABET = 4
WINDOW_WIDTH = 4
WINDOW_SWEEP = [20, 40]
WINDOW_TAIL_SAMPLES = 10_000
VERIFY_WINDOW_HORIZON = 10
VERIFY_SAMPLES = 100_000


@dataclass(frozen=True)
class Scenario:
    name: str
    doc: dict
    operations: tuple[str, ...]


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    scenarios: Callable[[random.Random], list[Scenario]]


def _round(x: float) -> float:
    return round(x, 6)


def _two_state_rows(rng: random.Random, alpha: float) -> list[list[float]]:
    """Strictly positive 2x2 transition rows whose Dobrushin coefficient is alpha."""
    p0 = _round(rng.uniform(alpha + 0.05, 0.95))
    p1 = _round(p0 - alpha)
    return [[p0, _round(1.0 - p0)], [p1, _round(1.0 - p1)]]


def _run(rng: random.Random, n_samples: int) -> dict:
    return {"seed": rng.randrange(2**32), "n_samples": n_samples}


def _markov_long(rng: random.Random) -> list[Scenario]:
    # Power-iteration work grows steeply as alpha falls (about 6% more
    # iterations per 0.01 near 0.7 at this horizon), so alpha is drawn from
    # a narrow band: the seed changes the chain, not the amount of work.
    alpha = _round(rng.uniform(0.695, 0.705))
    q = _round(rng.uniform(0.2, 0.8))
    doc = {
        "scenario": {
            "family": "markov",
            "horizon": MARKOV_HORIZON,
            "alphabet": 2,
            "markov": {"transition": _two_state_rows(rng, alpha), "init": [q, _round(1.0 - q)]},
        },
        "target": {"name": "sum_symbols"},
        "run": _run(rng, MARKOV_TAIL_SAMPLES),
    }
    return [Scenario("markov", doc, ("matrix", "bounds", "tail"))]


def _window_wide(rng: random.Random) -> list[Scenario]:
    doc = {
        "scenario": {
            "family": "window",
            "horizon": WINDOW_HORIZON,
            "alphabet": WINDOW_ALPHABET,
            "window": {"width": WINDOW_WIDTH, "target_alpha": _round(rng.uniform(0.6, 0.85))},
        },
        "target": {"name": "terminal_indicator", "symbol": rng.randrange(WINDOW_ALPHABET)},
        "run": _run(rng, WINDOW_TAIL_SAMPLES),
        "sweep": {"horizons": list(WINDOW_SWEEP)},
    }
    return [Scenario("window", doc, ("bounds", "sweep", "tail"))]


def _verify_exact(rng: random.Random) -> list[Scenario]:
    window = {
        "scenario": {
            "family": "window",
            "horizon": VERIFY_WINDOW_HORIZON,
            "alphabet": 2,
            "window": {"width": 5, "target_alpha": _round(rng.uniform(0.6, 0.85))},
        },
        "target": {"name": "terminal_indicator", "symbol": 1},
        "run": _run(rng, VERIFY_SAMPLES),
    }
    q = _round(rng.uniform(0.2, 0.8))
    markov = {
        "scenario": {
            "family": "markov",
            "horizon": 12,
            "alphabet": 2,
            "markov": {
                "transition": _two_state_rows(rng, _round(rng.uniform(0.5, 0.8))),
                "init": [q, _round(1.0 - q)],
            },
        },
        "target": {"name": "sum_symbols"},
        "run": _run(rng, VERIFY_SAMPLES),
    }
    r = _round(rng.uniform(0.3, 0.7))
    tree = {
        "scenario": {
            "family": "tree",
            "horizon": 10,
            "alphabet": 2,
            "tree": {
                "parent": [0, 1, 1, 2, 2, 3, 3, 4, 4, 5],
                "edge_transition": _two_state_rows(rng, _round(rng.uniform(0.1, 0.3))),
                "root_marginal": [r, _round(1.0 - r)],
            },
        },
        "target": {"name": "sum_symbols"},
        "run": _run(rng, VERIFY_SAMPLES),
    }
    m = _round(rng.uniform(0.2, 0.8))
    independent = {
        "scenario": {
            "family": "independent",
            "horizon": 10,
            "alphabet": 2,
            "independent": {"marginals": [m, _round(1.0 - m)]},
        },
        "target": {"name": "sum_symbols"},
        "run": _run(rng, VERIFY_SAMPLES),
    }
    return [
        Scenario(name, doc, ("verify",))
        for name, doc in (
            ("window", window),
            ("markov", markov),
            ("tree", tree),
            ("independent", independent),
        )
    ]


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "markov-long",
            "long two-state chain: resolvent power iteration, long-path sampling and "
            "a large resolvent.csv dominate; influence is one 2x2 table per step",
            _markov_long,
        ),
        Workload(
            "window-wide",
            "calibrated window with 256 contexts per step: kernel tabulation, influence "
            "enumeration and many-context sampling dominate; resolvent is small",
            _window_wide,
        ),
        Workload(
            "verify-exact",
            "verify on four small scenarios: exact coupled-pair enumeration, the "
            "exhaustive oracle and short-path sampling dominate",
            _verify_exact,
        ),
    )
}


def generate(workload: str, seed: int) -> list[Scenario]:
    """Scenarios of one workload, deterministic in (workload, seed)."""
    return WORKLOADS[workload].scenarios(random.Random(f"{workload}:{int(seed)}"))
