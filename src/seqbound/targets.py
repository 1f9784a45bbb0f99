"""Trajectory target functions, sensitivity vectors, and the exhaustive oracle."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .process import (
    Alphabet,
    _coordinate_ranks,
    ensure_budget,
    evaluate_batch,
    mixed_radix_rank,
    trajectory_rows,
)


@dataclass(frozen=True, eq=False)
class TargetFunction:
    """Scalar function of a full trajectory.

    ``sensitivity``, when set, is a valid coordinate-wise bounded-difference
    vector for ``evaluate`` (not necessarily minimal).  ``batch``, when set,
    maps an (n_samples, N) integer array, possibly as narrow as uint8, to the
    per-row values and must agree with ``evaluate``; the sampler and the
    exact enumerations use it to avoid a Python loop.
    """

    name: str
    evaluate: Callable[[tuple[int, ...]], float]
    sensitivity: tuple[float, ...] | None = None
    batch: Callable[[np.ndarray], np.ndarray] | None = field(default=None, repr=False)


def as_sensitivity(c, horizon: int) -> np.ndarray:
    """Validated nonnegative sensitivity vector of the right length, read-only."""
    vec = np.array(c, dtype=float)
    if vec.shape != (int(horizon),):
        raise ValueError(f"sensitivity vector must have length {horizon}, got shape {vec.shape}")
    if not np.all(np.isfinite(vec)):
        raise ValueError("sensitivity vector has non-finite entries")
    if vec.size and float(vec.min()) < 0.0:
        raise ValueError("sensitivity entries must be nonnegative")
    vec.setflags(write=False)
    return vec


def lipschitz_vector_oracle(f, alphabet, horizon: int, budget: int | None = None) -> np.ndarray:
    """Minimal single-coordinate bounded-difference vector of f, by exhaustion.

    c_j is the largest |f(x) - f(x')| over pairs differing exactly at
    coordinate j.  Any declared sensitivity must dominate this coordinate-wise.
    """
    size = alphabet.size if isinstance(alphabet, Alphabet) else int(alphabet)
    n = int(horizon)
    if n < 1 or size < 1:
        raise ValueError("horizon and alphabet size must be positive")
    ensure_budget(size ** n, budget, "sensitivity oracle")
    return bounded_differences(evaluate_batch(f, trajectory_rows(n, size)).reshape((size,) * n))


def bounded_differences(values: np.ndarray) -> np.ndarray:
    """Largest swing of f along each axis of its value table, shape (|A|,) * N."""
    c = np.array([np.max(values.max(axis=j) - values.min(axis=j)) for j in range(values.ndim)])
    c.setflags(write=False)
    return c


# ---------------------------------------------------------------------------
# Builtin targets
# ---------------------------------------------------------------------------


def sum_symbols(horizon: int, alphabet_size: int) -> TargetFunction:
    n, size = int(horizon), int(alphabet_size)
    return TargetFunction(
        name="sum_symbols",
        evaluate=lambda x: float(sum(x)),
        sensitivity=(float(size - 1),) * n,
        batch=lambda paths: paths.sum(axis=1).astype(float),
    )


def count_symbol(horizon: int, alphabet_size: int, symbol: int) -> TargetFunction:
    n, size, m = int(horizon), int(alphabet_size), int(symbol)
    if not 0 <= m < size:
        raise ValueError(f"symbol {symbol} outside alphabet of size {size}")
    return TargetFunction(
        name=f"count_symbol({m})",
        evaluate=lambda x: float(sum(1 for v in x if v == m)),
        sensitivity=(1.0,) * n,
        batch=lambda paths: (paths == m).sum(axis=1).astype(float),
    )


def terminal_symbol(horizon: int, alphabet_size: int) -> TargetFunction:
    n, size = int(horizon), int(alphabet_size)
    return TargetFunction(
        name="terminal_symbol",
        evaluate=lambda x: float(x[-1]),
        sensitivity=(0.0,) * (n - 1) + (float(size - 1),),
        batch=lambda paths: paths[:, -1].astype(float),
    )


def terminal_indicator(horizon: int, alphabet_size: int, symbol: int) -> TargetFunction:
    n, size, m = int(horizon), int(alphabet_size), int(symbol)
    if not 0 <= m < size:
        raise ValueError(f"symbol {symbol} outside alphabet of size {size}")
    return TargetFunction(
        name=f"terminal_indicator({m})",
        evaluate=lambda x: 1.0 if x[-1] == m else 0.0,
        sensitivity=(0.0,) * (n - 1) + (1.0,),
        batch=lambda paths: (paths[:, -1] == m).astype(float),
    )


def parity(horizon: int) -> TargetFunction:
    n = int(horizon)
    return TargetFunction(
        name="parity",
        evaluate=lambda x: float(sum(x) % 2),
        sensitivity=(1.0,) * n,
        batch=lambda paths: (paths.sum(axis=1) % 2).astype(float),
    )


def constant(horizon: int, value: float) -> TargetFunction:
    n, v = int(horizon), float(value)
    return TargetFunction(
        name=f"constant({v})",
        evaluate=lambda x: v,
        sensitivity=(0.0,) * n,
        batch=lambda paths: np.full(paths.shape[0], v),
    )


def table_target(values: Sequence[float], horizon: int, alphabet_size: int) -> TargetFunction:
    """Explicit value table over trajectories, ranked first-symbol most significant.

    No sensitivity is declared; resolve one via ``lipschitz_vector_oracle``
    or an explicit vector.
    """
    n, size = int(horizon), int(alphabet_size)
    arr = np.array(values, dtype=float).reshape(-1)
    if arr.shape != (size ** n,):
        raise ValueError(f"value table must have {size ** n} entries, got {arr.shape[0]}")
    if not np.all(np.isfinite(arr)):
        raise ValueError("value table has non-finite entries")
    arr.setflags(write=False)
    return TargetFunction(
        name="table",
        evaluate=lambda x: float(arr[mixed_radix_rank(x, size)]),
        sensitivity=None,
        batch=lambda paths: arr[_coordinate_ranks(paths, range(1, n + 1), size)],
    )
