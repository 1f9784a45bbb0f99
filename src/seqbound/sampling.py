"""Trajectory sampling and empirical tail estimation.

Forward chain-rule sampling of a :class:`~seqbound.process.ProcessSpec`, an
empirical exceedance-tail estimator for ``|f(X) - E f(X)| >= t``, and checks
that the empirical tail stays below each concentration bound.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .bounds import TailBound
from .errors import EnumerationBudgetError
from .process import ProcessSpec, exact_expectation, kernel_at
from .report import VerificationReport, make_check
from .targets import evaluate_batch

# ============================================================
# Statistical conventions
# ============================================================

MIN_TAIL_SAMPLES = 1_000
DEFAULT_GRID_POINTS = 20
# Number of Monte Carlo standard errors allowed before a domination check fails.
DOMINATION_SIGMAS = 3.0

TAIL_HEADER = ("t", "empirical", "stderr", "bound_name", "bound_value", "pass")


def binomial_stderr(freq, n_samples: int) -> np.ndarray:
    """sqrt(p(1-p)/n), with the rule-of-three proxy 3/n at zero counts.

    A frequency of exactly zero carries no binomial spread, which would make
    later "within k standard errors" checks vacuous; 3/n is the standard 95%
    upper bound for the underlying probability of an event never observed in
    n trials.
    """
    p = np.asarray(freq, dtype=float)
    n = int(n_samples)
    if n < 1:
        raise ValueError(f"n_samples must be positive, got {n_samples}")
    out = np.sqrt(np.clip(p * (1.0 - p), 0.0, None) / n)
    return np.where(p == 0.0, 3.0 / n, out)


# ============================================================
# Forward sampling
# ============================================================


def _inverse_cdf(vec: np.ndarray, uniforms: np.ndarray) -> np.ndarray:
    """Map uniform draws through the inverse CDF of a probability vector.

    Zero-probability symbols occupy empty half-open cells, so they are never
    selected; the final clip only absorbs cumulative-sum rounding below 1.
    """
    cum = np.cumsum(vec)
    idx = np.searchsorted(cum, uniforms, side="right")
    return np.minimum(idx, vec.shape[0] - 1)


def sample_trajectories(spec: ProcessSpec, n_samples: int, seed: int) -> np.ndarray:
    """(n_samples, N) array of trajectories, deterministic in the seed.

    Row i consumes row i of a single pre-drawn uniform matrix, one column per
    step, so the result is bit-reproducible and independent of how samples
    would be scheduled across workers.  Each step groups samples by their
    signature-projected context and applies one inverse-CDF lookup per
    distinct context.
    """
    n = int(n_samples)
    if n < 1:
        raise ValueError(f"n_samples must be positive, got {n_samples}")
    horizon, size = spec.horizon, spec.alphabet.size
    uniforms = np.random.default_rng(seed).random((n, horizon))
    paths = np.zeros((n, horizon), dtype=np.int64)
    for step in range(1, horizon + 1):
        u = uniforms[:, step - 1]
        coords = spec.signature_coords(step)
        col = np.empty(n, dtype=np.int64)
        if not coords:
            hist = tuple(int(x) for x in paths[0, : step - 1])
            col[:] = _inverse_cdf(kernel_at(spec, step, hist), u)
        else:
            keys = np.zeros(n, dtype=np.int64)
            for i in coords:
                keys = keys * size + paths[:, i - 1]
            order = np.argsort(keys, kind="stable")
            boundaries = np.flatnonzero(np.diff(keys[order])) + 1
            for segment in np.split(order, boundaries):
                hist = tuple(int(x) for x in paths[segment[0], : step - 1])
                vec = kernel_at(spec, step, hist)
                col[segment] = _inverse_cdf(vec, u[segment])
        paths[:, step - 1] = col
    return paths


# ============================================================
# Empirical tails
# ============================================================


@dataclass(frozen=True, eq=False)
class TailEstimate:
    """Empirical exceedance frequencies of |f(X) - mean| >= t on a grid.

    ``exact_mean`` records whether centering used the exactly enumerated
    expectation or fell back to the sample mean.
    """

    t_grid: np.ndarray
    frequencies: np.ndarray
    stderr: np.ndarray
    n_samples: int
    mean: float
    exact_mean: bool

    def __post_init__(self) -> None:
        grid = np.array(self.t_grid, dtype=float)
        freq = np.array(self.frequencies, dtype=float)
        err = np.array(self.stderr, dtype=float)
        if grid.ndim != 1 or grid.size == 0:
            raise ValueError("t grid must be a nonempty vector")
        if freq.shape != grid.shape or err.shape != grid.shape:
            raise ValueError("frequencies and stderr must match the t grid")
        if float(freq.min()) < 0.0 or float(freq.max()) > 1.0:
            raise ValueError("frequencies must lie in [0, 1]")
        for name, arr in (("t_grid", grid), ("frequencies", freq), ("stderr", err)):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)


def default_t_grid(c) -> np.ndarray:
    """Evenly spaced grid from 0 to the largest possible deviation sum(c)."""
    if c is None:
        raise ValueError("no sensitivity vector available to size a default t grid")
    total = float(np.asarray(c, dtype=float).sum())
    top = total if total > 0.0 else 1.0
    return np.linspace(0.0, top, DEFAULT_GRID_POINTS)


def empirical_tail(
    spec: ProcessSpec,
    f,
    t_grid=None,
    n_samples: int = 100_000,
    seed: int = 0,
    budget: int | None = None,
) -> TailEstimate:
    """Estimate P(|f(X) - E f(X)| >= t) over a grid of thresholds.

    Centering uses the exact expectation when enumeration fits the budget and
    falls back to the sample mean otherwise (flagged on the estimate).  The
    tail is closed (>=), standard errors are binomial with the rule-of-three
    proxy at zero counts.
    """
    n = int(n_samples)
    if n < MIN_TAIL_SAMPLES:
        raise ValueError(f"need at least {MIN_TAIL_SAMPLES} samples, got {n_samples}")
    if t_grid is None:
        t_grid = default_t_grid(getattr(f, "sensitivity", None))
    grid = np.asarray(t_grid, dtype=float)
    if grid.ndim != 1 or grid.size == 0:
        raise ValueError("t grid must be a nonempty vector")
    if not np.all(np.isfinite(grid)) or float(grid.min()) < 0.0:
        raise ValueError("t grid entries must be finite and nonnegative")

    paths = sample_trajectories(spec, n, seed)
    values = np.asarray(evaluate_batch(f, paths), dtype=float)
    try:
        mean = exact_expectation(spec, f, budget)
        exact = True
    except EnumerationBudgetError:
        mean = float(values.mean())
        exact = False
    deviations = np.abs(values - mean)
    frequencies = (deviations[:, None] >= grid[None, :]).mean(axis=0)
    return TailEstimate(
        t_grid=grid,
        frequencies=frequencies,
        stderr=binomial_stderr(frequencies, n),
        n_samples=n,
        mean=float(mean),
        exact_mean=exact,
    )


def check_tail_domination(estimate: TailEstimate, bound: TailBound) -> VerificationReport:
    """Assert the empirical tail stays below bound.delta_at(t) at every grid point.

    Row coordinates: k is the 1-based grid index; the allowance is
    DOMINATION_SIGMAS Monte Carlo standard errors.
    """
    rows = []
    for i, t in enumerate(estimate.t_grid):
        rows.append(
            make_check(
                check=f"tail_domination:{bound.name}",
                observed=float(estimate.frequencies[i]),
                bound=bound.delta_at(float(t)),
                k=i + 1,
                tolerance=DOMINATION_SIGMAS * float(estimate.stderr[i]),
            )
        )
    return VerificationReport(tuple(rows))


def tightness_ratios(estimate: TailEstimate, bound: TailBound) -> np.ndarray:
    """bound / empirical per grid point; infinity where the empirical tail is 0."""
    values = np.array([bound.delta_at(float(t)) for t in estimate.t_grid])
    with np.errstate(divide="ignore"):
        return np.where(
            estimate.frequencies > 0.0,
            values / np.where(estimate.frequencies > 0.0, estimate.frequencies, 1.0),
            np.inf,
        )


def tail_csv_rows(estimate: TailEstimate, bounds: Sequence[TailBound]) -> list[tuple]:
    """Rows for the `t,empirical,stderr,bound_name,bound_value,pass` layout."""
    rows = []
    for i, t in enumerate(estimate.t_grid):
        emp = float(estimate.frequencies[i])
        err = float(estimate.stderr[i])
        for bound in bounds:
            if not bound.applicable:
                continue
            value = bound.delta_at(float(t))
            rows.append(
                (float(t), emp, err, bound.name, value, emp <= value + DOMINATION_SIGMAS * err)
            )
    return rows
