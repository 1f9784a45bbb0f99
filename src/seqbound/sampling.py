"""Trajectory sampling and empirical tail estimation.

Forward chain-rule sampling of a :class:`~seqbound.process.ProcessSpec`, an
empirical exceedance-tail estimator for ``|f(X) - E f(X)| >= t``, and checks
that the empirical tail stays below each concentration bound.  Samples are
drawn in blocks of ``_block_rows(n, N)`` rows: at least ``SAMPLE_BLOCK_ROWS``
rows and at least ``SAMPLE_BLOCK_CELLS`` cells (rows * N), and never more than
n.  The estimators reduce each block as it is drawn, so their memory is
O(max(SAMPLE_BLOCK_ROWS * N, SAMPLE_BLOCK_CELLS) + n_samples), not
O(n_samples * N).  A step draws each symbol by a binary search over its
kernel row's cumulative sums in which every level is one gather from a
contiguous vector of that level's probes and one compare, so a two-symbol
step is two array calls.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .bounds import TailBound
from .errors import EnumerationBudgetError
from .process import ProcessSpec, _symbols, exact_expectation, history_ranks, step_table
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

# Block size: at least SAMPLE_BLOCK_ROWS rows and at least SAMPLE_BLOCK_CELLS
# cells, so a short horizon draws few large blocks instead of many small ones.
# The sampler's memory is block * N float64s, an eighth of that again, one
# block of paths and the tables: O(max(SAMPLE_BLOCK_ROWS * N,
# SAMPLE_BLOCK_CELLS)) whatever n is, so a caller that reduces each block
# needs that plus O(n_samples) in all.
SAMPLE_BLOCK_ROWS = 2048
SAMPLE_BLOCK_CELLS = 2**17


def _block_rows(n: int, horizon: int) -> int:
    """Rows per block for n samples of N = ``horizon`` steps: at most n, and
    otherwise SAMPLE_BLOCK_ROWS or as many rows as fill SAMPLE_BLOCK_CELLS
    cells, whichever is more."""
    return min(n, max(SAMPLE_BLOCK_ROWS, SAMPLE_BLOCK_CELLS // horizon))


def _probe_vectors(table: np.ndarray) -> list[np.ndarray]:
    """The cumulative sums each level of the sampler's binary search probes,
    one contiguous vector per level, top level first.

    Each row's first |A| - 1 cumulative sums, padded with +inf to a stride
    of 2**L, L = max((|A| - 1).bit_length(), 1), and flattened, are probed
    at level lv (L - 1 down to 0) at offsets 2**lv - 1 + k * 2**(lv + 1):
    level lv's vector holds those, copied, because ``np.take`` copies a
    strided source on every call.  The search reads it at row * 2**(L-1-lv)
    plus the bits decided above.
    """
    size = table.shape[1]
    levels = max((size - 1).bit_length(), 1)
    padded = np.full((table.shape[0], 1 << levels), np.inf)
    padded[:, : size - 1] = np.cumsum(table, axis=1)[:, :-1]
    flat = padded.ravel()
    return [flat[(1 << lv) - 1 :: 2 << lv].copy() for lv in reversed(range(levels))]


def _trajectory_blocks(spec: ProcessSpec, n: int, seed: int, prefix: Sequence[int] = ()):
    """Yield ``(start, rows)``: rows start..start + len(rows) - 1 of
    ``sample_trajectories(spec, n, seed, prefix)``, ``_block_rows(n, N)`` at
    a time (at least ``SAMPLE_BLOCK_ROWS`` rows and ``SAMPLE_BLOCK_CELLS``
    cells, at most n rows).

    ``rows`` is a view of one reused (block, N) column-major buffer, which
    the next block overwrites: reduce it before asking for more.  Each
    block's uniforms are read from the stream in chunks of at most an eighth
    of a block and copied transposed into one reused (N, block) buffer, so
    each step reads its uniforms as one contiguous row.  Memory is these
    two buffers, one chunk and the probe vectors: O(block * N), that is
    O(max(SAMPLE_BLOCK_ROWS * N, SAMPLE_BLOCK_CELLS)), whatever n is.

    Each step inverts the CDF of every sample's row of the step's kernel
    table by a binary search over the row's cumulative sums, one level per
    vector of ``_probe_vectors``.  The top level gathers at the row's rank:
    the path column itself for a one-coordinate signature, else
    ``history_ranks``.  Its compare writes the symbol's top bit straight
    into the path column, so a two-symbol step is one gather and one
    compare.  Each further level gathers at key = 2 * key + bit, in intp,
    and shifts its bit into the column.  The symbol is the number of the
    row's first |A| - 1 cumulative sums at or below the uniform, so
    zero-probability symbols, whose cells are empty, are never selected;
    the +inf padding is never at or below it.  Row i reads the i-th N
    uniforms of the stream whatever the block shape, so the paths do not
    depend on the block size.  Arguments are checked when the first block
    is asked for.
    """
    if n < 1:
        raise ValueError(f"n_samples must be positive, got {n}")
    horizon, size = spec.horizon, spec.alphabet.size
    pre = _symbols(prefix, size, "prefix")
    if len(pre) > horizon:
        raise ValueError(f"prefix {pre} is not a history of this process")
    steps = range(len(pre) + 1, horizon + 1)
    tables = {step: _probe_vectors(step_table(spec, step)) for step in steps}
    block = _block_rows(n, horizon)
    # Column-major, so each step reads and writes one contiguous column.
    buffer = np.zeros((block, horizon), dtype=np.min_scalar_type(size - 1), order="F")
    buffer[:, : len(pre)] = pre
    # A bool view stores the top bit without a cast where paths are one byte.
    top_bits = buffer.view(bool) if buffer.itemsize == 1 else buffer
    rng = np.random.default_rng(seed)
    uniforms = np.empty((horizon, block))
    chunk = np.empty((max(block // 8, 1), horizon))
    for start in range(0, n, block):
        m = min(block, n - start)
        rows = buffer[:m]
        for lo in range(0, m, chunk.shape[0]):
            drawn = rng.random(out=chunk[: m - lo])
            uniforms[:, lo : lo + drawn.shape[0]] = drawn.T
        for step in steps:
            probes, coords = tables[step], spec.signature_coords(step)
            u, column = uniforms[step - 1, :m], rows[:, step - 1]
            key = rows[:, coords[0] - 1] if len(coords) == 1 else history_ranks(spec, step, rows)
            below = np.less_equal(probes[0].take(key), u, out=top_bits[:m, step - 1])
            for probe in probes[1:]:
                key = np.left_shift(key, 1, dtype=np.intp)
                key += below
                below = probe.take(key) <= u
                column <<= 1
                column += below
        yield start, rows


def sample_trajectories(
    spec: ProcessSpec, n_samples: int, seed: int, prefix: Sequence[int] = ()
) -> np.ndarray:
    """(n_samples, N) unsigned-integer array of trajectories, deterministic in the seed.

    Row i reads the i-th N uniforms of one seeded stream, one per step, so the
    result is bit-reproducible and independent of how samples would be
    scheduled across workers.  Each symbol is the number of its kernel row's
    first |A| - 1 cumulative sums at or below its uniform, found by the
    per-level binary search of ``_trajectory_blocks``.  The blocks of ``_trajectory_blocks`` are
    copied into the returned array, so memory beside it is O(block * N);
    callers that only reduce the paths read the blocks themselves.  The
    columns of ``prefix`` are pinned in every row, and drawing starts after
    them, with the same uniforms; a prefix symbol that is not an integer in
    0..|A|-1 raises ValueError.
    """
    n = int(n_samples)
    blocks = _trajectory_blocks(spec, n, seed, prefix)
    _, rows = next(blocks)
    paths = np.empty((n, spec.horizon), dtype=rows.dtype, order="F")
    paths[: rows.shape[0]] = rows
    for start, rows in blocks:
        paths[start : start + rows.shape[0]] = rows
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

    f is evaluated on each block of ``_trajectory_blocks`` as it is drawn,
    so memory is O(max(SAMPLE_BLOCK_ROWS * N, SAMPLE_BLOCK_CELLS) +
    n_samples): the paths are never held whole.
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

    values = np.empty(n)
    for start, rows in _trajectory_blocks(spec, n, seed):
        values[start : start + rows.shape[0]] = evaluate_batch(f, rows)
    try:
        mean = exact_expectation(spec, f, budget)
        exact = True
    except EnumerationBudgetError:
        mean = float(values.mean())
        exact = False
    deviations = np.abs(values - mean)
    frequencies = np.array([np.count_nonzero(deviations >= t) for t in grid]) / n
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
    """Rows for the `t,empirical,stderr,bound_name,bound_value,pass` layout,
    each applicable bound's columns read off ``check_tail_domination``."""
    applicable = [bound for bound in bounds if bound.applicable]
    checks = [check_tail_domination(estimate, bound).rows for bound in applicable]
    rows = []
    for i, t in enumerate(estimate.t_grid):
        err = float(estimate.stderr[i])
        for bound, check in zip(applicable, checks):
            row = check[i]
            rows.append((float(t), row.observed, err, bound.name, row.bound, row.passed))
    return rows
