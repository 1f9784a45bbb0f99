"""Maximal-coupling machinery and exact verification of the core inequalities.

Couples two copies of a process with the optimal (maximal) total-variation
coupling at every step, as one coupled-pair process per spec whose step
tables are ``maximal_coupling_joint`` of two base rows.  Two copies that
share a prefix and diverge at one pivot step are a prefix of that process,
so the generic trajectory sampler draws the coupled paths.  Provides
simulation and exact pair-process enumeration of the per-step disagreement
probabilities, one pass per pivot step for all pivot pairs, and
report-producing verifiers: the pair tables against their base rows, and
the disagreement probabilities and f's conditional oscillations against the
resolvent of a ``BoundReport``.  The suites take that resolvent and f's
``prefix_expectation_table`` as given.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .process import (
    ProcessSpec,
    _check_distributions,
    _coordinate_ranks,
    _symbols,
    ensure_budget,
    extend_histories,
    spec_from_tables,
    step_table,
    trajectory_rows,
)
from .report import VerificationReport, make_check
from .sampling import _trajectory_blocks, binomial_stderr
from .targets import as_sensitivity, bounded_differences, evaluate_batch

# ============================================================
# Tolerances
# ============================================================

# Slack allowed when an exact quantity is compared against an exact bound.
EXACT_COMPARISON_TOLERANCE = 1e-9
# Slack allowed when a declared sensitivity is compared against the oracle.
DECLARED_SENSITIVITY_TOLERANCE = 1e-12
# Monte Carlo allowances, in standard errors.
RECURSION_SIGMAS = 3.0
# No suite uses it; bench/checks.py imports it.
MARGINAL_SIGMAS = 4.0


# ============================================================
# Maximal coupling of two distributions
# ============================================================


def maximal_coupling_joint(mu, nu) -> np.ndarray:
    """Joint law attaining P(y != z) = TV(mu, nu) with the given marginals.

    Mass min(mu, nu) sits on the diagonal; the residual excess of mu over nu
    is paired with the residual deficit via an outer product.  The residual
    supports are disjoint, so all off-diagonal mass disagrees.  Stacks of
    distributions along the last axis give the stack of joints, shape
    (..., |A|, |A|).  Inputs pass ``_check_distributions``, then are clipped
    at 0 and renormalised.
    """
    p, q = np.asarray(mu, dtype=float), np.asarray(nu, dtype=float)
    _check_distributions(p, "mu", ndim=max(p.ndim, 1))
    _check_distributions(q, "nu", ndim=max(q.ndim, 1))
    if p.shape != q.shape:
        raise ValueError(f"length mismatch: {p.shape} vs {q.shape}")
    p, q = np.clip(p, 0.0, None), np.clip(q, 0.0, None)
    p, q = p / p.sum(axis=-1, keepdims=True), q / q.sum(axis=-1, keepdims=True)
    overlap = np.minimum(p, q)
    excess, deficit = p - overlap, q - overlap
    joint = overlap[..., None] * np.eye(overlap.shape[-1])
    tv = excess.sum(axis=-1)[..., None, None]
    # Where tv is 0 the excess is 0 too, so the outer product adds nothing.
    joint = joint + excess[..., :, None] * deficit[..., None, :] / np.where(tv > 0.0, tv, 1.0)
    return np.clip(joint, 0.0, None)


def maximal_coupling_draws(
    mu, nu, n_draws: int, randomness: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """n_draws pairs (y, z) with y ~ mu, z ~ nu and P(y != z) = TV(mu, nu).

    One uniform per draw inverts the CDF of the flattened
    ``maximal_coupling_joint`` by ``sample_trajectories``' rule: the cell is
    the number of cumulative sums, all but the last, at or below the
    uniform.  It splits into (y, z) = divmod(cell, |A|).
    """
    joint = maximal_coupling_joint(mu, nu)
    if joint.ndim != 2:
        raise ValueError(f"mu and nu must be probability vectors, got shape {joint.shape[:-1]}")
    n = int(n_draws)
    if n < 1:
        raise ValueError(f"n_draws must be positive, got {n_draws}")
    cum = np.cumsum(joint.ravel())
    cells = np.searchsorted(cum[:-1], randomness.random(n), side="right")
    return np.divmod(cells, joint.shape[0])


# ============================================================
# The coupled pair as a process over the squared alphabet
# ============================================================


def _pivot_prefix(spec: ProcessSpec, k: int, prefix, x, xp) -> tuple[int, ...]:
    """The pivot as a prefix of the coupled pair process: both copies follow
    ``prefix``, then take x and xp at step k."""
    size = spec.alphabet.size
    if not 1 <= k <= spec.horizon:
        raise ValueError(f"pivot must be in 1..{spec.horizon}, got {k}")
    pre = _symbols(prefix, size, "prefix")
    if len(pre) != k - 1:
        raise ValueError(f"prefix must have length {k - 1}, got {len(pre)}")
    y, z = _symbols((x, xp), size, "pivot")
    return tuple(a * size + a for a in pre) + (y * size + z,)


def _pair_halves(spec: ProcessSpec, step: int) -> tuple[np.ndarray, np.ndarray]:
    """The base rows (mu, nu) that the Y and Z halves of each row of the pair
    step table select, as two (|A|^(2 |sig|), |A|) arrays in row order."""
    size = spec.alphabet.size
    m = len(spec.signatures[step - 1])
    ensure_budget((size * size) ** m, None, f"pair kernel table of step {step}")
    pairs, coords = trajectory_rows(m, size * size), range(1, m + 1)
    y, z = (_coordinate_ranks(half, coords, size) for half in (pairs // size, pairs % size))
    base = step_table(spec, step)
    return base[y], base[z]


def coupled_pair_process(spec: ProcessSpec) -> ProcessSpec:
    """The coupled pair (Y, Z) as a process over pair symbols y*size + z.

    Every step reads the base step's signature, and its table row at a pair
    assignment is the flattened maximal-coupling joint of the two base table
    rows the Y and Z halves select.  A pivot is a prefix of this one process,
    so exact enumeration and the generic trajectory sampler start after it.
    The process is built on first use and kept on the base spec.
    """
    pair = spec._derived.get("coupled-pair")
    if pair is not None:
        return pair
    size = spec.alphabet.size
    tables = [
        maximal_coupling_joint(*_pair_halves(spec, j)).reshape(-1, size * size)
        for j in range(1, spec.horizon + 1)
    ]
    pair = spec_from_tables(tables, spec.signatures, "coupled-pair", {"base_alphabet": size})
    spec._derived["coupled-pair"] = pair
    return pair


def exact_pair_discrepancy(
    spec: ProcessSpec, k: int, prefix, x, xp, budget: int | None = None
) -> np.ndarray:
    """Exact per-step disagreement probabilities v_j = P(Y_j != Z_j).

    v_j for j <= k is read off the pivot prefix.  From there
    ``extend_histories`` runs the forward pass over the coupled pair
    process, and each positive-probability pair history keeps the index of
    its pivot pair; no sampling error.  Equal-length vectors x and xp give
    one row of v per pivot pair, from one pass.  The budget counts the
    (|A|^2)^(N - k) pair suffixes of one pivot pair and is checked before
    the pair process is built.
    """
    n, size = spec.horizon, spec.alphabet.size
    shape = np.shape(x)
    if np.shape(xp) != shape or len(shape) > 1 or 0 in shape:
        raise ValueError(f"x, xp must be symbols or equal-length vectors: {shape}, {np.shape(xp)}")
    pairs = zip(np.ravel(x).tolist(), np.ravel(xp).tolist())
    starts = [_pivot_prefix(spec, k, prefix, a, b) for a, b in pairs]
    ensure_budget((size * size) ** (n - k), budget, "exact pair-process enumeration")
    pair = coupled_pair_process(spec)
    disagrees = ~np.eye(size, dtype=bool).ravel()
    count = len(starts)
    paths = np.array(starts)
    origin = np.arange(count)
    probs = np.ones(count)
    v = np.zeros((count, n))
    v[:, :k] = disagrees[paths]
    for j in range(k + 1, n + 1):
        paths, probs, parent = extend_histories(pair, j, paths, probs)
        origin = origin[parent]
        # bincount adds each pair's terms one at a time in history order.
        hit = disagrees[paths[:, -1]]
        v[:, j - 1] = np.bincount(origin[hit], probs[hit], minlength=count)
    return v if shape else v[0]


@dataclass(frozen=True, eq=False)
class DiscrepancyEstimate:
    """Monte Carlo disagreement frequencies per coordinate, with stderr."""

    v_hat: np.ndarray
    stderr: np.ndarray
    n_samples: int

    def __post_init__(self) -> None:
        v = np.array(self.v_hat, dtype=float)
        err = np.array(self.stderr, dtype=float)
        if v.ndim != 1 or err.shape != v.shape:
            raise ValueError("v_hat and stderr must be equal-length vectors")
        if float(v.min()) < 0.0 or float(v.max()) > 1.0:
            raise ValueError("disagreement frequencies must lie in [0, 1]")
        v.setflags(write=False)
        err.setflags(write=False)
        object.__setattr__(self, "v_hat", v)
        object.__setattr__(self, "stderr", err)


def simulate_coupled_paths(
    spec: ProcessSpec,
    k: int,
    prefix,
    x: int,
    xp: int,
    n_samples: int,
    seed: int,
) -> DiscrepancyEstimate:
    """Monte Carlo disagreement frequencies from n_samples coupled rollouts.

    The coupled pair process is sampled with the pivot pinned as its prefix,
    so every step after the pivot applies the maximal coupling of the two
    history-conditioned kernels; sample i reads the i-th N uniforms of one
    seeded stream, as in ``sample_trajectories``, so results are
    deterministic in (spec, k, prefix, x, xp, n_samples, seed).
    Disagreements are counted block by block as the paths are drawn, so
    memory is O(max(SAMPLE_BLOCK_ROWS * N, SAMPLE_BLOCK_CELLS)), whatever
    n_samples is (``sampling._block_rows``).
    """
    start = _pivot_prefix(spec, k, prefix, x, xp)
    off_diagonal = ~np.eye(spec.alphabet.size, dtype=bool).ravel()
    n = int(n_samples)
    counts = np.zeros(spec.horizon, dtype=np.int64)
    for _, (rows,) in _trajectory_blocks([(coupled_pair_process(spec), start)], n, seed):
        _count_disagreements(counts, rows, off_diagonal)
    return _discrepancy_estimate(counts, n)


def _count_disagreements(counts: np.ndarray, rows: np.ndarray, off_diagonal: np.ndarray) -> None:
    """Add to counts[j] the rows of a block of pair paths that disagree at
    coordinate j + 1, one contiguous column at a time."""
    for j, column in enumerate(rows.T):
        counts[j] += np.count_nonzero(off_diagonal.take(column))


def _discrepancy_estimate(counts: np.ndarray, n: int) -> DiscrepancyEstimate:
    v_hat = counts / n
    return DiscrepancyEstimate(v_hat=v_hat, stderr=binomial_stderr(v_hat, n), n_samples=n)


def sample_values_and_discrepancy(
    spec: ProcessSpec, f, x: int, xp: int, n_samples: int, seed: int
) -> tuple[np.ndarray, DiscrepancyEstimate]:
    """f on ``sample_trajectories(spec, n_samples, seed)``, and
    ``simulate_coupled_paths(spec, 1, (), x, xp, n_samples, seed)``, from one
    draw: row i of both reads the i-th N uniforms of the seeded stream,
    drawn once for the two lanes.  Each block is reduced as it is drawn, so
    memory is one block per lane plus the n_samples values.  Both results
    are bit-identical to those of the two one-lane draws, and the values to
    those ``empirical_tail`` evaluates.
    """
    n = int(n_samples)
    lanes = [(spec, ()), (coupled_pair_process(spec), _pivot_prefix(spec, 1, (), x, xp))]
    off_diagonal = ~np.eye(spec.alphabet.size, dtype=bool).ravel()
    values = np.empty(n)
    counts = np.zeros(spec.horizon, dtype=np.int64)
    for start, (paths, pairs) in _trajectory_blocks(lanes, n, seed):
        values[start : start + paths.shape[0]] = evaluate_batch(f, paths)
        _count_disagreements(counts, pairs, off_diagonal)
    return values, _discrepancy_estimate(counts, n)


def _first_positive_prefix(spec: ProcessSpec, depth: int) -> tuple[int, ...]:
    """The lexicographically first positive-probability prefix of length
    ``depth``: the forward pass, continued from its first row only."""
    paths, probs = np.zeros((1, 0), dtype=np.uint8), np.ones(1)
    for step in range(1, depth + 1):
        paths, probs, _ = extend_histories(spec, step, paths[:1], probs[:1])
    return tuple(paths[0].tolist())


# ============================================================
# Verifiers
# ============================================================


def verify_oscillation_bound(spec: ProcessSpec, table, gamma, c) -> VerificationReport:
    """Check every conditional oscillation against the resolvent-weighted bound.

    ``table`` is f's ``prefix_expectation_table(spec, f)``.  First validates
    the declared sensitivity against the exhaustive oracle, read off f's
    values in ``table[-1]`` (failures short-circuit with per-coordinate
    witness rows), then compares the exact oscillation at every
    positive-probability prefix, found by ``extend_histories``, with
    (Gamma c)_k.  Violation rows embed the witness prefix.
    """
    n, size = spec.horizon, spec.alphabet.size
    vec = as_sensitivity(c, n)
    weighted = np.asarray(gamma, dtype=float) @ vec
    oracle = bounded_differences(table[-1].reshape((size,) * n))
    excess = oracle - vec
    if float(excess.max()) > DECLARED_SENSITIVITY_TOLERANCE:
        rows = [
            make_check(
                check="sensitivity_declared",
                observed=float(oracle[i]),
                bound=float(vec[i]),
                j=i + 1,
                tolerance=DECLARED_SENSITIVITY_TOLERANCE,
            )
            for i in np.flatnonzero(excess > DECLARED_SENSITIVITY_TOLERANCE)
        ]
        return VerificationReport(tuple(rows))
    rows = [
        make_check(
            check="sensitivity_declared",
            observed=float(excess.max()),
            bound=0.0,
            tolerance=DECLARED_SENSITIVITY_TOLERANCE,
        )
    ]

    # The positive-probability prefixes of length k - 1, in rank order, and
    # their ranks, which index table[k - 1].
    paths, probs = np.zeros((1, 0), dtype=np.uint8), np.ones(1)
    ranks = np.zeros(1, dtype=np.intp)
    for k in range(1, n + 1):
        children = table[k].reshape(-1, size)[ranks]
        deltas = children.max(axis=1) - children.min(axis=1)
        violated = deltas > weighted[k - 1] + EXACT_COMPARISON_TOLERANCE
        for row in np.flatnonzero(violated).tolist():
            rows.append(
                make_check(
                    check=f"oscillation_violation[prefix={tuple(paths[row].tolist())}]",
                    observed=deltas[row],
                    bound=float(weighted[k - 1]),
                    k=k,
                    tolerance=EXACT_COMPARISON_TOLERANCE,
                )
            )
        rows.append(
            make_check(
                check="oscillation_worst",
                observed=deltas.max(),
                bound=float(weighted[k - 1]),
                k=k,
                tolerance=EXACT_COMPARISON_TOLERANCE,
            )
        )
        if k < n:
            paths, probs, parent = extend_histories(spec, k, paths, probs)
            ranks = ranks[parent] * size + paths[:, -1]
    return VerificationReport(tuple(rows))


def verify_discrepancy_recursion(
    spec: ProcessSpec,
    gamma,
    n_samples: int = 100_000,
    seed: int = 0,
    budget: int | None = None,
) -> VerificationReport:
    """Check exact and sampled disagreement probabilities against rows of Gamma.

    The rows of ``exact_discrepancy_rows``, then those of
    ``sampled_discrepancy_rows`` for ``simulate_coupled_paths`` at the
    pivot the exact rows chose.
    """
    rows, (x, xp), exact = exact_discrepancy_rows(spec, gamma, budget)
    estimate = simulate_coupled_paths(spec, 1, (), x, xp, n_samples, seed)
    return VerificationReport(tuple(rows + sampled_discrepancy_rows(gamma, estimate, exact)))


def exact_discrepancy_rows(
    spec: ProcessSpec, gamma, budget: int | None = None
) -> tuple[list, tuple[int, int], np.ndarray]:
    """The ``discrepancy_exact`` rows, and the pivot-state pair (x, xp) of
    the Monte Carlo check at pivot 1, with its exact v.

    For every pivot k (at the lexicographically first positive-probability
    prefix) and every ordered pivot-state pair, the exactly enumerated v
    must satisfy v_j <= Gamma[k, j] coordinate-wise; rows record the worst
    pair per (k, j).  The Monte Carlo pivot is the pair at k = 1 with the
    largest exact total disagreement.
    """
    n, size = spec.horizon, spec.alphabet.size
    gamma = np.asarray(gamma, dtype=float)
    if gamma.shape != (n, n):
        raise ValueError(f"resolvent must be {n} x {n}, got shape {gamma.shape}")
    xs, xps = np.divmod(np.arange(size * size), size)
    # The first positive prefixes of every length are prefixes of the longest.
    first = _first_positive_prefix(spec, n - 1)
    rows = []
    for k in range(1, n + 1):
        v = exact_pair_discrepancy(spec, k, first[: k - 1], xs, xps, budget)
        if k == 1:
            best = int(np.argmax(v.sum(axis=1)))
            pivot, exact = (int(xs[best]), int(xps[best])), v[best]
        worst = v.max(axis=0)
        for j in range(1, n + 1):
            rows.append(
                make_check(
                    check="discrepancy_exact",
                    observed=float(worst[j - 1]),
                    bound=float(gamma[k - 1, j - 1]),
                    k=k,
                    j=j,
                    tolerance=EXACT_COMPARISON_TOLERANCE,
                )
            )
    return rows, pivot, exact


def sampled_discrepancy_rows(gamma, estimate: DiscrepancyEstimate, exact) -> list:
    """The ``discrepancy_mc_bound`` and ``discrepancy_mc_exact`` rows of a
    Monte Carlo run at pivot 1: its frequencies must respect Gamma's first
    row and agree with the exact v, each within RECURSION_SIGMAS standard
    errors."""
    gamma = np.asarray(gamma, dtype=float)
    rows = []
    for j in range(1, len(estimate.v_hat) + 1):
        allowance = RECURSION_SIGMAS * float(estimate.stderr[j - 1])
        rows.append(
            make_check(
                check="discrepancy_mc_bound",
                observed=float(estimate.v_hat[j - 1]),
                bound=float(gamma[0, j - 1]),
                k=1,
                j=j,
                tolerance=allowance,
            )
        )
        rows.append(
            make_check(
                check="discrepancy_mc_exact",
                observed=abs(float(estimate.v_hat[j - 1]) - float(exact[j - 1])),
                bound=allowance,
                k=1,
                j=j,
            )
        )
    return rows


def verify_coupling_marginals(spec: ProcessSpec) -> VerificationReport:
    """Check every row of the coupled pair process against its base rows.

    Each pair step-table row, as a |A| x |A| joint, must have the Y half's
    base row mu as its Y marginal, the Z half's base row nu as its Z
    marginal, and off-diagonal mass TV(mu, nu), all exactly, up to
    EXACT_COMPARISON_TOLERANCE.  One row per (step, check): k is the step
    and the observed value the worst absolute deviation over its rows.
    """
    pair = coupled_pair_process(spec)
    size = spec.alphabet.size
    disagrees = ~np.eye(size, dtype=bool).ravel()
    rows = []
    for j in range(1, spec.horizon + 1):
        mu, nu = _pair_halves(spec, j)
        table = step_table(pair, j)
        joint = table.reshape(-1, size, size)
        tv = 0.5 * np.abs(mu - nu).sum(axis=-1)
        for check, deviation in (
            ("coupling_marginal_exact_y", joint.sum(axis=2) - mu),
            ("coupling_marginal_exact_z", joint.sum(axis=1) - nu),
            ("coupling_disagreement_exact", table[:, disagrees].sum(axis=1) - tv),
        ):
            rows.append(
                make_check(
                    check=check,
                    observed=np.abs(deviation).max(),
                    bound=0.0,
                    k=j,
                    tolerance=EXACT_COMPARISON_TOLERANCE,
                )
            )
    return VerificationReport(tuple(rows))
