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
    _symbols,
    ensure_budget,
    history_ranks,
    mixed_radix_unrank,
    spec_from_tables,
    step_table,
    table_row,
    trajectory_rows,
)
from .report import VerificationReport, make_check
from .resolvent import matrix_entries
from .sampling import binomial_stderr, sample_trajectories
from .targets import as_sensitivity, bounded_differences

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
    pair_size = size * size
    m = len(spec.signatures[step - 1])
    ensure_budget(pair_size ** m, None, f"pair kernel table of step {step}")
    pairs = np.indices((pair_size,) * m).reshape(m, pair_size ** m).T
    weights = size ** np.arange(m - 1, -1, -1)
    base = step_table(spec, step)
    return base[(pairs // size) @ weights], base[(pairs % size) @ weights]


def coupled_pair_process(spec: ProcessSpec) -> ProcessSpec:
    """The coupled pair (Y, Z) as a process over pair symbols y*size + z.

    Every step reads the base step's signature, and its table row at a pair
    assignment is the flattened maximal-coupling joint of the two base table
    rows the Y and Z halves select.  A pivot is a prefix of this one process,
    so exact enumeration and the generic trajectory sampler start after it.
    The process is built on first use and kept on the base spec.
    """
    pair = spec._tables.get("coupled-pair")
    if pair is not None:
        return pair
    size = spec.alphabet.size
    tables = [
        maximal_coupling_joint(*_pair_halves(spec, j)).reshape(-1, size * size)
        for j in range(1, spec.horizon + 1)
    ]
    pair = spec_from_tables(tables, spec.signatures, "coupled-pair", {"base_alphabet": size})
    spec._tables["coupled-pair"] = pair
    return pair


def exact_pair_discrepancy(
    spec: ProcessSpec, k: int, prefix, x, xp, budget: int | None = None
) -> np.ndarray:
    """Exact per-step disagreement probabilities v_j = P(Y_j != Z_j).

    v_j for j <= k is read off the pivot prefix.  From there a forward pass
    over the coupled pair process keeps each positive-probability pair
    history as a path-array row with its probability and pivot pair, and
    extends it by the positive entries of the step-table row it selects; no
    sampling error.  Equal-length vectors x and xp give one row of v per
    pivot pair, from one pass.  The budget counts the (|A|^2)^(N - k) pair
    suffixes of one pivot pair and is checked before the pair process is
    built.
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
    paths = np.zeros((count, n), dtype=np.min_scalar_type(size * size - 1))
    paths[:, :k] = starts
    origin = np.arange(count)
    probs = np.ones(count)
    v = np.zeros((count, n))
    v[:, :k] = disagrees[paths[:, :k]]
    for j in range(k + 1, n + 1):
        rows = step_table(pair, j)[history_ranks(pair, j, paths)]
        hist, sym = np.nonzero(rows > 0.0)
        probs = probs[hist] * rows[hist, sym]
        paths, origin = paths[hist], origin[hist]
        paths[:, j - 1] = sym
        # bincount adds each pair's terms one at a time in history order.
        hit = disagrees[sym]
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

    ``sample_trajectories`` draws the coupled pair process with the pivot
    pinned as its prefix, so every step after the pivot applies the maximal
    coupling of the two history-conditioned kernels; sample i reads the i-th
    N uniforms of one seeded stream, so results are deterministic in
    (spec, k, prefix, x, xp, n_samples, seed).
    """
    start = _pivot_prefix(spec, k, prefix, x, xp)
    off_diagonal = ~np.eye(spec.alphabet.size, dtype=bool).ravel()
    paths = sample_trajectories(coupled_pair_process(spec), n_samples, seed, start)
    v_hat = off_diagonal[paths].mean(axis=0)
    return DiscrepancyEstimate(
        v_hat=v_hat,
        stderr=binomial_stderr(v_hat, int(n_samples)),
        n_samples=int(n_samples),
    )


def _first_positive_prefix(spec: ProcessSpec, depth: int) -> tuple[int, ...]:
    prefix: tuple[int, ...] = ()
    for step in range(1, depth + 1):
        vec = table_row(spec, step, prefix)
        sym = int(np.flatnonzero(vec > 0.0)[0])
        prefix += (sym,)
    return prefix


# ============================================================
# Verifiers
# ============================================================


def verify_oscillation_bound(spec: ProcessSpec, table, gamma, c) -> VerificationReport:
    """Check every conditional oscillation against the resolvent-weighted bound.

    ``table`` is f's ``prefix_expectation_table(spec, f)``.  First validates
    the declared sensitivity against the exhaustive oracle, read off f's
    values in ``table[-1]`` (failures short-circuit with per-coordinate
    witness rows), then compares the exact oscillation at every
    positive-probability prefix, found by a boolean forward pass over the
    step tables, with (Gamma c)_k.  Violation rows embed the witness prefix.
    """
    n, size = spec.horizon, spec.alphabet.size
    vec = as_sensitivity(c, n)
    weighted = matrix_entries(gamma) @ vec
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

    # reachable[r]: the length-(k - 1) prefix of rank r has positive probability.
    reachable = np.ones(1, dtype=bool)
    for k in range(1, n + 1):
        children = table[k].reshape(-1, size)
        deltas = children.max(axis=1) - children.min(axis=1)
        violated = reachable & (deltas > weighted[k - 1] + EXACT_COMPARISON_TOLERANCE)
        for rank in np.flatnonzero(violated).tolist():
            prefix = mixed_radix_unrank(rank, k - 1, size)
            rows.append(
                make_check(
                    check=f"oscillation_violation[prefix={prefix}]",
                    observed=deltas[rank],
                    bound=float(weighted[k - 1]),
                    k=k,
                    tolerance=EXACT_COMPARISON_TOLERANCE,
                )
            )
        rows.append(
            make_check(
                check="oscillation_worst",
                observed=deltas[reachable].max(),
                bound=float(weighted[k - 1]),
                k=k,
                tolerance=EXACT_COMPARISON_TOLERANCE,
            )
        )
        if k < n:
            probs = step_table(spec, k)[history_ranks(spec, k, trajectory_rows(k - 1, size))]
            reachable = (reachable[:, None] & (probs > 0.0)).ravel()
    return VerificationReport(tuple(rows))


def verify_discrepancy_recursion(
    spec: ProcessSpec,
    gamma,
    n_samples: int = 100_000,
    seed: int = 0,
    budget: int | None = None,
) -> VerificationReport:
    """Check exact and sampled disagreement probabilities against rows of Gamma.

    For every pivot k (at the lexicographically first positive-probability
    prefix) and every ordered pivot-state pair, the exactly enumerated v
    must satisfy v_j <= Gamma[k, j] coordinate-wise; rows record the worst
    pair per (k, j).  A Monte Carlo run at pivot 1, at the pair with the
    largest exact total disagreement, must agree with the exact v within
    RECURSION_SIGMAS standard errors and respect the same bound.
    """
    n, size = spec.horizon, spec.alphabet.size
    gamma = matrix_entries(gamma)
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
            mc_pair, mc_exact = (int(xs[best]), int(xps[best])), v[best]
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

    estimate = simulate_coupled_paths(spec, 1, (), mc_pair[0], mc_pair[1], n_samples, seed)
    for j in range(1, n + 1):
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
                observed=abs(float(estimate.v_hat[j - 1]) - float(mc_exact[j - 1])),
                bound=allowance,
                k=1,
                j=j,
            )
        )
    return VerificationReport(tuple(rows))


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
