"""Maximal-coupling machinery and exact verification of the core inequalities.

Couples two copies of a process that share a prefix and diverge at one pivot
step, using the optimal (maximal) total-variation coupling at every later
step.  Provides simulation and exact pair-process enumeration of the
per-step disagreement probabilities, the resolvent row that dominates them,
exact conditional-oscillation computation, and report-producing verifiers
for all of the above.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from .influence import interdependence_matrix, tv_distance
from .process import (
    Alphabet,
    ProcessSpec,
    conditional_expectation,
    ensure_budget,
    kernel_at,
    prefix_expectation_table,
)
from .report import VerificationReport, make_check
from .resolvent import causal_resolvent
from .sampling import binomial_stderr, sample_trajectories
from .targets import as_sensitivity, lipschitz_vector_oracle

# ============================================================
# Tolerances
# ============================================================

# Inputs may carry accumulated rounding; anything below this is treated as 0.
NEGATIVE_MASS_TOLERANCE = -1e-15
# Slack allowed when an exact quantity is compared against an exact bound.
EXACT_COMPARISON_TOLERANCE = 1e-9
# Slack allowed when a declared sensitivity is compared against the oracle.
DECLARED_SENSITIVITY_TOLERANCE = 1e-12
# Monte Carlo allowances, in standard errors.
RECURSION_SIGMAS = 3.0
MARGINAL_SIGMAS = 4.0


def _clean_distribution(vec, name: str) -> np.ndarray:
    """Validate a probability vector, clipping tiny negative rounding to 0."""
    arr = np.asarray(vec, dtype=float)
    if arr.ndim != 1 or arr.size == 0:
        raise ValueError(f"{name} must be a nonempty probability vector")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} has non-finite entries")
    if float(arr.min()) < NEGATIVE_MASS_TOLERANCE:
        raise ValueError(f"{name} has negative entries (min {arr.min()})")
    arr = np.clip(arr, 0.0, None)
    total = float(arr.sum())
    if abs(total - 1.0) > 1e-12:
        raise ValueError(f"{name} must sum to 1, got {total}")
    return arr / total


# ============================================================
# Maximal coupling of two distributions
# ============================================================


def _coupling_parts(mu, nu) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Overlap min(mu, nu), excess mu - overlap and deficit nu - overlap."""
    p = _clean_distribution(mu, "mu")
    q = _clean_distribution(nu, "nu")
    if p.shape != q.shape:
        raise ValueError(f"length mismatch: {p.shape} vs {q.shape}")
    overlap = np.minimum(p, q)
    return overlap, p - overlap, q - overlap


def maximal_coupling_joint(mu, nu) -> np.ndarray:
    """Joint law attaining P(y != z) = TV(mu, nu) with the given marginals.

    Mass min(mu, nu) sits on the diagonal; the residual excess of mu over nu
    is paired with the residual deficit via an outer product.  The residual
    supports are disjoint, so all off-diagonal mass disagrees.
    """
    overlap, excess, deficit = _coupling_parts(mu, nu)
    joint = np.diag(overlap)
    tv = float(excess.sum())
    if tv > 0.0:
        joint = joint + np.outer(excess, deficit) / tv
    return np.clip(joint, 0.0, None)


def maximal_coupling_draws(
    mu, nu, n_draws: int, randomness: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """n_draws pairs (y, z) with y ~ mu, z ~ nu and P(y != z) = TV(mu, nu).

    With probability 1 - TV a shared symbol is drawn from the normalized
    overlap min(mu, nu); otherwise y and z come independently from the
    normalized residuals, whose supports are disjoint.  TV = 1 skips the
    overlap branch entirely.  Each draw consumes three uniforms.
    """
    overlap, excess, deficit = _coupling_parts(mu, nu)
    n = int(n_draws)
    if n < 1:
        raise ValueError(f"n_draws must be positive, got {n_draws}")
    shared = min(float(overlap.sum()), 1.0)

    u_branch = randomness.random(n)
    u_left = randomness.random(n)
    u_right = randomness.random(n)
    ys = np.empty(n, dtype=np.int64)
    zs = np.empty(n, dtype=np.int64)

    if float(excess.sum()) <= 0.0:
        take_shared = np.ones(n, dtype=bool)
    elif shared > 0.0:
        take_shared = u_branch < shared
    else:
        take_shared = np.zeros(n, dtype=bool)

    size = overlap.shape[0]
    if take_shared.any():
        cum = np.cumsum(overlap)
        sym = np.minimum(
            np.searchsorted(cum, u_left[take_shared] * cum[-1], side="right"), size - 1
        )
        ys[take_shared] = sym
        zs[take_shared] = sym
    residual = ~take_shared
    if residual.any():
        cum_y = np.cumsum(excess)
        cum_z = np.cumsum(deficit)
        ys[residual] = np.minimum(
            np.searchsorted(cum_y, u_left[residual] * cum_y[-1], side="right"), size - 1
        )
        zs[residual] = np.minimum(
            np.searchsorted(cum_z, u_right[residual] * cum_z[-1], side="right"), size - 1
        )
    return ys, zs


# ============================================================
# The coupled pair as a process over the squared alphabet
# ============================================================


def _check_pivot_args(spec: ProcessSpec, k: int, prefix, x: int, xp: int) -> tuple[int, ...]:
    size = spec.alphabet.size
    if not 1 <= k <= spec.horizon:
        raise ValueError(f"pivot must be in 1..{spec.horizon}, got {k}")
    pre = tuple(int(a) for a in prefix)
    if len(pre) != k - 1:
        raise ValueError(f"prefix must have length {k - 1}, got {len(pre)}")
    for a in pre + (int(x), int(xp)):
        if not 0 <= a < size:
            raise ValueError(f"symbol {a} outside alphabet of size {size}")
    return pre


def coupled_pair_process(spec: ProcessSpec, k: int, prefix, x: int, xp: int) -> ProcessSpec:
    """The coupled pair (Y, Z) as a process over pair symbols y*size + z.

    Steps up to the pivot are point masses reproducing the shared prefix and
    the pivot states; every later step is the flattened maximal-coupling
    joint of the two history-conditioned kernels.  Exact enumeration and the
    generic trajectory sampler then both apply to the coupled pair.
    """
    pre = _check_pivot_args(spec, k, prefix, x, xp)
    x, xp = int(x), int(xp)
    size = spec.alphabet.size
    pair_size = size * size

    def pair_kernel(step: int, history: Sequence[int]) -> np.ndarray:
        if step < k:
            a = pre[step - 1]
            vec = np.zeros(pair_size)
            vec[a * size + a] = 1.0
            return vec
        if step == k:
            vec = np.zeros(pair_size)
            vec[x * size + xp] = 1.0
            return vec
        y_hist = tuple(int(p) // size for p in history)
        z_hist = tuple(int(p) % size for p in history)
        mu = kernel_at(spec, step, y_hist)
        nu = kernel_at(spec, step, z_hist)
        return maximal_coupling_joint(mu, nu).ravel()

    signatures = tuple(
        frozenset() if j <= k else spec.signatures[j - 1] for j in range(1, spec.horizon + 1)
    )
    return ProcessSpec(
        horizon=spec.horizon,
        alphabet=Alphabet(pair_size),
        kernel=pair_kernel,
        signatures=signatures,
        family="coupled-pair",
        meta={
            "pivot": k,
            "prefix": pre,
            "pivot_states": (x, xp),
            "base_alphabet": size,
        },
    )


def exact_pair_discrepancy(
    spec: ProcessSpec, k: int, prefix, x: int, xp: int, budget: int | None = None
) -> np.ndarray:
    """Exact per-step disagreement probabilities v_j = P(Y_j != Z_j).

    Forward dynamic programming over the positive-probability histories of
    the coupled pair process; no sampling error.
    """
    n, size = spec.horizon, spec.alphabet.size
    pair = coupled_pair_process(spec, k, prefix, x, xp)
    ensure_budget((size * size) ** (n - k), budget, "exact pair-process enumeration")
    v = np.zeros(n)
    frontier: dict[tuple[int, ...], float] = {(): 1.0}
    for j in range(1, n + 1):
        nxt: dict[tuple[int, ...], float] = {}
        disagree = 0.0
        for hist, p in frontier.items():
            vec = kernel_at(pair, j, hist)
            for sym in np.flatnonzero(vec > 0.0):
                sym = int(sym)
                q = p * float(vec[sym])
                nxt[hist + (sym,)] = q
                if sym // size != sym % size:
                    disagree += q
        v[j - 1] = disagree
        frontier = nxt
    return v


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

    Rollouts are drawn through the pair-process reduction, which applies the
    maximal coupling of the two history-conditioned kernels at every step
    after the pivot; sample i consumes row i of one seeded uniform matrix,
    so results are deterministic in (spec, k, prefix, x, xp, n_samples, seed).
    """
    pair = coupled_pair_process(spec, k, prefix, x, xp)
    size = spec.alphabet.size
    paths = sample_trajectories(pair, n_samples, seed)
    disagree = (paths // size) != (paths % size)
    v_hat = disagree.mean(axis=0)
    return DiscrepancyEstimate(
        v_hat=v_hat,
        stderr=binomial_stderr(v_hat, int(n_samples)),
        n_samples=int(n_samples),
    )


def discrepancy_bound(h, k: int) -> np.ndarray:
    """Row k of the causal resolvent: the vector dominating v for any pivot-k pair."""
    gamma = causal_resolvent(h).entries
    if not 1 <= k <= gamma.shape[0]:
        raise ValueError(f"pivot must be in 1..{gamma.shape[0]}, got {k}")
    return gamma[k - 1].copy()


# ============================================================
# Exact conditional oscillations
# ============================================================


def exact_oscillation(
    spec: ProcessSpec, f, k: int, prefix, budget: int | None = None
) -> float:
    """Largest swing of E[f(X) | X_{1:k}] over the step-k symbol.

    Conditional values are computed for every symbol, reachable or not: the
    conditional law of the suffix is defined by the kernels alone.
    """
    pre = _check_pivot_args(spec, k, prefix, 0, 0)
    n, size = spec.horizon, spec.alphabet.size
    ensure_budget(size ** (n - k + 1), budget, "exact oscillation enumeration")
    values = [conditional_expectation(spec, f, pre + (a,)) for a in range(size)]
    return max(values) - min(values)


def _positive_prefixes(spec: ProcessSpec, depth: int) -> Iterator[tuple[int, ...]]:
    """All length-`depth` prefixes with positive probability, lexicographic."""
    if depth == 0:
        yield ()
        return
    size = spec.alphabet.size
    stack: list[tuple[int, ...]] = [()]
    while stack:
        prefix = stack.pop()
        vec = kernel_at(spec, len(prefix) + 1, prefix)
        # Reverse order keeps the stack popping lexicographically.
        for a in range(size - 1, -1, -1):
            if float(vec[a]) > 0.0:
                child = prefix + (a,)
                if len(child) == depth:
                    yield child
                else:
                    stack.append(child)
    return


def _first_positive_prefix(spec: ProcessSpec, depth: int) -> tuple[int, ...]:
    prefix: tuple[int, ...] = ()
    for step in range(1, depth + 1):
        vec = kernel_at(spec, step, prefix)
        sym = int(np.flatnonzero(vec > 0.0)[0])
        prefix += (sym,)
    return prefix


# ============================================================
# Verifiers
# ============================================================


def verify_oscillation_bound(
    spec: ProcessSpec, f, c, budget: int | None = None
) -> VerificationReport:
    """Check every conditional oscillation against the resolvent-weighted bound.

    First validates the declared sensitivity against the exhaustive oracle
    (failures short-circuit with per-coordinate witness rows), then walks
    every positive-probability prefix at every step and compares the exact
    oscillation with (Gamma c)_k.  Violation rows embed the witness prefix.
    """
    n, size = spec.horizon, spec.alphabet.size
    vec = as_sensitivity(c, n)
    oracle = lipschitz_vector_oracle(f, spec.alphabet, n, budget)
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

    gamma = causal_resolvent(interdependence_matrix(spec, budget=budget)).entries
    weighted = gamma @ vec
    table = prefix_expectation_table(spec, f, budget)
    for k in range(1, n + 1):
        worst = -np.inf
        for prefix in _positive_prefixes(spec, k - 1):
            children = [table[prefix + (a,)] for a in range(size)]
            delta = max(children) - min(children)
            if delta > worst:
                worst = delta
            if delta > weighted[k - 1] + EXACT_COMPARISON_TOLERANCE:
                rows.append(
                    make_check(
                        check=f"oscillation_violation[prefix={prefix}]",
                        observed=delta,
                        bound=float(weighted[k - 1]),
                        k=k,
                        tolerance=EXACT_COMPARISON_TOLERANCE,
                    )
                )
        rows.append(
            make_check(
                check="oscillation_worst",
                observed=worst,
                bound=float(weighted[k - 1]),
                k=k,
                tolerance=EXACT_COMPARISON_TOLERANCE,
            )
        )
    return VerificationReport(tuple(rows))


def verify_discrepancy_recursion(
    spec: ProcessSpec,
    n_samples: int = 100_000,
    seed: int = 0,
    budget: int | None = None,
) -> VerificationReport:
    """Check exact and sampled disagreement probabilities against resolvent rows.

    For every pivot k (at the lexicographically first positive-probability
    prefix) and every ordered pivot-state pair, the exactly enumerated v
    must satisfy v_j <= Gamma[k, j] coordinate-wise; rows record the worst
    pair per (k, j).  A Monte Carlo run at pivot 1, at the pair with the
    largest exact total disagreement, must agree with the exact v within
    RECURSION_SIGMAS standard errors and respect the same bound.
    """
    n, size = spec.horizon, spec.alphabet.size
    gamma = causal_resolvent(interdependence_matrix(spec, budget=budget)).entries
    rows = []
    mc_pair: tuple[int, int] = (0, 0)
    mc_exact = np.zeros(n)
    best_mass = -np.inf
    for k in range(1, n + 1):
        prefix = _first_positive_prefix(spec, k - 1)
        worst = np.zeros(n)
        for x, xp in itertools.product(range(size), repeat=2):
            v = exact_pair_discrepancy(spec, k, prefix, x, xp, budget)
            np.maximum(worst, v, out=worst)
            if k == 1 and float(v.sum()) > best_mass:
                best_mass = float(v.sum())
                mc_pair = (x, xp)
                mc_exact = v
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


def _marginal_scenarios(spec: ProcessSpec) -> list[tuple[int, np.ndarray, np.ndarray]]:
    """Kernel pairs (step, mu, nu) probing each step's context dependence."""
    size = spec.alphabet.size
    scenarios = []
    for j in range(1, spec.horizon + 1):
        coords = spec.signature_coords(j)
        if not coords or size < 2:
            continue
        base = [0] * (j - 1)
        varied = list(base)
        varied[coords[-1] - 1] = 1
        scenarios.append(
            (j, kernel_at(spec, j, tuple(base)), kernel_at(spec, j, tuple(varied)))
        )
    if not scenarios:
        first = kernel_at(spec, 1, ())
        if spec.horizon >= 2:
            scenarios.append((2, first, kernel_at(spec, 2, (0,))))
        else:
            scenarios.append((1, first, first))
    return scenarios[:8]


def verify_coupling_marginals(
    spec: ProcessSpec, n_draws: int = 200_000, seed: int = 0
) -> VerificationReport:
    """Check maximal-coupling marginals and disagreement rate empirically.

    For kernel pairs drawn from the spec (two histories differing in one
    context coordinate), both empirical marginals must match the kernels and
    the empirical disagreement must match their TV distance, all within
    MARGINAL_SIGMAS binomial standard errors.  Row coordinates: k is the
    step, j the 1-based symbol.
    """
    rng = np.random.default_rng(seed)
    n = int(n_draws)
    rows = []
    for step, mu, nu in _marginal_scenarios(spec):
        ys, zs = maximal_coupling_draws(mu, nu, n, rng)
        for side, draws, target in (("y", ys, mu), ("z", zs, nu)):
            for a in range(target.shape[0]):
                p = float(target[a])
                rows.append(
                    make_check(
                        check=f"coupling_marginal_{side}",
                        observed=abs(float((draws == a).mean()) - p),
                        bound=MARGINAL_SIGMAS * float(binomial_stderr(p, n)),
                        k=step,
                        j=a + 1,
                    )
                )
        tv = tv_distance(mu, nu)
        rows.append(
            make_check(
                check="coupling_disagreement",
                observed=abs(float((ys != zs).mean()) - tv),
                bound=MARGINAL_SIGMAS * float(binomial_stderr(tv, n)),
                k=step,
            )
        )
    return VerificationReport(tuple(rows))
