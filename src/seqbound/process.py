"""Finite-horizon processes over a finite alphabet.

A process is a sequence of conditional kernels: step j draws symbol X_j from
a distribution determined by the history (X_1, ..., X_{j-1}).  Every step
also declares which history coordinates its kernel actually reads.  The
exact algorithms downstream (influence matrices, enumeration oracles, the
grouped sampler) prune exponential work using that declaration, so honesty
is part of the contract: perturbing an undeclared coordinate must not change
the kernel output.  The test suite probes this at random.

Symbols are dense integer indices 0..size-1; steps and history coordinates
are 1-based throughout.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass, field
from typing import Callable, Iterator, Mapping, Sequence

import numpy as np

from .errors import EnumerationBudgetError

DEFAULT_ENUMERATION_BUDGET = 100_000_000
PROBABILITY_TOLERANCE = 1e-12

Kernel = Callable[[int, tuple[int, ...]], Sequence[float]]


def _check_distributions(arr: np.ndarray, name: str, ndim: int) -> None:
    """Raise ValueError unless ``arr`` has ``ndim`` nonempty axes and every row
    along its last axis is a probability vector: no entry below
    -PROBABILITY_TOLERANCE and a sum within PROBABILITY_TOLERANCE of 1.

    A non-finite entry makes the minimum or its row's sum NaN or infinite,
    which fails both comparisons, so it needs no separate scan.
    """
    if arr.ndim != ndim or arr.size == 0:
        raise ValueError(f"{name} must be a nonempty {ndim}-d array, got shape {arr.shape}")
    low = arr.min()
    error = np.abs(arr.sum(axis=-1, keepdims=True) - 1.0).max()
    if not (low >= -PROBABILITY_TOLERANCE and error <= PROBABILITY_TOLERANCE):
        raise ValueError(f"{name} is not a probability vector (min {low}, row-sum error {error})")


def ensure_budget(required: int, budget: int | None, task: str) -> int:
    """Check an evaluation count against the budget before doing the work."""
    limit = DEFAULT_ENUMERATION_BUDGET if budget is None else int(budget)
    if limit < 0:
        raise ValueError(f"budget must be nonnegative, got {budget}")
    if required > limit:
        raise EnumerationBudgetError(task, required, limit)
    return limit


@dataclass(frozen=True)
class Alphabet:
    """Finite symbol set; symbols are the integers 0..size-1."""

    size: int

    def __post_init__(self) -> None:
        size = int(self.size)
        if size != self.size or size < 1:
            raise ValueError(f"alphabet size must be a positive integer, got {self.size!r}")
        object.__setattr__(self, "size", size)

    def symbols(self) -> range:
        return range(self.size)


@dataclass(frozen=True, eq=False)
class ProcessSpec:
    """A finite-alphabet sequential process with declared causal structure.

    Parameters
    ----------
    horizon : int
        Number of steps N; trajectories live in {0..size-1}^N.
    alphabet : Alphabet
    kernel : callable
        Map ``(step, history) -> probability vector`` of length
        ``alphabet.size``.  ``step`` is 1-based and ``history`` is the tuple
        ``(x_1, ..., x_{step-1})``.  Outputs are validated lazily on first
        use: entries >= 0 and sum 1 within 1e-12.
    signatures : tuple of frozenset
        ``signatures[j-1]`` holds the 1-based history coordinates step j's
        kernel reads; must be a subset of {1, ..., j-1}.
    family : str
        Constructor tag ("independent", "markov", "tree", "window", "table",
        "coupled-pair", or "custom"); drives family-specific bound rows.
    meta : mapping
        Parameters recorded by the constructors, for reporting.
    """

    horizon: int
    alphabet: Alphabet
    kernel: Kernel
    signatures: tuple[frozenset[int], ...]
    family: str = "custom"
    meta: Mapping[str, object] = field(default_factory=dict, repr=False)
    _kernel_cache: dict = field(default_factory=dict, init=False, repr=False)

    def __post_init__(self) -> None:
        n = int(self.horizon)
        if n != self.horizon or n < 1:
            raise ValueError(f"horizon must be a positive integer, got {self.horizon!r}")
        object.__setattr__(self, "horizon", n)
        sigs = tuple(frozenset(int(i) for i in sig) for sig in self.signatures)
        if len(sigs) != n:
            raise ValueError(f"need one context signature per step: got {len(sigs)} for horizon {n}")
        for j, sig in enumerate(sigs, start=1):
            if any(i < 1 or i >= j for i in sig):
                raise ValueError(f"signature of step {j} must lie in 1..{j - 1}, got {sorted(sig)}")
        object.__setattr__(self, "signatures", sigs)

    def signature_coords(self, step: int) -> tuple[int, ...]:
        """Sorted 1-based history coordinates read at ``step``."""
        return tuple(sorted(self.signatures[step - 1]))


def kernel_at(spec: ProcessSpec, step: int, history: Sequence[int]) -> np.ndarray:
    """Validated conditional distribution p_step(. | history), read-only.

    Results are cached per (step, signature projection of the history), so
    histories differing only in coordinates the step does not read cost one
    kernel call total.
    """
    if not 1 <= step <= spec.horizon:
        raise ValueError(f"step must be in 1..{spec.horizon}, got {step}")
    hist = tuple(int(x) for x in history)
    if len(hist) != step - 1:
        raise ValueError(f"history for step {step} must have length {step - 1}, got {len(hist)}")
    size = spec.alphabet.size
    for x in hist:
        if not 0 <= x < size:
            raise ValueError(f"history symbol {x} outside alphabet of size {size}")
    key = (step, tuple(hist[i - 1] for i in spec.signature_coords(step)))
    cached = spec._kernel_cache.get(key)
    if cached is not None:
        return cached
    vec = np.array(spec.kernel(step, hist), dtype=float)
    if vec.shape != (size,):
        raise ValueError(f"kernel at step {step} returned shape {vec.shape}, expected ({size},)")
    _check_distributions(vec, f"kernel at step {step}", ndim=1)
    np.clip(vec, 0.0, None, out=vec)
    vec.setflags(write=False)
    spec._kernel_cache[key] = vec
    return vec


def joint_probability(spec: ProcessSpec, trajectory: Sequence[int]) -> float:
    """Chain-rule probability of a full trajectory."""
    traj = tuple(int(x) for x in trajectory)
    if len(traj) != spec.horizon:
        raise ValueError(f"trajectory must have length {spec.horizon}, got {len(traj)}")
    size = spec.alphabet.size
    if any(not 0 <= x < size for x in traj):
        raise ValueError("trajectory symbol outside alphabet")
    prob = 1.0
    for j in range(1, spec.horizon + 1):
        prob *= float(kernel_at(spec, j, traj[: j - 1])[traj[j - 1]])
        if prob == 0.0:
            return 0.0
    return prob


def all_trajectories(horizon: int, size: int) -> Iterator[tuple[int, ...]]:
    return itertools.product(range(size), repeat=horizon)


def mixed_radix_rank(symbols: Sequence[int], size: int) -> int:
    """Rank of a symbol tuple, first symbol most significant."""
    rank = 0
    for x in symbols:
        rank = rank * size + int(x)
    return rank


def mixed_radix_unrank(rank: int, length: int, size: int) -> tuple[int, ...]:
    out = [0] * length
    for pos in range(length - 1, -1, -1):
        rank, out[pos] = divmod(rank, size)
    return tuple(out)


def enumeration_cost(horizon: int, size: int) -> int:
    """Worst-case trajectory count |A|^N, the unit used for budget checks."""
    return size ** horizon


def conditional_expectation(spec: ProcessSpec, f, prefix: tuple[int, ...]) -> float:
    """E[f(X) | X_{1:k} = prefix] by depth-first enumeration of the
    positive-probability suffixes.

    The prefix itself may have probability zero: the conditional law of the
    suffix is defined by the kernels alone.  Callers check the
    |A|^(N-k) enumeration cost against their budget first.
    """
    fn = getattr(f, "evaluate", f)
    size = spec.alphabet.size

    def visit(prefix: tuple[int, ...], weight: float) -> float:
        if len(prefix) == spec.horizon:
            return weight * float(fn(prefix))
        vec = kernel_at(spec, len(prefix) + 1, prefix)
        total = 0.0
        for a in range(size):
            p = float(vec[a])
            if p > 0.0:
                total += visit(prefix + (a,), weight * p)
        return total

    return visit(tuple(prefix), 1.0)


def exact_expectation(spec: ProcessSpec, f, budget: int | None = None) -> float:
    """Exact E[f(X)] by depth-first enumeration of positive-probability paths."""
    ensure_budget(enumeration_cost(spec.horizon, spec.alphabet.size), budget, "exact expectation")
    return conditional_expectation(spec, f, ())


def prefix_expectation_table(
    spec: ProcessSpec, f, budget: int | None = None
) -> dict[tuple[int, ...], float]:
    """Conditional expectations E[f(X) | X_{1:k} = prefix] for every prefix.

    The table covers the full prefix tree, zero-probability branches
    included: oscillation checks compare conditional values across sibling
    symbols whether or not a sibling is reachable.  The empty prefix entry is
    the unconditional expectation.
    """
    fn = getattr(f, "evaluate", f)
    size, n = spec.alphabet.size, spec.horizon
    nodes = sum(size ** k for k in range(n + 1))
    ensure_budget(nodes, budget, "conditional expectation table")
    table: dict[tuple[int, ...], float] = {}
    for traj in all_trajectories(n, size):
        table[traj] = float(fn(traj))
    for depth in range(n - 1, -1, -1):
        for prefix in itertools.product(range(size), repeat=depth):
            vec = kernel_at(spec, depth + 1, prefix)
            table[prefix] = float(sum(float(vec[a]) * table[prefix + (a,)] for a in range(size)))
    return table


# ---------------------------------------------------------------------------
# Family constructors
# ---------------------------------------------------------------------------


def build_independent(marginals, horizon: int | None = None) -> ProcessSpec:
    """Process with history-free kernels.

    ``marginals`` is either one probability vector shared by all steps (then
    ``horizon`` is required) or a matrix with one row per step.
    """
    m = np.array(marginals, dtype=float)
    if m.ndim == 1:
        if horizon is None:
            raise ValueError("horizon is required when a single shared marginal is given")
        m = np.tile(m, (int(horizon), 1))
    if m.ndim != 2:
        raise ValueError(f"marginals must be a vector or a matrix, got shape {m.shape}")
    if horizon is not None and m.shape[0] != int(horizon):
        raise ValueError(f"got {m.shape[0]} marginals for horizon {horizon}")
    n, size = m.shape
    _check_distributions(m, "marginals", ndim=2)
    m.setflags(write=False)

    def kern(step: int, history: tuple[int, ...]):
        return m[step - 1]

    return ProcessSpec(
        horizon=n,
        alphabet=Alphabet(size),
        kernel=kern,
        signatures=(frozenset(),) * n,
        family="independent",
        meta={"marginals": m},
    )


def build_markov(transition, init, horizon: int) -> ProcessSpec:
    """Time-homogeneous chain: step 1 draws from ``init``, later steps read
    only the previous symbol."""
    p = np.array(transition, dtype=float)
    _check_distributions(p, "transition", ndim=2)
    if p.shape[0] != p.shape[1]:
        raise ValueError(f"transition matrix must be square, got shape {p.shape}")
    p0 = np.array(init, dtype=float)
    _check_distributions(p0, "init", ndim=1)
    if p0.shape[0] != p.shape[0]:
        raise ValueError(f"init length {p0.shape[0]} does not match alphabet {p.shape[0]}")
    n = int(horizon)
    if n < 1:
        raise ValueError(f"horizon must be positive, got {horizon}")
    p.setflags(write=False)
    p0.setflags(write=False)

    def kern(step: int, history: tuple[int, ...]):
        if step == 1:
            return p0
        return p[history[-1]]

    signatures = (frozenset(),) + tuple(frozenset((j - 1,)) for j in range(2, n + 1))
    return ProcessSpec(
        horizon=n,
        alphabet=Alphabet(p.shape[0]),
        kernel=kern,
        signatures=signatures,
        family="markov",
        meta={"transition": p, "init": p0},
    )


def _per_node(values, n: int, ndim: int, what: str) -> list:
    # A bare matrix/vector is shared across nodes; a sequence of length n is per-node.
    try:
        dense = np.array(values, dtype=float)
    except (TypeError, ValueError):
        dense = None
    if dense is not None and dense.ndim == ndim:
        return [dense] * n
    if isinstance(values, (list, tuple)) and len(values) == n:
        return [None if v is None else np.array(v, dtype=float) for v in values]
    raise ValueError(f"{what} must be one array or a length-{n} sequence")


def build_causal_tree(parent, edge_kernels, root_marginal) -> ProcessSpec:
    """Forest process: each node draws from a kernel read off its parent symbol.

    ``parent[j-1]`` is 0 for roots, otherwise the 1-based index of an earlier
    node.  ``edge_kernels`` is one row-stochastic matrix shared by every edge
    or a per-node sequence (entries at roots ignored); ``root_marginal``
    likewise one vector or a per-node sequence.
    """
    par = tuple(int(p) for p in parent)
    n = len(par)
    if n < 1:
        raise ValueError("parent map is empty")
    for j, p in enumerate(par, start=1):
        if p < 0 or p >= j:
            raise ValueError(f"parent of node {j} must be 0 (root) or an earlier node, got {p}")
    edges = _per_node(edge_kernels, n, 2, "edge_kernels")
    roots = _per_node(root_marginal, n, 1, "root_marginal")
    size = None
    for j, p in enumerate(par, start=1):
        if p == 0:
            vec = roots[j - 1]
            if vec is None:
                raise ValueError(f"node {j} is a root but has no root marginal")
            _check_distributions(vec, f"root marginal of node {j}", ndim=1)
            vec.setflags(write=False)
            size = vec.shape[0] if size is None else size
            if vec.shape[0] != size:
                raise ValueError("alphabet size differs across node kernels")
        else:
            mat = edges[j - 1]
            if mat is None:
                raise ValueError(f"node {j} has a parent but no edge kernel")
            _check_distributions(mat, f"edge kernel of node {j}", ndim=2)
            if mat.shape[0] != mat.shape[1]:
                raise ValueError(f"edge kernel of node {j} must be square, got {mat.shape}")
            mat.setflags(write=False)
            size = mat.shape[0] if size is None else size
            if mat.shape[0] != size:
                raise ValueError("alphabet size differs across node kernels")
    out_degree = max(Counter(p for p in par if p > 0).values(), default=0)

    def kern(step: int, history: tuple[int, ...]):
        p = par[step - 1]
        if p == 0:
            return roots[step - 1]
        return edges[step - 1][history[p - 1]]

    signatures = tuple(frozenset() if p == 0 else frozenset((p,)) for p in par)
    return ProcessSpec(
        horizon=n,
        alphabet=Alphabet(size),
        kernel=kern,
        signatures=signatures,
        family="tree",
        meta={"parent": par, "out_degree": out_degree},
    )


def build_sliding_window(width: int, window_kernel, horizon: int, alphabet_size: int) -> ProcessSpec:
    """Process whose step-j kernel reads only the last ``width`` symbols.

    ``window_kernel(step, window)`` receives the visible slice
    ``(x_{max(1, step-width)}, ..., x_{step-1})``.
    """
    w = int(width)
    if w < 1:
        raise ValueError(f"window width must be positive, got {width}")
    n = int(horizon)
    if n < 1:
        raise ValueError(f"horizon must be positive, got {horizon}")
    size = int(alphabet_size)

    def kern(step: int, history: tuple[int, ...]):
        return window_kernel(step, history[max(0, step - 1 - w):])

    signatures = tuple(frozenset(range(max(1, j - w), j)) for j in range(1, n + 1))
    return ProcessSpec(
        horizon=n,
        alphabet=Alphabet(size),
        kernel=kern,
        signatures=signatures,
        family="window",
        meta={"width": w},
    )


def build_from_tables(tables) -> ProcessSpec:
    """Process from explicit per-step conditional tables.

    ``tables[j-1]`` has |A|^{j-1} rows (histories ranked first-symbol most
    significant) and |A| columns.  Signatures are full: nothing is declared
    about which coordinates matter, so exact algorithms get no pruning.
    """
    if not tables:
        raise ValueError("need at least one step table")
    arrs = []
    size = None
    for j, t in enumerate(tables, start=1):
        a = np.array(t, dtype=float)
        if a.ndim == 1:
            a = a.reshape(1, -1)
        if size is None:
            size = a.shape[1]
        if a.shape != (size ** (j - 1), size):
            raise ValueError(
                f"table for step {j} must have shape ({size ** (j - 1)}, {size}), got {a.shape}"
            )
        _check_distributions(a, f"table for step {j}", ndim=2)
        a.setflags(write=False)
        arrs.append(a)
    n = len(arrs)

    def kern(step: int, history: tuple[int, ...]):
        return arrs[step - 1][mixed_radix_rank(history, size)]

    signatures = tuple(frozenset(range(1, j)) for j in range(1, n + 1))
    return ProcessSpec(
        horizon=n,
        alphabet=Alphabet(size),
        kernel=kern,
        signatures=signatures,
        family="table",
        meta={"tables": tuple(arrs)},
    )
