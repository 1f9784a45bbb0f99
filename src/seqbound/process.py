"""Finite-horizon processes over a finite alphabet.

A process is a sequence of conditional kernels: step j draws symbol X_j from
a distribution determined by the history (X_1, ..., X_{j-1}).  Every step
also declares which history coordinates its kernel actually reads, and
every consumer reads the kernel through one per-step table over the
assignments of those coordinates (``step_table``).  The exact algorithms
downstream (influence matrices, conditional-expectation tables, the sampler) prune
exponential work that way, so honesty is part of the contract: perturbing an
undeclared coordinate must not change the kernel output.  The test suite
compares the influence matrix with a brute-force supremum over full
histories, which a dishonest kernel fails.

Exact enumeration is two array passes over the same tables, which
``history_ranks`` indexes by rows of a path array: a backward pass mixes f
up to every conditional expectation (``prefix_expectation_table``), and a
forward pass extends positive-probability histories (``extend_histories``).

Symbols are dense integer indices 0..size-1; steps and history coordinates
are 1-based throughout.
"""

from __future__ import annotations

import functools
import itertools
import operator
from collections import Counter
from dataclasses import dataclass, field
from typing import Callable, Mapping, Sequence

import numpy as np

from .errors import EnumerationBudgetError

DEFAULT_ENUMERATION_BUDGET = 100_000_000
PROBABILITY_TOLERANCE = 1e-12

Kernel = Callable[[int, tuple[int, ...]], Sequence[float]]


def _check_distributions(arr: np.ndarray, name: str, ndim: int) -> float:
    """Raise ValueError unless ``arr`` has ``ndim`` nonempty axes and every row
    along its last axis is a probability vector: no entry below
    -PROBABILITY_TOLERANCE and a sum within PROBABILITY_TOLERANCE of 1.
    Returns the smallest entry.

    Both paths sum rows left to right (``operator.add``: ``sum`` compensates
    from Python 3.12), so a vector passes exactly when it passes as a
    one-row matrix; a vector is checked in Python scalars, cheaper than
    numpy on a kernel row.  A non-finite entry makes its row's sum NaN or
    infinite, which fails the comparison, so it needs no separate scan.
    """
    if arr.ndim != ndim or arr.size == 0:
        raise ValueError(f"{name} must be a nonempty {ndim}-d array, got shape {arr.shape}")
    if ndim == 1:
        values = arr.tolist()
        low = min(values)
        error = abs(functools.reduce(operator.add, values) - 1.0)
    else:
        low = arr.min()
        error = np.abs(np.cumsum(arr, axis=-1)[..., -1] - 1.0).max()
    if not (low >= -PROBABILITY_TOLERANCE and error <= PROBABILITY_TOLERANCE):
        raise ValueError(f"{name} is not a probability vector (min {low}, row-sum error {error})")
    return low


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
        ``(x_1, ..., x_{step-1})``.  Outputs are validated when ``kernel_at``
        evaluates them: entries >= 0 and sum 1 within 1e-12.
    signatures : tuple of frozenset
        ``signatures[j-1]`` holds the 1-based history coordinates step j's
        kernel reads; must be a subset of {1, ..., j-1}.
    family : str
        Constructor tag ("independent", "markov", "tree", "window", "table",
        "coupled-pair", or "custom"); drives family-specific bound rows.
    meta : mapping
        Parameters recorded by the constructors, for reporting.

    Step tables are kept in ``_tables`` by step, which ``leading_steps``
    shares; results of the whole spec (its influence matrix and coupled pair
    process) are kept in ``_derived``, one per spec.
    """

    horizon: int
    alphabet: Alphabet
    kernel: Kernel
    signatures: tuple[frozenset[int], ...]
    family: str = "custom"
    meta: Mapping[str, object] = field(default_factory=dict, repr=False)
    _tables: dict = field(default_factory=dict, init=False, repr=False)
    _derived: dict = field(default_factory=dict, init=False, repr=False)
    _coords: tuple[tuple[int, ...], ...] = field(default=(), init=False, repr=False)

    def __post_init__(self) -> None:
        n = int(self.horizon)
        if n != self.horizon or n < 1:
            raise ValueError(f"horizon must be a positive integer, got {self.horizon!r}")
        object.__setattr__(self, "horizon", n)
        # Sorted once here: the sampler reads them at every step of every block.
        coords = tuple(tuple(sorted(set(map(int, sig)))) for sig in self.signatures)
        if len(coords) != n:
            raise ValueError(f"need one context signature per step: got {len(coords)} for horizon {n}")
        for j, sig in enumerate(coords, start=1):
            if sig and (sig[0] < 1 or sig[-1] >= j):
                raise ValueError(f"signature of step {j} must lie in 1..{j - 1}, got {list(sig)}")
        object.__setattr__(self, "signatures", tuple(map(frozenset, coords)))
        object.__setattr__(self, "_coords", coords)

    def signature_coords(self, step: int) -> tuple[int, ...]:
        """Sorted 1-based history coordinates read at ``step``."""
        return self._coords[step - 1]


def _symbols(values: Sequence[int], size: int, what: str) -> tuple[int, ...]:
    """``values`` as a tuple of ints in 0..size-1, else ValueError naming the
    first offending symbol.

    ``operator.index`` accepts ints, numpy integers and bools and rejects a
    float rather than truncating it.  Conversion and range check run in C;
    the offender is looked for only on failure.
    """
    try:
        symbols = tuple(map(operator.index, values))
    except TypeError:
        for x in values:
            try:
                operator.index(x)
            except TypeError:
                raise ValueError(f"{what} symbol {x} is not an integer") from None
        raise
    if symbols and not (min(symbols) >= 0 and max(symbols) < size):
        bad = next(x for x in symbols if not 0 <= x < size)
        raise ValueError(f"{what} symbol {bad} outside alphabet of size {size}")
    return symbols


def kernel_at(spec: ProcessSpec, step: int, history: Sequence[int]) -> np.ndarray:
    """Validated conditional distribution p_step(. | history), read-only.

    Every call evaluates the kernel at the full history; ``step_table`` keeps
    the evaluations that the library reuses.  A step-table row costs one
    O(step) history check, converted and range-checked in C by ``_symbols``,
    the kernel itself, and ``_check_distributions`` on the row in Python
    scalars.  The row is clipped at 0 only when its smallest entry is <= 0,
    so a row with no such entry keeps the kernel's exact bits; the builtin
    window kernel reads offsets and floors computed once per spec.
    """
    if not 1 <= step <= spec.horizon:
        raise ValueError(f"step must be in 1..{spec.horizon}, got {step}")
    size = spec.alphabet.size
    hist = _symbols(history, size, "history")
    if len(hist) != step - 1:
        raise ValueError(f"history for step {step} must have length {step - 1}, got {len(hist)}")
    vec = np.array(spec.kernel(step, hist), dtype=float)
    if vec.shape != (size,):
        raise ValueError(f"kernel at step {step} returned shape {vec.shape}, expected ({size},)")
    if _check_distributions(vec, f"kernel at step {step}", ndim=1) <= 0.0:
        # <= rather than <: the clip also turns -0.0 into +0.0.
        np.maximum(vec, 0.0, out=vec)
    vec.setflags(write=False)
    return vec


def step_table(spec: ProcessSpec, step: int) -> np.ndarray:
    """Kernel of ``step`` at every assignment of its signature coordinates.

    A read-only (|A|^|sig|, |A|) array whose rows follow the assignments in
    mixed-radix order, first coordinate most significant.  It is built once
    per step, by ``kernel_at`` with every coordinate outside the signature
    pinned to 0, and kept on the spec.
    """
    table = spec._tables.get(step)
    if table is None:
        coords = spec.signature_coords(step)
        size = spec.alphabet.size
        ensure_budget(size ** len(coords), None, f"kernel table of step {step}")
        hist = [0] * (step - 1)
        rows = []
        for assign in itertools.product(range(size), repeat=len(coords)):
            for coord, val in zip(coords, assign):
                hist[coord - 1] = val
            rows.append(kernel_at(spec, step, hist))
        table = np.array(rows)
        table.setflags(write=False)
        spec._tables[step] = table
    return table


def leading_steps(spec: ProcessSpec, horizon: int) -> ProcessSpec:
    """The first ``horizon`` steps of ``spec``, as a spec of their own.

    The result reads ``spec``'s kernel and shares its step tables, so a step
    is tabulated once for both, whichever asks first.  It equals the build at
    ``horizon`` only where the family is prefix-closed from there.  ``meta``
    is a shallow copy, so an update to either spec's meta (window
    calibration records its achieved alpha) stays on that spec; an entry
    with one row per step (independent marginals) keeps all of ``spec``'s.
    """
    n = int(horizon)
    if not 1 <= n <= spec.horizon:
        raise ValueError(f"leading steps must number 1..{spec.horizon}, got {horizon}")
    lead = ProcessSpec(
        horizon=n,
        alphabet=spec.alphabet,
        kernel=spec.kernel,
        signatures=spec.signatures[:n],
        family=spec.family,
        meta=dict(spec.meta),
    )
    object.__setattr__(lead, "_tables", spec._tables)
    return lead


def mixed_radix_rank(symbols: Sequence[int], size: int) -> int:
    """Rank of a symbol tuple, first symbol most significant."""
    rank = 0
    for x in symbols:
        rank = rank * size + int(x)
    return rank


def _coordinate_ranks(paths: np.ndarray, coords: Sequence[int], size: int) -> np.ndarray:
    """``mixed_radix_rank`` of each row of ``paths`` at the 1-based ``coords``
    (a tuple or range), by Horner's rule in ``intp`` over column views: no
    gathered copy.  A fresh array, which callers may overwrite."""
    if not coords:
        return np.zeros(paths.shape[0], dtype=np.intp)
    key = paths[:, coords[0] - 1].astype(np.intp)
    for i in coords[1:]:
        key *= size
        key += paths[:, i - 1]
    return key


def history_ranks(spec: ProcessSpec, step: int, paths: np.ndarray) -> np.ndarray:
    """Row of ``step_table(spec, step)`` that each row of ``paths`` selects.

    ``paths`` is an integer array with at least ``step - 1`` columns.
    """
    return _coordinate_ranks(paths, spec.signature_coords(step), spec.alphabet.size)


def extend_histories(
    spec: ProcessSpec, step: int, paths: np.ndarray, probs: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One step of the forward pass over positive-probability histories.

    ``paths`` holds histories of length ``step - 1`` as rows, in rank order,
    with probabilities ``probs``.  Returns each row extended by every symbol
    of positive probability at ``step``, still in rank order, in the
    smallest unsigned dtype; their probabilities; and each one's parent row.
    """
    rows = step_table(spec, step)[history_ranks(spec, step, paths)]
    parent, symbol = np.nonzero(rows > 0.0)
    extended = np.empty((parent.size, step), dtype=np.min_scalar_type(spec.alphabet.size - 1))
    extended[:, :-1] = paths[parent]
    extended[:, -1] = symbol
    return extended, probs[parent] * rows[parent, symbol], parent


def trajectory_rows(horizon: int, size: int) -> np.ndarray:
    """Every length-``horizon`` trajectory, one row each.

    Rows follow the rank, first symbol most significant, and use the
    smallest unsigned dtype that holds the alphabet.
    """
    rows = np.empty((size**horizon, horizon), dtype=np.min_scalar_type(size - 1))
    for t in range(horizon):
        rows.reshape(size**t, size, -1, horizon)[:, :, :, t] = np.arange(size)[:, None]
    return rows


def evaluate_batch(f, paths: np.ndarray) -> np.ndarray:
    """Vector of f over the rows of an (n, N) path array."""
    batch = getattr(f, "batch", None)
    if batch is not None:
        return np.asarray(batch(paths), dtype=float)
    fn = getattr(f, "evaluate", f)
    return np.array([float(fn(tuple(row))) for row in paths.tolist()])


def exact_expectation(spec: ProcessSpec, f, budget: int | None = None) -> float:
    """Exact E[f(X)], the root of ``prefix_expectation_table``."""
    return float(prefix_expectation_table(spec, f, budget)[0][0])


def prefix_expectation_table(spec: ProcessSpec, f, budget: int | None = None) -> list[np.ndarray]:
    """Conditional expectations E[f(X) | X_{1:d} = s], one array per depth d.

    ``table[d]`` lists the prefixes s of length d in rank order, so
    ``table[0][0]`` is E[f(X)] and ``table[-1]`` is f, evaluated once by
    ``evaluate_batch`` on every trajectory.  Zero-probability branches are
    included, since oscillation checks compare reachable and unreachable
    siblings: the conditional law of a suffix is defined by the kernels
    alone.  The budget counts the |A|^N trajectories.
    """
    n, size = spec.horizon, spec.alphabet.size
    ensure_budget(size**n, budget, "conditional expectation table")
    rows = trajectory_rows(n, size)
    level = evaluate_batch(f, rows)
    table = [level]
    for step in range(n, 0, -1):
        # Every size**(n - step + 1)-th row starts a new length-(step - 1) prefix.
        probs = step_table(spec, step)[history_ranks(spec, step, rows[:: size ** (n - step + 1)])]
        children = level.reshape(-1, size)
        level = np.zeros(children.shape[0])
        for a in range(size):
            level += probs[:, a] * children[:, a]
        table.append(level)
    return table[::-1]


# ---------------------------------------------------------------------------
# Family constructors
# ---------------------------------------------------------------------------


def _forest(
    parent: tuple[int, ...], kernels: Sequence, family: str, meta: Mapping[str, object]
) -> ProcessSpec:
    """Spec in which node j reads at most its parent ``parent[j-1]``.

    A root (parent 0) draws from its vector ``kernels[j-1]``; any other node
    from the row of its matrix ``kernels[j-1]`` at the parent's symbol.  The
    kernels come validated and read-only from the public builders; the rows
    of one marginal matrix serve as the vectors of a forest of roots.
    """

    def kern(step: int, history: tuple[int, ...]):
        p = parent[step - 1]
        return kernels[step - 1] if p == 0 else kernels[step - 1][history[p - 1]]

    return ProcessSpec(
        horizon=len(parent),
        alphabet=Alphabet(kernels[0].shape[0]),
        kernel=kern,
        signatures=tuple(frozenset() if p == 0 else frozenset((p,)) for p in parent),
        family=family,
        meta=meta,
    )


def build_independent(marginals, horizon: int | None = None) -> ProcessSpec:
    """Process with history-free kernels: a forest of roots.

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
    _check_distributions(m, "marginals", ndim=2)
    m.setflags(write=False)
    return _forest((0,) * m.shape[0], m, "independent", {"marginals": m})


def build_markov(transition, init, horizon: int) -> ProcessSpec:
    """Time-homogeneous chain, the path tree: step 1 draws from ``init``,
    later steps read only the previous symbol."""
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
    return _forest(tuple(range(n)), [p0] + [p] * (n - 1), "markov", {"transition": p, "init": p0})


def _per_node(values, n: int, ndim: int, what: str) -> list:
    # A bare matrix/vector is shared across nodes; a sequence of length n is
    # per-node, and so is any list or tuple holding a None (numpy reads NaN).
    listed = isinstance(values, (list, tuple))
    dense = None
    if not (listed and any(v is None for v in values)):
        try:
            dense = np.array(values, dtype=float)
        except (TypeError, ValueError):
            pass
    if dense is not None and dense.ndim == ndim:
        return [dense] * n
    if listed and len(values) == n:
        return [None if v is None else np.array(v, dtype=float) for v in values]
    raise ValueError(f"{what} must be one array or a length-{n} sequence")


def build_causal_tree(parent, edge_kernels, root_marginal) -> ProcessSpec:
    """Forest process: each node draws from a kernel read off its parent symbol.

    ``parent[j-1]`` is 0 for roots, otherwise the 1-based index of an earlier
    node.  ``edge_kernels`` is one row-stochastic matrix shared by every edge
    or a per-node sequence (entries at roots ignored); ``root_marginal``
    likewise one vector or a per-node sequence.  Each distinct array is
    checked once, at the first node that uses it.
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
    kernels: list = []
    checked: set[int] = set()
    for j, p in enumerate(par, start=1):
        kernel = edges[j - 1] if p else roots[j - 1]
        if kernel is None:
            missing = (
                "has a parent but no edge kernel" if p else "is a root but has no root marginal"
            )
            raise ValueError(f"node {j} {missing}")
        if id(kernel) not in checked:
            checked.add(id(kernel))
            if p:
                _check_distributions(kernel, f"edge kernel of node {j}", ndim=2)
                if kernel.shape[0] != kernel.shape[1]:
                    raise ValueError(f"edge kernel of node {j} must be square, got {kernel.shape}")
            else:
                _check_distributions(kernel, f"root marginal of node {j}", ndim=1)
            kernel.setflags(write=False)
            if kernels and kernel.shape[0] != kernels[0].shape[0]:
                raise ValueError("alphabet size differs across node kernels")
        kernels.append(kernel)
    out_degree = max(Counter(p for p in par if p > 0).values(), default=0)
    return _forest(par, kernels, "tree", {"parent": par, "out_degree": out_degree})


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


def spec_from_tables(tables, signatures, family: str, meta: Mapping[str, object]) -> ProcessSpec:
    """Spec whose step kernels are given as ``step_table`` lays them out.

    ``tables[j-1]`` has one row per assignment of ``signatures[j-1]``; the
    arrays are validated, clipped at 0 in place and kept as the step tables.
    """

    def kernel(step: int, history: tuple[int, ...]) -> np.ndarray:
        symbols = (history[i - 1] for i in spec.signature_coords(step))
        return spec._tables[step][mixed_radix_rank(symbols, spec.alphabet.size)]

    spec = ProcessSpec(
        horizon=len(tables),
        alphabet=Alphabet(tables[0].shape[1]),
        kernel=kernel,
        signatures=signatures,
        family=family,
        meta=meta,
    )
    size = spec.alphabet.size
    for j, table in enumerate(tables, start=1):
        rows = size ** len(spec.signatures[j - 1])
        if table.shape != (rows, size):
            raise ValueError(
                f"table for step {j} must have shape ({rows}, {size}), got {table.shape}"
            )
        _check_distributions(table, f"table for step {j}", ndim=2)
        np.maximum(table, 0.0, out=table)
        table.setflags(write=False)
        spec._tables[j] = table
    return spec


def build_from_tables(tables) -> ProcessSpec:
    """Process from explicit per-step conditional tables.

    ``tables[j-1]`` has |A|^{j-1} rows (histories ranked first-symbol most
    significant) and |A| columns.  Signatures are full: nothing is declared
    about which coordinates matter, so exact algorithms get no pruning.
    """
    if not tables:
        raise ValueError("need at least one step table")
    arrs = [np.array(t, dtype=float) for t in tables]
    arrs = [a.reshape(1, -1) if a.ndim == 1 else a for a in arrs]
    signatures = tuple(frozenset(range(1, j)) for j in range(1, len(arrs) + 1))
    return spec_from_tables(arrs, signatures, "table", {"tables": tuple(arrs)})
