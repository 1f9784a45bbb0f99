"""Shared fixtures: canonical scenarios, random spec factories, slow oracles.

The random factories deliberately produce strictly positive kernels so that
every prefix has positive probability and exhaustive sweeps really are
exhaustive; only ``random_sparse_spec`` zeroes kernel entries, to exercise
the zero-probability branches.

The oracles, which no library code calls:

- ``all_trajectories`` lists every length-N tuple in rank order;
- ``joint_probability`` is the chain rule over ``kernel_at`` at full
  histories, where production reads the per-step tables over declared
  signatures, and ``brute_force_expectation`` sums it against f;
- ``brute_force_influence`` is the largest TV distance between ``kernel_at``
  outputs at full histories, signatures ignored; ``per_step_influence`` is
  the production enumeration before steps were stacked, one step table and
  one pair of slices per numpy call;
- ``exact_oscillation`` reads the swing of one prefix's children off f's
  full ``prefix_expectation_table``, one table per call;
- ``neumann_resolvent`` is the finite power sum, an independent algorithm
  for the production back-substitution solver; ``row_by_row_resolvent`` is
  that solver before it read H through its nonzeros, multiplying by whole
  rows in O(N^3); and ``discrepancy_bound`` is row k of the production
  resolvent;
- ``per_entry_matrix_csv`` is the production matrix writer before it
  formatted each repeated value once: one f-string per nonzero entry;
- ``shift_and_mask_paths`` is the production sampler before each search
  level read its own probe vector: one flat padded row vector per step,
  searched by shifted keys and masked at the end, in the same blocks.
"""

import copy
import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import strategies as st

from seqbound import (
    ProcessSpec,
    TargetFunction,
    build_causal_tree,
    build_from_tables,
    build_independent,
    build_markov,
    build_sliding_window,
    causal_resolvent,
    kernel_at,
    mixed_radix_rank,
    prefix_expectation_table,
    sampling,
    table_target,
    tv_distance,
)
from seqbound.process import history_ranks, step_table
from seqbound.report import FLOAT_FORMAT, MATRIX_HEADER

CANONICAL_TRANSITION = np.array([[0.9, 0.1], [0.2, 0.8]])
CANONICAL_INIT = np.array([1.0, 0.0])


# ============================================================
# Minimal config documents
# ============================================================


# One minimal scenario block per family entry (independent in both shapes):
# (family, horizon, block, smallest prefix-closed horizon or None if pinned).
FAMILY_CASES = {
    "independent-vector": ("independent", 3, {"marginals": [0.5, 0.5]}, 1),
    "independent-matrix": ("independent", 2, {"marginals": [[0.5, 0.5], [0.2, 0.8]]}, None),
    "markov": ("markov", 3, {"transition": [[0.9, 0.1], [0.2, 0.8]], "init": [1.0, 0.0]}, 1),
    "tree": (
        "tree",
        3,
        {
            "parent": [0, 1, 1],
            "edge_transition": [[0.6, 0.4], [0.4, 0.6]],
            "root_marginal": [0.5, 0.5],
        },
        None,
    ),
    "window": ("window", 4, {"width": 2, "target_alpha": 0.5}, 3),
    "table": ("table", 2, {"kernels": [[[0.5, 0.5]], [[0.9, 0.1], [0.3, 0.7]]]}, None),
}


MAX_RANDOM_HORIZON = 7
MAX_RANDOM_ALPHABET = 3


def _shape(draw, min_horizon: int = 1, min_size: int = 1) -> tuple[int, int]:
    horizon = draw(st.integers(min_horizon, MAX_RANDOM_HORIZON))
    return horizon, draw(st.integers(min_size, MAX_RANDOM_ALPHABET))


def _distribution(draw, size: int) -> list[float]:
    """A probability vector of small-integer weights, so zeros and ties come up."""
    weights = draw(st.lists(st.integers(0, 4), min_size=size, max_size=size).filter(any))
    return [w / sum(weights) for w in weights]


def _rows(draw, n_rows: int, size: int) -> list[list[float]]:
    return [_distribution(draw, size) for _ in range(n_rows)]


@st.composite
def _independent_scenario(draw):
    horizon, size = _shape(draw)
    shared = draw(st.booleans())
    marginals = _distribution(draw, size) if shared else _rows(draw, horizon, size)
    return horizon, size, {"marginals": marginals}


@st.composite
def _markov_scenario(draw):
    horizon, size = _shape(draw)
    return horizon, size, {"transition": _rows(draw, size, size), "init": _distribution(draw, size)}


@st.composite
def _tree_scenario(draw):
    """A random forest with one shared edge kernel and root marginal, or one
    per node, null where the node does not read it."""
    horizon, size = _shape(draw)
    parent = [draw(st.integers(0, j)) for j in range(horizon)]
    if draw(st.booleans()):
        edge, root = _rows(draw, size, size), _distribution(draw, size)
    else:
        edge = [_rows(draw, size, size) if p else None for p in parent]
        root = [None if p else _distribution(draw, size) for p in parent]
    return horizon, size, {"parent": parent, "edge_transition": edge, "root_marginal": root}


@st.composite
def _window_scenario(draw):
    """A window past its width, over at least two symbols, where every
    target below 1 calibrates."""
    width = draw(st.integers(1, 3))
    horizon, size = _shape(draw, min_horizon=width + 1, min_size=2)
    return horizon, size, {"width": width, "target_alpha": draw(st.floats(0.0, 0.95))}


@st.composite
def _table_scenario(draw):
    horizon, size = _shape(draw)
    return horizon, size, {"kernels": [_rows(draw, size**j, size) for j in range(horizon)]}


# One random-instance generator per config family: a hypothesis strategy for
# (horizon, alphabet, family block), at most MAX_RANDOM_HORIZON steps over at
# most MAX_RANDOM_ALPHABET symbols.
RANDOM_SCENARIOS = {
    "independent": _independent_scenario(),
    "markov": _markov_scenario(),
    "tree": _tree_scenario(),
    "window": _window_scenario(),
    "table": _table_scenario(),
}


def family_doc(case: str) -> dict:
    """A fresh config document for one family case, with a parity target."""
    family, horizon, block, _ = FAMILY_CASES[case]
    return {
        "scenario": {
            "family": family,
            "horizon": horizon,
            "alphabet": 2,
            family: copy.deepcopy(block),
        },
        "target": {"name": "parity"},
    }


# ============================================================
# Memory
# ============================================================


def traced_peak(call):
    """``call()``'s result and the tracemalloc peak it reached above the
    memory held before it."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        result = call()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return result, peak - before


# ============================================================
# Independent oracles
# ============================================================


def neumann_resolvent(h: np.ndarray) -> np.ndarray:
    """Causal resolvent of a strictly upper-triangular matrix as the finite power sum."""
    h = np.asarray(h, dtype=float)
    n = h.shape[0]
    total = np.eye(n)
    power = np.eye(n)
    for _ in range(n - 1):
        power = power @ h
        total += power
    return total


def row_by_row_resolvent(h: np.ndarray) -> np.ndarray:
    """Causal resolvent by back-substitution over whole rows of H, zeros included."""
    h = np.asarray(h, dtype=float)
    n = h.shape[0]
    gamma = np.eye(n)
    for i in range(n - 2, -1, -1):
        gamma[i, i + 1:] = h[i, i + 1:] @ gamma[i + 1:, i + 1:]
    return gamma


def all_trajectories(horizon: int, size: int):
    return itertools.product(range(size), repeat=horizon)


def joint_probability(spec: ProcessSpec, trajectory) -> float:
    """Chain-rule probability of a full trajectory, each step's kernel read
    by ``kernel_at`` at the full history."""
    traj = tuple(int(x) for x in trajectory)
    prob = 1.0
    for j in range(1, spec.horizon + 1):
        prob *= float(kernel_at(spec, j, traj[: j - 1])[traj[j - 1]])
        if prob == 0.0:
            return 0.0
    return prob


def brute_force_expectation(spec: ProcessSpec, f: TargetFunction) -> float:
    """Expectation by full trajectory enumeration, independent of the
    conditional-expectation table."""
    return sum(
        joint_probability(spec, path) * f.evaluate(path)
        for path in all_trajectories(spec.horizon, spec.alphabet.size)
    )


def brute_force_influence(spec: ProcessSpec) -> np.ndarray:
    """Influence matrix as the largest TV distance between kernel_at outputs at
    any two full histories differing in one coordinate, signatures ignored."""
    n, size = spec.horizon, spec.alphabet.size
    h = np.zeros((n, n))
    for j in range(2, n + 1):
        for hist in all_trajectories(j - 1, size):
            base = kernel_at(spec, j, hist)
            for i in range(1, j):
                for b in range(size):
                    other = kernel_at(spec, j, hist[: i - 1] + (b,) + hist[i:])
                    h[i - 1, j - 1] = max(h[i - 1, j - 1], tv_distance(base, other))
    return h


def per_step_influence(spec: ProcessSpec) -> np.ndarray:
    """Influence matrix step by step: each entry the largest TV distance
    between the slices of the step's table along the coordinate, one pair
    of slices at a time."""
    n, size = spec.horizon, spec.alphabet.size
    h = np.zeros((n, n))
    for j in range(2, n + 1):
        coords = spec.signature_coords(j)
        m = len(coords)
        if m == 0:
            continue
        table = step_table(spec, j).reshape((size,) * m + (size,))
        for pos, coord in enumerate(coords):
            rows = np.moveaxis(table, pos, 0).reshape(size, -1, size)
            best = 0.0
            for x in range(size - 1):
                diffs = 0.5 * np.abs(rows[x + 1:] - rows[x]).sum(axis=-1)
                best = max(best, float(diffs.max()))
            h[coord - 1, j - 1] = best
    return h


def per_entry_matrix_csv(path, entries: np.ndarray) -> None:
    """The matrix CSV with every nonzero entry formatted by its own f-string."""
    labels = [f"{j}," for j in range(1, entries.shape[1] + 1)]
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(MATRIX_HEADER) + "\n")
        for i, row in enumerate(entries, start=1):
            cols = np.flatnonzero(row)
            prefix = f"{i},"
            pairs = zip(cols.tolist(), row[cols].tolist())
            fh.write("".join([f"{prefix}{labels[j]}{x:{FLOAT_FORMAT}}\n" for j, x in pairs]))


def shift_and_mask_paths(spec: ProcessSpec, n: int, seed: int, prefix=()) -> np.ndarray:
    """``sample_trajectories`` as it was before per-level probe vectors.

    Each step's table is one vector of rows, each holding its first |A| - 1
    cumulative sums padded with +inf to a stride of 2**L; the search shifts
    the intp rank left by L, adds each level's bit at its place, and masks
    the rank off at the end.  Blocks, buffers and the uniform stream are
    those of ``sampling._trajectory_blocks``.
    """
    size, horizon = spec.alphabet.size, spec.horizon
    steps = range(len(prefix) + 1, horizon + 1)
    tables = {}
    for step in steps:
        table = step_table(spec, step)
        levels = (size - 1).bit_length()
        padded = np.full((table.shape[0], 1 << levels), np.inf)
        padded[:, : size - 1] = np.cumsum(table, axis=1)[:, :-1]
        tables[step] = padded.ravel(), levels
    block = sampling._block_rows(n, horizon)
    buffer = np.zeros((block, horizon), dtype=np.min_scalar_type(size - 1), order="F")
    buffer[:, : len(prefix)] = prefix
    rng = np.random.default_rng(seed)
    uniforms = np.empty((horizon, block))
    chunk = np.empty((max(block // 8, 1), horizon))
    paths = np.empty((n, horizon), dtype=buffer.dtype, order="F")
    for start in range(0, n, block):
        m = min(block, n - start)
        rows = buffer[:m]
        for lo in range(0, m, chunk.shape[0]):
            drawn = rng.random(out=chunk[: m - lo])
            uniforms[:, lo : lo + drawn.shape[0]] = drawn.T
        for step in steps:
            flat, levels = tables[step]
            key = np.left_shift(history_ranks(spec, step, rows), levels)
            u = uniforms[step - 1, :m]
            for level in reversed(range(levels)):
                below = flat[(1 << level) - 1 :].take(key) <= u
                key += below << level if level else below
            rows[:, step - 1] = np.bitwise_and(key, (1 << levels) - 1)
        paths[start : start + m] = rows
    return paths


def exact_oscillation(spec: ProcessSpec, f, k: int, prefix, budget=None) -> float:
    """Largest swing of E[f(X) | X_{1:k}] over the step-k symbol after ``prefix``,
    reachable or not."""
    size = spec.alphabet.size
    rank = mixed_radix_rank(prefix, size)
    children = prefix_expectation_table(spec, f, budget)[k][rank * size : (rank + 1) * size]
    return float(children.max() - children.min())


def discrepancy_bound(h, k: int) -> np.ndarray:
    """Row k of the causal resolvent: the vector dominating v for any pivot-k pair."""
    return causal_resolvent(h)[k - 1]


# ============================================================
# Random scenario factories
# ============================================================


def random_positive_tables(rng: np.random.Generator, horizon: int, size: int) -> list:
    """Fully general kernels with entries bounded away from zero."""
    tables = []
    for step in range(1, horizon + 1):
        rows = size ** (step - 1)
        raw = rng.uniform(0.05, 1.0, size=(rows, size))
        tables.append(raw / raw.sum(axis=1, keepdims=True))
    return tables


def random_positive_spec(rng: np.random.Generator, horizon: int, size: int) -> ProcessSpec:
    return build_from_tables(random_positive_tables(rng, horizon, size))


def random_sparse_spec(rng: np.random.Generator, horizon: int, size: int) -> ProcessSpec:
    """General kernels with about 40% of their entries zero, at least one
    positive entry per row."""
    tables = []
    for raw in random_positive_tables(rng, horizon, size):
        raw = raw * (rng.random(raw.shape) < 0.6)
        empty = raw.sum(axis=1) == 0.0
        raw[empty, rng.integers(0, size, size=int(empty.sum()))] = 1.0
        tables.append(raw / raw.sum(axis=1, keepdims=True))
    return build_from_tables(tables)


def random_window_spec(rng: np.random.Generator, horizon: int, size: int, width: int):
    """Sliding window whose kernel is a random table over the visible window."""
    tables = [
        rng.dirichlet(np.ones(size), size=size ** min(width, step - 1))
        for step in range(1, horizon + 1)
    ]

    def window_kernel(step, window):
        return tables[step - 1][mixed_radix_rank(window, size)]

    return build_sliding_window(width, window_kernel, horizon, size)


def random_table_target(rng: np.random.Generator, horizon: int, size: int) -> TargetFunction:
    values = rng.uniform(-1.0, 1.0, size=size**horizon)
    return table_target(values, horizon, size)


def random_tree(rng: np.random.Generator, horizon: int, max_degree: int):
    """Random parent vector with out-degree capped at max_degree."""
    parent = [0]
    slots = {1: max_degree}
    for node in range(2, horizon + 1):
        open_nodes = [p for p, free in slots.items() if free > 0]
        p = int(rng.choice(open_nodes))
        slots[p] -= 1
        slots[node] = max_degree
        parent.append(p)
    return parent


# ============================================================
# Canonical fixtures
# ============================================================


@pytest.fixture
def markov3() -> ProcessSpec:
    return build_markov(CANONICAL_TRANSITION, CANONICAL_INIT, 3)


@pytest.fixture
def markov8() -> ProcessSpec:
    return build_markov(CANONICAL_TRANSITION, CANONICAL_INIT, 8)


@pytest.fixture
def star_tree() -> ProcessSpec:
    """One root with four children; every edge has influence 0.2."""
    edge = np.array([[0.6, 0.4], [0.4, 0.6]])
    return build_causal_tree([0, 1, 1, 1, 1], edge, np.array([0.5, 0.5]))


@pytest.fixture
def fair_bits() -> ProcessSpec:
    return build_independent(np.array([0.5, 0.5]), 10)
