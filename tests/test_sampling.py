"""Vectorized trajectory sampling and empirical tail estimation."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from seqbound import (
    Alphabet,
    EnumerationBudgetError,
    ProcessSpec,
    TailBound,
    TailEstimate,
    TargetFunction,
    binomial_stderr,
    build_causal_tree,
    build_independent,
    build_markov,
    check_tail_domination,
    coupled_pair_process,
    default_t_grid,
    empirical_tail,
    evaluate_batch,
    exact_expectation,
    kernel_at,
    sample_trajectories,
    sampling,
    simulate_coupled_paths,
    sum_symbols,
    tail_csv_rows,
    terminal_symbol,
    tightness_ratios,
)
from seqbound.process import build_from_tables, spec_from_tables, step_table
from seqbound.sampling import _block_rows, _probe_vectors
from conftest import (
    CANONICAL_INIT,
    CANONICAL_TRANSITION,
    all_trajectories,
    joint_probability,
    random_positive_spec,
    random_sparse_spec,
    random_window_spec,
    shift_and_mask_paths,
    traced_peak,
)

LAW_SIGMAS = 4.0


# ============================================================
# Trajectory sampling
# ============================================================


class TestSampler:
    def test_matches_joint_law(self, markov3):
        n = 200_000
        paths = sample_trajectories(markov3, n, seed=13)
        assert paths.shape == (n, 3)
        ranks = paths[:, 0] * 4 + paths[:, 1] * 2 + paths[:, 2]
        counts = np.bincount(ranks, minlength=8)
        for idx, traj in enumerate(all_trajectories(3, 2)):
            p = joint_probability(markov3, traj)
            stderr = max(np.sqrt(p * (1 - p) / n), 3.0 / n)
            assert abs(counts[idx] / n - p) < LAW_SIGMAS * stderr

    def test_law_on_contextual_spec(self):
        rng = np.random.default_rng(89)
        spec = random_positive_spec(rng, 3, 3)
        n = 150_000
        paths = sample_trajectories(spec, n, seed=17)
        ranks = paths[:, 0] * 9 + paths[:, 1] * 3 + paths[:, 2]
        counts = np.bincount(ranks, minlength=27)
        for idx, traj in enumerate(all_trajectories(3, 3)):
            p = joint_probability(spec, traj)
            stderr = max(np.sqrt(p * (1 - p) / n), 3.0 / n)
            assert abs(counts[idx] / n - p) < LAW_SIGMAS * stderr

    def test_matches_per_sample_inverse_cdf(self):
        # Reference: one inverse-CDF lookup per sample and step on the kernel
        # at the sample's full history, with the same uniforms.
        spec = random_window_spec(np.random.default_rng(19), 6, 3, 2)
        paths = sample_trajectories(spec, 300, seed=29)
        uniforms = np.random.default_rng(29).random((300, 6))
        for row, u in zip(paths, uniforms):
            for step in range(1, 7):
                cum = np.cumsum(kernel_at(spec, step, row[: step - 1]))
                assert row[step - 1] == min(np.searchsorted(cum, u[step - 1], side="right"), 2)

    def test_deterministic_in_seed(self, markov3):
        a = sample_trajectories(markov3, 500, seed=3)
        b = sample_trajectories(markov3, 500, seed=3)
        c = sample_trajectories(markov3, 500, seed=4)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_zero_probability_symbols_never_drawn(self):
        spec = build_markov(np.array([[1.0, 0.0], [0.0, 1.0]]), np.array([1.0, 0.0]), 4)
        paths = sample_trajectories(spec, 2_000, seed=23)
        assert np.all(paths == 0)

    def test_prefix_columns_pinned(self):
        # The free columns follow the kernel at each sample's history,
        # read with the same uniforms as an unprefixed draw.
        spec = random_window_spec(np.random.default_rng(31), 5, 3, 2)
        paths = sample_trajectories(spec, 200, seed=37, prefix=(2, 0))
        assert np.all(paths[:, :2] == (2, 0))
        uniforms = np.random.default_rng(37).random((200, 5))
        for row, u in zip(paths, uniforms):
            for step in range(3, 6):
                cum = np.cumsum(kernel_at(spec, step, row[: step - 1]))
                assert row[step - 1] == min(np.searchsorted(cum, u[step - 1], side="right"), 2)

    def test_prefix_leaves_independent_columns_unchanged(self):
        spec = build_independent(np.array([0.3, 0.7]), 5)
        free = sample_trajectories(spec, 500, seed=41)
        pinned = sample_trajectories(spec, 500, seed=41, prefix=(1, 0))
        assert np.all(pinned[:, :2] == (1, 0))
        assert np.array_equal(pinned[:, 2:], free[:, 2:])

    def test_paths_use_the_narrowest_unsigned_dtype(self, markov3):
        assert sample_trajectories(markov3, 100, seed=5).dtype == np.uint8
        pair = coupled_pair_process(markov3)
        pair_paths = sample_trajectories(pair, 100, seed=5, prefix=(1,))
        assert pair_paths.dtype == np.uint8 and pair_paths.max() < 4
        # 300 symbols: uint16, and symbols above 255 do not wrap.
        spec = build_independent(np.full(300, 1.0 / 300.0), 4)
        paths = sample_trajectories(spec, 2_000, seed=43)
        assert paths.dtype == np.uint16
        cum = np.cumsum(step_table(spec, 1)[0])
        uniforms = np.random.default_rng(43).random((2_000, 4))
        expected = np.minimum(np.searchsorted(cum, uniforms, side="right"), 299)
        assert np.array_equal(paths, expected)
        assert 255 < paths.max() < 300

    def test_prefix_validation(self, markov3):
        with pytest.raises(ValueError):
            sample_trajectories(markov3, 10, seed=0, prefix=(0, 0, 0, 0))  # longer than N
        with pytest.raises(ValueError):
            sample_trajectories(markov3, 10, seed=0, prefix=(0, 2))  # outside the alphabet


def one_shot_reference(spec, n, seed, prefix=()):
    """The sampler without blocks: one (n, N) uniform matrix, ranks by an
    int64 weight product, and the count over all cumulative sums clipped at
    |A| - 1."""
    size = spec.alphabet.size
    uniforms = np.random.default_rng(seed).random((n, spec.horizon))
    paths = np.zeros((n, spec.horizon), dtype=np.min_scalar_type(size - 1))
    paths[:, : len(prefix)] = prefix
    for step in range(len(prefix) + 1, spec.horizon + 1):
        coords = [i - 1 for i in spec.signature_coords(step)]
        weights = size ** np.arange(len(coords) - 1, -1, -1, dtype=np.int64)
        ranks = paths[:, coords].astype(np.int64) @ weights
        cum = np.cumsum(step_table(spec, step), axis=1)
        drawn = (cum[ranks] <= uniforms[:, step - 1, None]).sum(axis=1)
        paths[:, step - 1] = np.minimum(drawn, size - 1)
    return paths


def markov_spec(horizon):
    return build_markov(CANONICAL_TRANSITION, CANONICAL_INIT, horizon)


def zero_symbol_spec():
    """Five symbols, with zero-probability symbols first, inside and last in
    a row, and all three in one row."""
    masks = np.array(
        [[0, 1, 1, 1, 1], [1, 1, 0, 1, 1], [1, 1, 1, 1, 0], [0, 1, 0, 1, 0], [1, 1, 1, 1, 1]]
    )
    rng = np.random.default_rng(67)
    tables = []
    for step in range(1, 4):
        rows = 5 ** (step - 1)
        raw = rng.uniform(0.05, 1.0, size=(rows, 5)) * masks[np.arange(rows) % 5]
        tables.append(raw / raw.sum(axis=1, keepdims=True))
    return build_from_tables(tables)


def reads_coordinate_one(rng, horizon, size):
    """Every step after the first reads coordinate 1 alone, whatever its
    distance back."""
    tables = [rng.dirichlet(np.ones(size), size=size if step else 1) for step in range(horizon)]
    signatures = [frozenset()] + [frozenset({1})] * (horizon - 1)
    return spec_from_tables(tables, signatures, "custom", {})


def parent_two_back(rng, horizon, size):
    """A causal tree whose node j reads node j - 2, so no step reads the
    step before it."""
    edges = rng.dirichlet(np.ones(size), size=size)
    return build_causal_tree([0, 0] + list(range(1, horizon - 1)), edges, np.full(size, 1.0 / size))


def many_symbol_markov(rng, horizon, size):
    return build_markov(rng.dirichlet(np.ones(size), size=size), np.full(size, 1.0 / size), horizon)


BLOCK_CASES = {
    "markov3, n not a multiple of the block": (lambda: markov_spec(3), 52, ()),
    "markov3, n below the block": (lambda: markov_spec(3), 5, ()),
    "window": (lambda: random_window_spec(np.random.default_rng(53), 7, 3, 2), 40, ()),
    "pinned pair": (lambda: coupled_pair_process(markov_spec(5)), 30, (0, 1)),
    "300 symbols": (lambda: build_independent(np.full(300, 1.0 / 300.0), 4), 30, ()),
    # |A| = 1, 3, 5, 9 and 17: each the most padding for its number of search levels.
    "1 symbol": (lambda: build_independent(np.array([1.0]), 4), 30, ()),
    "3 symbols": (lambda: random_sparse_spec(np.random.default_rng(73), 4, 3), 30, ()),
    "5 symbols": (lambda: random_sparse_spec(np.random.default_rng(79), 3, 5), 30, ()),
    "9 symbols": (lambda: random_sparse_spec(np.random.default_rng(83), 3, 9), 30, ()),
    "17 symbols": (lambda: random_sparse_spec(np.random.default_rng(137), 3, 17), 30, ()),
    # uint16 paths read as the one-coordinate rank, with nine search levels.
    "257 symbols": (lambda: many_symbol_markov(np.random.default_rng(139), 4, 257), 30, ()),
    # One-coordinate signatures that are not the previous step.
    "tree, parent two back": (lambda: parent_two_back(np.random.default_rng(151), 7, 3), 30, ()),
    "coordinate 1 at every step": (
        lambda: reads_coordinate_one(np.random.default_rng(157), 6, 3),
        30,
        (),
    ),
    "zero symbols first, inside and last": (zero_symbol_spec, 60, ()),
}


SMALL_BLOCK = 7


@pytest.fixture
def small_blocks(monkeypatch):
    """Blocks of SMALL_BLOCK rows at every horizon these tests use: both the
    row floor and the cell budget shrink, or a short horizon's cell budget
    would put every case in one block."""
    monkeypatch.setattr(sampling, "SAMPLE_BLOCK_ROWS", SMALL_BLOCK)
    monkeypatch.setattr(sampling, "SAMPLE_BLOCK_CELLS", SMALL_BLOCK)


def block_starts(spec, n, prefix=()):
    """First row of each block ``_trajectory_blocks`` yields for n samples."""
    return [start for start, _ in sampling._trajectory_blocks(spec, n, 0, prefix)]


def test_block_rule():
    # Long horizons keep the row floor; short ones fill the cell budget.
    for horizon in (64, 80, 400, 500, 2000):
        assert _block_rows(100_000, horizon) == sampling.SAMPLE_BLOCK_ROWS == 2048
    assert [_block_rows(10**6, h) for h in (48, 12, 10, 1)] == [2730, 10922, 13107, 2**17]
    # Never more rows than samples.
    assert _block_rows(5, 10) == 5 and _block_rows(2048, 500) == 2048
    for horizon in range(1, 600):
        rows = _block_rows(10**6, horizon)
        assert rows >= sampling.SAMPLE_BLOCK_ROWS
        assert sampling.SAMPLE_BLOCK_CELLS - horizon < rows * horizon
        assert rows * horizon <= max(2048 * horizon, sampling.SAMPLE_BLOCK_CELLS)


@pytest.mark.parametrize("name", sorted(BLOCK_CASES))
def test_blocks_equal_one_shot_draw(small_blocks, name):
    build, n, prefix = BLOCK_CASES[name]
    spec = build()
    starts = block_starts(spec, n, prefix)
    assert starts == list(range(0, n, SMALL_BLOCK))
    assert len(starts) >= 2 or n <= SMALL_BLOCK
    paths = sample_trajectories(spec, n, seed=59, prefix=prefix)
    expected = one_shot_reference(spec, n, 59, prefix)
    assert paths.dtype == expected.dtype
    assert np.array_equal(paths, expected)


@pytest.mark.parametrize("name", sorted(BLOCK_CASES))
def test_paths_equal_the_shift_and_mask_sampler(small_blocks, name):
    build, n, prefix = BLOCK_CASES[name]
    spec = build()
    paths = sample_trajectories(spec, n, seed=173, prefix=prefix)
    expected = shift_and_mask_paths(spec, n, 173, prefix)
    assert paths.dtype == expected.dtype
    assert paths.tobytes() == expected.tobytes()


def test_block_cases_cover_the_signature_shapes():
    def signatures(name):
        return BLOCK_CASES[name][0]().signatures

    assert signatures("300 symbols") == (frozenset(),) * 4
    assert signatures("tree, parent two back")[2:] == tuple(frozenset({j - 2}) for j in range(3, 8))
    assert signatures("coordinate 1 at every step")[1:] == (frozenset({1}),) * 5
    assert signatures("window")[:3] == (frozenset(), frozenset({1}), frozenset({1, 2}))
    assert sample_trajectories(BLOCK_CASES["257 symbols"][0](), 2, seed=0).dtype == np.uint16


def block_bytes(n, horizon):
    """float64 bytes of one block of n samples at this horizon."""
    return 8 * _block_rows(n, horizon) * horizon


def test_memory_beside_paths_is_bounded_by_the_block():
    # One block of uniforms, not the (n, N) matrix (64 MB here), besides the
    # returned paths.
    n, horizon = 20_000, 400
    paths, peak = traced_peak(lambda: sample_trajectories(markov_spec(horizon), n, seed=61))
    assert peak - paths.nbytes < 2 * block_bytes(n, horizon)


def test_short_horizon_memory_is_bounded_by_the_cell_budget():
    # At N=12 a block holds SAMPLE_BLOCK_CELLS // 12 rows: the memory beside
    # the returned values is the cell budget, not 100k rows of uniforms.
    n, horizon = 100_000, 12
    assert block_bytes(n, horizon) <= 8 * sampling.SAMPLE_BLOCK_CELLS
    spec = markov_spec(horizon)
    paths, peak = traced_peak(lambda: sample_trajectories(spec, n, seed=61))
    assert peak - paths.nbytes < 2 * 8 * sampling.SAMPLE_BLOCK_CELLS
    f = sum_symbols(horizon, 2)
    _, peak = traced_peak(lambda: empirical_tail(spec, f, n_samples=n, seed=101))
    assert peak < 2 * 8 * sampling.SAMPLE_BLOCK_CELLS + 64 * n


def whole_path_tail(spec, f, grid, n, seed, budget=None):
    """``empirical_tail`` on the whole (n, N) path array: f over every row at
    once, then the (n, |grid|) exceedance matrix averaged over its rows."""
    values = np.asarray(evaluate_batch(f, sample_trajectories(spec, n, seed)), dtype=float)
    try:
        mean, exact = exact_expectation(spec, f, budget), True
    except EnumerationBudgetError:
        mean, exact = float(values.mean()), False
    deviations = np.abs(values - mean)
    return (deviations[:, None] >= grid[None, :]).mean(axis=0), float(mean), exact


# (spec, target, grid, budget): the exact mean, the sample mean at budget 2,
# and a target with no batch form, which is evaluated row by row.
TAIL_CASES = {
    "exact mean": (lambda: markov_spec(3), lambda: terminal_symbol(3, 2), np.linspace(0, 1, 7), None),
    "sample mean": (
        lambda: markov_spec(6),
        lambda: sum_symbols(6, 2),
        np.array([0.0, 0.5, 1.0, 1.5, 2.0, 3.0]),
        2,
    ),
    "no batch": (
        lambda: random_window_spec(np.random.default_rng(89), 5, 3, 2),
        lambda: TargetFunction("weighted", lambda x: float(np.dot(x, [0.1, 0.7, 0.3, 1.1, 0.5]))),
        np.linspace(0, 2, 9),
        None,
    ),
}


@pytest.mark.parametrize("n", [1000, 1001, 1003])
@pytest.mark.parametrize("name", sorted(TAIL_CASES))
def test_tail_by_blocks_equals_the_whole_path_tail(small_blocks, name, n):
    build, target, grid, budget = TAIL_CASES[name]
    spec, f = build(), target()
    assert len(block_starts(spec, n)) >= 2
    estimate = empirical_tail(spec, f, grid, n_samples=n, seed=97, budget=budget)
    frequencies, mean, exact = whole_path_tail(spec, f, grid, n, 97, budget)
    assert estimate.frequencies.tobytes() == frequencies.tobytes()
    assert estimate.mean == mean
    assert estimate.exact_mean == exact == (budget is None)


def test_coupled_disagreements_by_blocks_equal_the_pair_paths(small_blocks):
    spec = random_sparse_spec(np.random.default_rng(71), 5, 3)
    assert len(block_starts(coupled_pair_process(spec), 1003, (4, 2))) >= 2
    est = simulate_coupled_paths(spec, k=2, prefix=(1,), x=0, xp=2, n_samples=1003, seed=7)
    paths = sample_trajectories(coupled_pair_process(spec), 1003, 7, (4, 2))
    off_diagonal = ~np.eye(3, dtype=bool).ravel()
    assert est.v_hat.tobytes() == off_diagonal[paths].mean(axis=0).tobytes()


def test_tail_memory_is_bounded_in_n():
    # One block and O(n) values, not the (n, N) paths (40 MB here).
    n, horizon = 100_000, 400
    spec, f = markov_spec(horizon), sum_symbols(horizon, 2)
    _, peak = traced_peak(lambda: empirical_tail(spec, f, n_samples=n, seed=101))
    assert peak < 2 * block_bytes(n, horizon) + 64 * n


def test_several_full_size_blocks_equal_the_whole_path_draws():
    # The real constants at a short horizon: three blocks of the cell budget
    # and a 5-row tail.
    horizon = 12
    spec = markov_spec(horizon)
    n = 3 * _block_rows(10**6, horizon) + 5
    assert block_starts(spec, n) == [0, 10922, 21844, 32766]
    paths = sample_trajectories(spec, n, seed=103)
    assert np.array_equal(paths, one_shot_reference(spec, n, 103))

    f, grid = sum_symbols(horizon, 2), np.linspace(0, 12, 13)
    estimate = empirical_tail(spec, f, grid, n_samples=n, seed=103)
    frequencies, mean, exact = whole_path_tail(spec, f, grid, n, 103)
    assert estimate.frequencies.tobytes() == frequencies.tobytes()
    assert (estimate.mean, estimate.exact_mean) == (mean, exact)

    est = simulate_coupled_paths(spec, k=3, prefix=(1, 0), x=1, xp=0, n_samples=n, seed=107)
    pair_paths = sample_trajectories(coupled_pair_process(spec), n, 107, (3, 0, 2))
    off_diagonal = ~np.eye(2, dtype=bool).ravel()
    assert est.v_hat.tobytes() == off_diagonal[pair_paths].mean(axis=0).tobytes()


@st.composite
def rows_and_uniforms(draw):
    """A few clipped, non-negative rows over one alphabet, and per sample a
    row and a uniform: one of the row's own cumulative sums (an exact tie),
    0.0, the largest double below 1, or a random double in [0, 1)."""
    size = draw(st.integers(1, 19))
    n_rows = draw(st.integers(1, 4))
    cells = st.floats(-0.5, 1.0, allow_nan=False, allow_subnormal=False)
    table = np.clip(
        np.array(draw(st.lists(cells, min_size=size * n_rows, max_size=size * n_rows))), 0.0, None
    ).reshape(n_rows, size)
    cums = np.cumsum(table, axis=1)
    ranks, uniforms = [], []
    for _ in range(draw(st.integers(1, 30))):
        rank = draw(st.integers(0, n_rows - 1))
        u = draw(
            st.one_of(
                st.sampled_from(cums[rank].tolist()),
                st.sampled_from([0.0, float(np.nextafter(1.0, 0.0))]),
                st.floats(0.0, 1.0, exclude_max=True),
            )
        )
        ranks.append(rank)
        uniforms.append(u)
    return table, np.array(ranks, dtype=np.intp), np.array(uniforms)


class UniformStream:
    """Stands in for ``np.random.default_rng(seed)``: ``random(out=...)``
    fills ``out`` in row order with the next values of a fixed sequence."""

    def __init__(self, values):
        self.values, self.read = np.asarray(values, dtype=float), 0

    def random(self, out):
        out[...] = self.values[self.read : self.read + out.size].reshape(out.shape)
        self.read += out.size
        return out


@settings(max_examples=300, deadline=None)
@given(rows_and_uniforms())
def test_binary_search_counts_the_sums_at_or_below_u(case):
    # The real block loop on a two-step spec with the step tables and the
    # uniforms swapped in: step 1 draws each sample's row rank (its table is
    # n_rows cells of 1/4, read at the middle of a cell), and step 2, which
    # reads coordinate 1, draws from that row of the table under test.
    table, ranks, uniforms = case
    n_rows, size = table.shape
    probes = _probe_vectors(table)
    levels = max((size - 1).bit_length(), 1)
    assert [p.size for p in probes] == [n_rows << lv for lv in range(levels)]
    assert all(p.flags.c_contiguous for p in probes)
    tables = [np.full((1, n_rows), 0.25), table]
    stream = np.column_stack([0.125 + 0.25 * ranks, uniforms]).ravel()
    spec = ProcessSpec(2, Alphabet(max(size, n_rows)), None, (frozenset(), frozenset({1})))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(sampling, "step_table", lambda spec, step: tables[step - 1])
        patch.setattr(np.random, "default_rng", lambda seed: UniformStream(stream))
        [(_, rows)] = list(sampling._trajectory_blocks(spec, len(ranks), seed=0))
    cums = np.cumsum(table, axis=1)
    expected = [
        min(np.searchsorted(cums[rank], u, side="right"), size - 1)
        for rank, u in zip(ranks, uniforms)
    ]
    assert rows[:, 0].tolist() == ranks.tolist()
    assert rows[:, 1].tolist() == expected


class TestBinomialStderr:
    def test_interior_formula(self):
        assert abs(binomial_stderr(0.5, 100) - 0.05) < 1e-15

    def test_rule_of_three_at_zero(self):
        assert binomial_stderr(0.0, 1000) == 3.0 / 1000

    def test_vectorized(self):
        out = binomial_stderr(np.array([0.0, 0.5]), 100)
        assert out.shape == (2,)
        assert out[0] == 0.03


# ============================================================
# Tail estimation
# ============================================================


class TestEmpiricalTail:
    def test_exact_mean_centering(self, markov3):
        f = terminal_symbol(3, 2)
        estimate = empirical_tail(markov3, f, n_samples=5_000, seed=29)
        assert estimate.exact_mean
        assert abs(estimate.mean - 0.17) < 1e-12
        assert estimate.n_samples == 5_000

    def test_sample_mean_fallback_flagged(self, markov3):
        f = terminal_symbol(3, 2)
        estimate = empirical_tail(markov3, f, n_samples=5_000, seed=29, budget=2)
        assert not estimate.exact_mean

    def test_frequencies_monotone_and_bounded(self, markov8):
        f = sum_symbols(8, 2)
        estimate = empirical_tail(markov8, f, n_samples=20_000, seed=31)
        freqs = estimate.frequencies
        assert np.all(freqs[:-1] >= freqs[1:] - 1e-15)
        assert freqs[0] <= 1.0 and freqs[-1] >= 0.0

    def test_default_grid(self):
        grid = default_t_grid(np.ones(4))
        assert grid.shape == (20,)
        assert grid[0] == 0.0
        assert grid[-1] == 4.0
        with pytest.raises(ValueError):
            default_t_grid(None)

    def test_minimum_sample_size_enforced(self, markov3):
        with pytest.raises(ValueError):
            empirical_tail(markov3, terminal_symbol(3, 2), n_samples=10)

    def test_grid_validation(self, markov3):
        with pytest.raises(ValueError):
            empirical_tail(markov3, terminal_symbol(3, 2), t_grid=[-1.0], n_samples=2_000)

    def test_estimate_validation(self):
        with pytest.raises(ValueError):
            TailEstimate(
                t_grid=np.array([0.0, 1.0]),
                frequencies=np.array([0.5, 1.5]),  # frequency above 1
                stderr=np.array([0.01, 0.01]),
                n_samples=100,
                mean=0.0,
                exact_mean=True,
            )


# ============================================================
# Domination checks against closed-form tails
# ============================================================


class TestDomination:
    def test_fair_bits_frozen_tail(self, fair_bits):
        # P(|sum - 5| >= 5) = 2/1024 for ten fair bits.
        f = sum_symbols(10, 2)
        estimate = empirical_tail(fair_bits, f, t_grid=[5.0], n_samples=200_000, seed=37)
        exact = 2.0 / 1024.0
        bound = TailBound(name="exact", proxy=10.0)
        assert abs(estimate.frequencies[0] - exact) < LAW_SIGMAS * binomial_stderr(exact, 200_000)
        assert bound.delta_at(5.0) > estimate.frequencies[0]

    def test_check_rows_and_tolerance(self, markov8):
        f = sum_symbols(8, 2)
        estimate = empirical_tail(markov8, f, n_samples=30_000, seed=41)
        bound = TailBound(name="exact", proxy=50.666096954)
        report = check_tail_domination(estimate, bound)
        assert report.passed
        assert len(report.rows) == estimate.t_grid.shape[0]
        assert all(row.check == "tail_domination:exact" for row in report.rows)

    def test_domination_fails_for_tiny_proxy(self, markov8):
        f = sum_symbols(8, 2)
        estimate = empirical_tail(markov8, f, n_samples=30_000, seed=43)
        report = check_tail_domination(estimate, TailBound(name="fake", proxy=0.05))
        assert not report.passed

    def test_tightness_ratios(self, markov3):
        estimate = empirical_tail(markov3, terminal_symbol(3, 2), n_samples=2_000, seed=47)
        ratios = tightness_ratios(estimate, TailBound(name="exact", proxy=1.7301))
        assert ratios.shape == estimate.t_grid.shape
        assert np.all(ratios >= 0.0)
        assert np.isinf(ratios[estimate.frequencies == 0.0]).all()

    def test_csv_rows(self, markov3):
        estimate = empirical_tail(markov3, terminal_symbol(3, 2), n_samples=2_000, seed=53)
        bounds = [
            TailBound(name="exact", proxy=1.7301),
            TailBound(name="broken", proxy=None, reason="n/a"),
        ]
        rows = tail_csv_rows(estimate, bounds)
        assert len(rows) == estimate.t_grid.shape[0]  # only the applicable bound
        assert rows[0][3] == "exact"

    def test_csv_pass_column_is_the_domination_verdict(self, markov8):
        estimate = empirical_tail(markov8, sum_symbols(8, 2), n_samples=30_000, seed=43)
        bounds = [
            TailBound(name="exact", proxy=50.666096954),
            TailBound(name="broken", proxy=None, reason="n/a"),
            TailBound(name="fake", proxy=0.05),
        ]
        rows = tail_csv_rows(estimate, bounds)
        for offset, bound in enumerate((bounds[0], bounds[2])):
            checks = check_tail_domination(estimate, bound).rows
            column = rows[offset::2]
            assert [row[3] for row in column] == [bound.name] * len(checks)
            assert [(row[1], row[4], row[5]) for row in column] == [
                (check.observed, check.bound, check.passed) for check in checks
            ]
        fake = [row[5] for row in rows[1::2]]
        assert True in fake and False in fake
