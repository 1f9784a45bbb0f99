"""Process construction, enumeration, and the exact expectation oracles."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import seqbound.process
from seqbound import (
    Alphabet,
    EnumerationBudgetError,
    ProcessSpec,
    build_causal_tree,
    build_from_tables,
    build_independent,
    build_markov,
    build_sliding_window,
    ensure_budget,
    exact_expectation,
    interdependence_matrix,
    kernel_at,
    mixed_radix_rank,
    prefix_expectation_table,
    sample_trajectories,
    sum_symbols,
    table_target,
    terminal_symbol,
)
from conftest import (
    CANONICAL_INIT,
    CANONICAL_TRANSITION,
    all_trajectories,
    brute_force_expectation,
    joint_probability,
    random_positive_spec,
    random_sparse_spec,
    random_table_target,
    random_window_spec,
)
from seqbound.process import (
    _check_distributions,
    _coordinate_ranks,
    extend_histories,
    step_table,
)
from seqbound.window import _mixture_window_spec

EXACT_TOL = 1e-12


# ============================================================
# Constructors and validation
# ============================================================


class TestConstructors:
    def test_markov_shape(self):
        spec = build_markov(CANONICAL_TRANSITION, CANONICAL_INIT, 5)
        assert spec.horizon == 5
        assert spec.alphabet.size == 2
        assert spec.family == "markov"
        assert spec.signature_coords(1) == ()
        for step in range(2, 6):
            assert spec.signature_coords(step) == (step - 1,)

    def test_markov_rejects_bad_rows(self):
        with pytest.raises(ValueError):
            build_markov(np.array([[0.9, 0.2], [0.2, 0.8]]), CANONICAL_INIT, 3)
        with pytest.raises(ValueError):
            build_markov(CANONICAL_TRANSITION, np.array([0.5, 0.6]), 3)
        with pytest.raises(ValueError):
            build_markov(CANONICAL_TRANSITION, CANONICAL_INIT, 0)

    def test_independent_signatures_empty(self):
        spec = build_independent(np.array([0.25, 0.75]), 4)
        for step in range(1, 5):
            assert spec.signature_coords(step) == ()

    def test_independent_per_step_marginals(self):
        rows = np.array([[0.2, 0.8], [0.6, 0.4], [1.0, 0.0]])
        spec = build_independent(rows)
        assert spec.horizon == 3
        assert np.allclose(kernel_at(spec, 2, (0,)), rows[1])

    def test_tree_parent_validation(self):
        edge = np.array([[0.6, 0.4], [0.4, 0.6]])
        root = np.array([0.5, 0.5])
        with pytest.raises(ValueError):
            build_causal_tree([0, 3, 1], edge, root)  # parent after child
        with pytest.raises(ValueError):
            build_causal_tree([1, 1], edge, root)  # node 1 cannot be its own parent

    def test_a_per_node_list_of_nulls_is_per_node(self):
        # numpy would read [None, None, None] as one NaN vector shared by every node.
        for nulls in ([None, None, None], (None, None, None)):
            with pytest.raises(ValueError, match="node 1 is a root but has no root marginal"):
                build_causal_tree([0, 1, 1], np.eye(2), nulls)

    def test_tree_meta(self, star_tree):
        assert star_tree.meta["out_degree"] == 4
        assert tuple(star_tree.meta["parent"]) == (0, 1, 1, 1, 1)
        for j in range(2, 6):
            assert star_tree.signature_coords(j) == (1,)

    def test_sliding_window_signatures(self):
        spec = build_sliding_window(
            2, lambda step, window: np.full(2, 0.5), 5, 2
        )
        assert spec.signature_coords(1) == ()
        assert spec.signature_coords(2) == (1,)
        assert spec.signature_coords(4) == (2, 3)
        assert spec.signature_coords(5) == (3, 4)

    def test_signature_coords_are_sorted_once_per_spec(self):
        rng = np.random.default_rng(67)
        horizon = 40
        # Hash order of these sets differs from sorted order.
        scattered = ProcessSpec(
            horizon=horizon,
            alphabet=Alphabet(2),
            kernel=lambda step, history: np.full(2, 0.5),
            signatures=tuple(
                frozenset(rng.choice(np.arange(1, j), rng.integers(0, j), replace=False).tolist())
                for j in range(1, horizon + 1)
            ),
        )
        specs = [
            scattered,
            random_sparse_spec(rng, 5, 3),
            random_positive_spec(rng, 4, 2),
            random_window_spec(rng, 9, 2, 3),
        ]
        for spec in specs:
            for j in range(1, spec.horizon + 1):
                coords = spec.signature_coords(j)
                assert coords == tuple(sorted(spec.signatures[j - 1]))
                assert spec.signature_coords(j) is coords
        assert any(tuple(sig) != tuple(sorted(sig)) for sig in scattered.signatures)

    def test_tables_roundtrip(self):
        rng = np.random.default_rng(7)
        spec = random_positive_spec(rng, 3, 2)
        assert spec.family == "table"
        total = sum(
            joint_probability(spec, path) for path in all_trajectories(3, 2)
        )
        assert abs(total - 1.0) < EXACT_TOL

    def test_bad_table_shapes(self):
        with pytest.raises(ValueError):
            build_from_tables([np.array([[0.5, 0.5]]), np.array([[1.0, 0.0]])])


class TestForest:
    """Independent steps, Markov chains and trees are one forest, in which
    each step reads at most its parent."""

    @staticmethod
    def assert_same_process(left, right):
        assert (left.horizon, left.alphabet, left.signatures) == (
            right.horizon,
            right.alphabet,
            right.signatures,
        )
        for step in range(1, left.horizon + 1):
            assert np.array_equal(step_table(left, step), step_table(right, step))
        assert np.array_equal(
            interdependence_matrix(left), interdependence_matrix(right)
        )

    def test_markov_is_the_path_tree(self):
        rng = np.random.default_rng(41)
        transition = rng.dirichlet(np.ones(3), size=3)
        init = rng.dirichlet(np.ones(3))
        n = 9
        self.assert_same_process(
            build_markov(transition, init, n), build_causal_tree(range(n), transition, init)
        )

    def test_independent_is_a_forest_of_roots(self):
        rng = np.random.default_rng(43)
        marginals = rng.dirichlet(np.ones(3), size=6)
        roots = build_causal_tree([0] * 6, np.eye(3), list(marginals))
        self.assert_same_process(build_independent(marginals), roots)

    def test_tree_checks_each_shared_array_once(self, monkeypatch):
        calls = []
        check = seqbound.process._check_distributions

        def counted(arr, name, ndim):
            calls.append(name)
            return check(arr, name, ndim)

        monkeypatch.setattr(seqbound.process, "_check_distributions", counted)
        parent = [j // 2 for j in range(1, 501)]  # a binary tree, node 1 its root
        spec = build_causal_tree(parent, CANONICAL_TRANSITION, CANONICAL_INIT)
        assert spec.horizon == 500
        assert calls == ["root marginal of node 1", "edge kernel of node 2"]

    def test_a_shared_bad_matrix_is_named_at_its_first_edge(self):
        bad = np.array([[0.9, 0.2], [0.2, 0.8]])
        with pytest.raises(ValueError, match="edge kernel of node 3 is not a probability"):
            build_causal_tree([0, 0, 2, 1], bad, CANONICAL_INIT)


# ============================================================
# Kernels and step tables
# ============================================================


class TestKernelAt:
    def test_markov_kernel_values(self, markov3):
        assert np.allclose(kernel_at(markov3, 1, ()), CANONICAL_INIT)
        assert np.allclose(kernel_at(markov3, 2, (0,)), CANONICAL_TRANSITION[0])
        assert np.allclose(kernel_at(markov3, 3, (0, 1)), CANONICAL_TRANSITION[1])

    def test_out_of_signature_coordinates_ignored(self, markov3):
        a = kernel_at(markov3, 3, (0, 1))
        b = kernel_at(markov3, 3, (1, 1))
        assert np.array_equal(a, b)

    def test_kernel_read_only(self, markov3):
        vec = kernel_at(markov3, 2, (0,))
        with pytest.raises(ValueError):
            vec[0] = 0.3

    def test_history_validation(self, markov3):
        with pytest.raises(ValueError):
            kernel_at(markov3, 2, ())
        with pytest.raises(ValueError):
            kernel_at(markov3, 2, (2,))

    def test_error_names_the_first_offending_symbol(self, markov3):
        with pytest.raises(ValueError, match=r"history symbol 5 outside alphabet of size 2"):
            kernel_at(markov3, 3, (5, -1))

    @pytest.mark.parametrize(
        "bad", [1.7, np.float64(1.7), 1.0], ids=["float", "numpy-float", "whole-float"]
    )
    def test_non_integral_symbols_rejected(self, markov3, bad):
        # int() would truncate the symbol and read another history's row.
        with pytest.raises(ValueError, match=rf"history symbol {bad} is not an integer"):
            kernel_at(markov3, 3, [0, bad])
        with pytest.raises(ValueError, match=rf"prefix symbol {bad} is not an integer"):
            sample_trajectories(markov3, 1, seed=0, prefix=(bad,))

    @pytest.mark.parametrize(
        "symbol", [1, np.int64(1), np.uint8(1), True], ids=["int", "int64", "uint8", "bool"]
    )
    def test_integer_like_symbols_accepted(self, markov3, symbol):
        assert np.array_equal(kernel_at(markov3, 3, [0, symbol]), kernel_at(markov3, 3, (0, 1)))
        pinned = sample_trajectories(markov3, 20, seed=3, prefix=(symbol,))
        assert np.array_equal(pinned, sample_trajectories(markov3, 20, seed=3, prefix=(1,)))

    def test_step_table_rows_follow_signature_ranks(self):
        spec = random_window_spec(np.random.default_rng(5), 6, 3, 2)
        for step in range(1, 7):
            coords = spec.signature_coords(step)
            table = step_table(spec, step)
            assert table.shape == (3 ** len(coords), 3)
            assert not table.flags.writeable
            assignments = itertools.product(range(3), repeat=len(coords))
            for rank, assign in enumerate(assignments):
                hist = [2] * (step - 1)
                for coord, x in zip(coords, assign):
                    hist[coord - 1] = x
                assert np.array_equal(table[rank], kernel_at(spec, step, hist))

    @pytest.mark.parametrize("bad", [[0.7, 0.7], [0.5, 0.25, 0.25]], ids=["mass", "shape"])
    @pytest.mark.parametrize(
        "consumer",
        [interdependence_matrix, lambda spec: sample_trajectories(spec, 10, seed=0)],
        ids=["influence", "sampler"],
    )
    def test_bad_window_kernel_rejected(self, bad, consumer):
        def window_kernel(step, window):
            return bad if step == 3 else [0.5, 0.5]

        with pytest.raises(ValueError):
            consumer(build_sliding_window(2, window_kernel, 4, 2))


BUILTIN_FAMILIES = {
    "independent": lambda: build_independent(np.array([0.2, 0.3, 0.5]), 5),
    "markov": lambda: build_markov(CANONICAL_TRANSITION, CANONICAL_INIT, 7),
    "tree": lambda: build_causal_tree(
        [0, 1, 1, 2, 0, 5], np.array([[0.6, 0.4], [0.1, 0.9]]), np.array([0.5, 0.5])
    ),
    "window": lambda: _mixture_window_spec(9, 3, 4, 0.3),
}


class TestTabulationCalls:
    """Each step-table row is one validated ``kernel_at`` call, which the
    benchmark's kernel counters read."""

    @pytest.mark.parametrize("family", sorted(BUILTIN_FAMILIES))
    def test_one_kernel_call_per_table_row(self, monkeypatch, family):
        calls = []
        kernel = seqbound.process.kernel_at

        def counted(*args):
            calls.append(args)
            return kernel(*args)

        monkeypatch.setattr(seqbound.process, "kernel_at", counted)
        spec = BUILTIN_FAMILIES[family]()
        assert spec.family == family
        size = spec.alphabet.size
        for step in range(1, spec.horizon + 1):
            step_table(spec, step)
            step_table(spec, step)  # kept on the spec: no second build
        assert len(calls) == sum(size ** len(sig) for sig in spec.signatures)


def constant_row_spec(row):
    """Two steps over len(row) symbols whose kernel returns ``row`` as is;
    step 2 reads x_1, so its table has len(row) rows."""
    return ProcessSpec(
        horizon=2,
        alphabet=Alphabet(len(row)),
        kernel=lambda step, history: row,
        signatures=(frozenset(), frozenset({1})),
    )


class TestKernelRowBits:
    """``kernel_at`` and ``step_table`` return a kernel's row bit for bit,
    except that entries <= 0 become +0.0."""

    @staticmethod
    def rows(row):
        spec = constant_row_spec(row)
        yield kernel_at(spec, 2, (0,))
        yield from step_table(spec, 2)

    @pytest.mark.parametrize(
        "row",
        [[-0.0, 0.25, 0.75], [0.0, -0.0, 1.0], [0.5, -0.0, 0.0, 0.5], [-5e-13, 0.5, 0.5 + 5e-13]],
        ids=["negative-zero", "zero-then-negative-zero", "negative-zero-then-zero", "tiny-neg"],
    )
    def test_entries_at_most_zero_become_positive_zero(self, row):
        expected = np.maximum(np.array(row), 0.0)
        for got in self.rows(row):
            assert not np.signbit(got).any()
            assert got.tobytes() == expected.tobytes()

    def test_positive_row_keeps_the_kernels_bits(self):
        row = [0.1, 0.2, 1 / 3, 1.0 - 0.1 - 0.2 - 1 / 3]
        for got in self.rows(row):
            assert got.tobytes() == np.array(row).tobytes()

    def test_row_is_read_only(self):
        for row in ([0.25, 0.75], [-0.0, 1.0]):
            for got in self.rows(row):
                with pytest.raises(ValueError):
                    got[0] = 0.5

    @pytest.mark.parametrize("row", [[0.0, 0.3, 0.7], [0.1, 0.2, 0.7], [-1e-13, 0.4, 0.6]])
    def test_list_tuple_and_array_give_the_same_row(self, row):
        expected = [got.tobytes() for got in self.rows(row)]
        for container in (tuple(row), np.array(row)):
            assert [got.tobytes() for got in self.rows(container)] == expected

    @pytest.mark.parametrize(
        "row",
        [[np.nan, 0.5, 0.5], [0.5, np.inf, 0.5], [0.5, 0.5, 2e-12]],
        ids=["nan", "inf", "sum-error"],
    )
    def test_bad_rows_raise_naming_the_step(self, row):
        spec = constant_row_spec(row)
        with pytest.raises(ValueError, match="kernel at step 2 is not a probability vector"):
            kernel_at(spec, 2, (0,))
        with pytest.raises(ValueError, match="kernel at step 2 is not a probability vector"):
            step_table(spec, 2)


def vector_cases():
    """Vectors on both sides of the validator's thresholds: near-probability
    vectors nudged by a few multiples of the tolerance, and raw floats."""
    nudges = st.sampled_from([0.0, 5e-13, 1e-12, 1.5e-12, 1e-11, 0.5]).flatmap(
        lambda e: st.sampled_from([e, -e])
    )
    weights = st.lists(st.floats(0.0, 1.0), min_size=1, max_size=16).filter(lambda w: sum(w) > 0)

    @st.composite
    def nudged(draw):
        w = np.array(draw(weights))
        vec = w / w.sum()
        vec[draw(st.integers(0, len(vec) - 1))] += draw(nudges)
        return vec

    raw = st.lists(st.floats(allow_nan=True, allow_infinity=True), min_size=1, max_size=16)
    return st.one_of(nudged(), raw.map(np.array))


def one_ulp_either_side(x):
    return [np.nextafter(x, -np.inf), x, np.nextafter(x, np.inf)]


def long_edge_vectors():
    """Sums one ulp around 1 +- 1e-12 at lengths where a pairwise sum and a
    left-to-right sum round differently: uniform, and with one large entry."""
    vectors = []
    for n in (8, 9, 64, 300):
        for s in one_ulp_either_side(1.0 + 1e-12) + one_ulp_either_side(1.0 - 1e-12):
            large = np.full(n, 0.01 / (n - 1))
            large[0] = s - 0.01
            vectors += [np.full(n, s / n), large]
    return vectors


EDGE_VECTORS = (
    [np.array([s]) for s in one_ulp_either_side(1.0 + 1e-12) + one_ulp_either_side(1.0 - 1e-12)]
    + [np.array([0.25, s - 0.25]) for s in one_ulp_either_side(1.0 + 1e-12)]
    + [
        np.array([-1e-12, 1.0 + 1e-12]),
        np.array([-1e-12, 1.0]),
        np.array([np.nan, 1.0]),
        np.array([np.inf, 0.0]),
        np.array([np.inf, -np.inf]),
        np.array([0.5, 0.5]),
    ]
    + long_edge_vectors()
)


def edge_id(vec):
    return repr(vec.tolist()) if vec.size < 8 else f"{vec.size}x{float(vec[0])!r}"


def rejects(vec, ndim):
    try:
        with np.errstate(invalid="ignore", over="ignore"):  # inf - inf, huge row sums
            _check_distributions(vec, "v", ndim=ndim)
    except ValueError:
        return True
    return False


class TestDistributionCheck:
    """A vector passes the 1-d check exactly when it passes as a one-row matrix."""

    @pytest.mark.parametrize("vec", EDGE_VECTORS, ids=edge_id)
    def test_edge_cases_agree(self, vec):
        assert rejects(vec, 1) == rejects(vec[None, :], 2)

    @given(vector_cases())
    @settings(max_examples=300, deadline=None)
    def test_one_and_two_dim_paths_agree(self, vec):
        assert rejects(vec, 1) == rejects(vec[None, :], 2)

    def test_thresholds(self):
        assert not rejects(np.array([0.5, 0.5]), 1)
        assert rejects(np.array([-2e-12, 1.0 + 2e-12]), 1)
        assert rejects(np.array([0.5, 0.5 + 2e-12]), 1)
        assert rejects(np.array([np.nan, 1.0]), 1)


# ============================================================
# Enumeration utilities
# ============================================================


class TestEnumeration:
    def test_first_symbol_most_significant(self):
        assert mixed_radix_rank((1, 0, 0), 2) == 4

    def test_coordinate_ranks_of_an_empty_signature_are_zero(self):
        paths = np.ones((5, 3), dtype=np.uint8)
        ranks = _coordinate_ranks(paths, (), 2)
        assert ranks.dtype == np.intp and np.array_equal(ranks, np.zeros(5))

    @pytest.mark.parametrize(
        "size, dtype, coords",
        [(3, np.uint8, (1, 2, 4)), (3, np.uint8, range(1, 6)), (300, np.uint16, (2, 3, 5))],
    )
    def test_coordinate_ranks_equal_mixed_radix_rank(self, size, dtype, coords):
        # uint16 paths with symbols above 255: the ranks (up to 300**3) must
        # not wrap in the paths' dtype.
        paths = np.random.default_rng(5).integers(0, size, size=(200, 5)).astype(dtype)
        paths[0] = size - 1
        ranks = _coordinate_ranks(paths, coords, size)
        assert ranks.dtype == np.intp
        expected = [mixed_radix_rank([row[i - 1] for i in coords], size) for row in paths.tolist()]
        assert ranks.tolist() == expected

    def test_all_trajectories_count_and_order(self):
        paths = list(all_trajectories(3, 2))
        assert len(paths) == 8
        assert paths[0] == (0, 0, 0)
        assert paths[-1] == (1, 1, 1)
        assert paths == sorted(paths)

    def test_budget_gate(self):
        assert ensure_budget(100, 1000, "task") == 1000  # returns the effective limit
        with pytest.raises(EnumerationBudgetError) as err:
            ensure_budget(10_000, 100, "task")
        assert err.value.required == 10_000
        assert err.value.budget == 100


# ============================================================
# Exact expectation oracles
# ============================================================


class TestExactExpectation:
    def test_markov_terminal_two_steps(self):
        spec = build_markov(CANONICAL_TRANSITION, CANONICAL_INIT, 2)
        f = terminal_symbol(2, 2)
        assert abs(exact_expectation(spec, f) - 0.1) < EXACT_TOL

    def test_markov_terminal_three_steps(self, markov3):
        f = terminal_symbol(3, 2)
        assert abs(exact_expectation(spec=markov3, f=f) - 0.17) < EXACT_TOL

    def test_matches_brute_force_on_random_specs(self):
        rng = np.random.default_rng(11)
        for _ in range(5):
            horizon = int(rng.integers(2, 5))
            size = int(rng.integers(2, 4))
            spec = random_positive_spec(rng, horizon, size)
            f = random_table_target(rng, horizon, size)
            assert abs(exact_expectation(spec, f) - brute_force_expectation(spec, f)) < 1e-10

    def test_budget_error(self, markov8):
        with pytest.raises(EnumerationBudgetError):
            exact_expectation(markov8, sum_symbols(8, 2), budget=10)

    def test_brute_force_sees_an_undeclared_read(self):
        # Step 3 declares {2} but reads x1.  The step table pins x1 to 0, so
        # every table consumer sees P(x3 = 1) = 0.8; the kernels give 0.45.
        def kernel(step, history):
            if step < 3:
                return [0.5, 0.5]
            return [0.2, 0.8] if history[0] == 0 else [0.9, 0.1]

        spec = ProcessSpec(
            horizon=3,
            alphabet=Alphabet(2),
            kernel=kernel,
            signatures=(frozenset(), frozenset(), frozenset({2})),
        )
        f = terminal_symbol(3, 2)
        assert abs(exact_expectation(spec, f) - 0.8) < EXACT_TOL
        assert abs(brute_force_expectation(spec, f) - 0.45) < EXACT_TOL

    def test_joint_probability_frozen(self, markov3):
        assert abs(joint_probability(markov3, (0, 0, 1)) - 0.09) < EXACT_TOL
        assert joint_probability(markov3, (1, 0, 0)) == 0.0


class TestPrefixExpectationTable:
    def test_root_matches_expectation(self, markov3):
        f = terminal_symbol(3, 2)
        table = prefix_expectation_table(markov3, f)
        assert abs(table[0][0] - 0.17) < EXACT_TOL

    def test_leaves_match_target(self, markov3):
        f = sum_symbols(3, 2)
        table = prefix_expectation_table(markov3, f)
        for path in all_trajectories(3, 2):
            assert abs(table[3][mixed_radix_rank(path, 2)] - f.evaluate(path)) < EXACT_TOL

    def test_tower_property(self):
        rng = np.random.default_rng(3)
        spec = random_positive_spec(rng, 4, 2)
        f = random_table_target(rng, 4, 2)
        table = prefix_expectation_table(spec, f)
        for prefix in [(), (0,), (1,), (0, 1), (1, 0)]:
            step = len(prefix) + 1
            rank = mixed_radix_rank(prefix, 2)
            vec = kernel_at(spec, step, prefix)
            blended = sum(vec[s] * table[step][2 * rank + s] for s in range(2))
            assert abs(table[step - 1][rank] - blended) < 1e-12

    def test_matches_brute_force_with_zero_kernel_entries(self):
        rng = np.random.default_rng(17)
        for _ in range(6):
            horizon = int(rng.integers(2, 5))
            size = int(rng.integers(2, 4))
            spec = random_sparse_spec(rng, horizon, size)
            f = random_table_target(rng, horizon, size)
            table = prefix_expectation_table(spec, f)
            for depth in range(horizon + 1):
                for prefix in all_trajectories(depth, size):
                    # Conditional law of the suffix from the kernels, reachable or not.
                    total = joint = mass = 0.0
                    for suffix in all_trajectories(horizon - depth, size):
                        path = prefix + suffix
                        weight = 1.0
                        for j in range(depth + 1, horizon + 1):
                            weight *= kernel_at(spec, j, path[: j - 1])[path[j - 1]]
                        total += weight * f.evaluate(path)
                        joint += joint_probability(spec, path) * f.evaluate(path)
                        mass += joint_probability(spec, path)
                    value = table[depth][mixed_radix_rank(prefix, size)]
                    assert abs(value - total) < 1e-12
                    if mass > 0.0:
                        assert abs(value - joint / mass) < 1e-10

    def test_budget_error(self, markov8):
        f = sum_symbols(8, 2)
        with pytest.raises(EnumerationBudgetError):
            prefix_expectation_table(markov8, f, budget=255)

    def test_budget_checked_before_allocation(self):
        # 2^60 trajectories: an allocation before the check would fail with MemoryError.
        spec = build_markov(CANONICAL_TRANSITION, CANONICAL_INIT, 60)
        f = sum_symbols(60, 2)
        with pytest.raises(EnumerationBudgetError):
            prefix_expectation_table(spec, f)
        with pytest.raises(EnumerationBudgetError):
            exact_expectation(spec, f)


class TestForwardPass:
    @pytest.mark.parametrize("family", ["sparse", "markov", "tree", "window"])
    def test_rows_are_the_positive_prefixes_in_rank_order(self, family):
        rng = np.random.default_rng(29)
        spec = {
            "sparse": lambda: random_sparse_spec(rng, 4, 3),
            "markov": lambda: build_markov(CANONICAL_TRANSITION, CANONICAL_INIT, 5),
            "tree": lambda: build_causal_tree(
                [0, 1, 1, 2, 0], np.array([[1.0, 0.0], [0.3, 0.7]]), np.array([0.4, 0.6])
            ),
            "window": lambda: random_window_spec(rng, 5, 3, 2),
        }[family]()
        n, size = spec.horizon, spec.alphabet.size
        joint = {path: joint_probability(spec, path) for path in all_trajectories(n, size)}
        paths, probs = np.zeros((1, 0), dtype=np.uint8), np.ones(1)
        for step in range(1, n + 1):
            parents = paths
            paths, probs, parent = extend_histories(spec, step, paths, probs)
            marginal = {}
            for path, p in joint.items():
                marginal[path[:step]] = marginal.get(path[:step], 0.0) + p
            expected = sorted(prefix for prefix, p in marginal.items() if p > 0.0)
            assert [tuple(row) for row in paths.tolist()] == expected
            assert np.array_equal(paths[:, :-1], parents[parent])
            assert np.allclose(probs, [marginal[p] for p in expected], rtol=0.0, atol=1e-12)
        if family != "window":  # the Dirichlet window kernels have no zero entry
            assert len(expected) < size**n
