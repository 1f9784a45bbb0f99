"""Exact influence matrices: structural zeros and the brute-force oracle."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from seqbound import influence
from seqbound import (
    Alphabet,
    EnumerationBudgetError,
    ProcessSpec,
    build_causal_tree,
    build_independent,
    build_markov,
    column_sum_alpha,
    dobrushin_coefficient,
    influence_enumeration_cost,
    interdependence_matrix,
    tv_distance,
    uniform_decay_profile,
)
from seqbound.influence import influence_entries
from seqbound.process import spec_from_tables
from conftest import (
    CANONICAL_INIT,
    CANONICAL_TRANSITION,
    brute_force_influence,
    per_step_influence,
    random_positive_spec,
    random_sparse_spec,
    random_tree,
    random_window_spec,
    traced_peak,
)

EXACT_TOL = 1e-12


# ============================================================
# Total variation distance
# ============================================================


class TestTvDistance:
    def test_frozen_value(self):
        assert abs(tv_distance([0.7, 0.3], [0.4, 0.6]) - 0.3) < EXACT_TOL

    def test_disjoint_supports(self):
        assert tv_distance([1.0, 0.0], [0.0, 1.0]) == 1.0

    def test_identical(self):
        assert tv_distance([0.25, 0.75], [0.25, 0.75]) == 0.0

    @given(
        st.lists(st.floats(0.01, 1.0), min_size=2, max_size=6),
        st.lists(st.floats(0.01, 1.0), min_size=2, max_size=6),
        st.lists(st.floats(0.01, 1.0), min_size=2, max_size=6),
    )
    @settings(max_examples=200, deadline=None)
    def test_metric_properties(self, a, b, c):
        size = min(len(a), len(b), len(c))
        mu = np.array(a[:size]) / sum(a[:size])
        nu = np.array(b[:size]) / sum(b[:size])
        rho = np.array(c[:size]) / sum(c[:size])
        d_mn = tv_distance(mu, nu)
        assert 0.0 <= d_mn <= 1.0
        assert abs(d_mn - tv_distance(nu, mu)) < EXACT_TOL
        assert d_mn <= tv_distance(mu, rho) + tv_distance(rho, nu) + 1e-12


class TestDobrushin:
    def test_canonical_chain(self):
        assert abs(dobrushin_coefficient(CANONICAL_TRANSITION) - 0.7) < EXACT_TOL

    def test_identity_kernel(self):
        assert dobrushin_coefficient(np.eye(2)) == 1.0

    def test_rank_one_kernel(self):
        assert dobrushin_coefficient(np.array([[0.3, 0.7], [0.3, 0.7]])) == 0.0


# ============================================================
# Structural zeros and bands
# ============================================================


class TestStructure:
    def test_independent_is_exactly_zero(self, fair_bits):
        h = interdependence_matrix(fair_bits)
        assert h.shape[0] == 10
        assert np.all(h == 0.0)

    def test_markov_superdiagonal(self, markov8):
        h = interdependence_matrix(markov8)
        diag = np.diagonal(h, offset=1)
        assert np.max(np.abs(diag - 0.7)) < EXACT_TOL
        off = h.copy()
        np.fill_diagonal(off[:, 1:], 0.0)
        assert np.all(off == 0.0)

    def test_tree_parent_edges_only(self):
        rng = np.random.default_rng(17)
        for _ in range(5):
            n = int(rng.integers(4, 12))
            parent = random_tree(rng, n, max_degree=3)
            edge = np.array([[0.8, 0.2], [0.1, 0.9]])
            spec = build_causal_tree(parent, edge, np.array([0.5, 0.5]))
            h = interdependence_matrix(spec)
            for j in range(1, n + 1):
                for i in range(1, j):
                    entry = h[i - 1, j - 1]
                    if parent[j - 1] == i:
                        assert abs(entry - 0.7) < EXACT_TOL
                    else:
                        assert entry == 0.0

    def test_entries_in_unit_interval(self):
        rng = np.random.default_rng(23)
        for _ in range(4):
            spec = random_positive_spec(rng, int(rng.integers(2, 5)), int(rng.integers(2, 4)))
            h = interdependence_matrix(spec)
            assert np.all(h >= 0.0)
            assert np.all(h <= 1.0)
            assert np.all(np.tril(h) == 0.0)


# ============================================================
# Signature tables versus the full-history supremum
# ============================================================


def dishonest_chain() -> ProcessSpec:
    """Step 3 declares it reads x_2 but reads x_1, with TV 0.8 between its rows."""

    def kern(step, history):
        if step < 3:
            return [0.5, 0.5]
        return [0.9, 0.1] if history[0] == 0 else [0.1, 0.9]

    signatures = (frozenset(), frozenset({1}), frozenset({2}))
    return ProcessSpec(horizon=3, alphabet=Alphabet(2), kernel=kern, signatures=signatures)


class TestPruning:
    def test_matches_brute_force_influence(self):
        rng = np.random.default_rng(29)
        specs = []
        for _ in range(3):
            size = int(rng.integers(2, 4))
            n = int(rng.integers(2, 6))
            transition = rng.dirichlet(np.ones(size), size=size)
            specs.append(build_markov(transition, rng.dirichlet(np.ones(size)), n))
            parent = random_tree(rng, n, 2)
            edges = [rng.dirichlet(np.ones(size), size=size) for _ in parent]
            specs.append(build_causal_tree(parent, edges, rng.dirichlet(np.ones(size))))
            specs.append(random_window_spec(rng, n, size, int(rng.integers(1, 4))))
            specs.append(random_positive_spec(rng, min(n, 4), size))
        for spec in specs:
            exact = interdependence_matrix(spec)
            assert np.max(np.abs(exact - brute_force_influence(spec))) < EXACT_TOL

    def test_brute_force_sees_undeclared_reads(self):
        spec = dishonest_chain()
        assert interdependence_matrix(spec)[0, 2] == 0.0
        assert abs(brute_force_influence(spec)[0, 2] - 0.8) < EXACT_TOL

    def test_pruning_is_cheaper(self, markov8):
        assert influence_enumeration_cost(markov8, prune=True) < influence_enumeration_cost(
            markov8, prune=False
        )

    def test_budget_error_carries_requirement(self, markov8):
        cost = influence_enumeration_cost(markov8, prune=True)
        with pytest.raises(EnumerationBudgetError) as err:
            interdependence_matrix(markov8, budget=cost - 1)
        assert err.value.required == cost

    def test_kept_on_the_spec_with_the_budget_checked_each_call(self, markov8, monkeypatch):
        first = interdependence_matrix(markov8)
        cost = influence_enumeration_cost(markov8)
        reads = []

        def recording(name):
            original = getattr(influence, name)

            def wrapper(*args):
                reads.append(name)
                return original(*args)

            return wrapper

        for name in ("step_table", "_max_pairwise_tv"):
            monkeypatch.setattr(influence, name, recording(name))
        assert interdependence_matrix(markov8, budget=cost) is first
        assert reads == []
        with pytest.raises(EnumerationBudgetError) as err:
            interdependence_matrix(markov8, budget=cost - 1)
        assert err.value.required == cost


def window_from_tables(rng: np.random.Generator, horizon: int, size: int, width: int):
    """Width-``width`` window whose step tables are drawn up front, so no
    kernel is evaluated."""
    signatures = tuple(frozenset(range(max(1, j - width), j)) for j in range(1, horizon + 1))
    tables = [rng.dirichlet(np.ones(size), size=size ** len(sig)) for sig in signatures]
    return spec_from_tables(tables, signatures, "window", {})


class TestStackedEnumeration:
    """Steps stacked by signature length, against the step-by-step oracle."""

    @pytest.mark.parametrize("chunk_cells", [None, 64])
    def test_matches_per_step_oracle_bit_for_bit(self, monkeypatch, chunk_cells):
        if chunk_cells is not None:  # a few tables per chunk, several chunks per length
            monkeypatch.setattr(influence, "INFLUENCE_CHUNK_CELLS", chunk_cells)
        rng = np.random.default_rng(41)
        parent = random_tree(rng, 12, 3)
        edges = [rng.dirichlet(np.ones(3), size=3) for _ in parent]
        specs = {
            # Full signatures: a different length at every step.
            "positive tables": random_positive_spec(rng, 5, 3),
            "nine symbols": random_positive_spec(rng, 3, 9),
            "sparse tables": random_sparse_spec(rng, 5, 2),
            "sparse, four symbols": random_sparse_spec(rng, 4, 4),
            "tree": build_causal_tree(parent, edges, rng.dirichlet(np.ones(3))),
            # Steps 2..4 read partial leading windows of 1..3 coordinates.
            "window": random_window_spec(rng, 10, 3, 4),
            "markov": build_markov(rng.dirichlet(np.ones(4), size=4), np.full(4, 0.25), 40),
            "N=1": build_markov(CANONICAL_TRANSITION, CANONICAL_INIT, 1),
            "A=1": build_markov(np.ones((1, 1)), np.ones(1), 5),
            "A=1 window": random_window_spec(rng, 6, 1, 2),
        }
        for name, spec in specs.items():
            assert np.array_equal(interdependence_matrix(spec), per_step_influence(spec)), name

    def test_budget_is_checked_before_any_table_is_read(self, monkeypatch):
        spec = random_window_spec(np.random.default_rng(43), 8, 2, 3)
        cost = influence_enumeration_cost(spec)

        def no_table(*args):
            raise AssertionError("a step table was read before the budget check")

        monkeypatch.setattr(influence, "step_table", no_table)
        with pytest.raises(EnumerationBudgetError) as err:
            interdependence_matrix(spec, budget=cost - 1)
        assert err.value.required == cost
        assert spec._tables == {} and "influence" not in spec._derived

    @pytest.mark.parametrize("chunk_cells", [None, 2**12])
    def test_memory_is_bounded_by_the_chunk(self, monkeypatch, chunk_cells):
        # N = 400, |A| = 4, W = 4: 396 tables of 4^5 cells, 3.2 MB stacked.
        # Beside H and its entry check, the enumeration holds about three
        # chunks: the stacked tables, one coordinate moved to the front, and
        # one pair of slices' differences.
        if chunk_cells is not None:
            monkeypatch.setattr(influence, "INFLUENCE_CHUNK_CELLS", chunk_cells)
        spec = window_from_tables(np.random.default_rng(47), 400, 4, 4)
        h, peak = traced_peak(lambda: interdependence_matrix(spec))
        _, check = traced_peak(lambda: influence_entries(h))
        assert peak <= h.nbytes + check + 3 * 8 * influence.INFLUENCE_CHUNK_CELLS
        assert np.array_equal(h, per_step_influence(spec))

    def test_dobrushin_is_the_chain_superdiagonal(self):
        rng = np.random.default_rng(53)
        for size in (1, 2, 3, 9):
            transition = rng.dirichlet(np.ones(size), size=size)
            h = interdependence_matrix(build_markov(transition, np.full(size, 1.0 / size), 6))
            assert np.all(np.diagonal(h, offset=1) == dobrushin_coefficient(transition))


# ============================================================
# Derived summaries
# ============================================================


class TestSummaries:
    def test_column_sum_alpha(self, markov8):
        assert abs(column_sum_alpha(interdependence_matrix(markov8)) - 0.7) < EXACT_TOL

    @pytest.mark.parametrize(
        "h, message",
        [
            ([[0.0, 1.5], [0.0, 0.0]], "must lie in"),
            ([[0.0, 0.5], [0.2, 0.0]], "strictly upper triangular"),
        ],
    )
    def test_column_sum_alpha_checks_a_raw_matrix(self, h, message):
        with pytest.raises(ValueError, match=message):
            column_sum_alpha(np.array(h))

    def test_uniform_decay_profile(self):
        h = np.zeros((3, 3))
        h[0, 1] = 0.3
        h[1, 2] = 0.2
        h[0, 2] = 0.1
        profile = uniform_decay_profile(h)
        assert np.allclose(profile, [0.3, 0.1])
        assert abs(math.fsum(profile) - 0.4) < EXACT_TOL

    def test_profile_is_the_largest_entry_on_each_diagonal(self):
        # Sparse enough that some lags hold no nonzero and read 0; n = 0 and
        # n = 1 give an empty profile.
        rng = np.random.default_rng(79)
        for _ in range(40):
            n = int(rng.integers(0, 15))
            h = np.triu(rng.uniform(0.0, 1.0, size=(n, n)), k=1)
            h *= rng.random((n, n)) < rng.uniform(0.0, 0.4)
            expected = [float(np.diagonal(h, offset=k).max()) for k in range(1, n)]
            assert uniform_decay_profile(h).tolist() == expected
        h = np.zeros((5, 5))
        h[1, 3] = 0.4
        assert uniform_decay_profile(h).tolist() == [0.0, 0.4, 0.0, 0.0]

    def test_supercritical_profile(self):
        h = np.zeros((2, 2))
        h[0, 1] = 1.0
        assert math.fsum(uniform_decay_profile(h)) >= 1.0
