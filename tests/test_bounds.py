"""Bound catalog: closed forms, applicability flags, and catalog ordering."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from seqbound import (
    TailBound,
    build_markov,
    compare_bounds,
    exact_tail,
    interdependence_matrix,
    kontorovich_baseline,
    markov_tail,
    samson_baseline,
    scalar_collapse_tail,
    sparse_terminal_tail,
    spectral_tail,
    sum_symbols,
    terminal_indicator,
    tree_tail,
    uniform_decay_profile,
    uniform_decay_tail,
    causal_resolvent,
)
from conftest import (
    CANONICAL_INIT,
    CANONICAL_TRANSITION,
    random_positive_spec,
    random_table_target,
)

EXACT_TOL = 1e-12
ORDER_TOL = 1e-9


# ============================================================
# Tail shape
# ============================================================


class TestTailShape:
    def test_frozen_delta_values(self):
        bound = TailBound(name="x", proxy=1.0)
        assert abs(bound.delta_at(1.0) - 2.0 * np.exp(-2.0)) < EXACT_TOL
        bound = TailBound(name="x", proxy=1.7301)
        assert abs(bound.delta_at(1.0) - 2.0 * np.exp(-2.0 / 1.7301)) < EXACT_TOL

    def test_clipped_at_one(self):
        assert TailBound(name="x", proxy=100.0).delta_at(0.5) == 1.0

    def test_zero_proxy_is_point_mass(self):
        bound = TailBound(name="x", proxy=0.0)
        assert bound.delta_at(0.0) == 1.0
        assert bound.delta_at(1e-9) == 0.0

    def test_inapplicable_refuses_evaluation(self):
        bound = TailBound(name="x", proxy=None, applicable=False, reason="why")
        with pytest.raises(ValueError):
            bound.delta_at(1.0)
        with pytest.raises(ValueError):
            TailBound(name="x", proxy=None)  # applicable needs a proxy
        with pytest.raises(ValueError):
            TailBound(name="x", proxy=3.0, applicable=False)

    @given(
        st.floats(0.01, 50.0),
        st.floats(0.0, 10.0),
        st.floats(0.0, 10.0),
    )
    @settings(max_examples=200, deadline=None)
    def test_monotone_in_t(self, proxy, t1, t2):
        bound = TailBound(name="x", proxy=proxy)
        lo, hi = sorted((t1, t2))
        d_lo, d_hi = bound.delta_at(lo), bound.delta_at(hi)
        assert 0.0 <= d_hi <= d_lo <= 1.0


# ============================================================
# Closed-form constructors
# ============================================================


class TestClosedForms:
    def test_markov_frozen(self):
        assert abs(markov_tail(0.7, np.ones(3)).proxy - 3.0 / 0.09) < 1e-10
        assert markov_tail(1.0, np.ones(3)).applicable is False

    def test_tree_frozen(self):
        bound = tree_tail(0.2, 3, 15)
        assert abs(bound.proxy - 15.0 / 0.16) < 1e-10  # 93.75
        assert tree_tail(0.5, 2, 15).applicable is False
        with pytest.raises(ValueError):
            tree_tail(0.2, 0, 15)

    def test_sparse_terminal_frozen(self):
        assert abs(sparse_terminal_tail(0.8, 1.0).proxy - 25.0) < 1e-10
        assert sparse_terminal_tail(1.0, 1.0).applicable is False
        with pytest.raises(ValueError):
            sparse_terminal_tail(0.5, -1.0)

    def test_samson_multiplier(self):
        bound = samson_baseline(0.49, np.ones(1))
        assert abs(bound.proxy - 1.0 / (1.0 - 0.7) ** 2) < 1e-10
        assert bound.certified is False

    def test_samson_dominates_markov_multiplier(self):
        for alpha in (0.1, 0.3, 0.5, 0.8, 0.95):
            c = np.ones(4)
            assert samson_baseline(alpha, c).proxy >= markov_tail(alpha, c).proxy

    def test_exact_and_spectral_from_matrix(self, markov3):
        gamma = causal_resolvent(interdependence_matrix(markov3))
        c = np.array([0.0, 0.0, 1.0])
        assert abs(exact_tail(gamma, c).proxy - 1.7301) < 1e-10
        spectral = spectral_tail(gamma, c)
        assert abs(spectral.proxy - 3.0071832685) < 1e-9
        assert spectral.proxy >= exact_tail(gamma, c).proxy

    def test_uniform_decay_inapplicable_at_critical(self):
        h = np.zeros((2, 2))
        h[0, 1] = 1.0
        bound = uniform_decay_tail(uniform_decay_profile(h), np.ones(2))
        assert bound.applicable is False
        assert bound.proxy is None

    def test_scalar_collapse_value(self, markov3):
        gamma = causal_resolvent(interdependence_matrix(markov3))
        c = np.array([0.0, 0.0, 1.0])
        bound = scalar_collapse_tail(gamma, c)
        assert abs(bound.proxy - 3.0 * 2.19 ** 2) < 1e-10


# ============================================================
# The divergence of the geometric-matrix baseline
# ============================================================


class TestKontorovich:
    def test_divergence_flags(self):
        for alpha in (0.5, 0.6, 0.9):
            bound = kontorovich_baseline(alpha, np.ones(5))
            assert bound.applicable is False
            assert "diverges" in bound.reason
        for alpha in (0.1, 0.4, 0.49):
            bound = kontorovich_baseline(alpha, np.ones(5))
            assert bound.applicable is True
            expected = ((1.0 - alpha) / (1.0 - 2.0 * alpha)) ** 2
            assert abs(bound.details["multiplier"] - expected) < EXACT_TOL

    def test_multiplier_frozen_at_point_four(self):
        bound = kontorovich_baseline(0.4, np.ones(3))
        assert abs(bound.details["multiplier"] - 9.0) < EXACT_TOL
        assert abs(bound.proxy - 27.0) < 1e-10

    def test_geometric_norm_saturates(self):
        bound = kontorovich_baseline(0.4, np.ones(200))
        assert abs(bound.details["delta_inf_norm"] - 2.0 / 3.0) < EXACT_TOL

    def test_alpha_validation(self):
        with pytest.raises(ValueError):
            kontorovich_baseline(1.0, np.ones(3))
        with pytest.raises(ValueError):
            kontorovich_baseline(-0.1, np.ones(3))

    def test_resolvent_detail(self, markov3):
        # The resolvent-based scalar collapse is its own row, not a detail of
        # the Kontorovich baseline.
        report = compare_bounds(markov3, c=np.ones(3))
        assert abs(report["scalar_collapse"].proxy - 3.0 * 2.19 ** 2) < 1e-10
        assert "scalar_collapse_proxy" not in report["kontorovich"].details


# ============================================================
# Catalog assembly
# ============================================================


class TestCompareBounds:
    def test_markov_catalog_frozen(self, markov3):
        f = terminal_indicator(3, 2, 1)
        report = compare_bounds(markov3, f=f)
        assert abs(report["exact"].proxy - 1.7301) < 1e-10
        assert abs(report["markov"].proxy - 1.0 / 0.09) < 1e-10
        assert abs(report["sparse_terminal"].proxy - 1.0 / 0.09) < 1e-10
        assert abs(report["samson"].proxy - 37.481333923) < 1e-8
        assert report["kontorovich"].applicable is False
        assert report.best().name == "exact"

    def test_ordering_and_applicable_first(self, markov8):
        report = compare_bounds(markov8, f=sum_symbols(8, 2))
        proxies = [b.proxy for b in report.applicable()]
        assert proxies == sorted(proxies)
        names = [b.name for b in report.bounds]
        flags = [b.applicable for b in report.bounds]
        assert flags == sorted(flags, reverse=True)
        assert "exact" in names

    def test_exact_is_minimal_among_certified(self):
        rng = np.random.default_rng(53)
        for _ in range(10):
            horizon = int(rng.integers(2, 5))
            size = int(rng.integers(2, 4))
            spec = random_positive_spec(rng, horizon, size)
            f = random_table_target(rng, horizon, size)
            c = rng.uniform(0.0, 2.0, size=horizon)
            report = compare_bounds(spec, f=f, c=c)
            exact = report["exact"]
            for bound in report.applicable():
                if bound.certified:
                    assert exact.proxy <= bound.proxy + ORDER_TOL

    def test_identity_chain_flags_specialized_rows(self):
        spec = build_markov(np.eye(2), np.array([0.5, 0.5]), 4)
        report = compare_bounds(spec, f=sum_symbols(4, 2))
        assert report["markov"].applicable is False
        assert report["kontorovich"].applicable is False
        assert report["samson"].applicable is False
        assert report["uniform_decay"].applicable is False
        assert report["exact"].applicable is True

    def test_tree_unit_sensitivity_gate(self, star_tree):
        report = compare_bounds(star_tree, f=sum_symbols(5, 2))
        assert report["tree"].applicable is True
        assert abs(report["tree"].proxy - 5.0 / (1.0 - 0.8) ** 2) < 1e-10
        report = compare_bounds(star_tree, f=terminal_indicator(5, 2, 0))
        assert report["tree"].applicable is False

    def test_needs_some_sensitivity(self, markov3):
        rng = np.random.default_rng(59)
        f = random_table_target(rng, 3, 2)
        with pytest.raises(ValueError):
            compare_bounds(markov3, f=f)

    def test_csv_rows_shape(self, markov3):
        report = compare_bounds(markov3, f=sum_symbols(3, 2))
        rows = report.csv_rows([0.0, 1.0])
        applicable = len(report.applicable())
        inapplicable = len(report.bounds) - applicable
        assert len(rows) == 2 * applicable + inapplicable
        assert report.table([0.0, 1.0])  # renders without error

    def test_getitem_unknown(self, markov3):
        report = compare_bounds(markov3, f=sum_symbols(3, 2))
        with pytest.raises(KeyError):
            report["nonexistent"]
