"""Bound catalog: closed forms, applicability flags, and catalog ordering."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from seqbound import (
    TailBound,
    build_causal_tree,
    build_markov,
    build_sliding_window,
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
    dobrushin_coefficient,
    prefix_expectation_table,
    verify_coupling_marginals,
    verify_discrepancy_recursion,
    verify_oscillation_bound,
)
from seqbound.bounds import FAMILY_ROWS
from seqbound.config import _FAMILIES, _TARGETS, parse_config
from conftest import (
    CANONICAL_INIT,
    CANONICAL_TRANSITION,
    FAMILY_CASES,
    RANDOM_SCENARIOS,
    family_doc,
    random_positive_spec,
    random_sparse_spec,
    random_table_target,
    random_tree,
    random_window_spec,
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
        bound = TailBound(name="x", proxy=None, reason="why")
        assert bound.applicable is False
        with pytest.raises(ValueError):
            bound.delta_at(1.0)
        # A row is applicable exactly when it carries a proxy, and applicability
        # is no separate argument that could contradict it.
        assert TailBound(name="x", proxy=None).applicable is False
        assert TailBound(name="x", proxy=3.0).applicable is True
        with pytest.raises(TypeError):
            TailBound(name="x", proxy=3.0, applicable=False)
        for proxy in (-1.0, math.inf, math.nan):
            with pytest.raises(ValueError):
                TailBound(name="x", proxy=proxy)

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
        bound = tree_tail(0.2, 3, np.ones(15))
        assert abs(bound.proxy - 15.0 / 0.16) < 1e-10  # 93.75
        assert tree_tail(0.5, 2, np.ones(15)).applicable is False
        with pytest.raises(ValueError):
            tree_tail(0.2, 0, np.ones(15))
        c = np.ones(15)
        c[-1] = 0.5
        bound = tree_tail(0.2, 3, c)
        assert bound.applicable is False
        assert bound.reason == "stated for unit sensitivity vectors only"
        assert bound.details == {"alpha": 0.2, "out_degree": 3.0}

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

    def test_overflowing_matrix_rows_are_inapplicable(self):
        huge = np.array([[1.0, 1e200], [0.0, 1.0]])
        for tail in (exact_tail, spectral_tail, scalar_collapse_tail):
            row = tail(huge, np.ones(2))
            assert not row.applicable and row.proxy is None
            assert row.reason.endswith("overflows double precision")
        # kappa = 1e-300 is positive, but ||c||_2^2 / kappa is not finite.
        row = spectral_tail(np.array([[1.0, 1e150], [0.0, 1.0]]), np.full(2, 1e10))
        assert row.reason == "proxy ||c||_2^2 / kappa overflows double precision"
        assert 0.0 < row.details["decay_coefficient"] < 1e-299

    def test_rows_built_on_c_overflow_to_inapplicable_rows(self):
        # ||c||_2^2 = 8e320 and ||c||_inf^2 = 1e320 overflow; each row says
        # which proxy did, keeps its certification flag, and warns of nothing.
        c = np.full(8, 1e160)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rows = [
                uniform_decay_tail(np.full(7, 0.01), c),
                markov_tail(0.3, c),
                samson_baseline(0.3, c),
                kontorovich_baseline(0.3, c),
                sparse_terminal_tail(0.3, 1e160),
            ]
        assert {b.name: (b.applicable, b.proxy, b.certified, b.reason) for b in rows} == {
            "uniform_decay": (False, None, True, "proxy ||c||_2^2 / (1 - S)^2 overflows double precision"),
            "markov": (False, None, True, "proxy ||c||_2^2 / (1 - alpha)^2 overflows double precision"),
            "samson": (False, None, False, "proxy ||c||_2^2 * multiplier overflows double precision"),
            "kontorovich": (
                False,
                None,
                False,
                "proxy N * multiplier * ||c||_inf^2 overflows double precision",
            ),
            "sparse_terminal": (False, None, True, "proxy c_N^2 / (1 - alpha)^2 overflows double precision"),
        }
        assert rows[1].details == {"alpha": 0.3}
        # The products that do not overflow are the powers they replace.
        assert kontorovich_baseline(0.3, np.full(8, 1e100)).proxy == 8 * (0.7 / 0.4) ** 2 * 1e100**2
        assert sparse_terminal_tail(0.3, 1e100).proxy == 1e100**2 / 0.7**2

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
        for baseline in (kontorovich_baseline, samson_baseline):
            bound = baseline(1.0, np.ones(3))
            assert bound.applicable is False and bound.certified is False
            assert bound.reason == "contraction coefficient 1 is not below 1"
        with pytest.raises(ValueError):
            kontorovich_baseline(-0.1, np.ones(3))
        with pytest.raises(ValueError):
            samson_baseline(float("nan"), np.ones(3))

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

    def test_overflowing_proxies_are_inapplicable_rows(self):
        # Each step puts 0.95 on the parity of its width-2 window (alpha =
        # 1.8), so Gamma grows about 1.5-fold per step: ||Gamma c||^2 reads
        # 7.49e211 at N = 600 and overflows by N = 900, as do ||Gamma||_2^2
        # and the scalar collapse.  Such rows are inapplicable, the ordering
        # check skips them, and no overflow warning escapes.
        def parity(step, window):
            return [0.95, 0.05] if sum(window) % 2 == 0 else [0.05, 0.95]

        report = compare_bounds(build_sliding_window(2, parity, 600, 2), c=np.ones(600))
        assert 7.49e211 < report["exact"].proxy < 7.5e211
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            report = compare_bounds(build_sliding_window(2, parity, 900, 2), c=np.ones(900))
        assert report.applicable() == ()
        assert {b.name: b.reason for b in report.bounds} == {
            "exact": "proxy ||Gamma c||_2^2 overflows double precision",
            "spectral": "||Gamma||_2^2 overflows double precision",
            "scalar_collapse": "proxy N * ||Gamma||_inf^2 * ||c||_inf^2 overflows double precision",
            "uniform_decay": "decay profile sums to 1.8, not below 1",
        }

    def test_overflowing_resolvent_keeps_the_rows_on_h(self):
        # At N = 1800 Gamma itself overflows (about 1.5-fold growth per
        # step), so the rows built on it are inapplicable and the report
        # carries no resolvent; the rows that read only H are still there.
        def parity(step, window):
            return [0.95, 0.05] if sum(window) % 2 == 0 else [0.05, 0.95]

        spec = build_sliding_window(2, parity, 1800, 2)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            report = compare_bounds(spec, c=np.ones(1800))
            terminal = compare_bounds(spec, c=np.eye(1800)[-1])
        assert report.resolvent is None and terminal.resolvent is None
        overflowed = "resolvent Gamma overflows double precision"
        assert {b.name: b.reason for b in report.bounds} == {
            "exact": overflowed,
            "scalar_collapse": overflowed,
            "spectral": overflowed,
            "uniform_decay": "decay profile sums to 1.8, not below 1",
        }
        assert terminal["sparse_terminal"].reason == "column-sum coefficient 1.8 is not below 1"

    def test_getitem_unknown(self, markov3):
        report = compare_bounds(markov3, f=sum_symbols(3, 2))
        with pytest.raises(KeyError):
            report["nonexistent"]


# ============================================================
# One invariant over every family
# ============================================================


def family_row_names(spec, c) -> list[str]:
    """The names of the rows ``FAMILY_ROWS`` adds for ``spec``'s family."""
    rows = FAMILY_ROWS.get(spec.family, lambda *_: [])
    return [row.name for row in rows(spec, interdependence_matrix(spec), np.asarray(c, float))]


def check_catalog(spec, c):
    """Every row of the catalog is its proxy or None with a reason, exact is
    at most every certified row, and the family rows read alpha off H.
    Returns the report."""
    report = compare_bounds(spec, c=c)
    exact = report["exact"]
    assert exact.applicable
    for row in report.bounds:
        assert row.applicable == (row.proxy is not None)
        if not row.applicable:
            assert row.reason
        elif row.certified:
            assert exact.proxy <= row.proxy
    alpha = interdependence_matrix(spec).max()
    for name in family_row_names(spec, c):
        assert report[name].details["alpha"] == alpha
    if spec.family == "markov" and spec.horizon >= 2:
        assert alpha == dobrushin_coefficient(spec.meta["transition"])
    return report


def sensitivities(rng, horizon):
    return (np.ones(horizon), rng.uniform(0.0, 2.0, size=horizon), np.eye(horizon)[-1])


class TestCatalogInvariant:
    @pytest.mark.parametrize("case", sorted(FAMILY_CASES))
    def test_family_cases(self, case):
        config = parse_config(family_doc(case))
        spec = config.build()
        f = config.target()
        check_catalog(spec, config.sensitivity(spec, f))
        for c in sensitivities(np.random.default_rng(67), spec.horizon):
            check_catalog(spec, c)

    def test_random_instances(self):
        rng = np.random.default_rng(71)
        for _ in range(8):
            horizon = int(rng.integers(1, 6))
            size = int(rng.integers(2, 4))
            transition = rng.dirichlet(np.full(size, 0.5), size=size)
            # One edge kernel per node, so the edges' coefficients differ.
            edges = [rng.dirichlet(np.full(size, 0.5), size=size) for _ in range(horizon)]
            parent = random_tree(rng, horizon, int(rng.integers(1, 4)))
            specs = [
                random_positive_spec(rng, horizon, size),
                random_sparse_spec(rng, horizon, size),
                random_window_spec(rng, horizon, size, int(rng.integers(1, 3))),
                build_markov(transition, rng.dirichlet(np.ones(size)), horizon),
                build_causal_tree(parent, edges, rng.dirichlet(np.ones(size))),
            ]
            for spec in specs:
                for c in sensitivities(rng, horizon):
                    check_catalog(spec, c)
        # Chains with a coefficient of 0, 1 (no row applies) and at the
        # Kontorovich divergence 1/2.
        for transition in ([[0.3, 0.7], [0.3, 0.7]], np.eye(2), [[0.75, 0.25], [0.25, 0.75]]):
            for horizon in (1, 2, 5):
                check_catalog(build_markov(transition, [0.5, 0.5], horizon), np.ones(horizon))

    def test_markov_chain_of_one_step(self):
        # One step has no edge, so alpha = max H = 0: the Markov and Samson
        # proxies are ||c||^2, which is exact, and Kontorovich applies at
        # N * ||c||_inf^2.
        spec = build_markov(CANONICAL_TRANSITION, CANONICAL_INIT, 1)
        report = compare_bounds(spec, c=np.ones(1))
        rows = {name: report[name] for name in family_row_names(spec, np.ones(1))}
        assert {name: (b.proxy, b.certified, b.details["alpha"]) for name, b in rows.items()} == {
            "markov": (1.0, True, 0.0),
            "kontorovich": (1.0, False, 0.0),
            "samson": (1.0, False, 0.0),
        }
        assert report["exact"].proxy == 1.0
        assert report["kontorovich"].details["multiplier"] == 1.0


# ============================================================
# Every config family, from random documents
# ============================================================


@st.composite
def random_target(draw, horizon: int, size: int) -> dict:
    """A target block of any builtin target, with random parameters."""
    name = draw(st.sampled_from(sorted(_TARGETS)))
    n_values = size**horizon
    params = {
        "symbol": st.integers(0, size - 1),
        "value": st.floats(-2.0, 2.0),
        "values": st.lists(st.integers(-3, 3), min_size=n_values, max_size=n_values),
    }
    return {"name": name, **{key: draw(params[key]) for key in _TARGETS[name][0]}}


@pytest.mark.parametrize("family", sorted(_FAMILIES))
@given(data=st.data())
@settings(max_examples=30, derandomize=True, deadline=None)
def test_random_scenarios_of_every_family(family, data):
    """Parse, build and bound a random document of each family: exact is at
    most every certified applicable row, the family rows read alpha = max H,
    and up to N = 6 the exact verification suites pass."""
    assert family in RANDOM_SCENARIOS, f"conftest.RANDOM_SCENARIOS has no generator for {family}"
    horizon, size, block = data.draw(RANDOM_SCENARIOS[family])
    doc = {
        "scenario": {"family": family, "horizon": horizon, "alphabet": size, family: block},
        "target": data.draw(random_target(horizon, size)),
    }
    config = parse_config(doc)
    spec, f = config.build(), config.target()
    assert spec.family == family
    c = config.sensitivity(spec, f)
    report = check_catalog(spec, c)
    if horizon > 6:
        return
    gamma = report.resolvent
    assert verify_oscillation_bound(spec, prefix_expectation_table(spec, f), gamma, c).passed
    assert verify_coupling_marginals(spec).passed
    # One Monte Carlo sample: its rows are left out, the exact ones checked.
    recursion = verify_discrepancy_recursion(spec, gamma, n_samples=1, seed=0)
    exact_rows = [row for row in recursion.rows if row.check == "discrepancy_exact"]
    assert len(exact_rows) == horizon**2 and all(row.passed for row in exact_rows)
