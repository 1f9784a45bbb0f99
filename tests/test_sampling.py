"""Vectorized trajectory sampling and empirical tail estimation."""

import numpy as np
import pytest

from seqbound import (
    EnumerationBudgetError,
    TailBound,
    TailEstimate,
    all_trajectories,
    binomial_stderr,
    build_markov,
    check_tail_domination,
    default_t_grid,
    empirical_tail,
    joint_probability,
    sample_trajectories,
    sum_symbols,
    tail_csv_rows,
    terminal_symbol,
    tightness_ratios,
)
from conftest import CANONICAL_INIT, CANONICAL_TRANSITION, random_positive_spec

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
            TailBound(name="broken", proxy=None, applicable=False, reason="n/a"),
        ]
        rows = tail_csv_rows(estimate, bounds)
        assert len(rows) == estimate.t_grid.shape[0]  # only the applicable bound
        assert rows[0][3] == "exact"
