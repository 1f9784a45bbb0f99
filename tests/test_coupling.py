"""Maximal coupling, the pair process, and the verification suites."""

import numpy as np
import pytest

from seqbound import (
    all_trajectories,
    build_markov,
    causal_resolvent,
    coupled_pair_process,
    discrepancy_bound,
    exact_oscillation,
    exact_pair_discrepancy,
    interdependence_matrix,
    joint_probability,
    kernel_at,
    maximal_coupling_draws,
    maximal_coupling_joint,
    sample_trajectories,
    simulate_coupled_paths,
    sum_symbols,
    terminal_symbol,
    tv_distance,
    verify_coupling_marginals,
    verify_discrepancy_recursion,
    verify_oscillation_bound,
)
from conftest import (
    CANONICAL_INIT,
    CANONICAL_TRANSITION,
    random_positive_spec,
    random_table_target,
)

EXACT_TOL = 1e-12
SIGMA = 4.0


def random_distribution(rng: np.random.Generator, size: int) -> np.ndarray:
    raw = rng.uniform(0.0, 1.0, size=size)
    if raw.sum() == 0.0:
        raw[0] = 1.0
    return raw / raw.sum()


# ============================================================
# Maximal coupling joint
# ============================================================


class TestCouplingJoint:
    def test_marginals_exact_on_randoms(self):
        rng = np.random.default_rng(61)
        for _ in range(25):
            size = int(rng.integers(2, 7))
            mu = random_distribution(rng, size)
            nu = random_distribution(rng, size)
            joint = maximal_coupling_joint(mu, nu)
            assert np.max(np.abs(joint.sum(axis=1) - mu)) < 1e-12
            assert np.max(np.abs(joint.sum(axis=0) - nu)) < 1e-12
            assert float(joint.min()) >= 0.0

    def test_diagonal_is_overlap(self):
        mu = np.array([0.7, 0.3])
        nu = np.array([0.4, 0.6])
        joint = maximal_coupling_joint(mu, nu)
        assert np.allclose(np.diag(joint), [0.4, 0.3], atol=EXACT_TOL)
        off = joint.sum() - np.trace(joint)
        assert abs(off - tv_distance(mu, nu)) < EXACT_TOL

    def test_identical_distributions_never_disagree(self):
        mu = np.array([0.25, 0.5, 0.25])
        joint = maximal_coupling_joint(mu, mu)
        assert abs(np.trace(joint) - 1.0) < EXACT_TOL

    def test_disjoint_supports_always_disagree(self):
        joint = maximal_coupling_joint([1.0, 0.0], [0.0, 1.0])
        assert np.trace(joint) == 0.0
        assert abs(joint[0, 1] - 1.0) < EXACT_TOL

    def test_disagreement_minimality_on_randoms(self):
        # No coupling can disagree less often than the total variation distance.
        rng = np.random.default_rng(67)
        for _ in range(25):
            size = int(rng.integers(2, 6))
            mu = random_distribution(rng, size)
            nu = random_distribution(rng, size)
            joint = maximal_coupling_joint(mu, nu)
            disagreement = joint.sum() - np.trace(joint)
            assert disagreement <= tv_distance(mu, nu) + EXACT_TOL


# ============================================================
# Sampling the coupling
# ============================================================


class TestCouplingSampling:
    def test_draws_respect_supports(self):
        rng = np.random.default_rng(71)
        mu = np.array([1.0, 0.0, 0.0])
        nu = np.array([0.0, 0.5, 0.5])
        ys, zs = maximal_coupling_draws(mu, nu, 50, rng)
        assert np.all(ys == 0) and np.all(np.isin(zs, (1, 2)))

    def test_identical_marginals_agree_surely(self):
        rng = np.random.default_rng(73)
        mu = np.array([0.3, 0.7])
        ys, zs = maximal_coupling_draws(mu, mu, 50, rng)
        assert np.array_equal(ys, zs)

    def test_draws_match_marginals_and_tv(self):
        rng = np.random.default_rng(79)
        n = 200_000
        for mu, nu in [
            (np.array([0.7, 0.3]), np.array([0.4, 0.6])),
            (np.array([0.2, 0.3, 0.5]), np.array([0.5, 0.25, 0.25])),
        ]:
            ys, zs = maximal_coupling_draws(mu, nu, n, rng)
            tv = tv_distance(mu, nu)
            stderr_tv = np.sqrt(tv * (1.0 - tv) / n)
            assert abs(np.mean(ys != zs) - tv) < SIGMA * stderr_tv
            for k in range(mu.shape[0]):
                p, q = mu[k], nu[k]
                assert abs(np.mean(ys == k) - p) < SIGMA * max(np.sqrt(p * (1 - p) / n), 3.0 / n)
                assert abs(np.mean(zs == k) - q) < SIGMA * max(np.sqrt(q * (1 - q) / n), 3.0 / n)

    def test_draws_reproducible(self):
        mu = np.array([0.6, 0.4])
        nu = np.array([0.1, 0.9])
        a = maximal_coupling_draws(mu, nu, 100, np.random.default_rng(5))
        b = maximal_coupling_draws(mu, nu, 100, np.random.default_rng(5))
        assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])


# ============================================================
# Pair process
# ============================================================


class TestPairProcess:
    def test_prefix_and_pivot_are_deterministic(self, markov3):
        pair = coupled_pair_process(markov3, k=2, prefix=(0,), x=0, xp=1)
        assert pair.alphabet.size == 4
        vec = kernel_at(pair, 1, ())
        assert vec[0 * 2 + 0] == 1.0  # both copies pinned to the prefix symbol
        vec = kernel_at(pair, 2, (0,))
        assert vec[0 * 2 + 1] == 1.0  # pivot forces (x, xp) = (0, 1)

    def test_pair_marginals_reproduce_chain(self, markov3):
        pair = coupled_pair_process(markov3, k=1, prefix=(), x=0, xp=1)
        y_law: dict = {}
        z_law: dict = {}
        for path in all_trajectories(3, 4):
            p = joint_probability(pair, path)
            if p == 0.0:
                continue
            y = tuple(s // 2 for s in path)
            z = tuple(s % 2 for s in path)
            y_law[y] = y_law.get(y, 0.0) + p
            z_law[z] = z_law.get(z, 0.0) + p
        # Y follows the chain from x=0, Z from xp=1; both start surely.
        for y, p in y_law.items():
            assert y[0] == 0
            expected = 1.0
            for j in range(1, 3):
                expected *= CANONICAL_TRANSITION[y[j - 1], y[j]]
            assert abs(p - expected) < EXACT_TOL
        assert abs(sum(y_law.values()) - 1.0) < EXACT_TOL
        for z in z_law:
            assert z[0] == 1
        assert abs(sum(z_law.values()) - 1.0) < EXACT_TOL

    def test_rollout_trace_shape(self, markov3):
        pair = coupled_pair_process(markov3, k=1, prefix=(), x=0, xp=1)
        assert pair.meta["pivot"] == 1
        assert pair.meta["pivot_states"] == (0, 1)
        paths = sample_trajectories(pair, 50, seed=3)
        assert paths.shape == (50, 3)
        assert np.all(paths[:, 0] // 2 == 0) and np.all(paths[:, 0] % 2 == 1)
        assert exact_pair_discrepancy(markov3, k=1, prefix=(), x=0, xp=1)[0] == 1.0

    def test_pivot_argument_validation(self, markov3):
        with pytest.raises(ValueError):
            coupled_pair_process(markov3, k=0, prefix=(), x=0, xp=1)
        with pytest.raises(ValueError):
            coupled_pair_process(markov3, k=2, prefix=(), x=0, xp=1)  # prefix too short
        with pytest.raises(ValueError):
            coupled_pair_process(markov3, k=1, prefix=(), x=0, xp=2)  # symbol range


# ============================================================
# Exact discrepancy and its matrix bound
# ============================================================


class TestDiscrepancy:
    def test_markov_chain_is_tight(self, markov3):
        h = interdependence_matrix(markov3)
        bound = discrepancy_bound(h, 1)
        v = exact_pair_discrepancy(markov3, k=1, prefix=(), x=0, xp=1)
        assert np.allclose(bound, [1.0, 0.7, 0.49], atol=EXACT_TOL)
        assert np.allclose(v, [1.0, 0.7, 0.49], atol=EXACT_TOL)

    def test_star_tree_discrepancy(self, star_tree):
        v = exact_pair_discrepancy(star_tree, k=1, prefix=(), x=0, xp=1)
        assert np.allclose(v, [1.0, 0.2, 0.2, 0.2, 0.2], atol=EXACT_TOL)
        h = interdependence_matrix(star_tree)
        gamma = causal_resolvent(h)
        assert np.allclose(gamma.entries, np.eye(5) + h.entries, atol=EXACT_TOL)

    def test_simulation_matches_exact(self, markov3):
        v = exact_pair_discrepancy(markov3, k=1, prefix=(), x=0, xp=1)
        est = simulate_coupled_paths(markov3, k=1, prefix=(), x=0, xp=1,
                                     n_samples=100_000, seed=2)
        assert np.all(np.abs(est.v_hat - v) <= 3.0 * est.stderr + 1e-12)

    def test_pinned_coordinates_never_disagree(self, markov3):
        v = exact_pair_discrepancy(markov3, k=2, prefix=(0,), x=1, xp=1)
        assert v[0] == 0.0  # prefix coordinate agrees surely
        assert v[1] == 0.0  # equal pivot states

    def test_oscillation_frozen(self, markov3):
        f = terminal_symbol(3, 2)
        assert abs(exact_oscillation(markov3, f, k=1, prefix=()) - 0.49) < EXACT_TOL
        assert abs(exact_oscillation(markov3, f, k=3, prefix=(0, 0)) - 1.0) < EXACT_TOL


# ============================================================
# Verification suites
# ============================================================


class TestVerifiers:
    def test_oscillation_passes_on_chain(self, markov3):
        f = sum_symbols(3, 2)
        report = verify_oscillation_bound(markov3, f, np.asarray(f.sensitivity))
        assert report.passed
        checks = {row.check for row in report.rows}
        assert "sensitivity_declared" in checks
        assert "oscillation_worst" in checks

    def test_oscillation_catches_undersized_declaration(self, markov3):
        f = sum_symbols(3, 2)
        report = verify_oscillation_bound(markov3, f, np.full(3, 0.25))
        assert not report.passed
        assert all(row.check == "sensitivity_declared" for row in report.failures())

    def test_oscillation_tight_on_terminal_target(self, markov3):
        f = terminal_symbol(3, 2)
        report = verify_oscillation_bound(markov3, f, np.asarray(f.sensitivity))
        assert report.passed
        worst = {row.k: row for row in report.rows if row.check == "oscillation_worst"}
        assert abs(worst[1].observed - 0.49) < EXACT_TOL
        assert abs(worst[1].bound - 0.49) < EXACT_TOL

    def test_recursion_passes_on_random_specs(self):
        rng = np.random.default_rng(83)
        for _ in range(3):
            spec = random_positive_spec(rng, int(rng.integers(2, 5)), 2)
            report = verify_discrepancy_recursion(spec, n_samples=20_000, seed=7)
            assert report.passed

    def test_coupling_marginals_pass(self, markov3, star_tree):
        for spec in (markov3, star_tree):
            report = verify_coupling_marginals(spec, n_draws=200_000, seed=11)
            assert report.passed
            checks = {row.check for row in report.rows}
            assert "coupling_marginal_y" in checks
            assert "coupling_disagreement" in checks
