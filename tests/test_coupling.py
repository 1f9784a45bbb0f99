"""Maximal coupling, the pair process, and the verification suites."""

import re

import numpy as np
import pytest

from seqbound import coupling, sampling
from seqbound import (
    EnumerationBudgetError,
    TargetFunction,
    build_causal_tree,
    build_independent,
    build_markov,
    causal_resolvent,
    coupled_pair_process,
    exact_pair_discrepancy,
    interdependence_matrix,
    kernel_at,
    lipschitz_vector_oracle,
    maximal_coupling_draws,
    maximal_coupling_joint,
    prefix_expectation_table,
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
    all_trajectories,
    discrepancy_bound,
    exact_oscillation,
    joint_probability,
    random_positive_spec,
    random_sparse_spec,
    random_table_target,
    traced_peak,
)

EXACT_TOL = 1e-12
SIGMA = 4.0


def random_distribution(rng: np.random.Generator, size: int) -> np.ndarray:
    raw = rng.uniform(0.0, 1.0, size=size)
    if raw.sum() == 0.0:
        raw[0] = 1.0
    return raw / raw.sum()


class GivenUniforms:
    """Stands in for a Generator whose ``random(n)`` returns given uniforms."""

    def __init__(self, values: np.ndarray):
        self.values = values

    def random(self, n: int) -> np.ndarray:
        assert n == self.values.shape[0]
        return self.values


def resolvent_of(spec):
    return causal_resolvent(interdependence_matrix(spec))


def oscillation_report(spec, f, c):
    """The oscillation suite as ``verify`` runs it: on the spec's resolvent
    and f's prefix-expectation table."""
    return verify_oscillation_bound(spec, prefix_expectation_table(spec, f), resolvent_of(spec), c)


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

    def test_stacked_rows_match_single_calls(self):
        rng = np.random.default_rng(73)
        mu = np.array([random_distribution(rng, 4) for _ in range(6)])
        nu = np.array([random_distribution(rng, 4) for _ in range(6)])
        nu[0] = mu[0]  # a row with TV 0
        stacked = maximal_coupling_joint(mu, nu)
        assert stacked.shape == (6, 4, 4)
        for row in range(6):
            assert np.array_equal(stacked[row], maximal_coupling_joint(mu[row], nu[row]))
        with pytest.raises(ValueError):
            maximal_coupling_draws(mu, nu, 10, np.random.default_rng(0))

    @pytest.mark.parametrize(
        "mu, nu",
        [
            ([1.0 + 2e-12, -2e-12], [0.5, 0.5]),
            ([0.5, 0.5], [np.nan, 1.0]),
            ([np.inf, 0.0], [0.5, 0.5]),
            ([0.5, 0.5 + 1e-11], [0.5, 0.5]),
            ([], []),
            (1.0, 1.0),
            ([0.5, 0.5], [0.2, 0.3, 0.5]),
        ],
        ids=["negative", "nan", "inf", "row-sum", "empty", "0-d", "shapes"],
    )
    def test_rejects_non_distributions(self, mu, nu):
        with pytest.raises(ValueError):
            maximal_coupling_joint(mu, nu)

    def test_clips_rounding_below_zero(self):
        joint = maximal_coupling_joint([1.0 + 5e-13, -5e-13], [0.5, 0.5])
        assert float(joint.min()) == 0.0
        assert np.array_equal(joint.sum(axis=0), [0.5, 0.5])
        assert np.array_equal(joint.sum(axis=1), [1.0, 0.0])

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

    def test_draws_match_joint_cell_by_cell(self):
        rng = np.random.default_rng(83)
        n = 200_000
        for mu, nu in [
            (np.array([0.7, 0.3]), np.array([0.4, 0.6])),
            (np.array([0.5, 0.0, 0.5]), np.array([0.2, 0.3, 0.5])),
            (np.array([0.1, 0.6, 0.3, 0.0]), np.array([0.4, 0.1, 0.2, 0.3])),
            (random_distribution(rng, 5), random_distribution(rng, 5)),
        ]:
            joint = maximal_coupling_joint(mu, nu)
            ys, zs = maximal_coupling_draws(mu, nu, n, rng)
            size = mu.shape[0]
            freq = np.bincount(ys * size + zs, minlength=size * size).reshape(size, size) / n
            assert np.all(freq[joint == 0.0] == 0.0)
            stderr = np.sqrt(joint * (1.0 - joint) / n)
            assert np.all(np.abs(freq - joint) < SIGMA * stderr + (joint == 0.0))

    def test_inversion_equals_the_clipped_count_over_all_sums(self):
        # Reference: the number of cumulative sums at or below u, clipped to
        # the last cell.  Uniforms sit on and one ulp below every sum, and
        # zero cells repeat sums.
        rng = np.random.default_rng(89)
        for _ in range(2_000):
            size = int(rng.integers(1, 6))
            laws = []
            for _ in range(2):
                raw = rng.uniform(size=size) * (rng.uniform(size=size) < 0.6)
                raw[int(rng.integers(size))] += float(raw.sum() == 0.0)
                laws.append(raw / raw.sum())
            cum = np.cumsum(maximal_coupling_joint(*laws).ravel())
            u = np.concatenate([cum, np.nextafter(cum, -np.inf), rng.random(8)])
            u = u[(u >= 0.0) & (u < 1.0)]
            expected = np.divmod(
                np.minimum(np.searchsorted(cum, u, side="right"), cum.shape[0] - 1), size
            )
            ys, zs = maximal_coupling_draws(*laws, u.shape[0], GivenUniforms(u))
            assert np.array_equal(ys, expected[0]) and np.array_equal(zs, expected[1])

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
        pair = coupled_pair_process(markov3)
        assert pair.alphabet.size == 4
        # Pivot 2 after the prefix (0,) with pivot states (0, 1).
        paths = sample_trajectories(pair, 50, seed=3, prefix=(0 * 2 + 0, 0 * 2 + 1))
        assert np.all(paths[:, 0] == 0 * 2 + 0)  # both copies pinned to the prefix symbol
        assert np.all(paths[:, 1] == 0 * 2 + 1)  # pivot forces (x, xp) = (0, 1)
        v = exact_pair_discrepancy(markov3, k=2, prefix=(0,), x=0, xp=1)
        assert v[0] == 0.0 and v[1] == 1.0

    def test_pair_marginals_reproduce_chain(self, markov3):
        pair = coupled_pair_process(markov3)
        y_law: dict = {}
        z_law: dict = {}
        # Pivot 1 with pivot states (0, 1) is the pair prefix (0 * 2 + 1,).
        for suffix in all_trajectories(2, 4):
            path = (1,) + suffix
            p = 1.0
            for j in range(2, 4):
                p *= float(kernel_at(pair, j, path[: j - 1])[path[j - 1]])
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
        pair = coupled_pair_process(markov3)
        assert pair.family == "coupled-pair"
        assert pair.meta == {"base_alphabet": 2}
        paths = sample_trajectories(pair, 50, seed=3, prefix=(0 * 2 + 1,))
        assert paths.shape == (50, 3)
        assert np.all(paths[:, 0] // 2 == 0) and np.all(paths[:, 0] % 2 == 1)
        assert exact_pair_discrepancy(markov3, k=1, prefix=(), x=0, xp=1)[0] == 1.0

    def test_pivot_argument_validation(self, markov3):
        with pytest.raises(ValueError):
            exact_pair_discrepancy(markov3, k=0, prefix=(), x=0, xp=1)
        with pytest.raises(ValueError):
            exact_pair_discrepancy(markov3, k=2, prefix=(), x=0, xp=1)  # prefix too short
        with pytest.raises(ValueError):
            exact_pair_discrepancy(markov3, k=1, prefix=(), x=0, xp=2)  # symbol range
        with pytest.raises(ValueError):
            exact_pair_discrepancy(markov3, k=1, prefix=(), x=[0, 1], xp=[1])  # pair lengths

    @pytest.mark.parametrize(
        "prefix, x, xp, named",
        [
            ((0.9,), 0, 1, "prefix symbol 0.9"),
            ((0,), 1.6, 0.2, "pivot symbol 1.6"),
            ((0,), 1, 0.2, "pivot symbol 0.2"),
            ((0,), np.float64(1.0), 0, "pivot symbol 1.0"),
        ],
    )
    def test_non_integral_symbols_rejected(self, markov3, prefix, x, xp, named):
        match = re.escape(named) + " is not an integer"
        with pytest.raises(ValueError, match=match):
            exact_pair_discrepancy(markov3, 2, prefix, x, xp)
        with pytest.raises(ValueError, match=match):
            exact_pair_discrepancy(markov3, 2, prefix, [x], [xp])
        with pytest.raises(ValueError, match=match):
            simulate_coupled_paths(markov3, 2, prefix, x, xp, n_samples=10, seed=0)

    def test_numpy_integer_symbols_accepted(self, markov3):
        expected = exact_pair_discrepancy(markov3, 2, (0,), 1, 0)
        assert np.array_equal(
            exact_pair_discrepancy(markov3, 2, (np.int64(0),), np.uint8(1), np.int32(0)), expected
        )
        xs, xps = np.divmod(np.arange(4), 2)
        assert np.array_equal(exact_pair_discrepancy(markov3, 2, np.array([0]), xs, xps)[2], expected)
        a = simulate_coupled_paths(markov3, 2, (0,), xs[2], xps[2], n_samples=50, seed=4)
        b = simulate_coupled_paths(markov3, 2, (0,), 1, 0, n_samples=50, seed=4)
        assert np.array_equal(a.v_hat, b.v_hat)

    def test_one_pair_process_per_spec(self, markov3, monkeypatch):
        calls = []

        def counting(mu, nu):
            calls.append(np.ndim(mu))
            return maximal_coupling_joint(mu, nu)

        gamma = resolvent_of(markov3)
        monkeypatch.setattr(coupling, "maximal_coupling_joint", counting)
        verify_discrepancy_recursion(markov3, gamma, n_samples=2_000, seed=1)
        # One stacked call per step, shared by every (pivot, pivot pair).
        assert calls == [2, 2, 2]
        # Kept on the spec: asking again builds nothing.
        assert coupled_pair_process(markov3) is coupled_pair_process(markov3)
        assert len(calls) == 3

    def test_budget_checked_before_the_pair_is_built(self, markov8, monkeypatch):
        calls = []
        monkeypatch.setattr(coupling, "maximal_coupling_joint", lambda mu, nu: calls.append(1))
        with pytest.raises(EnumerationBudgetError):
            exact_pair_discrepancy(markov8, k=1, prefix=(), x=0, xp=1, budget=4**7 - 1)
        assert calls == []


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
        assert np.allclose(gamma, np.eye(5) + h, atol=EXACT_TOL)

    def test_simulation_matches_exact(self, markov3):
        v = exact_pair_discrepancy(markov3, k=1, prefix=(), x=0, xp=1)
        est = simulate_coupled_paths(markov3, k=1, prefix=(), x=0, xp=1,
                                     n_samples=100_000, seed=2)
        assert np.all(np.abs(est.v_hat - v) <= 3.0 * est.stderr + 1e-12)

    def test_simulation_is_the_mean_disagreement_of_the_pair_paths(self):
        spec = random_sparse_spec(np.random.default_rng(71), 5, 3)
        est = simulate_coupled_paths(spec, k=2, prefix=(1,), x=0, xp=2, n_samples=3_000, seed=7)
        paths = sample_trajectories(coupled_pair_process(spec), 3_000, 7, (4, 2))
        off_diagonal = ~np.eye(3, dtype=bool).ravel()
        assert np.array_equal(est.v_hat, off_diagonal[paths].mean(axis=0))

    @staticmethod
    def simulation_peak(horizon, n):
        """tracemalloc peak of n coupled rollouts at this horizon, with the
        pair process already built."""
        spec = build_markov(CANONICAL_TRANSITION, CANONICAL_INIT, horizon)
        coupled_pair_process(spec)
        call = lambda: simulate_coupled_paths(spec, k=1, prefix=(), x=0, xp=1, n_samples=n, seed=5)
        return traced_peak(call)[1]

    def test_simulation_memory_beside_the_paths_is_linear_in_n(self):
        # The sampler's block, plus O(n), but not the (n, N) disagreement
        # matrix (8 MB here).
        n, horizon = 100_000, 80
        block = 2 * 8 * sampling._block_rows(n, horizon) * horizon
        assert self.simulation_peak(horizon, n) < block + 16 * n

    def test_short_horizon_simulation_memory_is_bounded_by_the_cell_budget(self):
        n, horizon = 100_000, 12
        assert sampling._block_rows(n, horizon) * horizon <= sampling.SAMPLE_BLOCK_CELLS
        assert self.simulation_peak(horizon, n) < 2 * 8 * sampling.SAMPLE_BLOCK_CELLS + 16 * n

    def test_pinned_coordinates_never_disagree(self, markov3):
        v = exact_pair_discrepancy(markov3, k=2, prefix=(0,), x=1, xp=1)
        assert v[0] == 0.0  # prefix coordinate agrees surely
        assert v[1] == 0.0  # equal pivot states

    @pytest.mark.parametrize(
        "spec, tv",
        [
            (build_independent(np.array([0.3, 0.7]), 4), 0.0),
            # Node 3 is a second root: steps 3 and 4 never see the pivot.
            (build_causal_tree([0, 1, 0, 3], [[0.6, 0.4], [0.4, 0.6]], [0.5, 0.5]), 0.2),
        ],
        ids=["independent", "tree-roots"],
    )
    def test_empty_signatures_after_pivot(self, spec, tv):
        v = exact_pair_discrepancy(spec, k=1, prefix=(), x=0, xp=1)
        assert np.allclose(v, [1.0, tv, 0.0, 0.0], atol=EXACT_TOL)
        est = simulate_coupled_paths(spec, k=1, prefix=(), x=0, xp=1, n_samples=20_000, seed=3)
        assert est.v_hat[0] == 1.0 and est.v_hat[2] == 0.0 and est.v_hat[3] == 0.0
        assert abs(est.v_hat[1] - tv) <= 3.0 * est.stderr[1]

    def test_matches_brute_force_with_zero_kernel_entries(self):
        # Oracle: sum over pair suffixes, each step weighted by the maximal
        # coupling of the two copies' kernels at their full histories.
        rng = np.random.default_rng(23)
        for _ in range(12):
            horizon = int(rng.integers(2, 5))
            size = int(rng.integers(2, 4))
            spec = random_sparse_spec(rng, horizon, size)
            k = int(rng.integers(1, horizon + 1))
            prefix = tuple(int(a) for a in rng.integers(0, size, size=k - 1))
            x, xp = (int(a) for a in rng.integers(0, size, size=2))
            ys, zs = prefix + (x,), prefix + (xp,)
            expected = np.zeros(horizon)
            expected[k - 1] = float(x != xp)
            for suffix in all_trajectories(horizon - k, size * size):
                y = ys + tuple(s // size for s in suffix)
                z = zs + tuple(s % size for s in suffix)
                p = 1.0
                for j in range(k + 1, horizon + 1):
                    joint = maximal_coupling_joint(
                        kernel_at(spec, j, y[: j - 1]), kernel_at(spec, j, z[: j - 1])
                    )
                    p *= joint[y[j - 1], z[j - 1]]
                expected[k:] += [p * (y[j] != z[j]) for j in range(k, horizon)]
            v = exact_pair_discrepancy(spec, k, prefix, x, xp)
            assert np.allclose(v, expected, atol=1e-12)

    def test_pivot_pairs_in_one_pass_equal_single_pairs(self):
        rng = np.random.default_rng(29)
        for make in (random_positive_spec, random_sparse_spec) * 4:
            horizon = int(rng.integers(2, 6))
            size = int(rng.integers(2, 4))
            spec = make(rng, horizon, size)
            xs, xps = np.divmod(np.arange(size * size), size)
            for k in range(1, horizon + 1):
                prefix = tuple(int(a) for a in rng.integers(0, size, size=k - 1))
                v = exact_pair_discrepancy(spec, k, prefix, xs, xps)
                assert v.shape == (size * size, horizon)
                for row, (x, xp) in enumerate(zip(xs, xps)):
                    assert np.array_equal(v[row], exact_pair_discrepancy(spec, k, prefix, x, xp))

    def test_oscillation_budget_error(self, markov8):
        f = sum_symbols(8, 2)
        with pytest.raises(EnumerationBudgetError):
            exact_oscillation(markov8, f, k=1, prefix=(), budget=255)

    def test_oscillation_frozen(self, markov3):
        f = terminal_symbol(3, 2)
        assert abs(exact_oscillation(markov3, f, k=1, prefix=()) - 0.49) < EXACT_TOL
        assert abs(exact_oscillation(markov3, f, k=3, prefix=(0, 0)) - 1.0) < EXACT_TOL


# ============================================================
# Verification suites
# ============================================================


class TestVerifiers:
    def test_oscillation_skips_unreachable_prefixes(self, markov3):
        # markov3 starts surely at 0.  At the unreachable prefixes (1,) and
        # (1, 0) the oscillations of x1 * x3 read 0.7 and 1.0.
        f = TargetFunction(name="x1*x3", evaluate=lambda x: float(x[0] * x[2]))
        c = lipschitz_vector_oracle(f, markov3.alphabet, 3)
        assert np.array_equal(c, [1.0, 0.0, 1.0])
        report = oscillation_report(markov3, f, c)
        worst = {row.k: row.observed for row in report.rows if row.check == "oscillation_worst"}
        assert worst[2] == 0.0 and worst[3] == 0.0
        assert abs(exact_oscillation(markov3, f, k=2, prefix=(1,)) - 0.7) < EXACT_TOL
        assert abs(exact_oscillation(markov3, f, k=3, prefix=(1, 0)) - 1.0) < EXACT_TOL

    def test_violation_rows_are_the_positive_prefixes_over_the_bound(self):
        # A resolvent scaled down to 0.3 makes some oscillations exceed
        # (Gamma c)_k.  Brute force: the prefixes, lexicographically, with a
        # completion of positive joint_probability whose oscillation exceeds
        # the bound; violating prefixes of probability 0 get no row.
        rng = np.random.default_rng(97)
        unreachable = 0
        for _ in range(6):
            n, size = int(rng.integers(2, 5)), int(rng.integers(2, 4))
            spec = random_sparse_spec(rng, n, size)
            f = random_table_target(rng, n, size)
            c = lipschitz_vector_oracle(f, size, n)
            gamma = 0.3 * resolvent_of(spec)
            report = verify_oscillation_bound(spec, prefix_expectation_table(spec, f), gamma, c)
            bound = gamma @ c
            expected = []
            for k in range(1, n + 1):
                for prefix in all_trajectories(k - 1, size):
                    osc = exact_oscillation(spec, f, k, prefix)
                    if osc <= bound[k - 1] + coupling.EXACT_COMPARISON_TOLERANCE:
                        continue
                    completions = all_trajectories(n - k + 1, size)
                    if any(joint_probability(spec, prefix + rest) > 0.0 for rest in completions):
                        expected.append((f"oscillation_violation[prefix={prefix}]", k, osc))
                    else:
                        unreachable += 1
            rows = [
                (row.check, row.k, row.observed)
                for row in report.rows
                if row.check.startswith("oscillation_violation")
            ]
            assert rows == expected
            assert all(row.bound == bound[row.k - 1] for row in report.failures())
        assert unreachable > 0

    def test_oscillation_passes_on_chain(self, markov3):
        f = sum_symbols(3, 2)
        report = oscillation_report(markov3, f, np.asarray(f.sensitivity))
        assert report.passed
        checks = {row.check for row in report.rows}
        assert "sensitivity_declared" in checks
        assert "oscillation_worst" in checks

    def test_oscillation_catches_undersized_declaration(self, markov3):
        f = sum_symbols(3, 2)
        report = oscillation_report(markov3, f, np.full(3, 0.25))
        assert not report.passed
        assert all(row.check == "sensitivity_declared" for row in report.failures())

    def test_oscillation_tight_on_terminal_target(self, markov3):
        f = terminal_symbol(3, 2)
        report = oscillation_report(markov3, f, np.asarray(f.sensitivity))
        assert report.passed
        worst = {row.k: row for row in report.rows if row.check == "oscillation_worst"}
        assert abs(worst[1].observed - 0.49) < EXACT_TOL
        assert abs(worst[1].bound - 0.49) < EXACT_TOL

    def test_suites_reject_quantities_of_another_shape(self, markov3, markov8):
        f = sum_symbols(3, 2)
        c = np.asarray(f.sensitivity)
        table = prefix_expectation_table(markov3, f)
        with pytest.raises(ValueError):
            verify_oscillation_bound(markov3, table, resolvent_of(markov8), c)
        with pytest.raises(ValueError):
            long_table = prefix_expectation_table(markov8, sum_symbols(8, 2))
            verify_oscillation_bound(markov3, long_table, resolvent_of(markov3), c)
        with pytest.raises(ValueError):
            verify_discrepancy_recursion(markov3, resolvent_of(markov8), n_samples=1_000)

    def test_recursion_passes_on_random_specs(self):
        rng = np.random.default_rng(83)
        for _ in range(3):
            spec = random_positive_spec(rng, int(rng.integers(2, 5)), 2)
            report = verify_discrepancy_recursion(spec, resolvent_of(spec), n_samples=20_000, seed=7)
            assert report.passed

    def test_coupling_marginals_pass(self, markov3, star_tree):
        for spec in (markov3, star_tree):
            report = verify_coupling_marginals(spec)
            assert report.passed
            assert [(row.check, row.k, row.j) for row in report.rows] == [
                (check, k, None)
                for k in range(1, spec.horizon + 1)
                for check in COUPLING_CHECKS
            ]


COUPLING_CHECKS = (
    "coupling_marginal_exact_y",
    "coupling_marginal_exact_z",
    "coupling_disagreement_exact",
)


def product_joint(mu, nu):
    """The independent coupling: right marginals, too much disagreement."""
    return np.asarray(mu)[..., :, None] * np.asarray(nu)[..., None, :]


def moved_joint(axis: int):
    """The maximal joint with 1e-6 of each row's largest cell moved one
    cell along ``axis`` (2: to the next column, 1: to the next row)."""

    def joint(mu, nu):
        out = maximal_coupling_joint(mu, nu).copy()
        size = out.shape[-1]
        flat = out.reshape(-1, size * size)
        rows = np.arange(flat.shape[0])
        y, z = np.divmod(flat.argmax(axis=1), size)
        to = y * size + (z + 1) % size if axis == 2 else (y + 1) % size * size + z
        flat[rows, y * size + z] -= 1e-6
        flat[rows, to] += 1e-6
        return out

    return joint


SPEC_MAKERS = {
    "markov": lambda: build_markov(CANONICAL_TRANSITION, np.array([0.5, 0.5]), 4),
    "tree": lambda: build_causal_tree([0, 1, 1, 2], np.array([[0.6, 0.4], [0.3, 0.7]]), [0.5, 0.5]),
    "random": lambda: random_positive_spec(np.random.default_rng(97), 4, 3),
}


class TestCouplingSuitePower:
    @pytest.mark.parametrize("name", sorted(SPEC_MAKERS))
    def test_product_coupling_fails_disagreement(self, name, monkeypatch):
        monkeypatch.setattr(coupling, "maximal_coupling_joint", product_joint)
        report = verify_coupling_marginals(SPEC_MAKERS[name]())
        assert report.failures()
        assert {row.check for row in report.failures()} == {"coupling_disagreement_exact"}

    @pytest.mark.parametrize("axis, side", [(2, "z"), (1, "y")])
    @pytest.mark.parametrize("name", sorted(SPEC_MAKERS))
    def test_moved_mass_fails_a_marginal(self, name, axis, side, monkeypatch):
        monkeypatch.setattr(coupling, "maximal_coupling_joint", moved_joint(axis))
        spec = SPEC_MAKERS[name]()
        report = verify_coupling_marginals(spec)
        failed = {(row.check, row.k) for row in report.failures()}
        expected = {(f"coupling_marginal_exact_{side}", k) for k in range(1, spec.horizon + 1)}
        assert expected <= failed
        other = "y" if side == "z" else "z"
        assert all(row.passed for row in report.rows if row.check == f"coupling_marginal_exact_{other}")

    def test_reads_the_pair_tables_verify_built(self, markov3, monkeypatch):
        pair = coupled_pair_process(markov3)
        monkeypatch.setattr(coupling, "maximal_coupling_joint", product_joint)
        assert verify_coupling_marginals(markov3).passed
        assert coupled_pair_process(markov3) is pair
