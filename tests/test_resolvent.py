"""Resolvent solver against the power-sum oracle; operator norms against SVD."""

import numpy as np
import pytest

from seqbound import (
    build_markov,
    causal_resolvent,
    decay_lower_bound,
    interdependence_matrix,
    operator_norms,
    spectral_decay,
    spectral_norm,
    uniform_decay_profile,
    variance_proxy,
)
from conftest import CANONICAL_INIT, CANONICAL_TRANSITION, neumann_resolvent

EXACT_TOL = 1e-12
NORM_TOL = 1e-9


def random_strict_upper(rng: np.random.Generator, n: int, scale: float = 1.0) -> np.ndarray:
    mat = rng.uniform(0.0, scale, size=(n, n))
    return np.triu(mat, k=1)


# ============================================================
# Back-substitution versus the power-sum oracle
# ============================================================


class TestCausalResolvent:
    def test_matches_power_sum_on_randoms(self):
        rng = np.random.default_rng(31)
        for _ in range(20):
            n = int(rng.integers(1, 12))
            h = random_strict_upper(rng, n, scale=2.0)
            gamma = causal_resolvent(h)
            assert np.max(np.abs(gamma.entries - neumann_resolvent(h))) < 1e-9

    def test_inverse_identity(self):
        rng = np.random.default_rng(37)
        h = random_strict_upper(rng, 8)
        gamma = causal_resolvent(h)
        residual = (np.eye(8) - h) @ gamma.entries - np.eye(8)
        assert np.max(np.abs(residual)) < 1e-12

    def test_markov_geometric_row(self, markov3):
        gamma = causal_resolvent(interdependence_matrix(markov3))
        assert np.allclose(gamma.entries[0], [1.0, 0.7, 0.49], atol=EXACT_TOL)
        assert np.allclose(np.diag(gamma.entries), 1.0, atol=EXACT_TOL)

    def test_rejects_lower_triangular_mass(self):
        bad = np.array([[0.0, 0.5], [0.2, 0.0]])
        with pytest.raises(ValueError):
            causal_resolvent(bad)


# ============================================================
# Spectral norm: certified LAPACK value versus SVD
# ============================================================


class TestSpectralNorm:
    def test_against_svd_oracle(self):
        rng = np.random.default_rng(41)
        for _ in range(25):
            n = int(rng.integers(1, 10))
            m = rng.normal(size=(n, n))
            reference = float(np.linalg.svd(m, compute_uv=False)[0])
            assert abs(spectral_norm(m) - reference) < NORM_TOL * max(1.0, reference)

    def test_needs_second_start(self):
        # The top singular direction is orthogonal to the all-ones vector here,
        # which a solver seeded from a constant start would miss.
        m = np.array([[1.0, -1.0], [-1.0, 1.0]])
        assert abs(spectral_norm(m) - 2.0) < NORM_TOL

    def test_rank_one_frozen(self):
        m = np.array([[0.3, 0.4]])
        assert abs(spectral_norm(m) - 0.5) < NORM_TOL

    def test_zero_matrix(self):
        assert spectral_norm(np.zeros((3, 3))) == 0.0

    def test_certified_never_below_true_norm(self):
        # ||Gamma v||_2 / ||v||_2 bounds ||Gamma||_2 from below for every v;
        # the top right singular vector makes the bound tight.  It is taken
        # in extended precision so the check itself does not round down.
        rng = np.random.default_rng(53)
        cases = []
        for _ in range(40):
            n = int(rng.integers(1, 13))
            scale = float(rng.choice([0.1, 1.0, 10.0]))
            cases.append(np.eye(n) + random_strict_upper(rng, n, scale))
        chain = build_markov(CANONICAL_TRANSITION, CANONICAL_INIT, 500)
        cases.append(causal_resolvent(interdependence_matrix(chain)).entries)
        for gamma in cases:
            v = np.linalg.svd(gamma)[2][0].astype(np.longdouble)
            image = gamma.astype(np.longdouble) @ v
            lower = np.sqrt((image @ image) / (v @ v))
            assert spectral_norm(gamma) >= lower


class TestOperatorNorms:
    def test_hand_values(self):
        m = np.array([[1.0, 3.0], [0.0, 2.0]])
        norms = operator_norms(m)
        assert norms.l1 == 5.0  # largest column sum
        assert norms.linf == 4.0  # largest row sum
        assert norms.l2 <= np.sqrt(norms.l1 * norms.linf) + NORM_TOL

    def test_schur_sandwich_on_randoms(self):
        rng = np.random.default_rng(43)
        for _ in range(25):
            n = int(rng.integers(1, 9))
            m = rng.normal(size=(n, n))
            norms = operator_norms(np.abs(m))
            assert norms.l2 <= np.sqrt(norms.l1 * norms.linf) + NORM_TOL


# ============================================================
# Variance proxy and decay summaries
# ============================================================


class TestProxy:
    def test_markov_proxies_frozen(self, markov3):
        gamma = causal_resolvent(interdependence_matrix(markov3))
        assert abs(variance_proxy(gamma, np.ones(3)) - 8.6861) < 1e-10
        assert abs(variance_proxy(gamma, np.array([0.0, 0.0, 1.0])) - 1.7301) < 1e-10

    def test_identity_proxy(self):
        gamma = causal_resolvent(np.zeros((10, 10)))
        assert abs(variance_proxy(gamma, np.ones(10)) - 10.0) < EXACT_TOL

    def test_proxy_rejects_bad_vector(self, markov3):
        gamma = causal_resolvent(interdependence_matrix(markov3))
        with pytest.raises(ValueError):
            variance_proxy(gamma, np.ones(4))

    def test_spectral_decay_of_identity(self):
        gamma = causal_resolvent(np.zeros((4, 4)))
        assert abs(spectral_decay(gamma) - 1.0) < NORM_TOL

    def test_decay_lower_bound_frozen(self):
        h = np.zeros((3, 3))
        h[0, 1] = h[1, 2] = 0.3
        h[0, 2] = 0.1
        profile = uniform_decay_profile(h)
        assert abs(decay_lower_bound(profile) - 0.36) < EXACT_TOL

    def test_decay_lower_bound_supercritical(self):
        h = np.zeros((2, 2))
        h[0, 1] = 1.0
        assert decay_lower_bound(uniform_decay_profile(h)) is None

    def test_kappa_dominates_relaxation(self):
        rng = np.random.default_rng(47)
        for _ in range(20):
            n = int(rng.integers(2, 10))
            h = random_strict_upper(rng, n)
            profile = uniform_decay_profile(h)
            if profile.total >= 1.0:
                h = h * (0.9 / profile.total)
                profile = uniform_decay_profile(h)
            gamma = causal_resolvent(h)
            assert spectral_decay(gamma) >= decay_lower_bound(profile) - 1e-9
