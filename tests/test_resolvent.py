"""Causal-resolvent solver against the power-sum oracle; operator norms against SVD."""

import math

import numpy as np
import pytest

from seqbound import (
    build_markov,
    build_sliding_window,
    causal_resolvent,
    compare_bounds,
    decay_lower_bound,
    interdependence_matrix,
    operator_norms,
    spectral_decay,
    spectral_norm,
    sum_symbols,
    uniform_decay_profile,
    uniform_decay_tail,
    variance_proxy,
)
from seqbound.resolvent import _check_inverse
from conftest import (
    CANONICAL_INIT,
    CANONICAL_TRANSITION,
    neumann_resolvent,
    random_positive_spec,
    random_sparse_spec,
    row_by_row_resolvent,
)

EXACT_TOL = 1e-12
NORM_TOL = 1e-9


def parity_window_kernel(step, window):
    return [0.98, 0.02] if sum(window) % 2 == 0 else [0.02, 0.98]


def random_strictly_upper(rng: np.random.Generator, n: int, scale: float = 1.0) -> np.ndarray:
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
            h = random_strictly_upper(rng, n, scale=2.0)
            gamma = causal_resolvent(h)
            assert np.max(np.abs(gamma - neumann_resolvent(h))) < 1e-9

    def test_bit_identical_to_row_by_row_on_dense_randoms(self):
        rng = np.random.default_rng(61)
        for _ in range(30):
            n = int(rng.integers(1, 40))
            h = random_strictly_upper(rng, n, scale=2.0)
            assert np.array_equal(causal_resolvent(h), row_by_row_resolvent(h))

    def test_sparse_randoms_match_row_by_row(self):
        # A row with one nonzero is one product either way, so Gamma is
        # bit-identical.  With more, skipping the zeros regroups the products
        # BLAS sums in fused blocks of columns, so an entry may differ in its
        # last bits (6 ulp at most here); every term is nonnegative, so the
        # difference stays relative, within n * eps.
        rng = np.random.default_rng(67)
        for _ in range(40):
            n = int(rng.integers(1, 40))
            h = random_strictly_upper(rng, n, scale=2.0)
            h *= rng.random((n, n)) < rng.uniform(0.05, 0.7)
            np.testing.assert_allclose(
                causal_resolvent(h), row_by_row_resolvent(h), rtol=n * np.finfo(float).eps, atol=0.0
            )
            single = np.zeros((n, n))
            for i in range(n - 1):
                if rng.random() < 0.8:
                    single[i, rng.integers(i + 1, n)] = rng.uniform(0.0, 2.0)
            assert np.array_equal(causal_resolvent(single), row_by_row_resolvent(single))

    def test_bit_identical_on_spec_influence_matrices(self):
        rng = np.random.default_rng(71)
        for make in (random_sparse_spec, random_positive_spec):
            for _ in range(8):
                spec = make(rng, int(rng.integers(2, 8)), int(rng.integers(2, 4)))
                h = interdependence_matrix(spec)
                assert np.array_equal(causal_resolvent(h), row_by_row_resolvent(h))

    def test_markov_2000_is_geometric_and_bit_identical(self):
        h = interdependence_matrix(build_markov(CANONICAL_TRANSITION, CANONICAL_INIT, 2000))
        gamma = causal_resolvent(h)
        assert np.array_equal(gamma, row_by_row_resolvent(h))
        # Gamma[i, j] is delta times Gamma[i+1, j]: j - i products by delta,
        # each rounded once, absolutely where it falls below 2^-1022.
        delta = h[0, 1]
        i, j = np.triu_indices(2000)
        lag = j - i
        expected = delta ** lag.astype(float)
        info = np.finfo(float)
        tol = (lag + 1) * (info.eps * expected + info.smallest_subnormal)
        assert np.all(np.abs(gamma[i, j] - expected) <= tol)

    def test_inverse_identity(self):
        rng = np.random.default_rng(37)
        h = random_strictly_upper(rng, 8)
        gamma = causal_resolvent(h)
        residual = (np.eye(8) - h) @ gamma - np.eye(8)
        assert np.max(np.abs(residual)) < 1e-12

    def test_markov_geometric_row(self, markov3):
        gamma = causal_resolvent(interdependence_matrix(markov3))
        assert np.allclose(gamma[0], [1.0, 0.7, 0.49], atol=EXACT_TOL)
        assert np.allclose(np.diag(gamma), 1.0, atol=EXACT_TOL)

    @pytest.mark.parametrize("n", [50, 100])
    def test_large_resolvent_passes_the_residual_check(self, n):
        # Each step puts 0.98 on the parity of its width-2 window, so alpha
        # is 1.92 and Gamma grows geometrically: its residual (1.2e-7 at
        # N=50, 2e3 at N=100) is far above an absolute 1e-9 but within
        # rounding of Gamma's scale.
        spec = build_sliding_window(2, parity_window_kernel, n, 2)
        report = compare_bounds(spec, f=sum_symbols(n, 2), c=np.ones(n))
        assert np.all(np.isfinite(report.resolvent))
        assert np.isfinite(report["exact"].proxy) and report["exact"].proxy > 1e19

    @pytest.mark.parametrize(
        "entry", [(10, 10), (30, 5), (0, 25)], ids=["diagonal", "below", "above"]
    )
    def test_residual_check_rejects_a_perturbed_entry(self, entry):
        # The bound reads 2.6e-4 here (Gamma reaches 3e9); the shift, 1e-6 of
        # Gamma[0, 25] = 5.8e4, is 220 times that.
        h = interdependence_matrix(build_sliding_window(2, parity_window_kernel, 50, 2))
        gamma = causal_resolvent(h).copy()
        _check_inverse(h, gamma)
        gamma[entry] += 1e-6 * gamma[0, 25]
        with pytest.raises(RuntimeError, match="resolvent residual"):
            _check_inverse(h, gamma)

    def test_rejects_lower_triangular_mass(self):
        bad = np.array([[0.0, 0.5], [0.2, 0.0]])
        with pytest.raises(ValueError):
            causal_resolvent(bad)

    def test_overflow_is_rejected(self):
        # Gamma[0, 2] = 1e400 overflows, and the residual check compares the
        # NaN residual as False; only the finiteness check on Gamma fires.
        h = [[0.0, 1e200, 0.0], [0.0, 0.0, 1e200], [0.0, 0.0, 0.0]]
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(ValueError, match="non-finite"):
                causal_resolvent(h)

    def test_h_gamma_and_phi_are_read_only_arrays(self, markov3):
        h = interdependence_matrix(markov3)
        report = compare_bounds(markov3, c=np.ones(3))
        for arr in (h, causal_resolvent(h), report.resolvent, uniform_decay_profile(h)):
            assert type(arr) is np.ndarray and arr.dtype == np.float64
            assert not arr.flags.writeable

    def test_empty_matrix(self):
        # As influence_entries does, the 0x0 case passes every entry check.
        assert causal_resolvent(np.zeros((0, 0))).shape == (0, 0)


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

    @pytest.mark.parametrize("layout", ["column", "row"])
    def test_one_nonzero_per_column_or_row_against_svd(self, layout):
        # Signed entries over six decades, rectangular shapes, and empty
        # columns, which leave some rows zero.  The closed form must agree
        # with the SVD and never fall below the largest row (or column)
        # norm taken in extended precision.
        rng = np.random.default_rng(73)
        for _ in range(40):
            rows, cols = (int(x) for x in rng.integers(1, 12, size=2))
            m = np.zeros((rows, cols))
            for j in range(cols):
                if rng.random() < 0.7:
                    m[rng.integers(rows), j] = rng.normal() * 10.0 ** rng.integers(-3, 4)
            axis = 1
            if layout == "row":
                m, axis = m.T, 0
            reference = float(np.linalg.svd(m, compute_uv=False)[0])
            value = spectral_norm(m)
            assert abs(value - reference) <= NORM_TOL * reference
            exact = np.sqrt((m.astype(np.longdouble) ** 2).sum(axis=axis)).max()
            assert value >= exact

    @pytest.mark.parametrize("scale", [1e-170, 1e170])
    def test_closed_form_neither_underflows_nor_overflows(self, scale):
        # The squares of these entries leave the double range.
        for m in ([[3.0, 4.0]], [[3.0], [4.0]], [[3.0, 0.0], [0.0, -5.0]]):
            expected = 5.0 * scale
            assert abs(spectral_norm(np.array(m) * scale) - expected) <= NORM_TOL * expected

    def test_certified_never_below_true_norm(self):
        # ||Gamma v||_2 / ||v||_2 bounds ||Gamma||_2 from below for every v;
        # the top right singular vector makes the bound tight.  It is taken
        # in extended precision so the check itself does not round down.
        rng = np.random.default_rng(53)
        cases = []
        for _ in range(40):
            n = int(rng.integers(1, 13))
            scale = float(rng.choice([0.1, 1.0, 10.0]))
            cases.append(np.eye(n) + random_strictly_upper(rng, n, scale))
        chain = build_markov(CANONICAL_TRANSITION, CANONICAL_INIT, 500)
        cases.append(causal_resolvent(interdependence_matrix(chain)))
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

    def test_input_checks_and_empty_matrix(self):
        with pytest.raises(ValueError, match="need a matrix"):
            operator_norms(np.ones(3))
        with pytest.raises(ValueError, match="non-finite"):
            operator_norms(np.array([[1.0, np.inf]]))
        assert tuple(operator_norms(np.zeros((0, 3)))) == (0.0, 0.0, 0.0)


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

    def test_decay_sum_is_one_correctly_rounded_sum(self):
        # Ten distances of 0.1: a left-to-right float sum reads 0.9999999999999999,
        # the correctly rounded sum 1.0.  Every reader of S must agree.
        h = np.triu(np.full((11, 11), 0.1), k=1)
        profile = uniform_decay_profile(h)
        assert math.fsum(profile) == 1.0
        assert decay_lower_bound(profile) is None
        bound = uniform_decay_tail(profile, np.ones(11))
        assert not bound.applicable
        assert bound.details["profile_sum"] == 1.0

    def test_kappa_dominates_relaxation(self):
        rng = np.random.default_rng(47)
        for _ in range(20):
            n = int(rng.integers(2, 10))
            h = random_strictly_upper(rng, n)
            profile = uniform_decay_profile(h)
            if math.fsum(profile) >= 1.0:
                h = h * (0.9 / math.fsum(profile))
                profile = uniform_decay_profile(h)
            gamma = causal_resolvent(h)
            assert spectral_decay(gamma) >= decay_lower_bound(profile) - 1e-9
