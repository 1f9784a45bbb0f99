"""Target functions: declared sensitivities versus the brute-force oracle."""

import numpy as np
import pytest

from seqbound import (
    Alphabet,
    EnumerationBudgetError,
    TargetFunction,
    as_sensitivity,
    build_markov,
    constant,
    count_symbol,
    empirical_tail,
    evaluate_batch,
    lipschitz_vector_oracle,
    parity,
    prefix_expectation_table,
    sum_symbols,
    table_target,
    terminal_indicator,
    terminal_symbol,
)
from seqbound.targets import bounded_differences
from conftest import (
    CANONICAL_INIT,
    CANONICAL_TRANSITION,
    random_positive_spec,
    random_sparse_spec,
    random_table_target,
)

ORACLE_TOL = 1e-12


# ============================================================
# Declared sensitivities match the enumeration oracle
# ============================================================


class TestDeclaredSensitivities:
    @pytest.mark.parametrize(
        "factory",
        [
            lambda n, s: sum_symbols(n, s),
            lambda n, s: count_symbol(n, s, 1),
            lambda n, s: terminal_symbol(n, s),
            lambda n, s: terminal_indicator(n, s, 0),
            lambda n, s: parity(n),
            lambda n, s: constant(n, 2.5),
        ],
    )
    @pytest.mark.parametrize("size", [2, 3])
    def test_builtin_matches_oracle(self, factory, size):
        horizon = 4
        f = factory(horizon, size)
        oracle = lipschitz_vector_oracle(f, Alphabet(size), horizon)
        assert np.max(np.abs(np.asarray(f.sensitivity) - oracle)) < ORACLE_TOL

    def test_table_target_oracle(self):
        rng = np.random.default_rng(5)
        f = random_table_target(rng, 3, 3)
        oracle = lipschitz_vector_oracle(f, Alphabet(3), 3)
        assert oracle.shape == (3,)
        assert np.all(oracle >= 0.0)

    def test_table_oracle_equals_exhaustive_oracle(self):
        # verify reads the oracle off f's prefix-expectation table, whose last
        # level holds f on every trajectory in the oracle's rank order.
        rng = np.random.default_rng(47)
        for case in range(12):
            horizon, size = int(rng.integers(1, 5)), int(rng.integers(2, 4))
            make = random_sparse_spec if case % 2 else random_positive_spec
            spec = make(rng, horizon, size)
            table_f = random_table_target(rng, horizon, size)
            for f in (
                table_f,
                TargetFunction("table, no batch", table_f.evaluate),
                sum_symbols(horizon, size),
                parity(horizon),
                terminal_indicator(horizon, size, 1),
            ):
                values = prefix_expectation_table(spec, f)[-1].reshape((size,) * horizon)
                oracle = lipschitz_vector_oracle(f, spec.alphabet, horizon)
                assert np.array_equal(bounded_differences(values), oracle)
                assert not bounded_differences(values).flags.writeable

    def test_frozen_values(self):
        assert tuple(sum_symbols(3, 2).sensitivity) == (1.0, 1.0, 1.0)
        assert tuple(sum_symbols(3, 4).sensitivity) == (3.0, 3.0, 3.0)
        assert tuple(terminal_indicator(4, 2, 1).sensitivity) == (0.0, 0.0, 0.0, 1.0)
        assert tuple(parity(5).sensitivity) == (1.0,) * 5
        assert tuple(constant(3, 9.0).sensitivity) == (0.0, 0.0, 0.0)


# ============================================================
# Evaluation plumbing
# ============================================================


class TestEvaluation:
    def test_batch_matches_scalar(self):
        rng = np.random.default_rng(9)
        f = random_table_target(rng, 3, 2)
        paths = np.array([[0, 0, 0], [0, 1, 0], [1, 1, 1], [1, 0, 1]])
        batch = evaluate_batch(f, paths)
        scalar = np.array([f.evaluate(tuple(p)) for p in paths])
        assert np.allclose(batch, scalar, atol=1e-15)

    @pytest.mark.parametrize(
        "batch, message",
        [
            (lambda paths: paths.sum(), r"shape \(\d+,\), got \(\)"),
            (lambda paths: paths.sum(axis=1, keepdims=True), r"shape \(\d+,\), got \(\d+, 1\)"),
            (lambda paths: np.full(paths.shape[0], np.nan), "non-finite"),
        ],
        ids=["scalar", "column", "nan"],
    )
    def test_batch_of_another_shape_or_non_finite_values_is_refused(self, batch, message):
        # Neither the sampler nor the exhaustive table may read such values:
        # a scalar would fill every sample, and NaN would never exceed a
        # threshold.
        f = TargetFunction("bad batch", lambda x: float(sum(x)), batch=batch)
        long_chain = build_markov(CANONICAL_TRANSITION, CANONICAL_INIT, 30)
        with pytest.raises(ValueError, match=f"target bad batch .*{message}"):
            empirical_tail(long_chain, f, [0.0, 1.0], n_samples=1000, seed=1)
        with pytest.raises(ValueError, match=f"target bad batch .*{message}"):
            prefix_expectation_table(build_markov(CANONICAL_TRANSITION, CANONICAL_INIT, 6), f)

    def test_count_symbol_values(self):
        f = count_symbol(4, 2, 1)
        assert f.evaluate((1, 0, 1, 1)) == 3.0
        assert f.evaluate((0, 0, 0, 0)) == 0.0

    def test_parity_values(self):
        f = parity(3)
        assert f.evaluate((1, 1, 0)) == 0.0
        assert f.evaluate((1, 0, 0)) == 1.0

    def test_table_target_length_check(self):
        with pytest.raises(ValueError):
            table_target(np.zeros(7), 3, 2)
        values = np.arange(2**3, dtype=float)
        f = table_target(values, 3, 2)
        assert f.evaluate((1, 1, 1)) == 7.0


# ============================================================
# Sensitivity vector plumbing
# ============================================================


class TestAsSensitivity:
    def test_returns_read_only_vector(self):
        vec = as_sensitivity([1.0, 0.5, 0.0], 3)
        assert np.array_equal(vec, [1.0, 0.5, 0.0])
        with pytest.raises(ValueError):
            vec[0] = 2.0

    def test_rejects_wrong_length(self):
        with pytest.raises(ValueError):
            as_sensitivity([1.0, 2.0], 3)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            as_sensitivity([1.0, -0.5, 1.0], 3)

    def test_oracle_budget(self):
        f = sum_symbols(12, 3)
        with pytest.raises(EnumerationBudgetError):
            lipschitz_vector_oracle(f, Alphabet(3), 12, budget=100)
