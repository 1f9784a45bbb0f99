"""Calibrated sliding-window scenarios."""

import itertools

import numpy as np
import pytest

import seqbound.process
import seqbound.window
from seqbound import (
    CalibrationError,
    build_calibrated_window,
    causal_resolvent,
    column_sum_alpha,
    influence_enumeration_cost,
    interdependence_matrix,
    kernel_at,
    variance_proxy,
    window_point_symbol,
)
from seqbound.window import WINDOW_INFLUENCE_DECAY, _mixture_window_spec

CALIB_TOL = 1e-3
EXACT_TOL = 1e-12


# ============================================================
# Hash layer
# ============================================================


class TestPointSymbol:
    def test_injective_in_symbol(self):
        for size in (2, 3, 5):
            for step in (1, 4, 9):
                for distance in (1, 2, 5):
                    images = {window_point_symbol(step, distance, s, size) for s in range(size)}
                    assert len(images) == size

    def test_range(self):
        for step in range(1, 20):
            sym = window_point_symbol(step, 1, 0, 3)
            assert 0 <= sym < 3

    def test_deterministic(self):
        assert window_point_symbol(7, 2, 1, 4) == window_point_symbol(7, 2, 1, 4)


# ============================================================
# Calibration
# ============================================================


class TestCalibration:
    def test_hits_target_exactly(self):
        for n, size in ((12, 2), (12, 3), (3, 2)):  # N=3 is shorter than the window
            spec = build_calibrated_window(n, size, 5, 0.8)
            h = interdependence_matrix(spec)
            assert abs(column_sum_alpha(h) - 0.8) < CALIB_TOL
            assert abs(spec.meta["achieved_alpha"] - 0.8) < CALIB_TOL
            assert spec.meta["target_alpha"] == 0.8

    def test_influence_band_is_geometric(self):
        spec = build_calibrated_window(12, 2, 5, 0.8)
        h = interdependence_matrix(spec)
        beta = spec.meta["beta"]
        for d in range(1, 6):
            diag = np.diagonal(h, offset=d)[d:]  # skip partial-window columns
            expected = beta * WINDOW_INFLUENCE_DECAY ** (d - 1)
            assert np.max(np.abs(diag - expected)) < EXACT_TOL
        assert np.all(np.triu(h, k=6) == 0.0)

    def test_zero_target(self):
        spec = build_calibrated_window(6, 2, 3, 0.0)
        h = interdependence_matrix(spec)
        assert np.all(h == 0.0)

    def test_rejects_bad_targets(self):
        with pytest.raises(CalibrationError):
            build_calibrated_window(6, 2, 3, 1.0)
        with pytest.raises(CalibrationError):
            build_calibrated_window(6, 2, 3, -0.2)

    def test_no_context_is_uncalibratable(self):
        with pytest.raises(CalibrationError):
            build_calibrated_window(1, 2, 5, 0.8)

    def test_deterministic_construction(self):
        a = build_calibrated_window(8, 2, 4, 0.5)
        b = build_calibrated_window(8, 2, 4, 0.5)
        assert a.meta["beta"] == b.meta["beta"]
        hist = (1, 0, 1, 1, 0)
        assert np.array_equal(kernel_at(a, 6, hist), kernel_at(b, 6, hist))

    def test_beta_is_closed_form(self):
        for n, width, target in ((12, 5, 0.8), (3, 5, 0.8), (48, 4, 0.7), (2, 1, 0.3)):
            spec = build_calibrated_window(n, 2, width, target)
            reach = sum(WINDOW_INFLUENCE_DECAY ** (d - 1) for d in range(1, min(width, n - 1) + 1))
            assert spec.meta["beta"] == target / reach

    def test_single_symbol_misses_target(self):
        with pytest.raises(CalibrationError, match="calibration missed"):
            build_calibrated_window(10, 1, 2, 0.5)

    @pytest.mark.parametrize(
        "horizon, size, width", [(10, 2, 0), (10, 2, -1), (0, 2, 2), (10, 0, 2)]
    )
    def test_degenerate_shapes_raise_value_error(self, horizon, size, width):
        with pytest.raises(ValueError):
            build_calibrated_window(horizon, size, width, 0.5)

    def test_one_influence_build_per_calibration(self, monkeypatch):
        builds = []

        def counted(spec, **kwargs):
            builds.append(spec)
            return interdependence_matrix(spec, **kwargs)

        monkeypatch.setattr(seqbound.window, "interdependence_matrix", counted)
        spec = build_calibrated_window(12, 2, 4, 0.7)
        assert builds == [spec]

    def test_kernel_tabulated_once(self, monkeypatch):
        calls = []
        kernel = seqbound.process.kernel_at

        def counted(*args):
            calls.append(args)
            return kernel(*args)

        monkeypatch.setattr(seqbound.process, "kernel_at", counted)
        spec = build_calibrated_window(48, 4, 4, 0.7)
        assert influence_enumeration_cost(spec) == 11348
        assert len(calls) == 11348

    @pytest.mark.parametrize(
        "horizon, size, width, target",
        [(100, 2, 5, 0.8), (3, 3, 5, 0.5), (4, 2, 4, 0.6), (6, 1, 3, 0.0), (7, 3, 3, 0.0)],
        ids=["window.yaml", "N<W", "N=W", "A=1", "target-0"],
    )
    def test_tables_equal_the_per_row_hash_formula(self, horizon, size, width, target):
        # The kernel reads offsets hashed once per spec; every row must equal
        # the formula that hashes each (step, distance, symbol) on the spot.
        spec = build_calibrated_window(horizon, size, width, target)
        beta = spec.meta["beta"]
        weights = [beta * WINDOW_INFLUENCE_DECAY ** (d - 1) for d in range(1, width + 1)]
        for step in range(1, horizon + 1):
            visible = len(spec.signature_coords(step))
            rows = []
            for window in itertools.product(range(size), repeat=visible):
                vec = np.full(size, (1.0 - sum(weights[:visible])) / size)
                for d in range(1, visible + 1):
                    vec[window_point_symbol(step, d, window[-d], size)] += weights[d - 1]
                rows.append(np.maximum(vec, 0.0))
            table = seqbound.process.step_table(spec, step)
            # tobytes as well: array_equal treats -0.0 and +0.0 as equal.
            assert np.array_equal(table, np.array(rows))
            assert table.tobytes() == np.array(rows).tobytes()

    def test_mixture_weight_validation(self):
        with pytest.raises(ValueError):
            _mixture_window_spec(6, 2, 3, beta=0.95)  # 0.95 * (1 + 0.2 + 0.04) > 1


# ============================================================
# Horizon stability of the terminal-target proxy
# ============================================================


class TestHorizonStability:
    def test_proxy_flat_across_horizons(self):
        proxies = []
        for n in (10, 40):
            spec = build_calibrated_window(n, 2, 5, 0.8)
            gamma = causal_resolvent(interdependence_matrix(spec))
            c = np.zeros(n)
            c[-1] = 1.0
            proxies.append(variance_proxy(gamma, c))
        spread = (max(proxies) - min(proxies)) / min(proxies)
        assert spread < 0.05
        assert max(proxies) <= 25.0

    def test_kernel_reads_whole_window(self):
        # Changing the oldest in-window symbol must move the kernel.
        spec = build_calibrated_window(10, 2, 5, 0.8)
        base = kernel_at(spec, 8, (0, 0, 0, 0, 0, 0, 0))
        moved = kernel_at(spec, 8, (0, 0, 1, 0, 0, 0, 0))  # distance 5 from step 8
        assert not np.array_equal(base, moved)
