"""Dispatched-by-design bus emulation: battery compensation algebra and
tracking-error sampling (inverse transform vs the CDF table)."""

import numpy as np
import pytest
from scipy import stats

from gridfreq.dispatch import (ERROR_EPS, ERROR_PROB, ideal_battery_injection,
                               perturb_injection, sample_tracking_error)


class TestBatteryAlgebra:
    def test_compensates_net_deviation(self):
        assert ideal_battery_injection(100.0, 200.0, 90.0, 210.0) == 20.0

    def test_zero_when_realization_on_schedule(self):
        assert ideal_battery_injection(100.0, 200.0, 100.0, 200.0) == 0.0

    def test_load_only_bus_absorbs(self):
        assert ideal_battery_injection(0.0, 100.0, 0.0, 95.0) == -5.0

    def test_vectorized(self):
        w_ts = np.array([90.0, 110.0])
        got = ideal_battery_injection(100.0, 200.0, w_ts, 200.0)
        assert np.allclose(got, [10.0, -10.0])

    def test_perturb(self):
        assert perturb_injection(20.0, -0.05) == pytest.approx(19.0)
        assert perturb_injection(0.0, 0.7) == 0.0

    def test_identity_under_zero_error(self):
        """Net injection with the ideal battery equals the schedule exactly."""
        rng = np.random.default_rng(0)
        for _ in range(100):
            w_b, l_b = rng.uniform(0, 500, 2)
            w_ts, l_ts = rng.uniform(0, 500, 2)
            b = ideal_battery_injection(w_b, l_b, w_ts, l_ts)
            assert (w_ts - l_ts + b) == pytest.approx(w_b - l_b, abs=1e-9)


class TestErrorCdf:
    def test_inverse_transform_matches_cdf_ks(self):
        """Empirical distribution of samples vs the piecewise-linear CDF
        table via a Kolmogorov-Smirnov test."""
        xs = sample_tracking_error(np.random.default_rng(12), 20000)
        res = stats.kstest(xs, lambda x: np.interp(x, ERROR_EPS, ERROR_PROB))
        assert res.pvalue > 1e-3

    def test_determinism_per_rng_state(self):
        a = sample_tracking_error(np.random.default_rng(7), 50)
        b = sample_tracking_error(np.random.default_rng(7), 50)
        assert np.array_equal(a, b)

    def test_placeholder_shape(self):
        """The table is a CDF: eps strictly increasing over +/-5%, prob
        nondecreasing from 0 to 1; its samples have zero mean."""
        assert ERROR_EPS.shape == ERROR_PROB.shape == (41,)
        assert ERROR_EPS[0] == -0.05 and ERROR_EPS[-1] == 0.05
        assert np.all(np.diff(ERROR_EPS) > 0) and np.all(np.diff(ERROR_PROB) >= 0)
        assert ERROR_PROB[0] == 0.0 and ERROR_PROB[-1] == 1.0
        xs = sample_tracking_error(np.random.default_rng(3), 50000)
        assert abs(xs.mean()) < 3 * 0.015 / np.sqrt(50000)
        assert xs.min() >= -0.05 and xs.max() <= 0.05
