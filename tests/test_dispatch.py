"""Dispatched-by-design bus emulation: battery compensation algebra and
tracking-error sampling (inverse transform vs the stated CDF)."""

import numpy as np
import pytest
from scipy import stats

from gridfreq.dispatch import (CdfError, ErrorCdf, ideal_battery_injection,
                               perturb_injection, placeholder_error_cdf,
                               zero_error_cdf)


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
    def test_validation(self):
        with pytest.raises(CdfError):
            ErrorCdf(eps=np.array([0.1, 0.0]), prob=np.array([0.0, 1.0]))
        with pytest.raises(CdfError):
            ErrorCdf(eps=np.array([0.0, 0.1]), prob=np.array([0.5, 0.2]))
        with pytest.raises(CdfError):
            ErrorCdf(eps=np.array([0.0, 0.1]), prob=np.array([0.1, 1.0]))
        with pytest.raises(CdfError):
            ErrorCdf(eps=np.array([]), prob=np.array([]))

    def test_zero_cdf_samples_zero(self):
        cdf = zero_error_cdf()
        rng = np.random.default_rng(1)
        xs = cdf.sample(rng, 100)
        assert xs.shape == (100,) and np.all(xs == 0.0)

    def test_inverse_transform_matches_cdf_ks(self):
        """Empirical distribution of samples vs the piecewise-linear CDF
        via a Kolmogorov-Smirnov test."""
        eps = np.array([-0.04, -0.01, 0.0, 0.02, 0.05])
        prob = np.array([0.0, 0.3, 0.5, 0.8, 1.0])
        cdf = ErrorCdf(eps=eps, prob=prob)
        rng = np.random.default_rng(12)
        xs = cdf.sample(rng, 20000)

        def cdf_fn(x):
            return np.interp(x, eps, prob)

        res = stats.kstest(xs, cdf_fn)
        assert res.pvalue > 1e-3

    def test_determinism_per_rng_state(self):
        cdf = placeholder_error_cdf()
        a = cdf.sample(np.random.default_rng(7), 50)
        b = cdf.sample(np.random.default_rng(7), 50)
        assert np.array_equal(a, b)

    def test_placeholder_shape(self):
        cdf = placeholder_error_cdf()
        assert cdf.eps.min() == -0.05
        assert cdf.eps.max() == 0.05
        rng = np.random.default_rng(3)
        xs = cdf.sample(rng, 50000)
        assert abs(xs.mean()) < 3 * 0.015 / np.sqrt(50000)
        assert xs.min() >= -0.05 and xs.max() <= 0.05

    def test_from_csv(self, tmp_path):
        p = tmp_path / "cdf.csv"
        p.write_text("eps,prob\n-0.1,0\n0,0.5\n0.1,1\n")
        cdf = ErrorCdf.from_csv(p)
        assert np.allclose(cdf.eps, [-0.1, 0.0, 0.1])
        assert np.allclose(cdf.prob, [0.0, 0.5, 1.0])

    @pytest.mark.parametrize("rows", ["-0.1,0\ninf,1\n",
                                      "-0.1,0\n0,nan\n0.1,1\n",
                                      "-inf,0\n0.1,1\n"])
    def test_from_csv_rejects_non_finite(self, tmp_path, rows):
        """An infinite breakpoint would be sampled and fail mid-run; a NaN
        probability passes the ordering checks, which compare False."""
        p = tmp_path / "cdf.csv"
        p.write_text(rows)
        with pytest.raises(CdfError, match="finite"):
            ErrorCdf.from_csv(p)

    def test_from_csv_bad_row(self, tmp_path):
        p = tmp_path / "cdf.csv"
        p.write_text("-0.1,0\nnot,a,number\n")
        with pytest.raises(CdfError):
            ErrorCdf.from_csv(p)
