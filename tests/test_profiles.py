"""Stochastic profile synthesis: resampling exactness, Monte-Carlo
statistics, determinism and bounds."""

import numpy as np
import pytest

from gridfreq.profiles import (ProfileError, resample_wind, scale_profile,
                               synthetic_minute_walk,
                               synthetic_second_multiplier)


class TestResampleWind:
    def test_bounds_enforced(self):
        for bad in ([0.5, 1.2], [-0.1, 0.5], [0.5, np.nan]):
            with pytest.raises(ProfileError, match="lie in"):
                resample_wind(np.array(bad), 0.0, 0)

    def test_requires_one_dimension(self):
        with pytest.raises(ProfileError, match="one-dimensional"):
            resample_wind(np.zeros((2, 2)), 0.0, 0)

    def test_zero_sigma_interpolates_exactly(self):
        """sigma = 0 telescopes to straight lines between minute anchors."""
        out = resample_wind(np.array([0.2, 0.8, 0.5]), 0.0, 0)
        assert len(out) == 121
        t = np.arange(121)
        want = np.interp(t, [0, 60, 120], [0.2, 0.8, 0.5])
        assert np.allclose(out, want, atol=1e-12)

    def test_minute_anchoring(self):
        """Each minute restarts from its anchor regardless of the noise
        accumulated in the previous minute."""
        out = resample_wind(np.array([0.3, 0.6, 0.4]), 0.01, 5)
        # first sample of minute 2 is anchor + one increment: within a
        # few sigma of the anchor-based prediction
        slope = (0.4 - 0.6) / 60.0
        assert abs(out[61] - (0.6 + slope)) < 5 * 0.01

    def test_monte_carlo_mean_increment(self):
        """Mean per-minute displacement across seeds equals the minute
        slope (3-sigma test over >= 1000 seeds)."""
        mins = np.array([0.2, 0.7])
        sigma = 0.005
        n = 1200
        ends = np.empty(n)
        for seed in range(n):
            ends[seed] = resample_wind(mins, sigma, seed)[60]
        # displacement over the minute ~ N(0.5, 60 sigma^2) before clipping
        se = sigma * np.sqrt(60.0 / n)
        assert abs(ends.mean() - 0.7) < 3.0 * se

    def test_bit_determinism_per_seed(self):
        mins = np.array([0.2, 0.9, 0.1])
        a = resample_wind(mins, 0.01, 42)
        b = resample_wind(mins, 0.01, 42)
        assert a.tobytes() == b.tobytes()
        c = resample_wind(mins, 0.01, 43)
        assert a.tobytes() != c.tobytes()

    def test_output_clamped_to_unit_interval(self):
        out = resample_wind(np.array([0.01, 0.99]), 0.1, 1)
        assert out.min() >= 0.0
        assert out.max() <= 1.0

    def test_needs_two_samples(self):
        with pytest.raises(ProfileError):
            resample_wind(np.array([0.5]), 0.0, 0)

    def test_negative_sigma_rejected(self):
        with pytest.raises(ProfileError, match="sigma"):
            resample_wind(np.array([0.5, 0.6]), -0.001, 0)


class TestScaling:
    """`scale_profile` serves a wind farm's rating and a load bus's
    forecast alike."""

    def test_scale_wind(self):
        out = scale_profile(np.array([0.5, 1.0]), 400.0)
        assert np.allclose(out, [200.0, 400.0])

    def test_scale_wind_rejects_nonpositive_rating(self):
        with pytest.raises(ProfileError, match="base must be positive"):
            scale_profile(np.array([0.5]), 0.0)

    def test_make_load_profile(self):
        out = scale_profile(np.array([0.98, 1.02]), 250.0)
        assert np.allclose(out, [245.0, 255.0])

    def test_make_load_profile_rejects_nonpositive_forecast(self):
        with pytest.raises(ProfileError, match="base must be positive"):
            scale_profile(np.array([1.0]), -5.0)


class TestSyntheticSources:
    def test_minute_walk_bounds_and_determinism(self):
        a = synthetic_minute_walk(500, start=0.8, sigma=0.5, seed=3)
        b = synthetic_minute_walk(500, start=0.8, sigma=0.5, seed=3)
        assert np.array_equal(a, b)
        assert a.min() >= 0.0
        assert a.max() <= 1.0
        assert a[0] == 0.8
        assert len(a) == 501

    def test_second_multiplier_bounds_and_mean(self):
        s = synthetic_second_multiplier(3600, sigma_slow=0.002,
                                        sigma_fast=0.002, seed=9)
        assert len(s) == 3600
        assert s.min() >= 0.8
        assert s.max() <= 1.2
        assert abs(s.mean() - 1.0) < 0.05
