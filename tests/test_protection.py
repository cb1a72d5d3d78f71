"""UFLS relay staircase, pickup-delay behavior and the frequency estimator.

The relay is checked against hand-traced sequences here; the randomized
traces against an independent reference automaton are in
``test_acceptance.py``.
"""

import math

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from gridfreq.protection import (RESTORE_DELAY, SHED_DELAY, UflsRelayState,
                                 estimate_frequency, filter_gain, ufls_step)

F0 = 60.0


def drive(relay, samples, dt=0.01):
    for f in samples:
        relay = ufls_step(relay, f, dt)
    return relay


def held_for_pickup(relay, f, delay, dt=0.01):
    """The relay after frequency ``f`` has held for the pickup ``delay``
    plus one step."""
    return drive(relay, [f] * (round(delay / dt) + 1), dt)


class TestSteppedMaps:
    """The staircase read through the relay: each row commits its level
    after the pickup delay, or (``None``) the relay holds."""

    @pytest.mark.parametrize("f,level", [
        (F0 - 0.99, 0.0),
        (F0 - 1.0, None),       # the shallowest step sheds strictly below
        (F0 - 1.1, 0.05),
        (F0 - 1.2, 0.15),
        (F0 - 1.3, 0.15),
        (F0 - 1.4, 0.25),
        (F0 - 1.6, 0.35),
        (F0 - 1.8, 0.45),
        (F0 - 2.0, 0.50),
        (F0 - 2.1, 0.50),
        (F0, 0.0),
    ])
    def test_shed_staircase(self, f, level):
        """From idle."""
        start = UflsRelayState(f0=F0)
        r = held_for_pickup(start, f, SHED_DELAY)
        assert r.level == (0.0 if level is None else level)
        if level is None:
            assert r is start

    @pytest.mark.parametrize("f,level", [
        (F0, 0.0),
        (F0 - 0.25, 0.0),
        (F0 - 0.26, 0.05),
        (F0 - 0.5, 0.05),
        (F0 - 0.51, 0.15),
        (F0 - 0.75, 0.15),
        (F0 - 0.76, None),
    ])
    def test_restoration_thresholds(self, f, level):
        """From a committed 0.5."""
        start = UflsRelayState(f0=F0, level=0.5)
        r = held_for_pickup(start, f, RESTORE_DELAY)
        assert r.level == (0.5 if level is None else level)
        if level is None:
            assert r is start

    def test_rejects_nonpositive_frequency(self):
        for f in (0.0, -1.0):
            with pytest.raises(ValueError):
                ufls_step(UflsRelayState(f0=F0), f, 0.01)


class TestRelay:
    def test_shed_commits_after_delay(self):
        r = UflsRelayState(f0=F0)
        # 0.15 s delay = 15 samples at 10 ms of accumulated persistence
        r_almost = drive(r, [58.9] * 14)
        assert r_almost.level == 0.0
        r_done = drive(r, [58.9] * 15)
        assert r_done.level == 0.05

    def test_subdelay_excursion_ignored(self):
        r = UflsRelayState(f0=F0)
        samples = [58.9] * 10 + [59.2] * 5 + [58.9] * 10
        assert drive(r, samples).level == 0.0

    def test_deeper_candidate_resets_timer(self):
        r = UflsRelayState(f0=F0)
        samples = [58.9] * 10 + [58.7] * 10
        r2 = drive(r, samples)
        assert r2.level == 0.0          # neither candidate persisted 0.15 s
        assert drive(r2, [58.7] * 6).level == 0.15

    def test_absolute_staircase_not_additive(self):
        r = UflsRelayState(f0=F0)
        r = drive(r, [58.7] * 16)
        assert r.level == 0.15
        # falling further to the same band keeps the level
        r = drive(r, [58.75] * 100)
        assert r.level == 0.15

    def test_level_never_decreases_in_shed_region(self):
        r = UflsRelayState(f0=F0)
        r = drive(r, [58.5] * 16)
        assert r.level == 0.25
        # returning to a shallower shed band must not unshed
        r = drive(r, [58.95] * 500)
        assert r.level == 0.25

    def test_restoration_path(self):
        r = UflsRelayState(f0=F0)
        r = drive(r, [58.7] * 16)       # 15%
        r = drive(r, [59.6] * 1001)     # >= f0-0.5 for 10 s: restore to 5%
        assert r.level == 0.05
        r = drive(r, [59.9] * 1001)     # >= f0-0.25 for 10 s: full restoration
        assert r.level == 0.0

    def test_dead_band_holds_level(self):
        r = UflsRelayState(f0=F0)
        r = drive(r, [58.9] * 16)
        assert r.level == 0.05
        r = drive(r, [59.1] * 10000)    # above shed, below restore
        assert r.level == 0.05

    def test_separate_restore_delay(self):
        """A shed commits after 0.15 s, a restoration only after 10 s."""
        assert RESTORE_DELAY == 10.0
        r = UflsRelayState(f0=F0)
        r = drive(r, [58.9] * 16)
        assert r.level == 0.05
        r = drive(r, [59.9] * 999)      # 9.99 s above threshold: not yet
        assert r.level == 0.05
        r = drive(r, [59.9] * 2)
        assert r.level == 0.0

    def test_restore_timer_resets_on_dip(self):
        r = UflsRelayState(f0=F0)
        r = drive(r, [58.9] * 16)
        samples = ([59.9] * 990 + [59.6] * 1) * 3   # dips reset the hold
        r = drive(r, samples)
        assert r.level == 0.05

    def test_rejects_nonpositive_dt(self):
        with pytest.raises(ValueError):
            ufls_step(UflsRelayState(), 59.0, 0.0)

    @given(st.floats(min_value=F0 - 1.0, allow_nan=False))
    @example(F0 - 1.0)
    def test_idle_relay_returns_itself(self, f):
        """Nothing shed or pending and f >= f0 - 1: the step returns its
        input, so idle relays build no new state."""
        r = UflsRelayState(f0=F0)
        assert ufls_step(r, f, 0.01) is r

    def test_relay_leaves_idle_just_below_first_stage(self):
        r = UflsRelayState(f0=F0)
        r2 = ufls_step(r, math.nextafter(F0 - 1.0, 0.0), 0.01)
        assert (r2.level, r2.candidate, r2.timer) == (0.0, 0.05, 0.01)


def ramp_estimates(w, n, dt=0.01, tau=0.05):
    """Estimator output after n samples of angles advancing at rate w."""
    theta, prev, filt = 0.0 * w, None, 0.0 * w
    alpha = filter_gain(dt, tau)
    for _ in range(n):
        theta = theta + w * dt
        filt, f = estimate_frequency(theta, prev, filt, dt, alpha, F0)
        prev = theta
    return f


class TestFrequencyEstimator:
    def test_constant_ramp_converges_to_offset(self):
        """theta advancing at constant rate w -> f converges to
        f0 + w / 2 pi with the filter's exponential transient."""
        w = 0.8                        # rad/s
        f = ramp_estimates(w, 200)
        assert f == pytest.approx(F0 + w / (2 * math.pi), abs=1e-9)

    def test_filter_transient_matches_closed_form(self):
        """After n samples of a constant-rate ramp the filtered estimate
        is the exact discrete exponential approach, bus by bus."""
        w, dt, tau = np.array([1.0, -0.3, 2.5]), 0.01, 0.05
        n = 10
        f = ramp_estimates(w, n, dt, tau)
        # the first sample only primes prev_theta (raw derivative 0),
        # so n calls apply n-1 ramp-derivative filter updates
        alpha = 1.0 - math.exp(-dt / tau)
        want_filt = w * (1.0 - (1.0 - alpha) ** (n - 1))
        np.testing.assert_allclose(f, F0 + want_filt / (2 * math.pi), rtol=1e-12)

    def test_first_sample_has_no_derivative(self):
        _, f = estimate_frequency(5.0, None, 0.0, 0.01, filter_gain(0.01, 0.05), F0)
        assert f == F0

    def test_rejects_nonpositive_dt(self):
        """Also for the 0-d array dt the engine passes."""
        for dt in (0.0, -0.01, np.array(0.0)):
            with pytest.raises(ValueError):
                estimate_frequency(0.0, None, 0.0, dt, 0.2, F0)

    def test_filter_gain_rejects_nonpositive_dt(self):
        with pytest.raises(ValueError):
            filter_gain(0.0, 0.05)
