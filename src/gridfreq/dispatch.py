"""Dispatched-by-design bus emulation.

A dispatched bus carries a battery that injects whatever power is needed
to keep the bus's net injection on its day-ahead schedule.  The ideal
injection compensates the deviation between realized and scheduled net
power; imperfect tracking is modeled by a multiplicative error sampled
from the piecewise-linear CDF ``(ERROR_EPS, ERROR_PROB)``.  The
empirical CDF of the source study is not published, so this synthetic
table stands in for it.  The battery is a pure power actor: no
dynamics, and no energy or power constraint.
"""

from __future__ import annotations

import math

import numpy as np

# zero-mean tracking-error CDF with +/-5% support, shaped like a clipped
# Gaussian (sigma 1.5%) with a heavy mass near zero
ERROR_EPS = np.linspace(-0.05, 0.05, 41)
ERROR_PROB = 0.5 * (1.0 + np.vectorize(math.erf)(ERROR_EPS / 0.015 / np.sqrt(2.0)))
ERROR_PROB = (ERROR_PROB - ERROR_PROB[0]) / (ERROR_PROB[-1] - ERROR_PROB[0])


def ideal_battery_injection(w_sched_mw: float, l_sched_mw: float,
                            w_ts_mw, l_ts_mw):
    """Battery power tracking the schedule: (W_b - L_b) - (W_ts - L_ts).

    Accepts scalars or arrays; positive means injection into the bus.
    """
    return (w_sched_mw - l_sched_mw) - (np.asarray(w_ts_mw) - np.asarray(l_ts_mw))


def perturb_injection(b_star_mw, eps):
    """Imperfect realization B = B* (1 + eps)."""
    return np.asarray(b_star_mw) * (1.0 + np.asarray(eps))


def sample_tracking_error(rng: np.random.Generator, n: int) -> np.ndarray:
    """``n`` tracking errors by inverse-transform sampling of the CDF table
    with linear interpolation; deterministic for a given generator state."""
    return np.interp(rng.random(n), ERROR_PROB, ERROR_EPS)
