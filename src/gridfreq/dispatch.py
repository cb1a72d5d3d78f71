"""Dispatched-by-design bus emulation.

A dispatched bus carries a battery that injects whatever power is needed
to keep the bus's net injection on its day-ahead schedule.  The ideal
injection compensates the deviation between realized and scheduled net
power; imperfect tracking is modeled by a multiplicative error sampled
from a piecewise-linear CDF.  The empirical CDF of the source study is
not published, so every run samples ``placeholder_error_cdf``.  The
battery is a pure power actor: no dynamics, and no energy or power
constraint.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


class CdfError(ValueError):
    pass


def ideal_battery_injection(w_sched_mw: float, l_sched_mw: float,
                            w_ts_mw, l_ts_mw):
    """Battery power tracking the schedule: (W_b - L_b) - (W_ts - L_ts).

    Accepts scalars or arrays; positive means injection into the bus.
    """
    return (w_sched_mw - l_sched_mw) - (np.asarray(w_ts_mw) - np.asarray(l_ts_mw))


def perturb_injection(b_star_mw, eps):
    """Imperfect realization B = B* (1 + eps)."""
    return np.asarray(b_star_mw) * (1.0 + np.asarray(eps))


@dataclass(frozen=True)
class ErrorCdf:
    """Piecewise-linear CDF of the relative tracking error."""

    eps: np.ndarray      # strictly increasing breakpoints
    prob: np.ndarray     # nondecreasing from 0 to 1

    def __post_init__(self):
        e = np.asarray(self.eps, dtype=float)
        p = np.asarray(self.prob, dtype=float)
        object.__setattr__(self, "eps", e)
        object.__setattr__(self, "prob", p)
        if e.shape != p.shape or e.ndim != 1 or e.size < 2:
            raise CdfError("eps and prob must be equal-length 1-d arrays "
                           "of at least two breakpoints")
        if not (np.all(np.isfinite(e)) and np.all(np.isfinite(p))):
            raise CdfError("eps and prob must be finite")
        if not np.all(np.diff(e) > 0):
            raise CdfError("eps breakpoints must be strictly increasing")
        if np.any(np.diff(p) < 0):
            raise CdfError("cumulative probabilities must be nondecreasing")
        if abs(p[-1] - 1.0) > 1e-12 or abs(p[0]) > 1e-12:
            raise CdfError("cumulative probabilities must span 0 to 1")

    def sample(self, rng: np.random.Generator, n: int) -> np.ndarray:
        """``n`` draws by inverse-transform sampling with linear
        interpolation; deterministic for a given generator state."""
        return np.interp(rng.random(n), self.prob, self.eps)


def placeholder_error_cdf() -> ErrorCdf:
    """Synthetic zero-mean tracking-error CDF with roughly +/-5% support.

    Placeholder distribution: the empirical curve it stands in for is
    not published numerically.  Shaped like a clipped Gaussian with a
    heavy mass near zero.
    """
    eps = np.linspace(-0.05, 0.05, 41)
    z = eps / 0.015
    prob = 0.5 * (1.0 + np.vectorize(math.erf)(z / np.sqrt(2.0)))
    prob = (prob - prob[0]) / (prob[-1] - prob[0])
    return ErrorCdf(eps=eps, prob=prob)
