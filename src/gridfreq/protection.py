"""Under-frequency load-shedding relays and the PMU-like frequency estimator.

The shedding staircase follows the ENTSO-E recommendation: six absolute
shed steps between f0 - 1.0 Hz and f0 - 2.0 Hz and three restoration
thresholds.  A deeper level is committed after a 0.15 s pickup delay, a
restored one after 10 s.  Shed levels are absolute fractions of the
expected bus load, not additive increments.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# (frequency offset below f0, shed fraction); deeper step wins at boundaries
_SHED_STEPS = ((2.0, 0.50), (1.8, 0.45), (1.6, 0.35),
               (1.4, 0.25), (1.2, 0.15), (1.0, 0.05))

SHED_LEVELS = (0.0, *sorted(level for _, level in _SHED_STEPS))

# (frequency offset below f0, level restored to)
_RESTORE_STEPS = ((0.25, 0.0), (0.5, 0.05), (0.75, 0.15))

SHED_DELAY = 0.15           # pickup delay of a deeper level, s
RESTORE_DELAY = 10.0        # pickup delay of a restored level, s: reconnection is cautious

FREQ_FILTER_TAU = 0.05      # estimator low-pass time constant, s
_TWO_PI = np.array(2.0 * math.pi)   # 0-d: a cheaper ufunc operand than a float


@dataclass(frozen=True, slots=True)
class UflsRelayState:
    f0: float = 60.0
    level: float = 0.0          # committed shed fraction
    candidate: float | None = None
    timer: float = 0.0          # accumulated time the candidate has persisted


def ufls_step(r: UflsRelayState, f_meas: float, dt: float) -> UflsRelayState:
    """Advance the relay one step on the measured local frequency.

    Strictly below the shallowest shed step, f0 - 1.0 Hz, the target is
    the deepest ``_SHED_STEPS`` level with f_meas <= f0 - offset, never
    shallower than the committed level.  At or above it, the target is
    the first ``_RESTORE_STEPS`` level with f_meas >= f0 - offset if that
    is below the committed level; otherwise the relay holds.  A target
    must persist for the pickup delay before it is committed:
    ``SHED_DELAY`` when shedding deeper, ``RESTORE_DELAY`` when
    restoring.  The timer resets whenever the target changes.
    """
    if dt <= 0:
        raise ValueError("dt must be positive")
    f0 = r.f0
    if f_meas < f0 - _SHED_STEPS[-1][0]:
        # shedding region: may only deepen; the last row always matches
        if f_meas <= 0:
            raise ValueError("frequency must be positive")
        for offset, level in _SHED_STEPS:
            if f_meas <= f0 - offset:
                target = max(r.level, level)
                break
    elif r.level == 0.0 and r.candidate is None and r.timer == 0.0:
        return r                # nothing shed or pending, nothing to restore
    else:
        for offset, level in _RESTORE_STEPS:
            if f_meas >= f0 - offset:
                target = min(r.level, level)
                break
        else:
            target = r.level    # dead band: restoration not reached, hold

    # each transition builds the next state with one positional call
    if target == r.level:
        if r.candidate is None and r.timer == 0.0:
            return r
        return UflsRelayState(f0, r.level, None, 0.0)
    if target != r.candidate:
        return UflsRelayState(f0, r.level, target, dt)
    timer = r.timer + dt
    delay = SHED_DELAY if target > r.level else RESTORE_DELAY
    if timer >= delay - 1e-12:
        return UflsRelayState(f0, target, None, 0.0)
    return UflsRelayState(f0, r.level, target, timer)


def filter_gain(dt: float, tau: float) -> float:
    """Per-sample gain 1 - exp(-dt/tau) of the estimator's low-pass filter."""
    if dt <= 0:
        raise ValueError("dt must be positive")
    return 1.0 - math.exp(-dt / tau)


def estimate_frequency(theta, prev_theta, filt, dt, alpha, f0):
    """PMU surrogate: low-pass filtered angle derivative plus f0.

    Advances the filtered d(theta)/dt ``filt`` (rad/s) by one sample of
    the bus angle ``theta`` taken ``dt`` after ``prev_theta`` (None before
    the first sample, which carries no derivative); ``alpha`` is
    ``filter_gain(dt, tau)``.  Elementwise.  Returns (filt, frequency in Hz).
    """
    if dt <= 0:
        raise ValueError("dt must be positive")
    raw = 0.0 if prev_theta is None else (theta - prev_theta) / dt
    filt = filt + (raw - filt) * alpha
    return filt, f0 + filt / _TWO_PI
