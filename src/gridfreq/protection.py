"""Under-frequency load-shedding relays and the PMU-like frequency estimator.

The shedding staircase follows the ENTSO-E recommendation: six absolute
shed steps between f0 - 1.0 Hz and f0 - 2.0 Hz, three restoration
thresholds, and a 0.15 s pickup delay applied to every level change.
Shed levels are absolute fractions of the expected bus load, not
additive increments.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

# (frequency offset below f0, shed fraction); deeper step wins at boundaries
_SHED_STEPS = ((2.0, 0.50), (1.8, 0.45), (1.6, 0.35),
               (1.4, 0.25), (1.2, 0.15), (1.0, 0.05))

# relays shed only below f0 - _SHED_ONSET, the shallowest step
_SHED_ONSET = _SHED_STEPS[-1][0]

SHED_LEVELS = (0.0, *sorted(level for _, level in _SHED_STEPS))

# (frequency offset below f0, level restored to)
_RESTORE_STEPS = ((0.25, 0.0), (0.5, 0.05), (0.75, 0.15))


def shed_level_for_frequency(f: float, f0: float) -> float:
    """Staircase shed fraction at frequency ``f``: the level of the deepest
    step with ``f <= f0 - offset``, so at an exact band boundary the deeper
    step applies.  It returns 0.05 at exactly f0 - 1.0 Hz and 0 above it.
    ``ufls_step`` consults it only strictly below f0 - 1.0 Hz; at and
    above that, restoration logic governs.
    """
    if f <= 0:
        raise ValueError("frequency must be positive")
    for offset, level in _SHED_STEPS:
        if f <= f0 - offset:
            return level
    return 0.0


def restoration_level_for_frequency(f: float, f0: float) -> float | None:
    """Level a relay may restore to, or None if frequency is too low to restore."""
    if f <= 0:
        raise ValueError("frequency must be positive")
    for offset, level in _RESTORE_STEPS:
        if f >= f0 - offset:
            return level
    return None


@dataclass(frozen=True, slots=True)
class UflsRelayState:
    bus: int
    f0: float = 60.0
    level: float = 0.0          # committed shed fraction
    candidate: float | None = None
    timer: float = 0.0          # accumulated time the candidate has persisted
    delay: float = 0.15         # shed pickup delay, s
    restore_delay: float = 0.15  # restoration pickup delay, s


def ufls_step(r: UflsRelayState, f_meas: float, dt: float) -> UflsRelayState:
    """Advance the relay one step on the measured local frequency.

    A target level (from the shedding map below f0 - 1.0 Hz, from the
    restoration map above the restoration thresholds, hold in between)
    must persist for at least the pickup delay before it is committed:
    ``delay`` when shedding deeper, ``restore_delay`` when restoring.
    The timer resets whenever the target changes.
    """
    if dt <= 0:
        raise ValueError("dt must be positive")
    f0 = r.f0
    if f_meas < f0 - _SHED_ONSET:
        # shedding region: may only deepen (absolute staircase)
        target = max(r.level, shed_level_for_frequency(f_meas, f0))
    elif r.level == 0.0 and r.candidate is None and r.timer == 0.0:
        return r                # nothing shed or pending, nothing to restore
    else:
        restore = restoration_level_for_frequency(f_meas, f0)
        if restore is not None and restore < r.level:
            target = restore
        else:
            target = r.level    # dead band / restoration not reached: hold

    # each transition builds the next state with one positional call
    if target == r.level:
        if r.candidate is None and r.timer == 0.0:
            return r
        return UflsRelayState(r.bus, f0, r.level, None, 0.0, r.delay, r.restore_delay)
    if target != r.candidate:
        return UflsRelayState(r.bus, f0, r.level, target, dt, r.delay, r.restore_delay)
    timer = r.timer + dt
    delay = r.delay if target > r.level else r.restore_delay
    if timer >= delay - 1e-12:
        return UflsRelayState(r.bus, f0, target, None, 0.0, r.delay, r.restore_delay)
    return UflsRelayState(r.bus, f0, r.level, target, timer, r.delay, r.restore_delay)


def estimate_frequency(theta, prev_theta, filt, dt: float, tau: float,
                       f0: float):
    """PMU surrogate: low-pass filtered angle derivative plus f0.

    Advances the filtered d(theta)/dt ``filt`` (rad/s) by one sample of
    the bus angle ``theta``; ``prev_theta`` is the previous sample, or
    None before the first, which carries no derivative.  Elementwise
    over arrays of buses.  Returns (filt, frequency in Hz).
    """
    if dt <= 0:
        raise ValueError("dt must be positive")
    raw = 0.0 if prev_theta is None else (theta - prev_theta) / dt
    alpha = 1.0 - math.exp(-dt / tau)
    filt = filt + (raw - filt) * alpha
    return filt, f0 + filt / (2.0 * math.pi)
