"""Stochastic per-bus power profiles at 1-second resolution.

Wind profiles start from a 1-minute per-unit source series and are
resampled to 1 second: within each minute the per-second increments are
drawn from a Gaussian whose mean is the minute's average slope, and the
cumulative sum is anchored at the minute's starting value.  Load
profiles are per-unit multipliers around the forecast.  Every profile
is synthesized from a seed (``engine.build_profiles`` derives one per
scenario seed, bus and purpose), none is read from a file, and each
replays bit-identically; the battery error CDF
(``simulation.error_cdf``) is the one stochastic input read from a file.
"""

from __future__ import annotations

import numpy as np

LOAD_MULT_LO, LOAD_MULT_HI = 0.8, 1.2   # bounds of the synthetic load multiplier


class ProfileError(ValueError):
    pass


def resample_wind(minutes, sigma: float, seed) -> np.ndarray:
    """Resample a per-unit minute series to 1 s with Gaussian increment noise.

    For minute t the 60 increments are N(mean_t, sigma^2) with
    mean_t = (x[t+1] - x[t])/60; the cumulative sum restarts from x[t]
    at each minute boundary, so a zero-sigma run interpolates the minute
    series exactly.  Output is clamped to [0, 1].
    """
    v = np.asarray(minutes, dtype=float)
    if v.ndim != 1:
        raise ProfileError("minute series must be one-dimensional")
    if v.size and not (v.min() >= 0.0 and v.max() <= 1.0):    # NaN fails too
        raise ProfileError("minute series values must lie in [0, 1]")
    if len(v) < 2:
        raise ProfileError("minute series needs at least 2 samples to resample")
    if sigma < 0:
        raise ProfileError("sigma must be nonnegative")
    rng = np.random.default_rng(seed)
    nmin = len(v) - 1
    means = np.diff(v) / 60.0
    incr = rng.normal(means[:, None], sigma, size=(nmin, 60))
    blocks = v[:-1, None] + np.cumsum(incr, axis=1)
    out = np.empty(nmin * 60 + 1)
    out[0] = v[0]
    out[1:] = blocks.ravel()
    np.clip(out, 0.0, 1.0, out=out)
    return out


def scale_wind(omega, rating_mw: float) -> np.ndarray:
    """Scale a per-unit wind profile by the farm rating (Eq. W = W_b * omega)."""
    if rating_mw <= 0:
        raise ProfileError("wind rating must be positive")
    return np.asarray(omega, dtype=float) * rating_mw


def make_load_profile(mult, forecast_mw: float) -> np.ndarray:
    """Scale a per-unit load multiplier profile by the bus forecast."""
    if forecast_mw <= 0:
        raise ProfileError("load forecast must be positive")
    return np.asarray(mult, dtype=float) * forecast_mw


# -- bundled synthetic sources ---------------------------------------------

def synthetic_minute_walk(n_minutes: int, start: float, sigma: float,
                          seed: int) -> np.ndarray:
    """Random walk in [0, 1] at minute resolution (synthetic wind source)."""
    rng = np.random.default_rng(seed)
    steps = rng.normal(0.0, sigma, size=n_minutes)
    out = np.empty(n_minutes + 1)
    x = start
    out[0] = x
    for i, s in enumerate(steps):
        x = min(max(x + s, 0.0), 1.0)
        out[i + 1] = x
    return out


def synthetic_second_multiplier(n_seconds: int, sigma_slow: float,
                                sigma_fast: float, seed: int) -> np.ndarray:
    """Per-unit multiplier around 1: minute-scale walk plus fast noise.

    Used as the synthetic stand-in for measured 1-second demand data.
    """
    rng = np.random.default_rng(seed)
    n_min = n_seconds // 60 + 2
    walk = np.cumsum(rng.normal(0.0, sigma_slow, size=n_min))
    # linear interpolation of the slow component onto the 1 s grid
    t_min = np.arange(n_min) * 60.0
    t_sec = np.arange(n_seconds, dtype=float)
    slow = np.interp(t_sec, t_min, walk)
    fast = rng.normal(0.0, sigma_fast, size=n_seconds)
    return np.clip(1.0 + slow + fast, LOAD_MULT_LO, LOAD_MULT_HI)
