#!/usr/bin/env python3
"""Tour of the stochastic profile machinery.

Shows how 1-minute wind data becomes a 1-second profile (anchored
Gaussian-increment resampling), how load multipliers combine a slow
minute-scale walk with fast second noise, and why everything replays
bit-identically for a given seed.

Usage:
    python demos/profile_synthesis.py
"""

import numpy as np

from gridfreq.profiles import (resample_wind, scale_wind, synthetic_minute_walk,
                               synthetic_second_multiplier)


def main() -> None:
    # 1. a synthetic 10-minute wind source (bounded random walk, p.u.)
    minutes = synthetic_minute_walk(10, start=0.8, sigma=0.02, seed=7)
    print("minute source (p.u.): ",
          " ".join(f"{v:.3f}" for v in minutes))

    # 2. resample to 1 s; sigma=0 reproduces linear interpolation exactly
    exact = resample_wind(minutes, sigma=0.0, seed=0)
    grid = np.arange(len(exact), dtype=float)
    anchors = np.arange(len(minutes)) * 60.0
    assert np.allclose(exact, np.interp(grid, anchors, minutes), atol=1e-12)
    print("sigma=0 resample == linear interpolation of the minute anchors")

    # 3. with noise, every minute restarts its random walk from the
    #    source anchor, so deviations never accumulate across minutes
    noisy = resample_wind(minutes, sigma=0.01, seed=42)
    dev = np.abs(noisy - exact)
    print(f"sigma=0.01: deviation from interpolation stays bounded "
          f"(max {dev.max():.3f} p.u. ~ sigma*sqrt(60)={0.01 * 60 ** 0.5:.3f})")

    # 4. determinism: same seed, same bytes
    again = resample_wind(minutes, sigma=0.01, seed=42)
    assert noisy.tobytes() == again.tobytes()
    print("same seed -> byte-identical profile")

    # 5. scale by the farm rating to get MW
    farm = scale_wind(noisy, rating_mw=400.0)
    print(f"400 MW farm: first seconds {farm[:5].round(1)} MW")

    # 6. load multipliers: slow minute walk + fast second-to-second noise
    mult = synthetic_second_multiplier(600, sigma_slow=0.002, sigma_fast=0.004,
                                       seed=3)
    print(f"load multiplier: mean {mult.mean():.4f}, "
          f"std {mult.std():.4f}, "
          f"range [{mult.min():.3f}, {mult.max():.3f}]")


if __name__ == "__main__":
    main()
