"""Shared fixtures: small synthetic grids used across the test modules."""

import pytest

import gridfreq as gf

# SimParams overrides for flat profiles: every wind and load series holds
# its schedule
FLAT = {"wind_minute_sigma": 0.0, "wind_resample_sigma": 0.0,
        "load_slow_sigma": 0.0, "load_fast_sigma": 0.0}


def two_bus_doc(rating=1000.0, load=500.0, kind="thermal"):
    """Minimal connected model: one generator bus, one load bus."""
    return {
        "base_mva": 100.0,
        "f0": 60.0,
        "slack_bus": 1,
        "generators": [
            {"id": "G1", "bus": 1, "type": kind, "rating_mva": rating},
        ],
        "buses": [
            {"id": 1},
            {"id": 2, "load_mw": load},
        ],
        "lines": [
            {"from": 1, "to": 2, "x": 0.02},
        ],
    }


def four_bus_doc():
    """Two generators, one wind farm, two loads, one dispatched bus."""
    return {
        "base_mva": 100.0,
        "f0": 60.0,
        "slack_bus": 1,
        "generators": [
            {"id": "G1", "bus": 1, "type": "thermal", "rating_mva": 1000.0},
            {"id": "G2", "bus": 2, "type": "hydro", "rating_mva": 800.0},
        ],
        "buses": [
            {"id": 1},
            {"id": 2},
            {"id": 3, "load_mw": 400.0, "wind_mw": 200.0, "dispatched": True},
            {"id": 4, "load_mw": 300.0},
        ],
        "lines": [
            {"from": 1, "to": 3, "x": 0.02},
            {"from": 2, "to": 3, "x": 0.025},
            {"from": 3, "to": 4, "x": 0.03},
            {"from": 1, "to": 4, "x": 0.04},
        ],
    }


@pytest.fixture
def two_bus():
    return gf.load_grid_config(two_bus_doc())


@pytest.fixture
def four_bus():
    return gf.load_grid_config(four_bus_doc())


@pytest.fixture(scope="session")
def ieee39():
    return gf.ieee39()
