"""The benchmark's workloads: a grid, its members and their seeds.

Every input is derived from the bundled gridfreq data files and the
benchmark seed alone, so one seed always gives the same inputs.  Member
seeds derive from the benchmark seed; seed 1 reproduces the seeds of the
bundled scenario files.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from importlib.resources import files

import yaml

import gridfreq

NAMES = ("single_s2b", "ensemble_ab", "areas4")

# ensemble_ab: both bundled trips x case A/B x this many seeds.  Members
# are shortened so the trip sits inside the horizon and every member sheds.
ENSEMBLE_SEEDS = 3
SHORT_DURATION_S = 20.0
SHORT_TRIP_S = 5.0

# areas4: copies of IEEE-39 joined in a ring by tie lines.  Area a
# renumbers bus b to BUS_OFFSET*a + b and generator G to f"A{a}{G}".
AREAS = 4
BUS_OFFSET = 100
TIE_LINES = ((16, 3), (26, 15))     # (bus in area a, bus in area a+1)
TIE_X = 0.02
AREAS4_TRIP = ("A0G4", "A0G6")      # the S2 double trip, in area 0
AREAS4_DURATION_S = 60.0
AREAS4_TRIP_S = 20.0


@dataclass(frozen=True)
class Member:
    scenario: gridfreq.Scenario
    pair: str               # A/B members with the same pair share profiles
    expect_shed: bool       # whether the trip must drive a relay to commit


@dataclass(frozen=True)
class Plan:
    """Inputs of one workload: what set-up turns into a model and profiles."""

    name: str
    grid: str | dict        # bundled YAML path, or a grid document
    members: tuple[Member, ...]
    export: bool            # write the trajectory CSV as `gridfreq run` does


def _data(filename: str) -> str:
    return str(files("gridfreq.data").joinpath(filename))


def _bundled(filename: str) -> gridfreq.Scenario:
    return gridfreq.load_scenario(_data(filename))


def _shortened(sc: gridfreq.Scenario, seed: int, duration_s: float,
               trip_s: float) -> gridfreq.Scenario:
    events = tuple(dataclasses.replace(ev, time_s=trip_s) for ev in sc.events)
    return dataclasses.replace(sc, name=f"{sc.name}-s{seed}", seed=seed,
                               duration_s=duration_s, events=events)


def areas4_grid() -> dict:
    """Grid document of ``AREAS`` IEEE-39 copies joined in a ring."""
    doc = yaml.safe_load(files("gridfreq.data").joinpath("ieee39.yaml").read_text())

    def bus(area: int, b: int) -> int:
        return BUS_OFFSET * area + b

    out = {k: v for k, v in doc.items()
           if k not in ("buses", "lines", "generators")}
    out["expected_wind_total_mw"] = AREAS * doc["expected_wind_total_mw"]
    areas = range(AREAS)
    out["buses"] = [dict(b, id=bus(a, b["id"])) for a in areas for b in doc["buses"]]
    out["generators"] = [dict(g, id=f"A{a}{g['id']}", bus=bus(a, g["bus"]))
                         for a in areas for g in doc["generators"]]
    out["lines"] = [dict(ln, **{"from": bus(a, ln["from"]), "to": bus(a, ln["to"])})
                    for a in areas for ln in doc["lines"]]
    out["lines"] += [{"from": bus(a, f), "to": bus((a + 1) % AREAS, t), "x": TIE_X}
                     for a in areas for f, t in TIE_LINES]
    return out


def plan(name: str, seed: int) -> Plan:
    """The inputs of workload ``name`` for benchmark seed ``seed``."""
    if name == "single_s2b":
        sc = dataclasses.replace(_bundled("s2b.yaml"), seed=seed)
        return Plan(name, _data("ieee39.yaml"),
                    (Member(sc, pair=f"S2-s{seed}", expect_shed=True),), export=True)
    if name == "ensemble_ab":
        # Seed 1 gives member seeds 1..ENSEMBLE_SEEDS; other seeds give
        # disjoint blocks, so no two benchmark seeds share a member.
        members = []
        for trip in ("s1", "s2"):
            for j in range(ENSEMBLE_SEEDS):
                member_seed = ENSEMBLE_SEEDS * (seed - 1) + 1 + j
                for case in ("a", "b"):
                    sc = _shortened(_bundled(f"{trip}{case}.yaml"), member_seed,
                                    SHORT_DURATION_S, SHORT_TRIP_S)
                    members.append(Member(sc, pair=f"{trip.upper()}-s{member_seed}",
                                          expect_shed=True))
        return Plan(name, _data("ieee39.yaml"), tuple(members), export=False)
    if name == "areas4":
        sc = gridfreq.Scenario(
            name="AREAS4B", case="B", seed=seed, duration_s=AREAS4_DURATION_S,
            events=tuple(gridfreq.ContingencyEvent(time_s=AREAS4_TRIP_S, generator=g)
                         for g in AREAS4_TRIP))
        return Plan(name, areas4_grid(),
                    (Member(sc, pair=f"AREAS4-s{seed}", expect_shed=False),),
                    export=False)
    raise ValueError(f"unknown workload {name!r}; choose from {', '.join(NAMES)}")
