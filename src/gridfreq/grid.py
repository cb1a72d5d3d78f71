"""Static network model and quasi-static DC power flow.

The network is described by buses (with optional generator, wind farm,
load and dispatched-bus flag) and lines carrying a series susceptance on
the system MVA base.  The DC flow couples machine rotor angles to bus
angles through a nodal susceptance (Laplacian) matrix.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path

import numpy as np

from .schema import GRID, GridConfigError, check, read_yaml


class IslandingError(RuntimeError):
    """Raised when the network splits into islands (singular susceptance)."""


@dataclass(frozen=True)
class GeneratorSpec:
    id: str
    bus: int
    kind: str               # 'thermal' | 'hydro'
    rating_mva: float


@dataclass(frozen=True)
class BusSpec:
    id: int
    generator: GeneratorSpec | None = None
    wind_mw: float | None = None      # wind farm rating
    load_mw: float | None = None      # forecast load
    dispatched: bool = False


@dataclass(frozen=True)
class LineSpec:
    from_bus: int
    to_bus: int
    susceptance: float       # p.u. on system base


@dataclass(frozen=True)
class GridModel:
    """Validated, immutable network description."""

    buses: tuple[BusSpec, ...]
    lines: tuple[LineSpec, ...]
    base_mva: float = 100.0
    f0: float = 60.0
    slack_bus: int = 31
    expected_wind_total_mw: float | None = None
    sim_params: dict = field(default_factory=dict)

    def __post_init__(self):
        """Checks across entries; ``schema.GRID`` holds those of one value."""
        for i, b in enumerate(self.buses):
            if self.bus_pos[b.id] != i:
                raise GridConfigError(f"grid.buses[{i}].id: duplicate bus ids ({b.id})")
            if b.dispatched and b.wind_mw is None and b.load_mw is None:
                raise GridConfigError(f"grid.buses[{i}].dispatched: needs load_mw or wind_mw")
        gen_ids = [g.id for g in self.generators]
        if not gen_ids or len(set(gen_ids)) < len(gen_ids):
            raise GridConfigError(f"grid.generators: needs units with distinct ids: {gen_ids}")
        for i, ln in enumerate(self.lines):
            for key, end in (("from", ln.from_bus), ("to", ln.to_bus)):
                if end not in self.bus_pos:
                    raise GridConfigError(f"grid.lines[{i}].{key}: dangling, no bus {end}")
        if self.slack_bus not in self.bus_pos:
            raise GridConfigError(f"grid.slack_bus: slack bus {self.slack_bus} does not exist")
        # a breadth-first search along the lines from the slack bus
        neighbours: dict[int, list[int]] = {b.id: [] for b in self.buses}
        for ln in self.lines:
            neighbours[ln.from_bus].append(ln.to_bus)
            neighbours[ln.to_bus].append(ln.from_bus)
        reached, queue = {self.slack_bus}, deque([self.slack_bus])
        while queue:
            new = set(neighbours[queue.popleft()]) - reached
            reached |= new
            queue.extend(new)
        if len(reached) != len(self.buses):
            raise GridConfigError("grid.lines: network is not a single connected island")
        if self.expected_wind_total_mw is not None:
            total = sum(b.wind_mw or 0.0 for b in self.buses)
            if abs(total - self.expected_wind_total_mw) > 1e-6:
                raise GridConfigError(f"grid.expected_wind_total_mw: wind ratings (wind_mw) "
                                      f"sum to {total} MW, not {self.expected_wind_total_mw}")

    # -- index helpers (computed once per model) ---------------------------

    @cached_property
    def bus_pos(self) -> dict[int, int]:
        """Bus id -> position in ``buses``."""
        return {b.id: i for i, b in enumerate(self.buses)}

    @cached_property
    def generators(self) -> tuple[GeneratorSpec, ...]:
        return tuple(b.generator for b in self.buses if b.generator is not None)

    @cached_property
    def load_buses(self) -> tuple[BusSpec, ...]:
        return tuple(b for b in self.buses if b.load_mw is not None)

    @cached_property
    def wind_buses(self) -> tuple[BusSpec, ...]:
        return tuple(b for b in self.buses if b.wind_mw is not None)


# -- susceptance matrix ----------------------------------------------------

def build_full_susceptance_matrix(model: GridModel) -> np.ndarray:
    """Dense nodal susceptance Laplacian over all buses (row sums are zero)."""
    n = len(model.buses)
    idx = model.bus_pos
    full = np.zeros((n, n))
    for ln in model.lines:
        i, j, b = idx[ln.from_bus], idx[ln.to_bus], ln.susceptance
        full[i, j] -= b
        full[j, i] -= b
        full[i, i] += b
        full[j, j] += b
    return full


class InverseFactor:
    """One network matrix, inverted once, that solves for many members.

    ``solve`` takes one right-hand side per row and returns one solution
    per row.  Each row is its own vector-matrix product, so a member's
    solution is bit for bit the one its solo run gets; a single matrix
    product over all rows would not be.  Only an exactly zero pivot raises
    ``IslandingError``; the engine's B_aug is singular exactly when no
    unit is online, which ``SystemState.refactorize`` checks first.
    """

    def __init__(self, b: np.ndarray):
        try:
            inv = np.linalg.inv(b)
        except np.linalg.LinAlgError as exc:
            raise IslandingError(f"network solve singular: {exc}") from exc
        # x = B^-1 r as a row is r^T B^-T: rows of the rhs times the transpose
        self._inv_t = np.ascontiguousarray(inv.T)

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        return (rhs[:, None, :] @ self._inv_t)[:, 0]


def solve_dc_flow(model: GridModel, injections_mw: np.ndarray) -> np.ndarray:
    """Solve B·theta = P for bus angles in radians, slack angle pinned at 0.

    ``injections_mw`` is the finite per-bus net injection over all buses
    (``ValueError`` otherwise).  The slack row and column of the Laplacian
    are set to the identity and the slack entry of P to 0, which
    eliminates the slack bus exactly (its injection is the balancing
    residual and is not part of the solve).
    """
    k = model.bus_pos[model.slack_bus]
    b = build_full_susceptance_matrix(model)
    b[k, :] = 0.0
    b[:, k] = 0.0
    b[k, k] = 1.0
    p = np.asarray(injections_mw, dtype=float) / model.base_mva
    if p.shape != (len(model.buses),) or not np.isfinite(p).all():
        raise ValueError(f"injections_mw: needs {len(model.buses)} finite per-bus "
                         f"values, got shape {p.shape}")
    p[k] = 0.0
    try:
        theta = np.linalg.solve(b, p)
    except np.linalg.LinAlgError as exc:
        raise IslandingError(f"singular susceptance matrix: {exc}") from exc
    if not np.all(np.isfinite(theta)):
        raise IslandingError("singular susceptance matrix (non-finite solution)")
    return theta


# -- config loading --------------------------------------------------------

def load_grid_config(source: str | Path | dict) -> GridModel:
    """Parse and validate a grid configuration document (YAML or dict)."""
    doc = check(GRID, read_yaml(source, "grid", GridConfigError), "grid")
    bus_ids = {b["id"] for b in doc["buses"]}
    gens_by_bus: dict[int, GeneratorSpec] = {}
    for i, g in enumerate(doc["generators"]):
        if g["bus"] not in bus_ids or g["bus"] in gens_by_bus:
            why = "has more than one generator" if g["bus"] in bus_ids else "is nonexistent"
            raise GridConfigError(f"grid.generators[{i}].bus: bus {g['bus']} {why}")
        gens_by_bus[g["bus"]] = GeneratorSpec(id=g["id"], bus=g["bus"], kind=g["type"],
                                              rating_mva=g["rating_mva"])
    lines = [LineSpec(from_bus=ln["from"], to_bus=ln["to"], susceptance=1.0 / ln["x"])
             for ln in doc["lines"]]
    return GridModel(
        buses=tuple(BusSpec(id=b["id"], generator=gens_by_bus.get(b["id"]),
                            wind_mw=b.get("wind_mw"), load_mw=b.get("load_mw"),
                            dispatched=b.get("dispatched", False))
                    for b in doc["buses"]),
        lines=tuple(lines), sim_params=doc.get("simulation", {}),
        **{key: doc[key] for key in ("base_mva", "f0", "slack_bus",
                                     "expected_wind_total_mw") if key in doc})


def ieee39() -> GridModel:
    """The bundled modified IEEE 39-bus case (10 generators, 4 wind farms)."""
    from importlib.resources import files
    return load_grid_config(files("gridfreq.data").joinpath("ieee39.yaml"))
