"""Static network model and quasi-static DC power flow.

The network is described by buses (with optional generator, wind farm,
load and dispatched-bus flag) and lines carrying a series susceptance on
the system MVA base.  The DC flow couples machine rotor angles to bus
angles through a nodal susceptance (Laplacian) matrix.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path

import numpy as np
import scipy.sparse as sp
import scipy.sparse.csgraph as csgraph
import scipy.sparse.linalg as spla
import yaml


class GridConfigError(ValueError):
    """Raised when a grid configuration document fails validation."""


class IslandingError(RuntimeError):
    """Raised when the network splits into islands (singular susceptance)."""


@dataclass(frozen=True)
class GeneratorSpec:
    id: str
    bus: int
    kind: str               # 'thermal' | 'hydro'
    rating_mva: float

    def __post_init__(self):
        if self.kind not in ("thermal", "hydro"):
            raise GridConfigError(
                f"generator {self.id}: unknown kind {self.kind!r}")
        if not 0 < self.rating_mva < math.inf:
            raise GridConfigError(
                f"generator {self.id}: rating must be positive and finite: {self.rating_mva}")


@dataclass(frozen=True)
class BusSpec:
    id: int
    generator: GeneratorSpec | None = None
    wind_mw: float | None = None      # wind farm rating
    load_mw: float | None = None      # forecast load
    dispatched: bool = False

    def __post_init__(self):
        if self.wind_mw is not None and not 0 < self.wind_mw < math.inf:
            raise GridConfigError(f"bus {self.id}: wind rating must be positive and finite")
        if self.load_mw is not None and not 0 < self.load_mw < math.inf:
            raise GridConfigError(f"bus {self.id}: load forecast must be positive and finite")
        if self.dispatched and self.wind_mw is None and self.load_mw is None:
            raise GridConfigError(
                f"bus {self.id}: dispatched flag requires a load or wind farm")


@dataclass(frozen=True)
class LineSpec:
    from_bus: int
    to_bus: int
    susceptance: float       # p.u. on system base

    def __post_init__(self):
        if not 0 < self.susceptance < math.inf:
            raise GridConfigError(
                f"line {self.from_bus}-{self.to_bus}: susceptance must be positive and finite")


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
        ids = [b.id for b in self.buses]
        dup = {i for i in ids if ids.count(i) > 1}
        if dup:
            raise GridConfigError(f"duplicate bus ids: {sorted(dup)}")
        idset = set(ids)
        for ln in self.lines:
            for end in (ln.from_bus, ln.to_bus):
                if end not in idset:
                    raise GridConfigError(
                        f"dangling endpoint: line {ln.from_bus}-{ln.to_bus} "
                        f"references nonexistent bus {end}")
        if self.slack_bus not in idset:
            raise GridConfigError(f"slack bus {self.slack_bus} does not exist")
        if not self._is_connected():
            raise GridConfigError("network is not a single connected island")
        if self.expected_wind_total_mw is not None:
            total = sum(b.wind_mw or 0.0 for b in self.buses)
            if abs(total - self.expected_wind_total_mw) > 1e-6:
                raise GridConfigError(
                    f"wind ratings sum to {total} MW, expected "
                    f"{self.expected_wind_total_mw} MW")

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

    def _is_connected(self) -> bool:
        n = len(self.buses)
        if n <= 1:
            return True
        idx = self.bus_pos
        rows = [idx[ln.from_bus] for ln in self.lines]
        cols = [idx[ln.to_bus] for ln in self.lines]
        adj = sp.coo_matrix((np.ones(len(rows)), (rows, cols)), shape=(n, n))
        ncomp, _ = csgraph.connected_components(adj, directed=False)
        return ncomp == 1


# -- susceptance matrix ----------------------------------------------------

def build_full_susceptance_matrix(model: GridModel) -> sp.csr_matrix:
    """Nodal susceptance Laplacian over all buses (row sums are zero)."""
    n = len(model.buses)
    idx = model.bus_pos
    rows, cols, vals = [], [], []
    for ln in model.lines:
        i, j, b = idx[ln.from_bus], idx[ln.to_bus], ln.susceptance
        rows += [i, j, i, j]
        cols += [j, i, i, j]
        vals += [-b, -b, b, b]
    return sp.coo_matrix((vals, (rows, cols)), shape=(n, n)).tocsr()


def build_susceptance_matrix(model: GridModel) -> sp.csr_matrix:
    """Reduced susceptance matrix with the slack row/column removed."""
    full = build_full_susceptance_matrix(model)
    k = model.bus_pos[model.slack_bus]
    keep = np.r_[0:k, k + 1:full.shape[0]]
    return full[np.ix_(keep, keep)].tocsr()


def solve_dc_flow(b_reduced: sp.spmatrix, injections_mw: np.ndarray,
                  model: GridModel) -> np.ndarray:
    """Solve B·theta = P for bus angles in radians, slack angle pinned at 0.

    ``injections_mw`` is the per-bus net injection over all buses (slack
    included; its entry is the balancing residual and is not part of the
    solve).
    """
    k = model.bus_pos[model.slack_bus]
    p = np.asarray(injections_mw, dtype=float) / model.base_mva
    rhs = np.delete(p, k)
    try:
        theta_red = spla.spsolve(b_reduced.tocsc(), rhs)
    except RuntimeError as exc:
        raise IslandingError(f"singular susceptance matrix: {exc}") from exc
    if not np.all(np.isfinite(theta_red)):
        raise IslandingError("singular susceptance matrix (non-finite solution)")
    theta = np.insert(theta_red, k, 0.0)
    return theta


# -- config loading --------------------------------------------------------

# a unit takes the machine parameters of its kind from the 'simulation' section
_GENERATOR_KEYS = ("id", "bus", "type", "rating_mva")


def _entries(doc: dict, section: str, build) -> list:
    """``build(entry)`` for each entry of the list ``doc[section]``; an entry
    that is not a mapping, lacks a key or holds a malformed value is a
    ``GridConfigError`` naming it by its position ``section[i]``."""
    out = []
    try:
        for entry in doc.get(section) or []:
            out.append(build(dict(entry)))
    except GridConfigError:
        raise
    except KeyError as exc:
        raise GridConfigError(f"{section}[{len(out)}]: missing required key {exc}") from None
    except (TypeError, ValueError) as exc:
        raise GridConfigError(f"{section}[{len(out)}]: {exc}") from None
    return out


def _generator_from_entry(entry: dict) -> GeneratorSpec:
    gid = str(entry["id"])
    unknown = sorted(set(entry) - set(_GENERATOR_KEYS))
    if unknown:
        raise GridConfigError(f"generator {gid}: unknown keys {unknown}; an entry "
                              f"takes only {', '.join(_GENERATOR_KEYS)}")
    return GeneratorSpec(id=gid, bus=int(entry["bus"]), kind=str(entry["type"]),
                         rating_mva=float(entry["rating_mva"]))


def _line_from_entry(entry: dict) -> LineSpec:
    if "b" in entry:
        b = float(entry["b"])
    elif "x" in entry:
        x = float(entry["x"])
        if not 0 < x < math.inf:
            raise GridConfigError(f"line {entry.get('from')}-{entry.get('to')}: "
                                  f"reactance must be positive and finite")
        b = 1.0 / x
    else:
        raise GridConfigError(
            f"line {entry.get('from')}-{entry.get('to')}: needs 'b' or 'x'")
    return LineSpec(from_bus=int(entry["from"]), to_bus=int(entry["to"]),
                    susceptance=b)


def load_grid_config(source: str | Path | dict) -> GridModel:
    """Parse and validate a grid configuration document (YAML or dict)."""
    if isinstance(source, dict):
        doc = source
    else:
        text = Path(source).read_text()
        try:
            doc = yaml.safe_load(text)
        except yaml.YAMLError as exc:
            raise GridConfigError(f"cannot parse {source}: {exc}") from exc
    if not isinstance(doc, dict):
        raise GridConfigError("grid config must be a mapping")
    for key in ("buses", "lines"):
        if key not in doc:
            raise GridConfigError(f"grid config missing required section {key!r}")

    gens_by_bus: dict[int, GeneratorSpec] = {}
    for spec in _entries(doc, "generators", _generator_from_entry):
        if spec.bus in gens_by_bus:
            raise GridConfigError(f"bus {spec.bus} has more than one generator")
        gens_by_bus[spec.bus] = spec

    def bus_from_entry(b: dict) -> BusSpec:
        bid = int(b["id"])
        return BusSpec(id=bid, generator=gens_by_bus.pop(bid, None),
                       wind_mw=float(b["wind_mw"]) if "wind_mw" in b else None,
                       load_mw=float(b["load_mw"]) if "load_mw" in b else None,
                       dispatched=bool(b.get("dispatched", False)))

    buses = _entries(doc, "buses", bus_from_entry)
    if gens_by_bus:
        orphans = ", ".join(f"{g.id}@bus{g.bus}" for g in gens_by_bus.values())
        raise GridConfigError(f"generators placed on nonexistent buses: {orphans}")

    return GridModel(
        buses=tuple(buses),
        lines=tuple(_entries(doc, "lines", _line_from_entry)),
        base_mva=float(doc.get("base_mva", 100.0)),
        f0=float(doc.get("f0", 60.0)),
        slack_bus=int(doc.get("slack_bus", 31)),
        expected_wind_total_mw=(float(doc["expected_wind_total_mw"])
                                if "expected_wind_total_mw" in doc else None),
        sim_params=dict(doc.get("simulation", {})),
    )


def ieee39() -> GridModel:
    """The bundled modified IEEE 39-bus case (10 generators, 4 wind farms)."""
    from importlib.resources import files
    return load_grid_config(yaml.safe_load(
        files("gridfreq.data").joinpath("ieee39.yaml").read_text()))
