"""Which keys each input document takes, and which values are legal.

A table maps each key of a section to ``(kind, rule, required)``: the
type its value must have (a number or a flag never from a string, a bool
never as a number; ``[table]`` is a list of entries), and ``rule``,
``(legal, text)`` or None.  Every loader of a grid, scenario or metrics
document calls ``check``.
"""

import math
from numbers import Integral, Real
from pathlib import Path

import yaml


class GridConfigError(ValueError):
    """Raised when a grid configuration document fails validation."""


class ScenarioError(ValueError):
    """Raised when a scenario or the inputs of a run fail validation."""


POSITIVE = (lambda v: v > 0, "positive and finite")
NONNEGATIVE = (lambda v: v >= 0, "non-negative and finite")
FINITE = (lambda v: True, "finite")
COUNT = (lambda v: v >= 1, "at least 1")

GENERATOR = {"id": (str, None, True), "bus": (Integral, COUNT, True),
             "type": (str, (lambda v: v in ("thermal", "hydro"), "thermal or hydro"), True),
             "rating_mva": (Real, POSITIVE, True)}
BUS = {"id": (Integral, COUNT, True),
       "wind_mw": (Real, POSITIVE, False),        # wind farm rating
       "load_mw": (Real, POSITIVE, False),        # forecast load
       "dispatched": (bool, None, False)}
LINE = {"from": (Integral, COUNT, True), "to": (Integral, COUNT, True),
        "x": (Real, POSITIVE, True)}              # series reactance, p.u.
GRID = {"base_mva": (Real, POSITIVE, False), "f0": (Real, POSITIVE, False),
        "slack_bus": (Integral, COUNT, False),
        "expected_wind_total_mw": (Real, NONNEGATIVE, False),
        "generators": ([GENERATOR], None, True), "buses": ([BUS], None, True),
        "lines": ([LINE], None, True), "simulation": (dict, None, False)}
SIMULATION = {  # the SimParams fields
    **dict.fromkeys(("h_thermal", "h_hydro", "droop", "load_scale"),
                    (Real, POSITIVE, False)),
    **dict.fromkeys(("damping", "reserve_fraction", "wind_minute_sigma",
                     "wind_resample_sigma", "load_slow_sigma", "load_fast_sigma"),
                    (Real, NONNEGATIVE, False)),
    "wind_schedule_pu": (Real, (lambda v: 0 <= v <= 1, "in [0, 1]"), False),
    "ufls_enabled": (bool, None, False)}
EVENT = {"time_s": (Real, NONNEGATIVE, True), "generator": (str, None, True)}
SCENARIO = {"name": (str, (lambda v: v not in ("", ".", "..") and "/" not in v,
                           "one path component (not '', '.' or '..', and no '/')"),
                     True),
            "case": (str, (lambda v: v in ("A", "B"), "A or B"), True),
            "events": ([EVENT], None, False), "duration_s": (Real, POSITIVE, False),
            "dt_s": (Real, POSITIVE, False), "seed": (Integral, NONNEGATIVE, False),
            "output_dt_s": (Real, POSITIVE, False)}
METRICS_VERSION = 1            # of the metrics.json this program writes
SHED_EVENT = dict.fromkeys(("trigger_s", "clear_s", "max_level"), (Real, FINITE, True))
METRICS = {"r_ls": (Real, (lambda v: 0 <= v <= 0.5 + 1e-12, "in [0, 0.5]"), True),
           "t_ls_s": (Real, NONNEGATIVE, True),
           "eens_mwh": (Real, (lambda v: v >= -1e-12, "non-negative"), True),
           "events": ([SHED_EVENT], None, False), "scenario": (str, None, False),
           "case": (str, None, False), "seed": (Integral, None, False),
           "schema_version": (Integral, (lambda v: v == METRICS_VERSION, "1"), False)}


def check(table: dict, doc, where: str, error: type = GridConfigError) -> dict:
    """The keys of ``doc`` converted by ``table``; raises ``error`` naming
    ``where.key`` for whatever the table does not allow."""
    if not isinstance(doc, dict):
        raise error(f"{where}: expected a mapping, got {type(doc).__name__}")
    out = {}
    for key, value in doc.items():
        path = f"{where}.{key}"
        if key not in table:
            raise error(f"{path}: unknown key; {where} takes {', '.join(table)}")
        kind, rule, _ = table[key]
        if isinstance(kind, list):
            if not isinstance(value, (list, tuple)):
                raise error(f"{path}: expected a list, got {type(value).__name__}")
            out[key] = [check(kind[0], entry, f"{path}[{i}]", error)
                        for i, entry in enumerate(value)]
            continue
        if not isinstance(value, kind) or (isinstance(value, bool) and kind is not bool):
            raise error(f"{path}: expected {kind.__name__}, got {type(value).__name__} "
                        f"{value!r}")
        out[key] = v = float(value) if kind is Real else int(value) if kind is Integral else value
        finite = not isinstance(v, float) or math.isfinite(v)
        if rule is not None and not (finite and rule[0](v)):
            raise error(f"{path}: {'' if finite else 'non-finite value '}{v!r} "
                        f"is not {rule[1]}")
    for key, (_, _, required) in table.items():
        if required and key not in doc:
            raise error(f"{where}: missing required key {key!r}")
    return out


class _NoRepeatedKeys:
    """A loader mix-in: a key that one mapping gives twice is an error,
    where PyYAML keeps the last."""

    def construct_mapping(self, node, deep=False):
        seen = []                   # a list: an unhashable key fails in the base class
        for key_node, _ in node.value:
            if key_node.tag == "tag:yaml.org,2002:merge":
                continue            # `<<: *anchor`: an explicit key may override a merged one
            key = self.construct_object(key_node, deep=deep)
            if key in seen:
                raise yaml.constructor.ConstructorError(
                    "while constructing a mapping", node.start_mark,
                    f"found duplicate key {key!r}", key_node.start_mark)
            seen.append(key)
        return super().construct_mapping(node, deep)


class _Loader(_NoRepeatedKeys, getattr(yaml, "CSafeLoader", yaml.SafeLoader)):
    """PyYAML's safe loader, on libyaml where PyYAML ships it."""


def read_yaml(source: str | Path | dict, where: str, error: type):
    """The YAML document at path ``source``; a dict passes through.  The
    file is parsed as a byte stream, so a YAML error's mark names it."""
    if isinstance(source, dict):
        return source
    try:
        with open(source, "rb") as f:
            return yaml.load(f, Loader=_Loader)
    except OSError as exc:
        raise error(f"{where}: cannot read {source}: {exc}") from None
    except yaml.YAMLError as exc:
        raise error(f"{where}: {exc}") from None
