"""One schema per input: ``gridfreq validate`` and ``gridfreq run`` accept
exactly the same grid and scenario documents, and ``compare`` rejects a bad
metrics document with the validation exit code, naming the section (with
its index) and the key.

The property test mutates the bundled grid and a 1-s scenario with one
trip, one key at a time, and runs both commands in-process.
"""

import copy
import json
import math
import tempfile
from importlib.resources import files
from pathlib import Path
from types import SimpleNamespace

import pytest
import yaml
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies

import gridfreq as gf
from gridfreq.cli import EXIT_OK, EXIT_VALIDATION, main
from gridfreq.engine import (ContingencyEvent, Scenario, ScenarioError, SimParams,
                             apply_contingency, build_profiles, init_system,
                             step_system)
from gridfreq.grid import GridConfigError, InverseFactor, IslandingError
from gridfreq import engine, schema
from gridfreq.schema import read_yaml

from tests.conftest import FLAT, four_bus_doc, two_bus_doc

TRIPPED = "G4"
# dt_s 0.05 keeps the 600-s default horizon, when a mutation drops
# duration_s, to 12,000 steps
SCENARIO = {"name": "one", "case": "B", "duration_s": 1.0, "dt_s": 0.05, "seed": 1,
            "output_dt_s": 0.1, "events": [{"time_s": 0.5, "generator": TRIPPED}]}


GRID_TEXT = files("gridfreq.data").joinpath("ieee39.yaml").read_text()


def bundled_grid() -> dict:
    return yaml.safe_load(GRID_TEXT)


def write_inputs(where: Path, grid=None, scenario=None) -> None:
    """Each input as a document, or as YAML text or bytes written as they are."""
    for name, doc in (("grid.yaml", grid or bundled_grid()),
                      ("sc.yaml", scenario or SCENARIO)):
        text = doc if isinstance(doc, (str, bytes)) else yaml.safe_dump(doc)
        (where / name).write_bytes(text.encode() if isinstance(text, str) else text)


def validate_and_run(capsys, where: Path) -> tuple[int, int, str]:
    """Exit codes of ``validate`` and ``run`` on the inputs in ``where``,
    and what they printed to stderr."""
    grid, sc = str(where / "grid.yaml"), str(where / "sc.yaml")
    rc_validate = main(["validate", "--grid", grid, "--scenario", sc])
    rc_run = main(["run", "--grid", grid, "--scenario", sc, "--out", str(where / "out")])
    return rc_validate, rc_run, capsys.readouterr().err


def both_exit_2(capsys, tmp_path, naming: str, **docs) -> None:
    write_inputs(tmp_path, **docs)
    rc_validate, rc_run, err = validate_and_run(capsys, tmp_path)
    assert (rc_validate, rc_run) == (EXIT_VALIDATION, EXIT_VALIDATION)
    assert err.count(naming) == 2, err
    assert not (tmp_path / "out").exists()


def with_key(doc: dict, path: tuple, key, value) -> dict:
    doc = copy.deepcopy(doc)
    parent = doc
    for p in path:
        parent = parent[p]
    parent[key] = value
    return doc


# ---------------------------------------------------------------------------
# holes: each of these was accepted by validate, then failed or was misread
# ---------------------------------------------------------------------------

class TestGridHoles:
    @pytest.mark.parametrize("key, value, naming", [
        ("droop", 0, "simulation.droop: 0.0 is not positive"),
        ("h_hydro", 0, "simulation.h_hydro: 0.0 is not positive"),
        ("load_scale", 3.0, "simulation.load_scale: hydro set-point"),
        # removed: every run samples the placeholder tracking-error CDF
        ("error_cdf", "no_such_cdf.csv", "simulation.error_cdf:"),
        ("error_cdf", "zero", "simulation.error_cdf: unknown key"),
        ("ufls_enabled", "no", "simulation.ufls_enabled: expected bool"),
        ("reserve_fraction", -0.5, "simulation.reserve_fraction: -0.5 is not non-negative"),
    ])
    def test_simulation_value_exits_2_under_validate_and_run(self, capsys, tmp_path,
                                                             key, value, naming):
        both_exit_2(capsys, tmp_path, naming,
                    grid=with_key(bundled_grid(), ("simulation",), key, value))

    @pytest.mark.parametrize("key, value, naming", [
        ("base_mva", 0, "grid.base_mva: 0.0 is not positive"),
        ("f0", -60, "grid.f0: -60.0 is not positive")])
    def test_system_value_exits_2_under_validate_and_run(self, capsys, tmp_path,
                                                         key, value, naming):
        both_exit_2(capsys, tmp_path, naming, grid=with_key(bundled_grid(), (), key, value))

    def test_unknown_line_key_beside_x_rejected(self):
        doc = two_bus_doc()
        doc["lines"][0]["X"] = 0.1
        with pytest.raises(GridConfigError, match=r"grid\.lines\[0\]\.X: unknown key"):
            gf.load_grid_config(doc)

    def test_misspelled_bus_key_rejected(self):
        """A bus written ``load_MW`` used to load as a bus without load."""
        doc = four_bus_doc()
        doc["buses"][3] = {"id": 4, "load_MW": 300.0}
        with pytest.raises(GridConfigError, match=r"grid\.buses\[3\]\.load_MW: unknown key"):
            gf.load_grid_config(doc)

    def test_line_with_both_b_and_x_rejected(self):
        """A line states its reactance ``x``; ``b`` is not a line key."""
        doc = two_bus_doc()
        doc["lines"][0]["b"] = 12.5
        with pytest.raises(GridConfigError, match=r"grid\.lines\[0\]\.b: unknown key"):
            gf.load_grid_config(doc)

    @pytest.mark.parametrize("generators, naming", [
        ([], r"grid\.generators: needs units with distinct ids: \[\]"),
        ([{"id": "G1", "bus": 1, "type": "thermal", "rating_mva": 500.0},
          {"id": "G1", "bus": 2, "type": "hydro", "rating_mva": 500.0}],
         r"grid\.generators: needs units with distinct ids: \['G1', 'G1'\]")])
    def test_fleet_without_units_or_with_a_repeated_id_rejected(self, generators, naming):
        with pytest.raises(GridConfigError, match=naming):
            gf.load_grid_config({**two_bus_doc(), "generators": generators})

    @pytest.mark.parametrize("key, value", [("damping", math.nan), ("droop", math.inf),
                                            ("ufls_enabled", 1)])
    def test_sim_params_from_python_checked(self, key, value):
        with pytest.raises(GridConfigError, match=rf"simulation\.{key}"):
            SimParams(**{key: value})


class TestScenarioHoles:
    def test_output_step_not_dividing_the_horizon_exits_2(self, capsys, tmp_path):
        """The record stopped at the last whole output step: at 0.15 s on a
        1-s horizon the run ended its record at 0.9 s without a word."""
        both_exit_2(capsys, tmp_path, "scenario.output_dt_s: 0.15 does not divide",
                    scenario={**SCENARIO, "output_dt_s": 0.15})

    @pytest.mark.parametrize("out", [0, -0.1])
    def test_nonpositive_output_step_exits_2(self, capsys, tmp_path, out):
        """It read as "not a whole multiple of dt_s"."""
        both_exit_2(capsys, tmp_path,
                    f"scenario.output_dt_s: {float(out)!r} is not positive and finite",
                    scenario={**SCENARIO, "output_dt_s": out})


FIRST_BUS = "  - {id: 1, load_mw: 97.6, dispatched: true}\n"


def line_of(text: str, marker: str) -> int:
    return text[:text.index(marker)].count("\n") + 1


@pytest.fixture(params=["CSafeLoader", "SafeLoader"])
def yaml_base(request, monkeypatch):
    """The input reader on libyaml, and on PyYAML's own parser."""
    base = getattr(yaml, request.param, None)
    if base is None:
        pytest.skip(f"this PyYAML has no {request.param}")
    monkeypatch.setattr(schema, "_Loader", type("_Loader", (schema._NoRepeatedKeys, base), {}))


class TestYamlStream:
    """Inputs are parsed from the open file: an error names the file, and
    a file that is not UTF-8 is a validation error, not a traceback."""

    def test_repeated_key_names_the_file(self, capsys, tmp_path, yaml_base):
        text = yaml.safe_dump(SCENARIO) + "seed: 7\n"
        both_exit_2(capsys, tmp_path, f"scenario: while constructing a mapping\n"
                                      f"  in \"{tmp_path / 'sc.yaml'}\", line 1, column 1",
                    scenario=text)

    @pytest.mark.parametrize("name", ["grid.yaml", "sc.yaml"])
    def test_file_that_is_not_utf8_exits_2(self, capsys, tmp_path, yaml_base, name):
        latin1 = yaml.safe_dump(SCENARIO).replace("name: one", "name: caf\u00e9").encode("latin-1")
        both_exit_2(capsys, tmp_path, f"\n  in \"{tmp_path / name}\", position ",
                    **{"grid" if name == "grid.yaml" else "scenario": latin1})


class TestRepeatedKeys:
    """PyYAML keeps the last of two equal keys: a scenario giving ``seed``
    twice ran as its second seed, and ``validate`` printed ok."""

    @pytest.mark.parametrize("grid, scenario, key, marker", [
        (GRID_TEXT, yaml.safe_dump(SCENARIO) + "seed: 7\n", "seed", "seed: 7"),
        # simulation is the grid file's last section
        (GRID_TEXT + "  load_scale: 1.0\n", None, "load_scale", "  load_scale: 1.0\n"),
        (GRID_TEXT.replace(FIRST_BUS, FIRST_BUS[:-2] + ", load_mw: 50}\n"), None,
         "load_mw", "load_mw: 50")], ids=["scenario", "simulation", "bus"])
    def test_repeated_key_exits_2_under_validate_and_run(self, capsys, tmp_path,
                                                         grid, scenario, key, marker):
        text = scenario or grid
        assert text.count(f"{key}:") >= 2 and marker in text
        path = tmp_path / ("sc.yaml" if scenario else "grid.yaml")
        both_exit_2(capsys, tmp_path,
                    f"found duplicate key {key!r}\n  in \"{path}\", "
                    f"line {line_of(text, marker)}, column ",
                    grid=grid, scenario=scenario)

    @pytest.mark.parametrize("name", ["ieee39.yaml", "s1a.yaml", "s1b.yaml",
                                      "s2a.yaml", "s2b.yaml"])
    def test_bundled_files_read_as_safe_load_reads_them(self, name):
        path = Path(str(files("gridfreq.data").joinpath(name)))
        assert read_yaml(path, name, ScenarioError) == yaml.safe_load(path.read_text())

    def test_merged_keys_are_not_repeated_keys(self, tmp_path):
        text = "base: &b {case: A, seed: 1}\nrun:\n  <<: *b\n  seed: 2\n"
        (tmp_path / "m.yaml").write_text(text)
        assert read_yaml(tmp_path / "m.yaml", "m", ScenarioError) == yaml.safe_load(text)


class TestAllUnitsTripped:
    @pytest.fixture
    def factors(self, monkeypatch):
        """The matrices the engine factors, in order."""
        factors = []
        monkeypatch.setattr(engine, "spla", SimpleNamespace(
            splu=lambda b: factors.append(b) or InverseFactor(b)))
        return factors

    @staticmethod
    def trip_state(st):
        """What a trip changes; the factor compares by identity."""
        return [st.online.tobytes(), st.p_mech.tobytes(), st.p_elec.tobytes(),
                st._b_aug_lu]

    def test_trip_of_the_last_unit_raises(self, factors, two_bus, four_bus, ieee39):
        """Each unit in turn: no error until the last trip, which raises
        even where the inversion alone would not (IEEE-39's bare Laplacian
        inverts to entries of about 1e13).  The failed trip changes no
        state, so the next step still balances; each trip that succeeds
        factors the network once."""
        for model, trips in ((two_bus, ["G1"]), (four_bus, ["G1", "G2"]),
                             (ieee39, [g.id for g in ieee39.generators])):
            params = SimParams.from_model(model, **FLAT)
            sc = Scenario(name="x", case="A", duration_s=2.0)
            factors.clear()
            st = init_system(model, [sc], params, [build_profiles(model, sc, params)])
            for g in trips[:-1]:
                apply_contingency(st, ContingencyEvent(0.0, g), [0])
            assert len(factors) == len(trips)
            before = self.trip_state(st)
            with pytest.raises(IslandingError, match="network solve singular"):
                apply_contingency(st, ContingencyEvent(0.0, trips[-1]), [0])
            assert self.trip_state(st) == before and len(factors) == len(trips)
            assert step_system(st)["balance_mw"] < 1e-9

    def test_a_failed_trip_in_one_member_changes_no_member(self, factors, four_bus):
        """Two members, G1 tripped in member 0 only: a G2 trip there would
        leave member 0 no unit, so it raises and changes neither member;
        the same trip in member 1 then succeeds.  Each trip that succeeds
        factors the networks once."""
        params = SimParams.from_model(four_bus, **FLAT)
        scs = [Scenario(name=c, case=c, duration_s=2.0) for c in "AB"]
        st = init_system(four_bus, scs, params,
                         [build_profiles(four_bus, sc, params) for sc in scs])
        apply_contingency(st, ContingencyEvent(0.0, "G1"), [0])
        before = self.trip_state(st)
        with pytest.raises(IslandingError, match="no unit online"):
            apply_contingency(st, ContingencyEvent(0.0, "G2"), [0])
        assert self.trip_state(st) == before and len(factors) == 2
        apply_contingency(st, ContingencyEvent(0.0, "G2"), [1])
        assert st.online.tolist() == [False, True, True, False] and len(factors) == 3
        assert step_system(st)["balance_mw"] < 1e-9

    @pytest.mark.parametrize("doc, trips", [(two_bus_doc(), ["G1"]),
                                            (four_bus_doc(), ["G1", "G2"])])
    def test_schedule_tripping_every_unit_exits_2(self, capsys, tmp_path, doc, trips):
        with pytest.raises(ScenarioError, match="trips every generator"):
            Scenario(name="x", case="A", duration_s=2.0, events=tuple(
                ContingencyEvent(1.0, g) for g in trips)).validate_against(
                    gf.load_grid_config(doc))
        sc = {"name": "all", "case": "A", "duration_s": 2.0,
              "events": [{"time_s": 1.0, "generator": g} for g in trips]}
        both_exit_2(capsys, tmp_path, "scenario.events: the schedule trips every",
                    grid=doc, scenario=sc)


class TestResidual:
    @pytest.mark.parametrize("k", [0, 7])
    def test_bad_solve_in_any_member_at_any_step_is_caught(self, four_bus, k):
        """Member 1's angles from the first solve of step ``k`` are off by
        1e-3 rad: that step's residual, and member 1's worst, show it."""
        params = SimParams.from_model(four_bus)
        scs = [Scenario(name=c, case=c, duration_s=1.0, seed=3) for c in "AB"]
        st = init_system(four_bus, scs, params,
                         [build_profiles(four_bus, sc, params) for sc in scs])
        lu, calls = st._b_aug_lu, []

        class Perturbed:
            def solve(self, rhs):
                theta = lu.solve(rhs)
                calls.append(rhs)
                if len(calls) == 4 * k + 1:         # four solves per step
                    theta[1] += 1e-3
                return theta

        st._b_aug_lu = Perturbed()
        for _ in range(k + 1):
            rec = step_system(st)
        assert rec["residual"] > 1e-3
        assert st.max_residual[1] > 1e-3 and st.max_residual[0] < 1e-9


class TestCompare:
    @pytest.mark.parametrize("change, naming", [
        ({"r_ls": "x"}, "metrics.r_ls: expected Real"),
        ({"events": [{"trigger_s": 1.0, "clear_s": 2.0, "max_level": 0.1, "foo": 1}]},
         "metrics.events[0].foo: unknown key")])
    def test_malformed_metrics_exit_2(self, capsys, tmp_path, change, naming):
        good = {"r_ls": 0.05, "t_ls_s": 56.7, "eens_mwh": 5.15, "case": "A"}
        pa, pb = tmp_path / "a.json", tmp_path / "b.json"
        pa.write_text(json.dumps(good))
        pb.write_text(json.dumps({**good, **change}))
        assert main(["compare", str(pa), str(pa)]) == EXIT_OK
        assert main(["compare", str(pa), str(pb)]) == EXIT_VALIDATION
        assert naming in capsys.readouterr().err


# ---------------------------------------------------------------------------
# property gate
# ---------------------------------------------------------------------------

def sites(doc: dict, path: tuple = ()):
    """(path, key) of every key of ``doc`` and of the mappings within it."""
    for key, value in doc.items():
        yield path, key
        if isinstance(value, dict):
            yield from sites(value, path + (key,))
        elif isinstance(value, list):
            for i, item in enumerate(value):
                if isinstance(item, dict):
                    yield from sites(item, path + (key, i))


DOCS = {"grid": bundled_grid(), "scenario": SCENARIO}
SITES = {name: list(sites(doc)) for name, doc in DOCS.items()}
MUTATIONS = ("drop", "rename", "retype", 0, -1, math.nan, math.inf, "x")


def mutated(doc: dict, path: tuple, key, how) -> dict:
    doc = copy.deepcopy(doc)
    parent = doc
    for p in path:
        parent = parent[p]
    if how == "drop":
        del parent[key]
    elif how == "rename":
        parent[f"{key}_x"] = parent.pop(key)
    elif how == "retype":
        parent[key] = [parent[key]] if isinstance(parent[key], str) else str(parent[key])
    else:
        parent[key] = how
    return doc


def blamed(name: str, path: tuple, key, how) -> list[str]:
    """What the message must name: the section with its index, and the key
    (or its new name), or for a value that another entry refers to, the
    referring key."""
    if name == "grid" and path[:1] == ("generators",) and key == "id" and how == "x" \
            and DOCS["grid"]["generators"][path[1]]["id"] == TRIPPED:
        return ["events[0]", "generator"]
    if name == "grid" and path[:1] == ("buses",) and key == "wind_mw" and how == "drop" \
            and "load_mw" in DOCS["grid"]["buses"][path[1]]:
        return ["expected_wind_total_mw", "wind_mw"]
    section = (f"{path[-2]}[{path[-1]}]" if path and isinstance(path[-1], int)
               else path[-1] if path else name)
    return [section, f"{key}_x" if how == "rename" else key]


@strategies.composite
def mutations(draw):
    name = draw(strategies.sampled_from(sorted(DOCS)))
    path, key = draw(strategies.sampled_from(SITES[name]))
    return name, path, key, draw(strategies.sampled_from(MUTATIONS))


@settings(max_examples=100, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow])
@given(mutations())
def test_validate_and_run_accept_the_same_documents(capsys, mutation):
    """If ``validate`` exits 0, ``run`` exits 0 and writes metrics.json;
    otherwise both exit 2 and name the section and the key."""
    name, path, key, how = mutation
    capsys.readouterr()
    with tempfile.TemporaryDirectory() as tmp:
        where = Path(tmp)
        write_inputs(where, **{name: mutated(DOCS[name], path, key, how)})
        rc_validate, rc_run, err = validate_and_run(capsys, where)
        if rc_validate == EXIT_OK:
            assert rc_run == EXIT_OK, err
            assert list(where.rglob("metrics.json"))
        else:
            assert (rc_validate, rc_run) == (EXIT_VALIDATION, EXIT_VALIDATION), err
            for part in blamed(name, path, key, how):
                assert part in err, (mutation, err)
