"""Command-line interface: subcommands, exit codes, file outputs."""

import json
import os

import pytest
import yaml

from gridfreq import engine, grid, metrics
from gridfreq.cli import EXIT_OK, EXIT_RUNTIME, EXIT_VALIDATION, main

from tests.conftest import FLAT, four_bus_doc


@pytest.fixture
def grid_file(tmp_path):
    p = tmp_path / "grid.yaml"
    doc = four_bus_doc()
    doc["simulation"] = dict(FLAT)
    p.write_text(yaml.safe_dump(doc))
    return p


@pytest.fixture
def scenario_file(tmp_path):
    p = tmp_path / "sc.yaml"
    p.write_text(yaml.safe_dump({
        "name": "tiny", "case": "A", "duration_s": 5, "dt_s": 0.01,
        "seed": 3, "events": [{"time_s": 2, "generator": "G2"}]}))
    return p


class TestValidate:
    def test_ok(self, capsys, grid_file, scenario_file):
        rc = main(["validate", "--grid", str(grid_file),
                   "--scenario", str(scenario_file)])
        assert rc == EXIT_OK
        out = capsys.readouterr().out
        assert "grid ok" in out and "scenario ok" in out

    def test_bundled_grid_by_name(self, capsys):
        assert main(["validate", "--grid", "ieee39"]) == EXIT_OK
        assert "39 buses" in capsys.readouterr().out

    def test_bad_grid_exits_2(self, tmp_path, capsys):
        p = tmp_path / "bad.yaml"
        p.write_text("buses: []\n")
        assert main(["validate", "--grid", str(p)]) == EXIT_VALIDATION
        assert "error" in capsys.readouterr().err

    def test_machine_parameter_on_generator_exits_2(self, tmp_path, capsys):
        """A bundled-grid copy with a governor gain on hydro unit G2 fails
        validation, as it fails a run, with the validation exit code."""
        from importlib.resources import files
        doc = yaml.safe_load(files("gridfreq.data").joinpath("ieee39.yaml").read_text())
        next(g for g in doc["generators"] if g["id"] == "G2")["kd"] = 0.5
        p = tmp_path / "grid.yaml"
        p.write_text(yaml.safe_dump(doc))
        assert main(["validate", "--grid", str(p)]) == EXIT_VALIDATION
        assert "generators[1].kd: unknown key" in capsys.readouterr().err

    def test_removed_simulation_key_exits_2(self, tmp_path, capsys):
        doc = four_bus_doc()
        doc["simulation"] = {"coupling_x": 0.3}
        p = tmp_path / "grid.yaml"
        p.write_text(yaml.safe_dump(doc))
        assert main(["validate", "--grid", str(p)]) == EXIT_VALIDATION
        assert "coupling_x" in capsys.readouterr().err

    def test_generator_without_rating_exits_2(self, tmp_path, capsys):
        doc = four_bus_doc()
        del doc["generators"][1]["rating_mva"]
        p = tmp_path / "grid.yaml"
        p.write_text(yaml.safe_dump(doc))
        assert main(["validate", "--grid", str(p)]) == EXIT_VALIDATION
        assert "rating_mva" in capsys.readouterr().err

    def test_negative_seed_exits_2(self, grid_file, scenario_file, capsys):
        assert main(["validate", "--grid", str(grid_file),
                     "--scenario", str(scenario_file)]) == EXIT_OK
        doc = yaml.safe_load(scenario_file.read_text())
        scenario_file.write_text(yaml.safe_dump(dict(doc, seed=-1)))
        assert main(["validate", "--grid", str(grid_file),
                     "--scenario", str(scenario_file)]) == EXIT_VALIDATION
        assert "seed" in capsys.readouterr().err

    def test_bad_scenario_exits_2(self, grid_file, tmp_path, capsys):
        p = tmp_path / "sc.yaml"
        p.write_text(yaml.safe_dump({"name": "x", "case": "A", "events": [
            {"time_s": 1, "generator": "NOPE"}]}))
        assert main(["validate", "--grid", str(grid_file),
                     "--scenario", str(p)]) == EXIT_VALIDATION


class TestRun:
    def test_run_writes_results_and_summary(self, grid_file, scenario_file,
                                            tmp_path, capsys):
        out = tmp_path / "results"
        rc = main(["run", "--grid", str(grid_file),
                   "--scenario", str(scenario_file), "--out", str(out)])
        assert rc == EXIT_OK
        assert (out / "summary.txt").exists()
        assert (out / "tiny" / "metrics.json").exists()
        assert (out / "tiny" / "trajectory.csv").exists()
        assert "tiny" in capsys.readouterr().out

    def test_run_via_manifest_with_seed(self, grid_file, scenario_file,
                                        tmp_path):
        manifest = tmp_path / "manifest.yaml"
        out = tmp_path / "mout"
        manifest.write_text(yaml.safe_dump({
            "grid": str(grid_file), "scenarios": [scenario_file.name],
            "output_dir": str(out), "seed": 9}))
        assert main(["run", "--manifest", str(manifest)]) == EXIT_OK
        doc = json.loads((out / "tiny" / "metrics.json").read_text())
        assert doc["seed"] == 9

    @pytest.mark.parametrize("flag, value", [("--seed", "5"),
                                             ("--scenario", "other.yaml"),
                                             ("--grid", "grid.yaml")])
    def test_manifest_rejects_flags_it_would_ignore(self, grid_file,
                                                    scenario_file, tmp_path,
                                                    capsys, flag, value):
        manifest = tmp_path / "manifest.yaml"
        manifest.write_text(yaml.safe_dump({
            "grid": str(grid_file), "scenarios": [scenario_file.name],
            "output_dir": str(tmp_path / "mout")}))
        rc = main(["run", "--manifest", str(manifest), flag, value])
        assert rc == EXIT_VALIDATION
        assert flag in capsys.readouterr().err
        assert not (tmp_path / "mout").exists()

    def test_one_batch_per_schedule(self, scenario_file, tmp_path, monkeypatch):
        """An A/B pair with one trip runs as one batch and a scenario with
        another trip as a second; every export is byte-equal to its solo
        run's, and the summary keeps the input order."""
        grid_path = tmp_path / "noisy.yaml"
        grid_path.write_text(yaml.safe_dump(four_bus_doc()))
        doc = yaml.safe_load(scenario_file.read_text())
        paths = [scenario_file]
        for name, changes in (("other", {"events": [{"time_s": 3, "generator": "G2"}]}),
                              ("tiny_b", {"case": "B", "seed": 4})):
            paths.append(tmp_path / f"{name}.yaml")
            paths[-1].write_text(yaml.safe_dump({**doc, "name": name, **changes}))
        model = grid.load_grid_config(str(grid_path))
        solo = tmp_path / "solo"
        for p in paths:
            sc = engine.load_scenario(str(p))
            tr = engine.run_scenario(model, sc)
            metrics.export_results(tr, metrics.compute_metrics(tr), solo / sc.name)

        sizes = []
        run_ensemble = engine.run_ensemble

        def recording(model, scenarios, *rest):
            sizes.append(len(scenarios))
            return run_ensemble(model, scenarios, *rest)

        monkeypatch.setattr(engine, "run_ensemble", recording)
        out = tmp_path / "results"
        rc = main(["run", "--grid", str(grid_path), "--out", str(out),
                   *(arg for p in paths for arg in ("--scenario", str(p)))])
        assert rc == EXIT_OK
        assert sizes == [2, 1]
        for name in ("tiny", "other", "tiny_b"):
            for f in ("trajectory.csv", "metrics.json"):
                assert (out / name / f).read_bytes() == (solo / name / f).read_bytes()
        rows = (out / "summary.txt").read_text().splitlines()[1:]
        assert [row.split()[0] for row in rows] == ["tiny", "other", "tiny_b"]

    @pytest.mark.parametrize("removed, named", [
        pytest.param(["run", "--jobs", "0"], "--jobs", id="0"),
        pytest.param(["run", "--jobs", "-1"], "--jobs", id="-1"),
        pytest.param(["synth-profiles", "--minutes", "2"], "synth-profiles",
                     id="synth-profiles"),
    ])
    def test_jobs_below_one_exits_2(self, grid_file, scenario_file, tmp_path,
                                    capsys, removed, named):
        """Removed interfaces are argparse errors that name themselves and
        write nothing: run's --jobs option, whatever its value (the manifest
        key is a row of test_schema), and the synth-profiles command."""
        out = tmp_path / "results"
        rest = {"run": ["--grid", str(grid_file), "--scenario", str(scenario_file),
                        "--out", str(out)],
                "synth-profiles": ["--output", str(out)]}
        with pytest.raises(SystemExit) as exc:
            main([*removed, *rest[removed[0]]])
        assert exc.value.code == EXIT_VALIDATION
        assert named in capsys.readouterr().err
        assert not out.exists()

    def test_out_naming_a_file_exits_1(self, grid_file, scenario_file, tmp_path,
                                       monkeypatch, capsys):
        """The output directory is made before any scenario runs; an
        exception would reach the test instead of an exit code."""
        def never(*args):
            raise AssertionError("a scenario ran")

        monkeypatch.setattr(engine, "run_ensemble", never)
        afile = tmp_path / "afile"
        afile.write_text("kept\n")
        rc = main(["run", "--grid", str(grid_file), "--scenario", str(scenario_file),
                   "--out", str(afile)])
        assert rc == EXIT_RUNTIME
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(afile) in err
        assert afile.read_text() == "kept\n"

    def test_scenario_directory_naming_a_file_exits_1(self, grid_file, scenario_file,
                                                      tmp_path, monkeypatch, capsys):
        """Every scenario's directory is checked before the first batch runs,
        so a scenario path that is a file fails before any compute, and no
        other scenario's directory is made."""
        calls = []

        def failing(*args):
            calls.append(args)
            raise RuntimeError("a batch started")

        monkeypatch.setattr(engine, "run_ensemble", failing)
        first = tmp_path / "first.yaml"
        first.write_text(yaml.safe_dump(dict(yaml.safe_load(scenario_file.read_text()),
                                             name="first")))
        out = tmp_path / "results"
        out.mkdir()
        (out / "tiny").write_text("kept\n")
        rc = main(["run", "--grid", str(grid_file), "--scenario", str(first),
                   "--scenario", str(scenario_file), "--out", str(out)])
        assert rc == EXIT_RUNTIME
        assert calls == []
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith("error: ") and str(out / "tiny") in err[0]
        assert (out / "tiny").read_text() == "kept\n"
        assert sorted(out.iterdir()) == [out / "tiny"]

    def test_repeated_scenario_name_exits_2(self, grid_file, scenario_file,
                                            tmp_path, capsys):
        """Two scenarios named alike would write one output directory."""
        twin = tmp_path / "twin.yaml"
        twin.write_text(yaml.safe_dump(dict(yaml.safe_load(scenario_file.read_text()),
                                            seed=4)))
        out = tmp_path / "results"
        rc = main(["run", "--grid", str(grid_file), "--scenario", str(scenario_file),
                   "--scenario", str(twin), "--out", str(out)])
        assert rc == EXIT_VALIDATION
        assert "tiny" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("name", ["../escaped", "a/b", "..", ".", ""],
                             ids=["parent-dir", "two-parts", "dot-dot", "dot", "empty"])
    def test_name_that_is_not_one_path_component_exits_2(self, grid_file, scenario_file,
                                                         tmp_path, capsys, name):
        """A scenario writes into the directory of its name, so the name must
        stay inside --out."""
        doc = yaml.safe_load(scenario_file.read_text())
        scenario_file.write_text(yaml.safe_dump(dict(doc, name=name)))
        out = tmp_path / "results"
        for args in (["validate"], ["run", "--out", str(out)]):
            rc = main([*args, "--grid", str(grid_file), "--scenario", str(scenario_file)])
            assert rc == EXIT_VALIDATION
            assert "scenario.name" in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["grid.yaml", "sc.yaml"]

    def test_manifest_paths_relative_to_the_manifest(self, grid_file, scenario_file,
                                                      tmp_path, monkeypatch):
        """grid, scenarios and output_dir are read beside the manifest, not
        in the working directory; an absolute path is kept."""
        manifest = tmp_path / "manifest.yaml"
        manifest.write_text(yaml.safe_dump({
            "grid": grid_file.name, "scenarios": [str(scenario_file)],
            "output_dir": "mout"}))
        elsewhere = tmp_path / "elsewhere"
        elsewhere.mkdir()
        monkeypatch.chdir(elsewhere)
        assert main(["run", "--manifest", os.path.relpath(manifest)]) == EXIT_OK
        assert (tmp_path / "mout" / "tiny" / "metrics.json").exists()
        assert not list(elsewhere.iterdir())

    def test_run_without_scenarios_exits_2(self, capsys):
        assert main(["run"]) == EXIT_VALIDATION
        assert "no scenarios" in capsys.readouterr().err


class TestCompare:
    def test_compare(self, tmp_path, capsys):
        a = {"r_ls": 0.05, "t_ls_s": 56.7, "eens_mwh": 5.15, "case": "A",
             "scenario": "S1A"}
        b = {"r_ls": 0.05, "t_ls_s": 44.0, "eens_mwh": 3.99, "case": "B",
             "scenario": "S1B"}
        pa, pb = tmp_path / "a.json", tmp_path / "b.json"
        pa.write_text(json.dumps(a))
        pb.write_text(json.dumps(b))
        assert main(["compare", str(pa), str(pb)]) == EXIT_OK
        assert "EENS ratio" in capsys.readouterr().out

    def test_compare_bad_file_exits_2(self, tmp_path, capsys):
        p = tmp_path / "bad.json"
        p.write_text("nope")
        assert main(["compare", str(p), str(p)]) == EXIT_VALIDATION
