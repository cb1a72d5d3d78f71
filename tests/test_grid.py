"""Network model validation and DC power-flow correctness.

The sparse DC solve is checked against an independent dense
numpy.linalg.solve oracle and against Kirchhoff balance at every bus.
"""

import math
import re

import numpy as np
import pytest

import gridfreq as gf
from gridfreq.grid import (GridConfigError, build_full_susceptance_matrix,
                           load_grid_config, solve_dc_flow)

from tests.conftest import four_bus_doc, two_bus_doc


# ---------------------------------------------------------------------------
# config validation
# ---------------------------------------------------------------------------

class TestConfigValidation:
    def test_two_bus_loads(self, two_bus):
        assert len(two_bus.buses) == 2
        assert len(two_bus.generators) == 1
        assert two_bus.generators[0].kind == "thermal"

    def test_line_x_is_inverted(self, two_bus):
        assert two_bus.lines[0].susceptance == pytest.approx(50.0)

    def test_line_b_taken_directly(self):
        doc = two_bus_doc()
        doc["lines"] = [{"from": 1, "to": 2, "b": 12.5}]
        assert load_grid_config(doc).lines[0].susceptance == 12.5

    def test_line_needs_b_or_x(self):
        doc = two_bus_doc()
        doc["lines"] = [{"from": 1, "to": 2}]
        with pytest.raises(GridConfigError, match="needs 'b' or 'x'"):
            load_grid_config(doc)

    def test_nonpositive_reactance_rejected(self):
        doc = two_bus_doc()
        doc["lines"] = [{"from": 1, "to": 2, "x": 0.0}]
        with pytest.raises(GridConfigError, match=r"lines\[0\]\.x: 0\.0 is not positive"):
            load_grid_config(doc)

    def test_duplicate_bus_ids_rejected(self):
        doc = two_bus_doc()
        doc["buses"].append({"id": 2, "load_mw": 10.0})
        with pytest.raises(GridConfigError, match="duplicate bus ids"):
            load_grid_config(doc)

    def test_dangling_line_endpoint_rejected(self):
        doc = two_bus_doc()
        doc["lines"].append({"from": 1, "to": 99, "x": 0.1})
        with pytest.raises(GridConfigError, match="dangling"):
            load_grid_config(doc)

    def test_disconnected_network_rejected(self):
        doc = four_bus_doc()
        doc["lines"] = [{"from": 1, "to": 3, "x": 0.02}]
        with pytest.raises(GridConfigError, match="connected"):
            load_grid_config(doc)

    def test_missing_slack_rejected(self):
        doc = two_bus_doc()
        doc["slack_bus"] = 7
        with pytest.raises(GridConfigError, match="slack"):
            load_grid_config(doc)

    def test_two_generators_on_one_bus_rejected(self):
        doc = two_bus_doc()
        doc["generators"].append(
            {"id": "G2", "bus": 1, "type": "hydro", "rating_mva": 100.0})
        with pytest.raises(GridConfigError, match="more than one generator"):
            load_grid_config(doc)

    def test_generator_on_missing_bus_rejected(self):
        doc = two_bus_doc()
        doc["generators"][0]["bus"] = 42
        with pytest.raises(GridConfigError, match="nonexistent"):
            load_grid_config(doc)

    def test_unknown_generator_kind_rejected(self):
        doc = two_bus_doc(kind="nuclear")
        with pytest.raises(GridConfigError,
                           match=r"generators\[0\]\.type: 'nuclear' is not thermal or hydro"):
            load_grid_config(doc)

    @pytest.mark.parametrize("section, key", [
        ("generators", "id"), ("generators", "bus"), ("generators", "type"),
        ("generators", "rating_mva"), ("buses", "id"), ("lines", "from"),
        ("lines", "to")])
    def test_entry_missing_required_key_rejected(self, section, key):
        doc = two_bus_doc()
        del doc[section][-1][key]
        where = f"{section}[{len(doc[section]) - 1}]"
        with pytest.raises(GridConfigError,
                           match=rf"{re.escape(where)}: missing required key '{key}'"):
            load_grid_config(doc)

    @pytest.mark.parametrize("section, entry", [
        ("generators", {"id": "G2", "bus": 2, "type": "hydro", "rating_mva": "big"}),
        ("buses", {"id": 3, "load_mw": [1.0]}),
        ("lines", ["1", "2", 0.1]),
        ("buses", None)])
    def test_malformed_entry_rejected(self, section, entry):
        doc = two_bus_doc()
        doc[section].append(entry)
        where = f"{section}[{len(doc[section]) - 1}]"
        with pytest.raises(GridConfigError, match=re.escape(where)):
            load_grid_config(doc)

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    @pytest.mark.parametrize("section, key", [("generators", "rating_mva"),
                                              ("buses", "load_mw"),
                                              ("lines", "x"), ("lines", "b")])
    def test_nonfinite_value_rejected(self, section, key, value):
        doc = two_bus_doc()
        entry = doc[section][-1]
        entry.pop("x", None)
        entry[key] = value
        with pytest.raises(GridConfigError, match="positive and finite"):
            load_grid_config(doc)

    def test_non_list_section_rejected(self):
        doc = two_bus_doc()
        doc["generators"] = 3
        with pytest.raises(GridConfigError, match=r"grid\.generators: expected a list"):
            load_grid_config(doc)

    def test_wind_total_checksum(self):
        doc = four_bus_doc()
        doc["expected_wind_total_mw"] = 200.0
        load_grid_config(doc)    # matches
        doc["expected_wind_total_mw"] = 250.0
        with pytest.raises(GridConfigError, match="wind ratings"):
            load_grid_config(doc)

    def test_dispatched_flag_needs_load_or_wind(self):
        doc = two_bus_doc()
        doc["buses"][0]["dispatched"] = True
        with pytest.raises(GridConfigError, match="dispatched"):
            load_grid_config(doc)

    def test_yaml_file_roundtrip(self, tmp_path):
        import yaml
        p = tmp_path / "grid.yaml"
        p.write_text(yaml.safe_dump(four_bus_doc()))
        model = load_grid_config(p)
        assert [b.id for b in model.buses] == [1, 2, 3, 4]


# ---------------------------------------------------------------------------
# susceptance matrix
# ---------------------------------------------------------------------------

class TestSusceptanceMatrix:
    def test_laplacian_row_sums_zero(self, four_bus):
        full = build_full_susceptance_matrix(four_bus).toarray()
        assert np.allclose(full.sum(axis=1), 0.0, atol=1e-12)
        assert np.allclose(full, full.T, atol=1e-12)

    def test_off_diagonals_are_negative_susceptances(self, two_bus):
        full = build_full_susceptance_matrix(two_bus).toarray()
        assert full[0, 1] == pytest.approx(-50.0)
        assert full[0, 0] == pytest.approx(50.0)


# ---------------------------------------------------------------------------
# DC flow vs dense oracle
# ---------------------------------------------------------------------------

def _dense_oracle_theta(model, injections_mw):
    """Independent dense solve of the reduced DC system."""
    full = build_full_susceptance_matrix(model).toarray()
    k = model.bus_pos[model.slack_bus]
    keep = [i for i in range(len(model.buses)) if i != k]
    b_red = full[np.ix_(keep, keep)]
    p = np.asarray(injections_mw) / model.base_mva
    theta_red = np.linalg.solve(b_red, p[keep])
    theta = np.zeros(len(model.buses))
    theta[keep] = theta_red
    return theta


class TestDcFlow:
    def test_matches_dense_oracle_four_bus(self, four_bus):
        rng = np.random.default_rng(7)
        for _ in range(20):
            inj = rng.normal(0.0, 200.0, size=4)
            inj[four_bus.bus_pos[four_bus.slack_bus]] = -inj.sum()
            theta = solve_dc_flow(four_bus, inj)
            assert np.allclose(theta, _dense_oracle_theta(four_bus, inj),
                               atol=1e-12)

    def test_matches_dense_oracle_ieee39(self, ieee39):
        rng = np.random.default_rng(11)
        n = len(ieee39.buses)
        inj = rng.normal(0.0, 100.0, size=n)
        inj[ieee39.bus_pos[ieee39.slack_bus]] = -inj.sum()
        theta = solve_dc_flow(ieee39, inj)
        assert np.allclose(theta, _dense_oracle_theta(ieee39, inj), atol=1e-10)

    def test_kirchhoff_balance_at_every_bus(self, ieee39):
        """Flows out of each non-slack bus equal its injection."""
        rng = np.random.default_rng(3)
        n = len(ieee39.buses)
        inj = rng.normal(0.0, 100.0, size=n)
        k = ieee39.bus_pos[ieee39.slack_bus]
        inj[k] = -np.delete(inj, k).sum()
        theta = solve_dc_flow(ieee39, inj)
        idx = {b.id: i for i, b in enumerate(ieee39.buses)}
        net = np.zeros(n)
        for ln in ieee39.lines:
            i, j = idx[ln.from_bus], idx[ln.to_bus]
            f = ln.susceptance * (theta[i] - theta[j]) * ieee39.base_mva
            net[i] += f
            net[j] -= f
        assert np.allclose(net, inj, atol=1e-8)

    def test_slack_angle_is_zero(self, four_bus):
        inj = np.array([100.0, 50.0, -90.0, -60.0])
        theta = solve_dc_flow(four_bus, inj)
        assert theta[four_bus.bus_pos[four_bus.slack_bus]] == 0.0

    def test_zero_injection_gives_flat_angles(self, four_bus):
        theta = solve_dc_flow(four_bus, np.zeros(4))
        assert np.allclose(theta, 0.0, atol=1e-14)

    def test_two_bus_flow_closed_form(self, two_bus):
        """P = b (theta_i - theta_j): single-line case solved by hand."""
        inj = np.array([120.0, -120.0])
        theta = solve_dc_flow(two_bus, inj)
        # theta at bus 2: -P/b in p.u. -> -1.2/50 rad
        assert theta[1] == pytest.approx(-1.2 / 50.0, rel=1e-12)
        ln = two_bus.lines[0]
        flow = ln.susceptance * (theta[0] - theta[1]) * two_bus.base_mva
        assert flow == pytest.approx(120.0, rel=1e-12)


class TestIeee39Data:
    def test_counts(self, ieee39):
        assert len(ieee39.buses) == 39
        assert len(ieee39.generators) == 10
        assert len(ieee39.wind_buses) == 4

    def test_ratings(self, ieee39):
        ratings = {g.id: g.rating_mva for g in ieee39.generators}
        assert ratings["G1"] == 3000.0
        assert ratings["G5"] == 520.0
        assert sum(1 for g in ieee39.generators if g.kind == "hydro") == 9

    def test_wind_farms(self, ieee39):
        wind = {b.id: b.wind_mw for b in ieee39.wind_buses}
        assert wind == {2: 300.0, 21: 150.0, 8: 400.0, 11: 500.0}

    def test_every_load_and_wind_bus_is_dispatched(self, ieee39):
        for b in ieee39.buses:
            if b.load_mw is not None or b.wind_mw is not None:
                assert b.dispatched
