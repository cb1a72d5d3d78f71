"""Reliability metrics against hand-computed oracles on synthetic
trajectories, plus serialization and comparison reporting."""

import json

import numpy as np
import pytest

from gridfreq.engine import Trajectory
from gridfreq.metrics import (CaseComparison, Metrics, MetricsError,
                              ShedEvent, compute_metrics,
                              export_results, format_comparison, load_metrics,
                              metrics_from_dict, metrics_to_dict)


def make_traj(times, expected, served, shed, dt_out=1.0):
    """Minimal synthetic trajectory; 1-D loads are one load bus, 2-D ones
    a column per load bus."""
    times = np.asarray(times, dtype=float)
    n = len(times)
    expected = np.asarray(expected, dtype=float).reshape(n, -1)
    served = np.asarray(served, dtype=float).reshape(n, -1)
    shed = np.asarray(shed, dtype=float).reshape(n, -1)
    return Trajectory(
        scenario_name="synthetic", case="A", seed=0, dt_out=dt_out,
        bus_ids=[1], gen_ids=[], load_bus_ids=list(range(1, shed.shape[1] + 1)),
        wind_bus_ids=[],
        dispatched_bus_ids=[], times=times,
        bus_freq=np.full((n, 1), 60.0),
        gen_p_mech=np.zeros((n, 0)), gen_p_elec=np.zeros((n, 0)),
        gen_speed_dev=np.zeros((n, 0)), gen_online=np.zeros((n, 0)),
        load_expected_mw=expected, load_served_mw=served,
        shed_level=shed, wind_mw=np.zeros((n, 0)),
        battery_mw=np.zeros((n, 0)))


class TestComputeMetrics:
    def test_rectangular_shed_block_oracle(self):
        """100 MW expected, 20% shed for 10 of 20 seconds:
        EENS = 20 MW * 10 s = 200 MWs = 0.0555.. MWh."""
        t = np.arange(21.0)
        expected = np.full(21, 100.0)
        shed = np.where((t >= 5) & (t < 15), 0.2, 0.0)
        served = expected * (1 - shed)
        m = compute_metrics(make_traj(t, expected, served, shed))
        assert m.r_ls == pytest.approx(0.2, abs=1e-12)
        assert m.t_ls_s == pytest.approx(10.0, abs=1e-12)
        # trapezoid over the discrete block includes the two half-step
        # ramps at the edges: integral = 20 MW * 10 s exactly here
        want = np.trapezoid(expected - served, t) / 3600.0
        assert m.eens_mwh == pytest.approx(want, rel=1e-12)

    def test_eens_matches_trapezoid_oracle_random(self):
        rng = np.random.default_rng(2)
        t = np.arange(50.0)
        expected = rng.uniform(80.0, 120.0, size=50)
        shed = rng.choice([0.0, 0.05, 0.15], size=50)
        served = expected * (1 - shed)
        m = compute_metrics(make_traj(t, expected, served, shed))
        want = np.trapezoid(expected - served, t) / 3600.0
        assert m.eens_mwh == pytest.approx(want, rel=1e-12)
        assert m.r_ls == pytest.approx(shed.max(), rel=1e-12)
        assert m.t_ls_s == pytest.approx(np.count_nonzero(shed) * 1.0)

    def test_eens_additivity_under_split(self):
        """EENS over [0,T] equals the sum over [0,s] and [s,T] when the
        split lands on a sample."""
        rng = np.random.default_rng(5)
        t = np.arange(40.0)
        expected = np.full(40, 200.0)
        shed = rng.choice([0.0, 0.25], size=40)
        served = expected * (1 - shed)
        whole = compute_metrics(make_traj(t, expected, served, shed)).eens_mwh
        for split in (10, 17, 30):
            left = compute_metrics(make_traj(
                t[:split + 1], expected[:split + 1], served[:split + 1],
                shed[:split + 1])).eens_mwh
            right = compute_metrics(make_traj(
                t[split:], expected[split:], served[split:],
                shed[split:])).eens_mwh
            assert left + right == pytest.approx(whole, rel=1e-12)

    def test_event_extraction(self):
        t = np.arange(30.0)
        expected = np.full(30, 100.0)
        shed = np.zeros(30)
        shed[3:8] = 0.05
        shed[15:20] = 0.15
        served = expected * (1 - shed)
        m = compute_metrics(make_traj(t, expected, served, shed))
        assert len(m.events) == 2
        assert m.events[0].trigger_s == 3.0
        assert m.events[0].clear_s == 8.0
        assert m.events[0].max_level == 0.05
        assert m.events[1].max_level == 0.15
        assert m.events[1].duration_s == pytest.approx(5.0)

        # on two load buses: a burst from record 0, a one-record event, and
        # an event that bus 1 triggers and bus 2 deepens
        shed = np.zeros((30, 2))
        shed[0:3, 0] = 0.05
        shed[10, 1] = 0.1
        shed[15:21, 0] = 0.05
        shed[17:19, 1] = 0.15
        expected = np.full((30, 2), 50.0)
        m = compute_metrics(make_traj(t, expected, expected * (1 - shed), shed))
        assert m.events == (ShedEvent(0.0, 3.0, 0.05), ShedEvent(10.0, 11.0, 0.1),
                            ShedEvent(15.0, 21.0, 0.15))
        assert m.t_ls_s == 10.0

    def test_open_event_extends_to_horizon(self):
        t = np.arange(10.0)
        expected = np.full(10, 100.0)
        shed = np.zeros(10)
        shed[6:] = 0.05
        served = expected * (1 - shed)
        m = compute_metrics(make_traj(t, expected, served, shed))
        assert len(m.events) == 1
        assert m.events[0].clear_s == pytest.approx(10.0)

    def test_rejects_empty_or_nonpositive_load(self):
        with pytest.raises(MetricsError):
            compute_metrics(make_traj([0.0], [0.0], [0.0], [0.0]))


class TestMetricsValidation:
    def test_r_ls_range(self):
        with pytest.raises(MetricsError):
            Metrics(r_ls=0.7, t_ls_s=1.0, eens_mwh=1.0)
        with pytest.raises(MetricsError):
            Metrics(r_ls=-0.1, t_ls_s=1.0, eens_mwh=1.0)

    def test_negative_quantities(self):
        with pytest.raises(MetricsError):
            Metrics(r_ls=0.1, t_ls_s=-1.0, eens_mwh=1.0)


class TestComparison:
    def test_ratio_and_reductions(self):
        a = Metrics(r_ls=0.15, t_ls_s=100.0, eens_mwh=12.0, case="A")
        b = Metrics(r_ls=0.15, t_ls_s=30.0, eens_mwh=3.0, case="B")
        cmp = CaseComparison(a, b)
        assert cmp.eens_ratio == pytest.approx(4.0)
        assert cmp.t_ls_reduction_pct == pytest.approx(70.0)
        assert cmp.eens_reduction_pct == pytest.approx(75.0)

    def test_zero_denominators(self):
        a = Metrics(r_ls=0.0, t_ls_s=0.0, eens_mwh=0.0, case="A")
        b = Metrics(r_ls=0.0, t_ls_s=0.0, eens_mwh=0.0, case="B")
        cmp = CaseComparison(a, b)
        assert cmp.eens_ratio == float("inf")
        assert cmp.t_ls_reduction_pct == 0.0

    def test_format_smoke(self):
        a = Metrics(r_ls=0.05, t_ls_s=56.7, eens_mwh=5.15, case="A",
                    scenario="S1A")
        b = Metrics(r_ls=0.05, t_ls_s=44.0, eens_mwh=3.99, case="B",
                    scenario="S1B")
        text = format_comparison(CaseComparison(a, b))
        assert "EENS ratio a/b" in text
        assert "S1A" in text and "S1B" in text


class TestSerialization:
    def test_dict_roundtrip(self):
        m = Metrics(r_ls=0.15, t_ls_s=96.2, eens_mwh=16.72,
                    events=(ShedEvent(300.5, 396.7, 0.15),),
                    scenario="S2A", case="A", seed=1)
        assert metrics_from_dict(metrics_to_dict(m)) == m

    def test_missing_key_rejected(self):
        with pytest.raises(MetricsError, match="missing required key"):
            metrics_from_dict({"r_ls": 0.1, "t_ls_s": 1.0})

    def test_unknown_schema_version_rejected(self):
        d = metrics_to_dict(Metrics(r_ls=0.1, t_ls_s=1.0, eens_mwh=0.5))
        d["schema_version"] = 2
        with pytest.raises(MetricsError, match=r"metrics\.schema_version: 2 is not 1"):
            metrics_from_dict(d)
        del d["schema_version"]
        assert metrics_from_dict(d).eens_mwh == 0.5

    def test_load_metrics_bad_json(self, tmp_path):
        p = tmp_path / "m.json"
        p.write_text("{not json")
        with pytest.raises(MetricsError, match="not valid JSON"):
            load_metrics(p)

    def test_export_results_writes_three_files(self, tmp_path):
        t = np.arange(5.0)
        expected = np.full(5, 100.0)
        shed = np.zeros(5)
        tr = make_traj(t, expected, expected, shed)
        m = compute_metrics(tr)
        paths = export_results(tr, m, tmp_path / "out")
        assert all(p.exists() for p in paths)
        loaded = load_metrics(tmp_path / "out" / "metrics.json")
        assert loaded.eens_mwh == m.eens_mwh
        doc = json.loads((tmp_path / "out" / "metrics.json").read_text())
        assert doc["schema_version"] == 1
