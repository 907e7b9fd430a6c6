"""The profile runner and its CLI subcommand, end to end."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.cli import main
from repro.core.als import ALSConfig, train_als
from repro.datasets.planted import planted_problem
from repro.knobs import table as knob_table
from repro.obs.profiler import profile_training, render_report
from repro.obs.spans import capture


@pytest.fixture(scope="module")
def report():
    return profile_training("YMR4", device="gpu", scale=0.05, iterations=2, seed=3)


class TestProfileTraining:
    def test_report_shape(self, report):
        assert report.spec.abbr == "YMR4"
        assert report.scale == 0.05
        assert report.train_seconds > 0
        assert report.metrics["counters"]["als.iterations"] == 2
        assert report.sim_run is not None
        assert report.sim_queue is not None and report.sim_queue.events

    def test_stage_spans_present(self, report):
        names = {r.name for r in report.records}
        assert {"als.train", "als.half_sweep", "als.s1.gram",
                "als.s3.solve"} <= names
        # The binned assembly fuses S2 into the S1 gather: no S2 span.
        assert "als.s2.rhs" not in names
        assert all(r.attrs.get("rhs_fused") for r in report.records
                   if r.name == "als.s1.gram")

    def test_render(self, report):
        out = render_report(report)
        assert "Measured hotspot breakdown" in out
        assert "simulated on NVIDIA Tesla K20c" in out
        assert f"minor page faults: {report.train_minor_faults}" in out

    def test_train_span_carries_the_fits_minor_faults(self, report):
        (train,) = [r for r in report.records if r.name == "als.train"]
        assert isinstance(train.attrs["minor_faults"], int)
        assert train.attrs["minor_faults"] >= 0
        assert report.train_minor_faults == train.attrs["minor_faults"]

    def test_merged_trace_file(self, report, tmp_path):
        path = tmp_path / "trace.json"
        report.write_trace(path)
        events = json.loads(path.read_text())["traceEvents"]
        pids = {e["pid"] for e in events if e["ph"] == "X"}
        assert len(pids) == 2  # host + one simulated device
        cats = {e.get("cat") for e in events}
        assert "kernel" in cats and "host" in cats

    def test_metrics_file(self, report, tmp_path):
        path = tmp_path / "metrics.json"
        report.write_metrics(path)
        payload = json.loads(path.read_text())
        assert payload["meta"]["dataset"] == "YMR4"
        assert payload["meta"]["device"] == "NVIDIA Tesla K20c"
        # Every knob, with the value the run used and where it came from.
        knobs = payload["meta"]["knobs"]
        assert set(knobs) == {k.name for k in knob_table()}
        assert knobs["assembly_dtype"] == {"value": "float64", "source": "default"}
        assert all(
            set(entry) == {"value", "source"}
            and entry["source"] in {"argument", "configured", "env", "default"}
            for entry in knobs.values()
        )
        # One solver call per S3 solve group: at least one per half-sweep
        # (2 iterations x 2), plus a dual group per short-row width.
        s3_spans = sum(1 for r in report.records if r.attrs.get("stage") == "S3")
        assert s3_spans >= 4
        assert payload["metrics"]["counters"]["solver.lapack.calls"] == s3_spans

    def test_auto_scale_and_unknown_names(self):
        with pytest.raises(KeyError):
            profile_training("NOPE")
        with pytest.raises(ValueError, match="unknown algorithm"):
            profile_training("YMR4", algorithm="svd")


class TestCli:
    def test_profile_exits_zero_and_writes_artifacts(self, tmp_path, capsys):
        trace = tmp_path / "t.json"
        metrics = tmp_path / "m.json"
        code = main([
            "profile", "ML10M",
            "--scale", "0.002", "--iterations", "2",
            "--trace", str(trace), "--metrics", str(metrics),
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "S1 (+S2)" in out and "S3" in out
        assert trace.exists() and metrics.exists()
        payload = json.loads(trace.read_text())
        assert any(e["ph"] == "X" for e in payload["traceEvents"])

    def test_profile_with_device_has_sim_track(self, tmp_path):
        trace = tmp_path / "t.json"
        code = main([
            "profile", "YMR4", "--device", "gpu",
            "--scale", "0.05", "--iterations", "1", "--trace", str(trace),
        ])
        assert code == 0
        events = json.loads(trace.read_text())["traceEvents"]
        assert {e["pid"] for e in events if e["ph"] == "X"} == {1, 100}

    def test_profile_usage_errors(self, capsys):
        assert main(["profile"]) == 2
        assert main(["profile", "NOPE"]) == 2

    def test_experiment_metrics_dump(self, tmp_path, capsys):
        path = tmp_path / "fig8.json"
        assert main(["fig8", "--metrics", str(path)]) == 0
        payload = json.loads(path.read_text())
        assert payload["meta"]["experiment"] == "fig8"
        assert payload["meta"]["wall_seconds"] > 0
        assert "experiment.fig8" in payload["spans"]


class TestNoBehaviorChange:
    def test_instrumentation_does_not_change_results(self):
        """Factors are bit-identical with tracing on and off."""
        problem = planted_problem(m=50, n=40, rank=3, density=0.3, seed=8)
        config = ALSConfig(k=3, lam=0.05, iterations=3)
        plain = train_als(problem.ratings, config)
        with capture():
            traced_model = train_als(problem.ratings, config)
        np.testing.assert_array_equal(plain.X, traced_model.X)
        np.testing.assert_array_equal(plain.Y, traced_model.Y)
