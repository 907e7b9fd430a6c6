"""Tests for the experiment-grid harness (config, execution, export, CLI)."""

from __future__ import annotations

import ast
import json
import signal
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from repro.bench import grid
from repro.bench.grid import (
    GridError,
    expand_config,
    export_markdown,
    export_records,
    load_config,
    run_grid,
    run_single_cell,
)
from repro.bench.store import ResultsStore

SRC = Path(__file__).resolve().parents[2] / "src"


# ----------------------------------------------------------------------
# configs
# ----------------------------------------------------------------------

def test_expand_config_cartesian_product():
    cells = expand_config({
        "name": "g",
        "experiments": [
            {"benchmark": "b", "params": {"k": [8, 16], "scale": [0.5, 1.0]},
             "fixed": {"quick": True}},
        ],
    })
    assert len(cells) == 4
    assert all(name == "b" and params["quick"] for name, params in cells)
    assert {(p["k"], p["scale"]) for _, p in cells} == {
        (8, 0.5), (8, 1.0), (16, 0.5), (16, 1.0),
    }


def test_expand_config_dedups_and_validates():
    cells = expand_config({
        "name": "g",
        "experiments": [
            {"benchmark": "b", "params": {"k": [8, 8]}},  # duplicate axis value
            {"benchmark": "b", "fixed": {"k": 8}},        # same cell again
        ],
    })
    assert len(cells) == 1
    with pytest.raises(GridError, match="must be a list"):
        expand_config({
            "name": "g",
            "experiments": [{"benchmark": "b", "params": {"k": 8}}],
        })
    with pytest.raises(GridError, match="zero cells"):
        expand_config({"name": "g", "experiments": []})


def test_load_config_sources(tmp_path):
    assert load_config("ci-quick")["name"] == "ci-quick"
    path = tmp_path / "c.json"
    path.write_text(json.dumps({"name": "file", "experiments": []}))
    assert load_config(path)["name"] == "file"
    with pytest.raises(GridError, match="no grid config"):
        load_config(tmp_path / "missing.json")
    with pytest.raises(GridError, match="needs a top-level 'name'"):
        load_config({"experiments": []})


def test_builtin_grids_reference_registered_workloads():
    for name in ("ci-quick", "quick-core"):
        for benchmark, params in expand_config(load_config(name)):
            assert grid.get_workload(benchmark).name == benchmark
            assert params["quick"] is True


def test_library_loads_no_script_by_path():
    # Every workload body is a module of the package: nothing under
    # src/repro imports a file by path or names a benchmarks/ directory
    # outside its docstrings.
    for path in sorted((SRC / "repro").rglob("*.py")):
        tree = ast.parse(path.read_text())
        docstrings = {
            id(node.value) for node in ast.walk(tree)
            if isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant)
        }
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute):
                assert node.attr != "spec_from_file_location", path
            elif isinstance(node, ast.Name):
                assert node.id != "spec_from_file_location", path
            elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
                  and id(node) not in docstrings):
                assert "benchmarks" not in node.value.split("/"), (
                    f"{path}:{node.lineno}"
                )


# ----------------------------------------------------------------------
# execution
# ----------------------------------------------------------------------

def test_run_grid_executes_cells_and_stamps_records():
    grid.register(
        "t-double", lambda x=1.0, **_: {"benchmark": "t-double", "value": 2 * x}
    )
    with ResultsStore(":memory:") as store:
        counts = run_grid(store, {
            "name": "g",
            "experiments": [{"benchmark": "t-double", "params": {"x": [1.0, 3.0]}}],
        }, log=lambda m: None)
        assert counts == {"open": 0, "running": 0, "done": 2, "error": 0}
        records = store.records("g")
    assert [rec["value"] for rec in records] == [2.0, 6.0]
    # The grid stamps the bench/record envelope onto every record.
    assert all("schema_version" in rec and "host" in rec for rec in records)


def test_check_failure_marks_error_but_keeps_record():
    grid.register(
        "t-barred",
        lambda **_: {"benchmark": "t-barred", "speedup": 0.5},
        check=lambda rec, params: (
            [] if rec["speedup"] >= 1.0 else ["speedup below 1.0"]
        ),
    )
    with ResultsStore(":memory:") as store:
        counts = run_grid(store, {
            "name": "g", "experiments": [{"benchmark": "t-barred"}],
        }, log=lambda m: None)
        assert counts["error"] == 1 and counts["done"] == 0
        (cell,) = store.cells("g")
    assert "speedup below 1.0" in cell.error
    assert cell.record["speedup"] == 0.5  # the record still lands


def test_check_skipped_when_params_disable_it():
    grid.register(
        "t-unchecked",
        lambda check=True, **_: {"benchmark": "t-unchecked"},
        check=lambda rec, params: ["always fails"],
    )
    with ResultsStore(":memory:") as store:
        counts = run_grid(store, {
            "name": "g",
            "experiments": [{"benchmark": "t-unchecked", "fixed": {"check": False}}],
        }, log=lambda m: None)
    assert counts["done"] == 1


def test_exception_in_workload_lands_as_error():
    def boom(**_):
        raise ValueError("exploded mid-benchmark")

    grid.register("t-boom", boom)
    with ResultsStore(":memory:") as store:
        counts = run_grid(store, {
            "name": "g", "experiments": [{"benchmark": "t-boom"}],
        }, log=lambda m: None)
        (cell,) = store.cells("g")
    assert counts["error"] == 1
    assert "ValueError: exploded mid-benchmark" in cell.error


def test_unknown_benchmark_fails_fast():
    with ResultsStore(":memory:") as store:
        with pytest.raises(GridError, match="unknown grid benchmark"):
            run_grid(store, {
                "name": "g", "experiments": [{"benchmark": "no-such-bench"}],
            }, log=lambda m: None)


def test_max_cells_leaves_remainder_open():
    grid.register("t-count", lambda i=0, **_: {"benchmark": "t-count", "i": i})
    with ResultsStore(":memory:") as store:
        counts = run_grid(store, {
            "name": "g",
            "experiments": [{"benchmark": "t-count", "params": {"i": [0, 1, 2]}}],
        }, max_cells=2, log=lambda m: None)
    assert counts["done"] == 2 and counts["open"] == 1


def test_run_single_cell_returns_stamped_record_or_raises():
    grid.register(
        "t-single",
        lambda good=True, **_: {"benchmark": "t-single", "ok": good},
        check=lambda rec, params: [] if rec["ok"] else ["not ok"],
    )
    record = run_single_cell("t-single", {"good": True})
    assert record["ok"] is True and "schema_version" in record
    with pytest.raises(GridError, match="not ok"):
        run_single_cell("t-single", {"good": False})


# ----------------------------------------------------------------------
# crash resume
# ----------------------------------------------------------------------

_CRASH_SCRIPT = textwrap.dedent(
    """
    import os, sys
    sys.path.insert(0, {src!r})
    from repro.bench import grid
    from repro.bench.store import ResultsStore

    marker, store_path, log_path = sys.argv[1:4]

    def run(i=0, **_):
        with open(log_path, "a") as fh:
            fh.write(f"{{i}}\\n")
        if i == 1 and not os.path.exists(marker):
            open(marker, "w").close()
            os.kill(os.getpid(), 9)  # SIGKILL: no cleanup, claim left behind
        return {{"benchmark": "crashy", "i": i}}

    grid.register("crashy", run)
    config = {{
        "name": "crash",
        "experiments": [{{"benchmark": "crashy", "params": {{"i": [0, 1, 2]}}}}],
    }}
    with ResultsStore(store_path) as store:
        grid.run_grid(store, config, log=lambda m: None)
    """
)


def test_sigkill_mid_grid_resumes_with_only_open_cells(tmp_path):
    script = tmp_path / "crashgrid.py"
    script.write_text(_CRASH_SCRIPT.format(src=str(SRC)))
    marker, store_path = tmp_path / "marker", tmp_path / "g.sqlite"
    log_path = tmp_path / "ran.log"
    argv = [sys.executable, str(script), str(marker), str(store_path), str(log_path)]

    first = subprocess.run(argv, capture_output=True)
    assert first.returncode == -signal.SIGKILL

    with ResultsStore(store_path) as store:
        by_i = {c.params["i"]: c for c in store.cells("crash")}
        assert by_i[0].status == "done"
        assert by_i[1].status == "running"  # the orphaned claim
        assert by_i[2].status == "open"

    second = subprocess.run(argv, capture_output=True)
    assert second.returncode == 0, second.stderr.decode()

    with ResultsStore(store_path) as store:
        assert store.status_counts("crash") == {
            "open": 0, "running": 0, "done": 3, "error": 0,
        }
    # Completed work is never re-executed: cell 0 ran once, the killed
    # cell ran twice (once per attempt), cell 2 ran once.
    runs = [int(line) for line in log_path.read_text().split()]
    assert sorted(runs) == [0, 1, 1, 2]


# ----------------------------------------------------------------------
# export
# ----------------------------------------------------------------------

def _fake_assembly(speedup=4.5, **_):
    return {
        "benchmark": "s1s2_assembly", "dataset": "TEST", "scale": 1.0,
        "k": 64, "speedup": speedup,
    }


def test_export_records_are_gate_compatible(tmp_path):
    from repro.obs.gate import run_gate

    grid.register("t-gate", _fake_assembly)
    baseline_dir = tmp_path / "baseline"
    baseline_dir.mkdir()
    (baseline_dir / "BENCH_1.json").write_text(json.dumps({
        "benchmark": "s1s2_assembly", "dataset": "TEST", "scale": 1.0,
        "k": 64, "speedup": 5.0,
    }))
    config = {"name": "g", "experiments": [{"benchmark": "t-gate"}]}
    with ResultsStore(":memory:") as store:
        run_grid(store, config, log=lambda m: None)
        written = export_records(store, tmp_path / "exported")
    assert [p.name for p in written] == ["BENCH_grid_s1s2_assembly.json"]
    payload = json.loads(written[0].read_text())
    assert payload[0]["gate_metric"] == "speedup"  # stamped for the gate

    checks, ok = run_gate(written, root=baseline_dir)
    assert ok  # 4.5 is within tolerance of the 5.0 baseline
    assert checks[0].baseline == 5.0


def test_export_round_trip_catches_regression(tmp_path):
    from repro.obs.gate import run_gate

    grid.register("t-gate-slow", lambda **_: _fake_assembly(speedup=1.0))
    baseline_dir = tmp_path / "baseline"
    baseline_dir.mkdir()
    (baseline_dir / "BENCH_1.json").write_text(json.dumps({
        "benchmark": "s1s2_assembly", "dataset": "TEST", "scale": 1.0,
        "k": 64, "speedup": 5.0,
    }))
    with ResultsStore(":memory:") as store:
        run_grid(store, {
            "name": "g", "experiments": [{"benchmark": "t-gate-slow"}],
        }, log=lambda m: None)
        written = export_records(store, tmp_path / "exported")
    checks, ok = run_gate(written, root=baseline_dir)
    assert not ok  # 1.0 vs 5.0 is far below any tolerance


def test_export_markdown_renders_cells():
    grid.register("t-md", _fake_assembly)
    with ResultsStore(":memory:") as store:
        run_grid(store, {
            "name": "g",
            "experiments": [{"benchmark": "t-md", "params": {"speedup": [2.0, 3.0]}}],
        }, log=lambda m: None)
        markdown = export_markdown(store, "g")
    assert "## t-md" in markdown
    assert "| speedup |" in markdown.splitlines()[4]  # param column present
    assert "| 2 | done | speedup | 2 |" in markdown
    assert "| 3 | done | speedup | 3 |" in markdown


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------

def test_grid_cli_run_status_export_reset(tmp_path, capsys, monkeypatch):
    from repro.cli import main

    calls = {"n": 0}

    def flaky(**_):
        calls["n"] += 1
        if calls["n"] == 1:
            raise RuntimeError("first attempt fails")
        return _fake_assembly()

    grid.register("t-cli", flaky)
    config_path = tmp_path / "cli.json"
    config_path.write_text(json.dumps({
        "name": "cli", "experiments": [{"benchmark": "t-cli"}],
    }))
    store_path = tmp_path / "g.sqlite"
    common = ["--store", str(store_path)]

    assert main(["grid", "run", str(config_path), *common]) == 1  # errored cell
    capsys.readouterr()
    assert main(["grid", "status", *common]) == 0
    out = capsys.readouterr().out
    assert "cli: 1 cell(s)" in out and "first attempt fails" in out

    assert main(["grid", "reset-errors", *common]) == 0
    assert main(["grid", "run", str(config_path), *common]) == 0  # retry passes

    out_dir = tmp_path / "exported"
    assert main(["grid", "export", *common, "--out-dir", str(out_dir)]) == 0
    assert (out_dir / "BENCH_grid_s1s2_assembly.json").exists()
    assert "## t-cli" in (out_dir / "RESULTS.md").read_text()


def test_grid_cli_rejects_bad_usage(tmp_path, capsys):
    from repro.cli import main

    assert main(["grid"]) == 2
    assert main(["grid", "frobnicate"]) == 2
    assert main(["grid", "run", "no-such-config",
                 "--store", str(tmp_path / "g.sqlite")]) == 2
