"""Self-tests of the end-to-end benchmark, at smoke sizes.

Run with ``PYTHONPATH=src python -m pytest benchmarks/e2e``.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from concurrent.futures import Future
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import workloads
from inputs import Shape, make_ratings, write_tsv
from ledger import LAYER_METRICS
from openloop import Staircase, run_phase
from workloads import E2E_METRICS, WORKLOADS, Workload

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

SMOKE = Workload(
    "smoke", "test-sized explicit workload, cache off", Shape("smoke", 600, 400, 12_000),
    dict(k=8, lam=2.0, iterations=2), zipf_s=0.0, cache_size=0, fixed_rate=400,
)
SMOKE_CACHED = Workload(  # more users than the service caches, so some requests miss
    "smoke-cached", "test-sized implicit workload, Zipf reads on a cache",
    Shape("smoke-cached", 800, 300, 16_000),
    dict(k=8, algorithm="implicit", alpha=10.0, block_size=4, iterations=2),
    zipf_s=1.0, cache_size=256, fixed_rate=400,
)
SMOKES = [SMOKE, SMOKE_CACHED]
SMOKE_SECONDS = 6  # 0.24 s read windows, 0.09 s probes, 0.14 s write windows


def test_metric_names_match_benchmark_json():
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == E2E_METRICS
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == LAYER_METRICS
    assert {w["name"]: w["why"] for w in SPEC["workloads"]} == {
        name: w.why for name, w in WORKLOADS.items()}
    assert SPEC["paths"] == ["benchmarks/e2e"]
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])


def test_inputs_are_a_function_of_the_seed(tmp_path):
    a, b, c = (make_ratings(SMOKE.shape, s) for s in (3, 3, 4))
    assert np.array_equal(a.train_items, b.train_items)
    assert not np.array_equal(a.train_items, c.train_items)
    # Row-covered split: every held-out user and item also trains.
    assert np.isin(a.test_users, a.train_users).all()
    assert np.isin(a.test_items, a.train_items).all()
    write_tsv(tmp_path / "a.tsv", a.train_users, a.train_items, a.train_values)
    first = (tmp_path / "a.tsv").read_text().splitlines()[0].split("\t")
    assert int(first[0]) == a.train_users[0] + 1
    assert float(first[2]) == a.train_values[0]


def _smoke_run(tmp_path, monkeypatch, workload: Workload, trace: int) -> dict:
    """Write smoke inputs and run the workload's child in process."""
    monkeypatch.setitem(WORKLOADS, workload.name, workload)
    monkeypatch.setenv("REPRO_WORKERS", "2")
    split = make_ratings(workload.shape, 5)
    write_tsv(tmp_path / "train.tsv", split.train_users, split.train_items, split.train_values)
    np.savez(tmp_path / "test.npz", users=split.test_users, items=split.test_items,
             values=split.test_values)
    workloads.main([
        "--workload", workload.name, "--seed", "5", "--seconds", str(SMOKE_SECONDS),
        "--trace", str(trace), "--work", str(tmp_path), "--gemm-gflops", "10",
    ])
    return json.loads((tmp_path / "result.json").read_text())


@pytest.mark.parametrize("workload", SMOKES, ids=lambda w: w.name)
def test_smoke_run_reports_every_metric_and_is_correct(tmp_path, monkeypatch, workload):
    res = _smoke_run(tmp_path, monkeypatch, workload, trace=0)
    assert res["correct"] and res["failed"] == 0
    assert set(E2E_METRICS) <= set(res["metrics"])
    assert all(np.isfinite(res["metrics"][m]) and res["metrics"][m] > 0 for m in E2E_METRICS)
    assert res["checks"]["verified"] > 0 and res["checks"]["mismatched"] == 0
    for kind in workloads.Writer.KINDS:
        assert len(res["checks"][f"{kind}_ms"]) == workloads.ROUNDS * workloads.WRITES_PER_KIND


@pytest.mark.parametrize("workload", SMOKES, ids=lambda w: w.name)
def test_traced_ledgers_close(tmp_path, monkeypatch, workload):
    res = _smoke_run(tmp_path, monkeypatch, workload, trace=1)
    layers = res["layers"]
    assert res["correct"] and set(layers) <= set(LAYER_METRICS)
    for ledger in ("setup", "train", "serve"):
        assert abs(layers[f"ledger.{ledger}.closure"] - 1.0) <= 0.05, (ledger, res["ledgers"])
    assert layers["linalg.s3.busy_s"] > 0 and layers["core.iterations"] == 2
    assert res["ledgers"]["serve"]["mismatched_batches"] == 0
    assert "obs.trace_overhead_frac" in layers


class StallingService:
    """Resolves every request at once, but ``submit`` blocks for 50 ms
    on one request — the way a cache hit is served inside ``submit``."""

    def __init__(self, stall_at: int):
        self.calls = 0
        self.stall_at = stall_at

    def submit(self, user, n):
        self.calls += 1
        if self.calls == self.stall_at:
            time.sleep(0.05)
        fut = Future()
        fut.set_result(SimpleNamespace(user=user, cached=True, recommendations=()))
        return fut


def test_stall_inflates_later_requests_due_time_latency():
    schedule = np.arange(100) * 0.002  # 500 req/s, evenly spaced
    phase = run_phase(StallingService(stall_at=20).submit, np.zeros(100, dtype=np.int64),
                      schedule, rate=500)
    latency = phase.done - phase.due
    after = latency[20:30]  # due while request 20 was stuck in submit()
    assert np.all(after > 0.025), after
    assert np.all((phase.done - phase.submitted)[20:30] < 0.005)
    assert phase.lag[20:30].max() > 0.025
    assert np.median(latency[50:]) < 0.01


def test_staircase_settles_around_the_limit_and_shrugs_off_one_stall():
    def search(capacity, stalled=()):
        stairs = Staircase(1000)
        for i in range(15):
            rate = stairs.next_rate()
            stairs.record(rate, rate <= capacity and i not in stalled, 1.0)
        return stairs.result()

    clean = search(5000)
    assert 5000 / 1.25 < clean < 5000 * 1.25
    # A probe failed by the host, not the service, late in the search.
    assert search(5000, stalled={10}) == pytest.approx(clean, rel=0.12)
    never = Staircase(1000)
    never.record(1000, True, 1.0)
    assert np.isnan(never.result())  # no reversal yet: no estimate


class CorruptingService:
    """A real service whose answers have their top item replaced."""

    def __init__(self, service, n_items):
        self._svc = service
        self._n_items = n_items

    @property
    def generation(self):
        return self._svc.generation

    @property
    def cache_size(self):
        return self._svc.cache_size

    def submit(self, user, n):
        inner = self._svc.submit(user, n)
        fut = Future()

        def corrupt(done):
            res = done.result()
            (item, score), *rest = res.recommendations
            wrong = ((item + 1) % self._n_items, score)
            fut.set_result(SimpleNamespace(**{**res.__dict__, "recommendations": (wrong, *rest)}))

        inner.add_done_callback(corrupt)
        return fut


@pytest.mark.parametrize("corrupt", [False, True])
def test_wrong_answers_count_as_failures(tmp_path, monkeypatch, corrupt):
    from repro.api import Recommender
    from repro.serving.service import RecommendService
    from repro.sparse.coo import COOMatrix

    monkeypatch.setattr(workloads, "SAMPLE_SHARE", 0.5)
    split = make_ratings(SMOKE.shape, 9)

    shape = (SMOKE.shape.m, SMOKE.shape.n)
    rec = Recommender(k=8, lam=2.0, iterations=2).fit(
        COOMatrix(shape, split.train_users, split.train_items, split.train_values))
    run = SimpleNamespace(
        w=SMOKE, seed=1, seconds=8.0, n_users=shape[0], n_items=shape[1],
        metrics={}, phases=[], checks={"verified": 0, "mismatched": 0, "skipped": 0},
        attempted=0, failed=0, wrong=0,
    )
    with RecommendService(rec, cache_size=0) as svc:
        target = CorruptingService(svc, shape[1]) if corrupt else svc
        serving = workloads.Serving(run, target, rec, 0)
        serving.read_window()
        serving.finish()
    assert run.checks["verified"] > 0
    assert (run.failed > 0) == corrupt
    assert (run.checks["mismatched"] > 0) == corrupt


def test_compare_answer_tolerates_rounding_not_wrong_items():
    rng = np.random.default_rng(0)
    Y = rng.normal(size=(50, 4))
    x = rng.normal(size=4)
    scores = Y @ x
    order = np.argsort(-scores)[:5]
    ref_items, ref_scores = order, scores[order]
    served = [(int(i), float(s) * (1 + 1e-14)) for i, s in zip(ref_items, ref_scores)]
    assert workloads.compare_answer(served, ref_items, ref_scores, x, Y)
    outsider = int(np.argsort(-scores)[6])  # not in the top 5, same claimed score
    swapped = [(outsider, served[0][1])] + served[1:]
    assert not workloads.compare_answer(swapped, ref_items, ref_scores, x, Y)


def test_benchmark_without_the_program_exits_nonzero(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks" / "e2e",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", "--workload", next(iter(WORKLOADS)),
         "--seed", "1", "--seconds", "10", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
