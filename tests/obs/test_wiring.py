"""Hot-path telemetry wiring: training and serving fill the sketches.

These tests run the real trainers/engine under ``capture`` and assert
the latency series PR 6 wires in actually accumulate — the contract the
``/metrics`` endpoint and the profile report build on.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.als import ALSConfig, train_als
from repro.core.implicit import ImplicitConfig, train_implicit_als
from repro.obs import metrics as obs_metrics
from repro.obs import spans
from repro.obs.spans import capture
from repro.serving.engine import TopNEngine
from tests.conftest import random_rating_matrix


@pytest.fixture(autouse=True)
def _clean_state():
    spans.disable()
    spans.clear()
    obs_metrics.reset()
    yield
    spans.disable()
    spans.clear()
    obs_metrics.reset()


@pytest.fixture
def ratings(rng):
    return random_rating_matrix(rng, m=30, n=20, density=0.3)


def test_training_fills_stage_and_half_sweep_sketches(ratings):
    with capture():
        train_als(ratings, ALSConfig(k=4, iterations=2, track_loss=False))
    snap = obs_metrics.snapshot()
    # 2 iterations x 2 half-sweeps, via both the explicit timer and the
    # span-end observer folding stage-tagged spans into distributions.
    assert snap["quantiles"]["als.half_sweep.seconds"]["count"] == 4
    assert snap["histograms"]["als.half_sweep.seconds"]["count"] == 4
    # The binned assembly runs S2 inside the S1 span, so no S2 series.
    assert "stage.s2.seconds" not in snap["quantiles"]
    for stage in ("s1", "s3"):
        q = snap["quantiles"][f"stage.{stage}.seconds"]
        assert q["count"] >= 4
        assert 0.0 <= q["p50"] <= q["p95"] <= q["p99"]


def test_implicit_training_fills_half_sweep_sketch(ratings):
    with capture():
        train_implicit_als(ratings, ImplicitConfig(k=4, iterations=1))
    snap = obs_metrics.snapshot()
    assert snap["quantiles"]["als.half_sweep.seconds"]["count"] == 2


def test_simulated_kernel_spans_do_not_pollute_stage_sketches():
    """clsim spans carry cat='kernel'; only measured host spans count."""
    spans.enable()
    with spans.span("sim.launch", cat="kernel", stage="S1"):
        pass
    with spans.span("real.work", stage="S1"):
        pass
    snap = obs_metrics.snapshot()
    assert snap["quantiles"]["stage.s1.seconds"]["count"] == 1


def test_local_tracers_do_not_write_global_metrics():
    """The observer rides the global tracer only — test Tracers stay inert."""
    tracer = spans.Tracer()
    with tracer.span("local", stage="S1"):
        pass
    assert [r.name for r in tracer.records] == ["local"]
    assert obs_metrics.snapshot()["quantiles"] == {}


def test_serving_query_fills_latency_and_throughput_series(rng):
    X = rng.standard_normal((40, 4))
    Y = rng.standard_normal((25, 4))
    engine = TopNEngine(X, Y)
    with capture():
        for start in (0, 10, 20, 30):
            engine.query(np.arange(start, start + 10), n=5)
    snap = obs_metrics.snapshot()
    lat = snap["quantiles"]["serve.topn.seconds"]
    assert lat["count"] == 4
    assert snap["histograms"]["serve.topn.seconds"]["count"] == 4
    assert 0.0 < lat["p50"] <= lat["p99"]
    # users_per_sec keeps the whole distribution, not just the last write
    ups = snap["histograms"]["serve.users_per_sec"]
    assert ups["count"] == 4
    assert ups["min"] <= snap["gauges"]["serve.users_per_sec"] <= ups["max"]


def test_parallel_sweep_fills_shard_and_imbalance_series(rng):
    R = random_rating_matrix(rng, m=60, n=20, density=0.4)
    from repro.parallel.executor import SweepExecutor

    Y = rng.standard_normal((20, 4))
    with capture():
        with SweepExecutor(2) as executor:
            executor.half_sweep(R, Y, 0.1)
    snap = obs_metrics.snapshot()
    assert snap["quantiles"]["sweep.shard_seconds"]["count"] >= 2
    assert snap["histograms"]["sweep.shard_seconds"]["count"] >= 2
    assert snap["histograms"]["sweep.imbalance.measured"]["count"] >= 1
