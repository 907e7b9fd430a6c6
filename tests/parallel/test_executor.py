"""Determinism and plumbing tests for the multicore half-sweep executor.

The load-bearing property: a sharded sweep is *bitwise* identical to the
serial one, for any worker count.  Each row's normal equations depend
only on that row's own non-zeros, the degree-bin widths are a pure
function of each row's degree (fixed geometric grid), and scatter
assignment is order-independent — so thread scheduling cannot leak into
the numbers.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.als import ALSConfig, train_als
from repro.core.alswr import train_als_wr
from repro.datasets.catalog import MOVIELENS1M
from repro.datasets.synthetic import generate_ratings
from repro.kernels.fastpath import fast_half_sweep
from repro.obs import metrics as obs_metrics
from repro.obs.spans import capture
from repro.parallel import (
    SweepExecutor,
    configure_workers,
    resolve_workers,
)
from repro.parallel.executor import _parse_workers
from repro.sparse.csr import CSRMatrix

from tests.conftest import random_rating_matrix


@pytest.fixture
def ratings_matrix(rng) -> CSRMatrix:
    # Includes empty rows (density 0.2 over 60 rows) so the sharded
    # scatter path must route around them, like a real cold-start corpus.
    return random_rating_matrix(rng, m=60, n=40, density=0.2)


class TestWorkerResolution:
    def test_parse_auto_is_at_least_one(self):
        assert _parse_workers("auto") >= 1

    def test_parse_accepts_strings_and_ints(self):
        assert _parse_workers("4") == 4
        assert _parse_workers(3) == 3

    @pytest.mark.parametrize("bad", ["0", "-2", "many", 0])
    def test_parse_rejects_garbage(self, bad):
        with pytest.raises(ValueError):
            _parse_workers(bad)

    def test_default_is_serial(self, monkeypatch):
        monkeypatch.delenv("REPRO_WORKERS", raising=False)
        assert resolve_workers() == 1

    def test_env_variable(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "3")
        assert resolve_workers() == 3

    def test_configured_beats_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "3")
        configure_workers(2)
        assert resolve_workers() == 2

    def test_explicit_beats_configured(self):
        configure_workers(2)
        assert resolve_workers(5) == 5

    def test_bad_env_names_the_variable(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "lots")
        with pytest.raises(ValueError, match="REPRO_WORKERS"):
            resolve_workers()


class TestBitwiseDeterminism:
    @pytest.mark.parametrize("workers", [2, 3, 4, 7])
    def test_sharded_sweep_is_bitwise_serial(self, ratings_matrix, rng, workers):
        Y = rng.standard_normal((ratings_matrix.ncols, 8))
        serial = fast_half_sweep(ratings_matrix, Y, 0.1)
        with SweepExecutor(workers) as executor:
            parallel = executor.half_sweep(ratings_matrix, Y, 0.1)
        assert np.array_equal(serial, parallel)

    def test_weighted_sweep_is_bitwise_serial(self, ratings_matrix, rng):
        Y = rng.standard_normal((ratings_matrix.ncols, 6))
        with SweepExecutor(1) as one, SweepExecutor(4) as four:
            serial = one.half_sweep(ratings_matrix, Y, 0.2, weighted=True)
            parallel = four.half_sweep(ratings_matrix, Y, 0.2, weighted=True)
        assert np.array_equal(serial, parallel)

    def test_lapack_solver_is_bitwise_serial(self, ratings_matrix, rng):
        Y = rng.standard_normal((ratings_matrix.ncols, 8))
        serial = fast_half_sweep(ratings_matrix, Y, 0.1)
        with SweepExecutor(4) as executor:
            parallel = executor.half_sweep(ratings_matrix, Y, 0.1)
        assert np.array_equal(serial, parallel)

    def test_empty_rows_keep_previous_value(self, ratings_matrix, rng):
        k = 5
        dense = ratings_matrix.to_dense()
        dense[::4] = 0.0  # force genuinely empty rows into the corpus
        R = CSRMatrix.from_dense(dense)
        X_prev = rng.standard_normal((R.nrows, k))
        Y = rng.standard_normal((R.ncols, k))
        with SweepExecutor(3) as executor:
            X = executor.half_sweep(R, Y, 0.1, X_prev=X_prev)
        empty = R.row_lengths() == 0
        assert empty.any()
        np.testing.assert_array_equal(X[empty], X_prev[empty])

    def test_training_run_is_bitwise_identical(self):
        spec = MOVIELENS1M.scaled(0.002)
        ratings = generate_ratings(spec, seed=3)
        base = dict(k=6, lam=0.1, iterations=3, seed=3)
        serial = train_als(ratings, ALSConfig(**base, workers=1))
        parallel = train_als(ratings, ALSConfig(**base, workers=4))
        assert np.array_equal(serial.X, parallel.X)
        assert np.array_equal(serial.Y, parallel.Y)
        assert [h.train_rmse for h in serial.history] == [
            h.train_rmse for h in parallel.history
        ]

    def test_alswr_training_run_is_bitwise_identical(self):
        spec = MOVIELENS1M.scaled(0.002)
        ratings = generate_ratings(spec, seed=5)
        base = dict(k=4, lam=0.05, iterations=2, seed=5)
        serial = train_als_wr(ratings, ALSConfig(**base, workers=1))
        parallel = train_als_wr(ratings, ALSConfig(**base, workers=3))
        assert np.array_equal(serial.X, parallel.X)
        assert np.array_equal(serial.Y, parallel.Y)


class TestExecutorMechanics:
    def test_serial_executor_never_builds_a_pool(self, ratings_matrix, rng):
        Y = rng.standard_normal((ratings_matrix.ncols, 4))
        with SweepExecutor(1) as executor:
            executor.half_sweep(ratings_matrix, Y, 0.1)
            assert executor._pool is None

    def test_pool_reused_across_sweeps(self, ratings_matrix, rng):
        Y = rng.standard_normal((ratings_matrix.ncols, 4))
        with SweepExecutor(2) as executor:
            executor.half_sweep(ratings_matrix, Y, 0.1)
            pool = executor._pool
            executor.half_sweep(ratings_matrix, Y, 0.1)
            assert executor._pool is pool
        assert executor._pool is None  # close() released it

    def test_more_workers_than_rows(self, rng):
        R = random_rating_matrix(rng, m=3, n=5, density=0.9)
        Y = rng.standard_normal((5, 4))
        with SweepExecutor(16) as executor:
            X = executor.half_sweep(R, Y, 0.1)
        assert np.array_equal(X, fast_half_sweep(R, Y, 0.1))

    def test_nonpositive_lam_rejected(self, ratings_matrix, rng):
        Y = rng.standard_normal((ratings_matrix.ncols, 4))
        with SweepExecutor(2) as executor:
            with pytest.raises(ValueError, match="lam"):
                executor.half_sweep(ratings_matrix, Y, 0.0)

    def test_x_prev_shape_validated(self, ratings_matrix, rng):
        Y = rng.standard_normal((ratings_matrix.ncols, 4))
        with SweepExecutor(2) as executor:
            with pytest.raises(ValueError, match="X_prev"):
                executor.half_sweep(
                    ratings_matrix, Y, 0.1, X_prev=np.zeros((2, 2))
                )

    def test_imbalance_gauges_recorded(self, ratings_matrix, rng):
        Y = rng.standard_normal((ratings_matrix.ncols, 4))
        obs_metrics.reset()
        with capture():
            with SweepExecutor(4) as executor:
                executor.half_sweep(ratings_matrix, Y, 0.1)
        snap = obs_metrics.snapshot()
        assert snap["gauges"]["sweep.workers"] == 4.0
        assert snap["gauges"]["sweep.shards"] >= 2.0
        assert snap["gauges"]["sweep.imbalance.planned"] >= 1.0
        assert snap["histograms"]["sweep.shard_seconds"]["count"] >= 2

    def test_per_shard_spans_emitted(self, ratings_matrix, rng):
        Y = rng.standard_normal((ratings_matrix.ncols, 4))
        with capture() as tracer:
            with SweepExecutor(3) as executor:
                executor.half_sweep(ratings_matrix, Y, 0.1)
        names = [r.name for r in tracer.records]
        assert "als.sweep.parallel" in names
        assert names.count("als.shard") >= 2


class TestConfigPlumbing:
    def test_config_accepts_auto(self):
        config = ALSConfig(k=2, lam=0.1, iterations=1, workers="auto")
        assert config.workers == "auto"

    def test_config_rejects_bad_workers(self):
        with pytest.raises(ValueError):
            ALSConfig(k=2, lam=0.1, iterations=1, workers=0)
        with pytest.raises(ValueError):
            ALSConfig(k=2, lam=0.1, iterations=1, workers="several")

    def test_training_solves_through_lapack(self):
        spec = MOVIELENS1M.scaled(0.001)
        ratings = generate_ratings(spec, seed=1)
        obs_metrics.reset()
        with capture():
            train_als(ratings, ALSConfig(k=3, lam=0.1, iterations=1, seed=1))
        counters = obs_metrics.snapshot()["counters"]
        assert counters["solver.lapack.calls"] >= 2.0


class TestGenericMap:
    """SweepExecutor.map — the fan-out primitive under engine sharding."""

    def test_preserves_item_order(self):
        with SweepExecutor(3) as executor:
            out = executor.map(lambda x: x * x, range(17))
        assert out == [x * x for x in range(17)]

    def test_single_worker_is_a_plain_loop(self):
        import threading

        seen = []
        with SweepExecutor(1) as executor:
            executor.map(lambda x: seen.append(threading.current_thread()), [1, 2])
        assert all(t is threading.main_thread() for t in seen)

    def test_exceptions_propagate(self):
        def boom(x):
            raise RuntimeError(f"item {x}")

        with SweepExecutor(2) as executor:
            with pytest.raises(RuntimeError, match="item"):
                executor.map(boom, [1, 2, 3])

    def test_side_effect_writes_land(self, rng):
        # The engine's run_block writes disjoint slices from worker
        # threads; emulate that contract here.
        out = np.zeros(24)
        blocks = [(lo, lo + 4) for lo in range(0, 24, 4)]

        def fill(bounds):
            lo, hi = bounds
            out[lo:hi] = np.arange(lo, hi)

        with SweepExecutor(4) as executor:
            executor.map(fill, blocks)
        assert np.array_equal(out, np.arange(24.0))
