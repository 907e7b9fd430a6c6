"""Behavioral tests for the long-lived ``RecommendService``.

Factor matrices are overwritten with integer-valued arrays after
training so every score is exactly representable: the engine's total
order is then identical for *any* batch composition, which lets these
tests compare coalesced/micro-batched responses against a single
batched reference query bit for bit (the same trick as
``test_engine.py``).
"""

from __future__ import annotations

import json
import threading
import time
import urllib.error
import urllib.request

import numpy as np
import pytest

from repro.api import Recommender
from repro.obs.metrics import MetricsRegistry
from repro.serving.engine import TopNEngine
from repro.serving.loadgen import run_closed_loop, run_open_loop
from repro.serving.service import RecommendService, ServiceEndpoint
from repro.sparse.coo import COOMatrix

M, N_ITEMS, K = 60, 45, 6


def make_rec(seed: int, m: int = M, n: int = N_ITEMS, k: int = K) -> Recommender:
    rng = np.random.default_rng(seed)
    nnz = 6 * m
    ratings = COOMatrix(
        (m, n), rng.integers(0, m, nnz), rng.integers(0, n, nnz),
        rng.integers(1, 6, nnz).astype(np.float32),
    )
    rec = Recommender(k=k, lam=0.1, iterations=1).fit(ratings)
    # Integer-valued factors: exact scores, batch-shape-independent order.
    rec.model.X = rng.integers(-3, 4, size=(m, k)).astype(np.float64)
    rec.model.Y = rng.integers(-3, 4, size=(n, k)).astype(np.float64)
    rec._engine = None
    return rec


def expected_rows(rec: Recommender, n: int) -> dict[int, tuple]:
    """Reference top-n per user through one plain engine query."""
    engine = TopNEngine.from_model(rec.model)
    result = engine.query(np.arange(rec.model.X.shape[0]), n=n,
                          exclude=rec._train_csr)
    return {u: tuple(result.row(u)[:n]) for u in range(rec.model.X.shape[0])}


@pytest.fixture()
def rec():
    return make_rec(seed=5)


class TestRequestPath:
    def test_results_match_reference_and_coalesce(self, rec):
        expected = expected_rows(rec, 10)
        with RecommendService(rec, max_batch=4, batch_window=0.05) as svc:
            futures = [svc.submit(u, 10) for u in range(16)]
            for u, fut in enumerate(futures):
                res = fut.result(10)
                assert res.recommendations == expected[u]
                assert res.user == u and res.generation == 0
        stats = svc.stats.snapshot()
        assert stats["requests"] == 16
        assert stats["batches"] < 16  # coalescing actually happened
        assert stats["mean_batch_size"] > 1.0

    def test_mixed_n_requests_share_a_batch(self, rec):
        """Different n coalesce; each caller gets its own prefix."""
        exp3, exp7 = expected_rows(rec, 3), expected_rows(rec, 7)
        with RecommendService(rec, max_batch=8, batch_window=0.05) as svc:
            f_a = svc.submit(1, 3)
            f_b = svc.submit(2, 7)
            assert f_a.result(10).recommendations == exp3[1]
            assert f_b.result(10).recommendations == exp7[2]

    def test_unbatched_configuration(self, rec):
        expected = expected_rows(rec, 5)
        with RecommendService(rec, max_batch=1, batch_window=0.0,
                              cache_size=0) as svc:
            for u in (0, 3, 9):
                assert svc.recommend(u, 5) == list(expected[u])
        assert svc.stats.snapshot()["mean_batch_size"] == 1.0

    def test_submit_validates(self, rec):
        with RecommendService(rec) as svc:
            with pytest.raises(IndexError):
                svc.submit(M + 5)
            with pytest.raises(ValueError):
                svc.submit(0, 0)
        with pytest.raises(RuntimeError):
            svc.submit(0, 5)  # not running any more

    def test_stop_drains_queue(self, rec):
        svc = RecommendService(rec, max_batch=4, batch_window=0.2).start()
        futures = [svc.submit(u, 5) for u in range(10)]
        svc.stop()
        assert all(f.result(1).recommendations for f in futures)


class TestResultCache:
    def test_hit_on_repeat(self, rec):
        with RecommendService(rec, max_batch=1, batch_window=0.0) as svc:
            first = svc.submit(4, 6).result(10)
            second = svc.submit(4, 6).result(10)
        assert not first.cached and second.cached
        assert second.recommendations == first.recommendations
        stats = svc.stats.snapshot()
        assert stats["cache_hits"] == 1 and stats["cache_misses"] == 1

    def test_different_n_is_a_different_entry(self, rec):
        with RecommendService(rec) as svc:
            svc.submit(4, 6).result(10)
            assert not svc.submit(4, 7).result(10).cached

    def test_lru_eviction(self, rec):
        with RecommendService(rec, cache_size=2) as svc:
            for u in (0, 1, 2):
                svc.submit(u, 5).result(10)
            assert svc.cache_entries() == 2
            assert not svc.submit(0, 5).result(10).cached  # evicted

    def test_cache_disabled(self, rec):
        with RecommendService(rec, cache_size=0) as svc:
            svc.submit(4, 6).result(10)
            assert not svc.submit(4, 6).result(10).cached

    def test_update_ratings_invalidates(self, rec):
        m, n = rec._train_csr.shape
        with RecommendService(rec) as svc:
            before = svc.submit(4, 6).result(10)
            assert svc.submit(4, 6).result(10).cached
            svc.update_ratings(COOMatrix(
                (m, n), np.array([4]), np.array([0]),
                np.array([5.0], np.float32),
            ))
            after = svc.submit(4, 6).result(10)
        assert not after.cached
        assert after.generation == before.generation + 1

    def test_invalidate_user(self, rec):
        with RecommendService(rec) as svc:
            svc.submit(4, 6).result(10)
            svc.submit(4, 9).result(10)
            svc.submit(5, 6).result(10)
            assert svc.invalidate_user(4) == 2
            assert not svc.submit(4, 6).result(10).cached
            assert svc.submit(5, 6).result(10).cached


class TestFoldInThroughService:
    def test_new_users_served_without_generation_bump(self, rec):
        n = rec._train_csr.ncols
        with RecommendService(rec) as svc:
            cached_before = svc.submit(0, 5).result(10)
            ids = svc.fold_in_users(COOMatrix(
                (1, n), np.array([0, 0]), np.array([2, 7]),
                np.array([5.0, 4.0], np.float32),
            ))
            assert svc.generation == 0
            # Existing users' cache entries survive (provably unchanged).
            assert svc.submit(0, 5).result(10).cached
            res = svc.submit(int(ids[0]), 5).result(10)
        assert res.recommendations  # the folded user is served
        assert {2, 7}.isdisjoint(i for i, _ in res.recommendations)
        assert cached_before.generation == res.generation == 0

    def test_fold_in_items_bumps_generation(self, rec):
        m = rec.model.X.shape[0]
        with RecommendService(rec) as svc:
            svc.submit(0, 5).result(10)
            svc.fold_in_items(COOMatrix(
                (1, m), np.array([0]), np.array([3]),
                np.array([4.0], np.float32),
            ))
            assert svc.generation == 1
            assert not svc.submit(0, 5).result(10).cached


class TestHotSwap:
    def test_under_concurrent_load_no_torn_reads(self, rec):
        """Every response matches the pre- or post-swap model exactly."""
        rec_b = make_rec(seed=99)
        n = 8
        expected_a = expected_rows(rec, n)
        # The checkpoint-free swap keeps rec_b's training matrix, so the
        # post-swap reference includes its exclusion filter.
        expected_b = expected_rows(rec_b, n)
        results: list = []
        errors: list = []
        stop = threading.Event()

        def client(seed: int) -> None:
            rng = np.random.default_rng(seed)
            while not stop.is_set():
                user = int(rng.integers(M))
                try:
                    results.append((user, svc.submit(user, n).result(10)))
                except Exception as exc:  # pragma: no cover - fail loudly
                    errors.append(exc)

        with RecommendService(rec, max_batch=4, batch_window=0.001,
                              cache_size=0) as svc:
            threads = [threading.Thread(target=client, args=(i,))
                       for i in range(4)]
            for t in threads:
                t.start()
            time.sleep(0.05)
            new_gen = svc.hot_swap(rec_b)
            time.sleep(0.05)
            stop.set()
            for t in threads:
                t.join(10)
        assert not errors
        assert new_gen == 1
        generations = {res.generation for _, res in results}
        assert generations == {0, 1}  # load straddled the swap
        for user, res in results:
            expected = expected_a if res.generation == 0 else expected_b
            assert res.recommendations == expected[user], (
                f"user {user} gen {res.generation}: torn or stale response"
            )

    def test_swap_from_checkpoint_path(self, rec, tmp_path):
        rec_b = make_rec(seed=42)
        rec_b.save(tmp_path / "ckpt")
        # A loaded checkpoint has no training matrix: no exclusion filter.
        loaded = Recommender.load(tmp_path / "ckpt")
        loaded._train_csr = None
        engine = TopNEngine.from_model(loaded.model)
        ref = engine.query(np.array([3]), n=5)
        with RecommendService(rec) as svc:
            svc.submit(3, 5).result(10)
            gen = svc.hot_swap(tmp_path / "ckpt")
            assert gen == 1 and svc.cache_entries() == 0
            res = svc.submit(3, 5).result(10)
        assert res.generation == 1
        assert res.recommendations == tuple(ref.row(0)[:5])

    def test_swap_to_non_finite_model_is_refused(self, rec):
        """A NaN model never publishes; the old one keeps answering."""
        bad = make_rec(seed=99)
        bad.model.X[4, 1] = np.nan
        expected = expected_rows(rec, 5)
        with RecommendService(rec, cache_size=0) as svc:
            assert svc.submit(4, 5).result(10).recommendations == expected[4]
            with pytest.raises(ValueError, match="factor X, row 4"):
                svc.hot_swap(bad)
            assert svc.generation == 0
            for user in range(M):
                res = svc.submit(user, 5).result(10)
                assert res.generation == 0
                assert res.recommendations == expected[user]
        stats = svc.stats.snapshot()
        assert stats["refused_swaps"] == 1 and stats["swaps"] == 0
        assert stats["errors"] == 0

    def test_swap_rejects_unfitted(self, rec):
        with RecommendService(rec) as svc:
            with pytest.raises(ValueError, match="fitted"):
                svc.hot_swap(Recommender(k=4))


class TestLoadGenerators:
    def test_closed_loop_counts_and_latency(self, rec):
        with RecommendService(rec, cache_size=0) as svc:
            report = run_closed_loop(
                svc, np.arange(M), n=5, concurrency=3,
                requests_per_worker=10, seed=0,
            )
        assert report.mode == "closed"
        assert report.requests == 30 and report.errors == 0
        assert report.throughput > 0
        assert report.latency["count"] == 30
        assert 0 < report.latency["p50"] <= report.latency["p99"]

    def test_open_loop_poisson(self, rec):
        with RecommendService(rec) as svc:
            report = run_open_loop(
                svc, np.arange(M), n=5, rate=300.0, duration=0.3, seed=1,
            )
        assert report.mode == "open"
        assert report.errors == 0
        assert report.requests > 0
        assert report.latency["count"] == report.requests

    def test_loadgen_validation(self, rec):
        with RecommendService(rec) as svc:
            with pytest.raises(ValueError):
                run_closed_loop(svc, np.array([]), concurrency=1)
            with pytest.raises(ValueError):
                run_open_loop(svc, np.arange(3), rate=0.0)

    def test_open_loop_rates_exclude_drain_tail(self):
        """A slow final response must not deflate the reported rates.

        The stub resolves every future the moment the next one is
        submitted, so issuance never blocks — but the *last* future only
        resolves ``stall`` seconds after its submit.  The dispatch
        window therefore holds the offered rate while the run as a whole
        drags on ``stall`` longer; the report must keep the two apart.
        """
        # seed 5's Poisson draw lands within ~1% of the offered rate, so
        # the 10% assertion budget is left for dispatch jitter, not for
        # sampling noise in the arrival process itself.
        stall, duration, rate = 0.4, 0.5, 400.0
        svc = _StallLastService(stall)
        report = run_open_loop(
            svc, np.arange(4), n=5, rate=rate, duration=duration, seed=5,
        )
        assert report.errors == 0
        assert report.seconds == pytest.approx(duration, rel=0.2)
        achieved = report.extra["achieved_rate"]
        assert abs(achieved - rate) / rate < 0.10
        assert report.throughput == pytest.approx(achieved, rel=0.05)
        assert report.extra["drain_seconds"] >= 0.5 * stall
        assert report.latency["count"] == report.requests


class _StallLastService:
    """Load-test stub: each future resolves when its successor is
    submitted; the final future (no successor) resolves only after a
    fixed stall, emulating one slow straggler response.  Submission is
    deliberately cheap (no per-request threads) so the stub itself
    never throttles the dispatcher."""

    def __init__(self, stall: float):
        self.stall = stall
        self._lock = threading.Lock()
        self._prev = None
        self._prev_at = 0.0
        sweeper = threading.Thread(target=self._sweep, daemon=True)
        sweeper.start()

    def _resolve(self, fut) -> None:
        with self._lock:
            if not fut.done():
                fut.set_result("ok")

    def _sweep(self) -> None:
        # Resolve whichever future has lingered past the stall — only
        # the final one ever lives that long.
        while True:
            with self._lock:
                fut, t0 = self._prev, self._prev_at
            if fut is not None and time.perf_counter() - t0 >= self.stall:
                self._resolve(fut)
            time.sleep(self.stall / 20)

    def submit(self, user: int, n: int):
        from concurrent.futures import Future

        fut = Future()
        with self._lock:
            prev, self._prev = self._prev, fut
            self._prev_at = time.perf_counter()
        if prev is not None:
            self._resolve(prev)
        return fut


class TestServiceEndpoint:
    def _get(self, url: str):
        with urllib.request.urlopen(url, timeout=10) as resp:
            return resp.status, resp.read().decode()

    def test_recommend_healthz_stats(self, rec):
        expected = expected_rows(rec, 4)
        with RecommendService(rec) as svc, ServiceEndpoint(svc) as ep:
            status, body = self._get(ep.url("/recommend?user=3&n=4"))
            payload = json.loads(body)
            assert status == 200
            assert payload["items"] == [i for i, _ in expected[3]]
            assert payload["scores"] == [s for _, s in expected[3]]
            assert payload["generation"] == 0 and not payload["cached"]
            # Second identical request answers from the cache.
            assert json.loads(self._get(
                ep.url("/recommend?user=3&n=4"))[1])["cached"]
            health = json.loads(self._get(ep.url("/healthz"))[1])
            assert health["status"] == "ok" and health["generation"] == 0
            stats = json.loads(self._get(ep.url("/stats"))[1])
            assert stats["requests"] == 2 and stats["cache_hits"] == 1

    def test_error_statuses(self, rec):
        with RecommendService(rec) as svc, ServiceEndpoint(svc) as ep:
            for path, code in (
                ("/recommend", 400),          # missing user
                ("/recommend?user=zzz", 400),  # unparsable
                (f"/recommend?user={M + 9}", 404),  # unknown user
                ("/nope", 404),
            ):
                with pytest.raises(urllib.error.HTTPError) as err:
                    self._get(ep.url(path))
                assert err.value.code == code

    def test_metrics_windowed_snapshot(self, rec):
        registry = MetricsRegistry()
        registry.quantile("demo.seconds").observe(0.25)
        with RecommendService(rec) as svc, ServiceEndpoint(
            svc, registry=registry
        ) as ep:
            _, cumulative = self._get(ep.url("/metrics"))
            assert 'demo_seconds_count' in cumulative
            _, first_window = self._get(ep.url("/metrics?window=1"))
            assert 'demo_seconds_count 1' in first_window
            # The scrape reset the window; nothing new arrived since.
            _, second_window = self._get(ep.url("/metrics?window=1"))
            assert 'demo_seconds_count 0' in second_window
            # The cumulative view is untouched by window resets.
            _, cumulative2 = self._get(ep.url("/metrics"))
            assert 'demo_seconds_count 1' in cumulative2
