"""Writes derive the served state from the previous one.

A user fold-in appends rows to the served engine and an update replaces
the affected rows (``TopNEngine.derive``): the result must hold exactly
what a fresh ``_build_state`` over the recommender would — the same
cast ``X`` bit for bit, and exclusion keys built lazily after the write
equal to a fresh build's, including when a fold-in takes the key space
past int32.  A derived row the engine refuses leaves the old state, its
generation and the recommender serving.  An update carries the cached
answers of every unaffected user to the new generation, drops the
affected users' answers, and an answer computed from the pre-update
state never becomes servable after it.
"""

from __future__ import annotations

import json
import sys
import threading
import urllib.request

import numpy as np
import pytest

import repro.api as api_mod
from repro.api import Recommender
from repro.core.als import ALSModel
from repro.obs.spans import capture
from repro.serving.engine import TopNEngine
from repro.serving.service import RecommendService, ServiceEndpoint
from repro.sparse.coo import COOMatrix
from repro.sparse.csr import CSRMatrix
from tests.serving.test_service import HeldEngine, expected_rows, make_rec

M, N_ITEMS, K = 60, 45, 6


def _fitted(algorithm: str) -> Recommender:
    rng = np.random.default_rng(3)
    nnz = 6 * M
    ratings = COOMatrix(
        (M, N_ITEMS), rng.integers(0, M, nnz), rng.integers(0, N_ITEMS, nnz),
        rng.integers(1, 6, nnz).astype(np.float32),
    )
    return Recommender(
        k=K, lam=0.1, iterations=2, algorithm=algorithm, alpha=10.0
    ).fit(ratings)


def _new_users(rng, h: int = 3) -> COOMatrix:
    rows = np.repeat(np.arange(h), 4)
    return COOMatrix(
        (h, N_ITEMS), rows, rng.integers(0, N_ITEMS, rows.size),
        rng.integers(1, 6, rows.size).astype(np.float32),
    )


def _updates(rng, users, m: int = M) -> COOMatrix:
    rows = np.repeat(np.asarray(users), 3)
    return COOMatrix(
        (m, N_ITEMS), rows, rng.integers(0, N_ITEMS, rows.size),
        rng.integers(1, 6, rows.size).astype(np.float32),
    )


def _assert_fresh(svc: RecommendService) -> None:
    """The served engine holds what a fresh build would."""
    served = svc._state.engine
    fresh = svc._build_state(svc.generation).engine
    assert served._X.dtype == fresh._X.dtype
    assert np.array_equal(served._X, fresh._X)
    assert served._Y is not None and np.array_equal(served._Y, fresh._Y)
    exclude = svc._state.exclude
    assert exclude is svc._rec._train_csr
    keys, kd = served._exclusion_keys(exclude)  # built lazily if absent
    ref_keys, ref_kd = fresh._exclusion_keys(exclude)
    assert kd is ref_kd and keys.dtype == ref_keys.dtype
    assert np.array_equal(keys, ref_keys)


def _close(served, ref_items, ref_scores, x_user, Y) -> bool:
    """The e2e benchmark's answer check: position-wise equal within a
    relative 1e-9 of the score scale, items differing only at ties, and
    every served score equal to its item's recomputed score."""
    keep = ref_items >= 0
    ref_items, ref_scores = ref_items[keep], ref_scores[keep]
    items = np.array([i for i, _ in served], dtype=np.int64)
    scores = np.array([s for _, s in served], dtype=np.float64)
    if items.size != ref_items.size:
        return False
    if not items.size:
        return True
    tol = 1e-9 * max(1.0, float(np.abs(ref_scores).max()))
    true_served = Y[items] @ x_user
    true_ref = Y[ref_items] @ x_user
    return bool(
        np.all(np.abs(scores - ref_scores) <= tol)
        and np.all(np.abs(true_served - scores) <= tol)
        and np.all((items == ref_items) | (np.abs(true_served - true_ref) <= tol))
    )


class TestDerivedEngine:
    @pytest.mark.parametrize("dtype", ["float64", "float32"])
    @pytest.mark.parametrize("algorithm", ["als", "implicit"])
    def test_fold_in_then_update_match_a_fresh_build(self, rng, algorithm, dtype):
        rec = _fitted(algorithm)
        with RecommendService(rec, engine_kwargs={"dtype": dtype}) as svc:
            with capture() as tracer:
                ids = svc.fold_in_users(_new_users(rng))
                _assert_fresh(svc)
                svc.update_ratings(
                    _updates(rng, [0, 7, int(ids[-1]), M - 1], M + ids.size)
                )
                _assert_fresh(svc)
                svc.fold_in_users(_new_users(rng, 1))
                _assert_fresh(svc)
            modes = [
                r.attrs["mode"] for r in tracer.records if r.name == "service.install"
            ]
            assert modes == ["append", "rows", "append"]
            served = svc.submit(int(ids[0]), 5).result(10)
        assert served.recommendations

    def test_derive_leaves_the_source_engine_untouched(self, rng):
        rec = _fitted("als")
        engine = TopNEngine.from_model(rec.model)
        engine._exclusion_keys(rec._train_csr)
        X, (old, keys, _) = engine._X.copy(), engine._excl_cache
        keys = keys.copy()
        rec.update_ratings(_updates(rng, [2, 3]))
        derived = engine.derive(rec.model.X[[2, 3]], rows=np.array([2, 3]))
        assert derived is not engine and derived._Y is engine._Y
        assert np.array_equal(engine._X, X)
        assert engine._excl_cache[0] is old
        assert np.array_equal(engine._excl_cache[1], keys)

    @pytest.mark.parametrize("append", [True, False])
    def test_unsorted_new_rows_are_keyed_as_a_fresh_build(self, rng, append):
        """A directly built exclusion CSR may list a row's columns out of
        order; the keys a derived engine builds lazily must still be the
        sorted fresh ones."""
        base = CSRMatrix.from_coo(COOMatrix(
            (4, 10), np.array([0, 1, 1, 3]), np.array([2, 0, 7, 5]),
            np.ones(4, np.float32),
        ))
        X, Y = rng.standard_normal((4, 3)), rng.standard_normal((10, 3))
        engine = TopNEngine(X, Y)
        engine._exclusion_keys(base)
        if append:
            new = CSRMatrix((1, 10), np.ones(3, np.float32),
                            np.array([8, 1, 4]), np.array([0, 3]))
            exclude, rows, X_rows = base.append_rows(new), None, X[:1]
            X_all = np.concatenate([X, X_rows])
        else:
            sub = CSRMatrix((1, 10), np.ones(3, np.float32),
                            np.array([9, 3, 6]), np.array([0, 3]))
            rows = np.array([1])
            exclude, X_rows = base.replace_rows(rows, sub), X[[2]]
            X_all = X.copy()
            X_all[1] = X[2]
        derived = engine.derive(X_rows, rows=rows)
        fresh = TopNEngine(X_all, Y)
        assert np.array_equal(derived._X, fresh._X)
        assert derived._excl_cache is None
        assert np.array_equal(
            derived._exclusion_keys(exclude)[0], fresh._exclusion_keys(exclude)[0]
        )

    def test_external_change_rebuilds(self, rng):
        """A recommender changed behind the service's back is rebuilt."""
        rec = _fitted("als")
        with RecommendService(rec) as svc:
            rec.fold_in_users(_new_users(rng, 2))  # not through the service
            with capture() as tracer:
                svc.update_ratings(_updates(rng, [1, 4], M + 2))
            assert [r.attrs["mode"] for r in tracer.records
                    if r.name == "service.install"] == ["rebuild"]
            _assert_fresh(svc)


class TestKeyDtypeCrossing:
    """A fold-in that takes ``nrows · n_items`` past 2³¹: the int32 keys
    must be rebuilt as int64, as a fresh build would choose.  A wide,
    nearly empty matrix gets there with a small model."""

    def test_fold_in_crosses_to_int64_keys(self, rng):
        n, k = 1 << 16, 2
        m = (1 << 15) - 1  # m · n < 2³¹ <= (m + 1) · n
        rows = np.array([0, 5, m - 1])
        train = CSRMatrix.from_coo(COOMatrix(
            (m, n), rows, np.array([3, n - 1, 17]),
            np.array([4.0, 2.0, 5.0], np.float32),
        ))
        rec = Recommender(k=k, lam=0.1)
        rec._model = ALSModel(
            X=rng.standard_normal((m, k)), Y=rng.standard_normal((n, k)),
            config=rec.config,
        )
        rec._train_csr = train
        svc = RecommendService(rec)
        assert svc._state.engine._exclusion_keys(train)[1] is np.int32
        ids = svc.fold_in_users(COOMatrix(
            (1, n), np.array([0, 0]), np.array([9, n - 2]),
            np.array([3.0, 1.0], np.float32),
        ))
        assert ids.tolist() == [m]
        assert svc._state.engine._exclusion_keys(svc._state.exclude)[1] is np.int64
        _assert_fresh(svc)
        svc.start()
        try:
            items = [i for i, _ in svc.recommend(m, 3)]
        finally:
            svc.stop()
        assert {9, n - 2}.isdisjoint(items) and len(items) == 3


class TestRefusedWrite:
    """A non-finite folded or updated row is refused; nothing changes."""

    @pytest.fixture()
    def poisoned(self, monkeypatch):
        real = api_mod.fold_in_factors

        def fold_in_factors(*args, **kwargs):
            out = real(*args, **kwargs)
            out[-1, 0] = np.nan
            return out

        monkeypatch.setattr(api_mod, "fold_in_factors", fold_in_factors)

    @pytest.mark.parametrize("write", ["fold_in_users", "update_ratings"])
    def test_old_state_keeps_serving(self, rng, poisoned, write):
        rec = make_rec(seed=5)
        expected = expected_rows(rec, 5)
        X, train = rec.model.X, rec._train_csr
        if write == "fold_in_users":
            payload, bad_row = _new_users(rng, 2), M + 1
        else:
            payload, bad_row = _updates(rng, [3, 9]), 9
        with RecommendService(rec, cache_size=0) as svc:
            state = svc._state
            with pytest.raises(ValueError, match=f"factor X, row {bad_row}"):
                getattr(svc, write)(payload)
            assert svc._state is state and svc.generation == 0
            assert rec.model.X is X and rec._train_csr is train
            for user in range(M):
                res = svc.submit(user, 5).result(10)
                assert res.generation == 0
                assert res.recommendations == expected[user]
        assert svc.stats.snapshot()["errors"] == 0

    def test_next_write_derives_from_the_kept_state(self, rng, monkeypatch):
        rec = make_rec(seed=5)
        real = api_mod.fold_in_factors
        monkeypatch.setattr(
            api_mod, "fold_in_factors",
            lambda *a, **kw: np.full_like(real(*a, **kw), np.inf),
        )
        svc = RecommendService(rec)
        with pytest.raises(ValueError, match="non-finite"):
            svc.update_ratings(_updates(rng, [1]))
        monkeypatch.setattr(api_mod, "fold_in_factors", real)
        with capture() as tracer:
            svc.update_ratings(_updates(rng, [1]))
        assert [r.attrs["mode"] for r in tracer.records
                if r.name == "service.install"] == ["rows"]
        assert svc.generation == 1
        _assert_fresh(svc)


class TestCacheCarry:
    def test_unaffected_hit_affected_miss(self, rng):
        rec = _fitted("implicit")
        untouched, affected = [0, 11, 30], [4, 22]
        with RecommendService(rec) as svc:
            for user in untouched + affected:
                svc.submit(user, 6).result(10)
            svc.submit(0, 3).result(10)  # a second n of one user
            before = svc.generation
            svc.update_ratings(_updates(rng, affected))
            assert svc.generation == before + 1
            stats = svc.stats.snapshot()
            assert stats["cache_carried"] == len(untouched) + 1
            assert stats["cache_dropped"] == len(affected)
            ref = rec.recommend_batch(np.array(untouched + affected), n_items=6)
            X, Y = np.asarray(rec.model.X), np.asarray(rec.model.Y)
            for pos, user in enumerate(untouched + affected):
                res = svc.submit(user, 6).result(10)
                assert res.generation == before + 1
                assert res.cached == (user in untouched)
                assert _close(
                    res.recommendations, ref.items[pos], ref.scores[pos], X[user], Y
                ), user
            assert svc.submit(0, 3).result(10).cached

    def test_pre_update_batch_never_becomes_servable(self, rng):
        """A batch reads the old state, the update installs while it is
        in the engine, then it finishes: its answers stay under the old
        generation, and the affected user is answered afresh."""
        rec = make_rec(seed=5)
        user, n = 4, 6
        with RecommendService(rec, max_batch=1) as svc:
            held = HeldEngine(svc)
            (stale,) = held.hold([user], n)
            updates = COOMatrix(
                (M, N_ITEMS), np.array([user, user]), np.array([0, 1]),
                np.array([5.0, 5.0], np.float32),
            )
            done = threading.Event()
            writer = threading.Thread(
                target=lambda: (svc.update_ratings(updates), done.set())
            )
            writer.start()
            assert done.wait(10)  # the install does not wait for the batch
            writer.join(10)
            held.release()
            late = stale.result(10)
            assert late.generation == 0 and not late.cached
            assert (0, user, n) in svc._cache  # the late put, old key
            fresh = svc.submit(user, n).result(10)
            assert fresh.generation == 1 and not fresh.cached
            again = svc.submit(user, n).result(10)
            assert again.cached
        ref = rec.recommend_batch(np.array([user]), n_items=n)
        x, Y = rec.model.X[user], rec.model.Y
        assert _close(fresh.recommendations, ref.items[0], ref.scores[0], x, Y)
        assert again.recommendations == fresh.recommendations
        assert not _close(late.recommendations, ref.items[0], ref.scores[0], x, Y)

    def test_concurrent_reads_match_their_generation(self, rng):
        """Clients read through a cache that updates keep carrying; every
        answer, hit or miss, must be its generation's answer.  A carried
        entry of an affected user, or a late put served under the new
        generation, would break this."""
        rec = _fitted("als")
        n = 5
        snapshots = {0: (rec.model.X, rec._train_csr)}
        results: list = []
        errors: list = []
        stop = threading.Event()

        def client(seed: int) -> None:
            local = np.random.default_rng(seed)
            while not stop.is_set():
                user = int(local.integers(12))  # a small pool: many hits
                try:
                    results.append((user, svc.submit(user, n).result(10)))
                except Exception as exc:  # pragma: no cover - fail loudly
                    errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with RecommendService(rec, max_batch=4, workers=2) as svc:
                threads = [threading.Thread(target=client, args=(i,))
                           for i in range(4)]
                for t in threads:
                    t.start()
                for _ in range(12):
                    svc.update_ratings(_updates(rng, rng.choice(12, 2, replace=False)))
                    snapshots[svc.generation] = (rec.model.X, rec._train_csr)
                stop.set()
                for t in threads:
                    t.join(10)
                assert not any(t.is_alive() for t in threads)
        finally:
            sys.setswitchinterval(interval)
        assert not errors
        assert sum(res.cached for _, res in results) > 0
        Y = rec.model.Y
        for gen, (X, train) in snapshots.items():
            answers = [(u, r) for u, r in results if r.generation == gen]
            if not answers:
                continue
            users = np.array([u for u, _ in answers])
            ref = TopNEngine(X, Y).query(users, n=n, exclude=train)
            for pos, (user, res) in enumerate(answers):
                assert _close(
                    res.recommendations, ref.items[pos], ref.scores[pos], X[user], Y
                ), (user, gen, res.cached)

    def test_stats_endpoint_counts_carries(self, rng):
        rec = make_rec(seed=5)
        with RecommendService(rec) as svc, ServiceEndpoint(svc) as ep:
            svc.submit(1, 5).result(10)
            svc.submit(2, 5).result(10)
            svc.update_ratings(_updates(rng, [2]))
            with urllib.request.urlopen(ep.url("/stats"), timeout=10) as resp:
                stats = json.loads(resp.read().decode())
        assert stats["cache_carried"] == 1 and stats["cache_dropped"] == 1
