"""Fold-in correctness: bitwise parity with fresh half-sweeps, no retrain.

The contract under test: a folded-in row is not an approximation — it is
*the same float64 arithmetic* a serial half-sweep over the augmented
matrix would run for that row, so the factors must match bit for bit for
all three trainers.  On top of that sit the ``Recommender`` semantics:
fold-in appends (never mutates existing rows), extends the exclusion
matrix, and never calls a trainer.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro.api as api_mod
from repro.api import Recommender
from repro.core.alswr import weighted_half_sweep
from repro.core.implicit import implicit_half_sweep
from repro.kernels.fastpath import fast_half_sweep
from repro.serving.foldin import (
    FOLDIN_ALGORITHMS,
    as_new_rows_csr,
    fold_in_factors,
)
from repro.sparse.coo import COOMatrix
from repro.sparse.csr import CSRMatrix

LAM = 0.3
ALPHA = 20.0


def _reference_rows(algorithm: str, aug: CSRMatrix, Y: np.ndarray) -> np.ndarray:
    """Fresh serial float64 half-sweep over the augmented matrix."""
    if algorithm == "als":
        return fast_half_sweep(aug, Y, LAM)
    if algorithm == "als-wr":
        return weighted_half_sweep(aug, Y, LAM, None)
    return implicit_half_sweep(aug, Y, LAM, ALPHA)


@pytest.fixture()
def base_problem(rng):
    m, n, k = 80, 60, 9
    nnz = 900
    R = CSRMatrix.from_coo(COOMatrix(
        (m, n), rng.integers(0, m, nnz), rng.integers(0, n, nnz),
        rng.integers(1, 6, nnz).astype(np.float32),
    ))
    Y = rng.integers(-3, 4, size=(n, k)).astype(np.float64)
    return R, Y


@pytest.fixture()
def new_rows(rng, base_problem):
    _, Y = base_problem
    n = Y.shape[0]
    h = 5
    rows = np.repeat(np.arange(h), 4)
    return CSRMatrix.from_coo(COOMatrix(
        (h, n), rows, rng.integers(0, n, rows.size),
        rng.integers(1, 6, rows.size).astype(np.float32),
    ))


class TestFoldInFactors:
    @pytest.mark.parametrize("algorithm", FOLDIN_ALGORITHMS)
    def test_bitwise_parity_with_augmented_half_sweep(
        self, base_problem, new_rows, algorithm
    ):
        R, Y = base_problem
        folded = fold_in_factors(new_rows, Y, LAM, algorithm, ALPHA)
        aug = R.append_rows(new_rows)
        ref = _reference_rows(algorithm, aug, Y)
        assert np.array_equal(folded, ref[R.nrows:])

    @pytest.mark.parametrize("algorithm", FOLDIN_ALGORITHMS)
    def test_batch_composition_does_not_change_rows(
        self, base_problem, new_rows, algorithm
    ):
        """One row folded alone equals the same row folded in a batch."""
        _, Y = base_problem
        together = fold_in_factors(new_rows, Y, LAM, algorithm, ALPHA)
        for i in range(new_rows.nrows):
            alone = fold_in_factors(
                new_rows.take_rows(np.array([i])), Y, LAM, algorithm, ALPHA
            )
            assert np.array_equal(alone[0], together[i])

    def test_empty_rows_come_back_zero(self, base_problem):
        _, Y = base_problem
        n, k = Y.shape
        empty = CSRMatrix(
            (3, n), np.zeros(0, np.float32), np.zeros(0, np.int64),
            np.zeros(4, np.int64),
        )
        out = fold_in_factors(empty, Y, LAM, "als")
        assert out.shape == (3, k)
        assert not out.any()

    def test_rejects_unknown_algorithm(self, base_problem, new_rows):
        _, Y = base_problem
        with pytest.raises(ValueError, match="unknown fold-in algorithm"):
            fold_in_factors(new_rows, Y, LAM, "sgd")

    def test_implicit_requires_alpha(self, base_problem, new_rows):
        _, Y = base_problem
        with pytest.raises(ValueError, match="alpha"):
            fold_in_factors(new_rows, Y, LAM, "implicit")

    def test_rejects_column_overflow(self, base_problem, new_rows):
        _, Y = base_problem
        with pytest.raises(ValueError, match="columns"):
            fold_in_factors(new_rows, Y[:-5], LAM, "als")


class TestAsNewRowsCsr:
    def test_widens_coo_payload(self):
        coo = COOMatrix((2, 3), np.array([0, 1]), np.array([2, 0]),
                        np.array([1.0, 2.0], np.float32))
        csr = as_new_rows_csr(coo, 10)
        assert csr.shape == (2, 10)
        assert csr.nnz == 2

    def test_widens_narrow_csr(self):
        csr = CSRMatrix.from_coo(COOMatrix(
            (1, 4), np.array([0]), np.array([3]), np.array([1.0], np.float32)
        ))
        wide = as_new_rows_csr(csr, 9)
        assert wide.shape == (1, 9)

    def test_exact_width_passthrough(self):
        csr = CSRMatrix.from_coo(COOMatrix(
            (1, 9), np.array([0]), np.array([3]), np.array([1.0], np.float32)
        ))
        assert as_new_rows_csr(csr, 9) is csr

    def test_rejects_overshoot_and_bad_type(self):
        csr = CSRMatrix.from_coo(COOMatrix(
            (1, 9), np.array([0]), np.array([3]), np.array([1.0], np.float32)
        ))
        with pytest.raises(ValueError, match="columns"):
            as_new_rows_csr(csr, 4)
        with pytest.raises(TypeError):
            as_new_rows_csr(np.ones((2, 2)), 4)


@pytest.fixture()
def ratings(rng):
    m, n, nnz = 70, 50, 800
    return COOMatrix(
        (m, n), rng.integers(0, m, nnz), rng.integers(0, n, nnz),
        rng.integers(1, 6, nnz).astype(np.float32),
    )


def _disarm_trainers(monkeypatch):
    """Any trainer call during fold-in/update is a test failure."""
    def tripwire(*args, **kwargs):
        raise AssertionError("fold-in must not retrain")

    monkeypatch.setattr(
        api_mod, "_ALGORITHMS", {name: tripwire for name in api_mod._ALGORITHMS}
    )


class TestRecommenderFoldIn:
    @pytest.mark.parametrize("algorithm", FOLDIN_ALGORITHMS)
    def test_fold_in_users_bitwise_and_no_retrain(
        self, ratings, rng, algorithm, monkeypatch
    ):
        rec = Recommender(
            k=7, lam=LAM, iterations=2, algorithm=algorithm, alpha=ALPHA
        ).fit(ratings)
        m, n = ratings.shape
        X_before = np.asarray(rec.model.X).copy()
        new = COOMatrix(
            (2, n), np.array([0, 0, 1]), np.array([3, 9, 1]),
            np.array([5, 4, 3], np.float32),
        )
        _disarm_trainers(monkeypatch)
        ids = rec.fold_in_users(new)
        assert np.array_equal(ids, [m, m + 1])
        # Existing rows untouched bitwise; model appended, not rebuilt.
        assert np.array_equal(np.asarray(rec.model.X)[:m], X_before)
        assert rec.model.X.shape[0] == m + 2
        # The folded rows match a fresh serial half-sweep over the
        # augmented matrix (which rec._train_csr now is) bit for bit.
        ref = _reference_rows(algorithm, rec._train_csr, np.asarray(rec.model.Y))
        assert np.array_equal(np.asarray(rec.model.X)[ids], ref[ids])

    def test_fold_in_extends_exclusion(self, ratings):
        rec = Recommender(k=6, lam=LAM, iterations=1).fit(ratings)
        m, n = ratings.shape
        new = COOMatrix((1, n), np.array([0, 0]), np.array([2, 7]),
                        np.array([5.0, 5.0], np.float32))
        (uid,) = rec.fold_in_users(new)
        assert rec._train_csr.nrows == m + 1
        cols, _ = rec._train_csr.row_slice(int(uid))
        assert np.array_equal(cols, [2, 7])
        # The served top-N for the new user excludes exactly those items.
        recs = rec.recommend(int(uid), n_items=n)
        assert {2, 7}.isdisjoint(i for i, _ in recs)

    def test_fold_in_users_on_loaded_checkpoint(self, ratings, tmp_path):
        rec = Recommender(k=6, lam=LAM, iterations=1).fit(ratings)
        rec.save(tmp_path / "ckpt")
        loaded = Recommender.load(tmp_path / "ckpt")
        m, n = ratings.shape
        new = COOMatrix((1, n), np.array([0]), np.array([4]),
                        np.array([3.0], np.float32))
        (uid,) = loaded.fold_in_users(new)
        assert uid == m
        assert loaded.model.X.shape[0] == m + 1
        # Existing users have no persisted exclusion rows, the new one does.
        assert loaded._train_csr.nnz == 1
        ref = fast_half_sweep(loaded._train_csr, np.asarray(loaded.model.Y), LAM)
        assert np.array_equal(np.asarray(loaded.model.X)[m], ref[m])

    @pytest.mark.parametrize("algorithm", FOLDIN_ALGORITHMS)
    def test_fold_in_items_bitwise(self, ratings, rng, algorithm, monkeypatch):
        rec = Recommender(
            k=7, lam=LAM, iterations=2, algorithm=algorithm, alpha=ALPHA
        ).fit(ratings)
        m, n = ratings.shape
        Y_before = np.asarray(rec.model.Y).copy()
        new = COOMatrix(
            (2, m), np.array([0, 0, 1]), np.array([5, 11, 2]),
            np.array([4, 2, 5], np.float32),
        )
        _disarm_trainers(monkeypatch)
        ids = rec.fold_in_items(new)
        assert np.array_equal(ids, [n, n + 1])
        assert np.array_equal(np.asarray(rec.model.Y)[:n], Y_before)
        # Item fold-in is the transposed statement: reference is a
        # half-sweep over the transposed augmented matrix against X.
        aug_T = rec._train_csr.transpose_to_csr()
        ref = _reference_rows(algorithm, aug_T, np.asarray(rec.model.X))
        assert np.array_equal(np.asarray(rec.model.Y)[ids], ref[ids])
        # Exclusion gained the new columns.
        assert rec._train_csr.ncols == n + 2
        cols, _ = rec._train_csr.row_slice(5)
        assert n in cols

    @pytest.mark.parametrize("algorithm", FOLDIN_ALGORITHMS)
    def test_update_ratings_bitwise_for_affected_rows_only(
        self, ratings, algorithm, monkeypatch
    ):
        rec = Recommender(
            k=7, lam=LAM, iterations=2, algorithm=algorithm, alpha=ALPHA
        ).fit(ratings)
        m, n = ratings.shape
        X_before = np.asarray(rec.model.X).copy()
        updates = COOMatrix(
            (m, n), np.array([3, 3, 10]), np.array([0, 5, 2]),
            np.array([5, 1, 4], np.float32),
        )
        _disarm_trainers(monkeypatch)
        affected = rec.update_ratings(updates)
        assert np.array_equal(affected, [3, 10])
        untouched = np.setdiff1d(np.arange(m), affected)
        assert np.array_equal(np.asarray(rec.model.X)[untouched],
                              X_before[untouched])
        ref = _reference_rows(algorithm, rec._train_csr, np.asarray(rec.model.Y))
        assert np.array_equal(np.asarray(rec.model.X)[affected], ref[affected])

    def test_update_ratings_overwrites_last_write_wins(self, ratings):
        rec = Recommender(k=5, lam=LAM, iterations=1).fit(ratings)
        m, n = ratings.shape
        updates = COOMatrix((m, n), np.array([0]), np.array([1]),
                            np.array([2.5], np.float32))
        rec.update_ratings(updates)
        cols, vals = rec._train_csr.row_slice(0)
        assert vals[list(cols).index(1)] == np.float32(2.5)

    def test_update_ratings_requires_training_matrix(self, ratings, tmp_path):
        rec = Recommender(k=5, lam=LAM, iterations=1).fit(ratings)
        rec.save(tmp_path / "ckpt")
        loaded = Recommender.load(tmp_path / "ckpt")
        updates = COOMatrix(ratings.shape, np.array([0]), np.array([1]),
                            np.array([2.5], np.float32))
        with pytest.raises(RuntimeError, match="training matrix"):
            loaded.update_ratings(updates)

    def test_sharded_training_matrix_is_rejected(self, ratings, tmp_path):
        from repro.datasets.shardio import build_shard_store
        from repro.sparse.shards import ShardStore

        build_shard_store(tmp_path / "store", ratings)
        rec = Recommender(k=5, lam=LAM, iterations=1).fit(
            ShardStore.open(tmp_path / "store")
        )
        new = COOMatrix((1, ratings.shape[1]), np.array([0]), np.array([0]),
                        np.array([1.0], np.float32))
        with pytest.raises(ValueError, match="out-of-core"):
            rec.fold_in_users(new)
