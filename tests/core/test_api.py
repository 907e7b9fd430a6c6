"""Tests for the high-level Recommender facade."""

from __future__ import annotations

import numpy as np
import pytest

from repro.api import Recommender
from repro.datasets import planted_problem, train_test_split


@pytest.fixture(scope="module")
def data():
    problem = planted_problem(m=60, n=40, rank=3, density=0.35, seed=4)
    return train_test_split(problem.ratings, test_fraction=0.2, seed=0)


@pytest.fixture(scope="module")
def fitted(data):
    return Recommender(k=4, lam=0.05, iterations=8).fit(data.train)


class TestLifecycle:
    def test_unfitted_raises(self):
        rec = Recommender()
        assert not rec.is_fitted
        with pytest.raises(RuntimeError, match="fit"):
            rec.predict([0], [0])
        with pytest.raises(RuntimeError):
            rec.recommend(0)

    def test_fit_returns_self(self, data):
        rec = Recommender(k=3, iterations=2)
        assert rec.fit(data.train) is rec
        assert rec.is_fitted

    def test_unknown_algorithm(self):
        with pytest.raises(ValueError, match="unknown algorithm"):
            Recommender(algorithm="svd++")

    def test_alswr_algorithm(self, data):
        rec = Recommender(k=3, iterations=3, algorithm="als-wr").fit(data.train)
        assert rec.evaluate(data.test)["rmse"] < 1.5


class TestNonFiniteFit:
    """A NaN that training leaves in a factor fails the fit loudly."""

    @pytest.mark.parametrize("algorithm", ["als", "implicit"])
    def test_nan_row_from_the_last_half_sweep(self, data, monkeypatch, algorithm):
        import repro.kernels.fastpath as fastpath
        from repro.sparse import COOMatrix
        from repro.sparse.csr import CSRMatrix

        train = data.train.deduplicate()
        # Implicit feedback must be non-negative: train on |r|.
        train = COOMatrix(train.shape, train.row, train.col, np.abs(train.value))
        occupied_users = int(np.count_nonzero(
            CSRMatrix.from_coo(train).row_lengths()
        ))
        solve = fastpath.batched_lapack_solve
        solved = [0]

        def poisoned_solve(A, b):
            x = solve(A, b)
            # Past the user half-sweep's rows: an item system, whose
            # answer no later solve reads (one iteration).
            if solved[0] >= occupied_users:
                x[0] = np.nan
            solved[0] += A.shape[0]
            return x

        monkeypatch.setattr(fastpath, "batched_lapack_solve", poisoned_solve)
        rec = Recommender(k=3, iterations=1, algorithm=algorithm)
        with pytest.raises(ValueError, match=r"^fit: non-finite value in factor Y, row \d+$"):
            rec.fit(train)
        assert solved[0] > occupied_users
        assert not rec.is_fitted


class TestQueries:
    def test_predict_matches_model(self, fitted):
        out = fitted.predict([1, 2], [3, 4])
        expect = [
            float(fitted.model.X[1] @ fitted.model.Y[3]),
            float(fitted.model.X[2] @ fitted.model.Y[4]),
        ]
        np.testing.assert_allclose(out, expect)

    def test_recommend_excludes_seen_by_default(self, fitted, data):
        user = int(data.train.row[0])
        seen = set(data.train.col[data.train.row == user].tolist())
        recs = fitted.recommend(user, n_items=10)
        assert not {i for i, _ in recs} & seen

    def test_recommend_can_include_seen(self, fitted):
        all_items = fitted.recommend(0, n_items=40, exclude_seen=False)
        assert len(all_items) == 40

    def test_evaluate_keys_and_order(self, fitted, data):
        metrics = fitted.evaluate(data.test)
        assert set(metrics) == {"rmse", "mae"}
        assert metrics["mae"] <= metrics["rmse"] + 1e-12

    def test_heldout_rmse_sane(self, fitted, data):
        assert fitted.evaluate(data.test)["rmse"] < 1.0


class TestPersistence:
    def test_save_load_roundtrip(self, fitted, data, tmp_path):
        path = tmp_path / "model.npz"
        fitted.save(path)
        loaded = Recommender.load(path)
        np.testing.assert_array_equal(loaded.model.X, fitted.model.X)
        np.testing.assert_array_equal(loaded.model.Y, fitted.model.Y)
        assert loaded.algorithm == fitted.algorithm
        assert loaded.config == fitted.config

    def test_loaded_model_predicts_identically(self, fitted, tmp_path):
        path = tmp_path / "model.npz"
        fitted.save(path)
        loaded = Recommender.load(path)
        np.testing.assert_allclose(
            loaded.predict([0, 5], [1, 2]), fitted.predict([0, 5], [1, 2])
        )

    def test_loaded_recommend_without_training_data(self, fitted, tmp_path):
        path = tmp_path / "model.npz"
        fitted.save(path)
        loaded = Recommender.load(path)
        # No training matrix persisted → nothing excluded, still works.
        assert len(loaded.recommend(0, n_items=5)) == 5

    def test_save_unfitted_raises(self, tmp_path):
        with pytest.raises(RuntimeError):
            Recommender().save(tmp_path / "x.npz")

    def test_history_survives_roundtrip(self, fitted, tmp_path):
        path = tmp_path / "model.npz"
        fitted.save(path)
        loaded = Recommender.load(path)
        assert loaded.model.history == fitted.model.history
        assert len(loaded.model.history) == fitted.config.iterations
        assert loaded.model.losses() == fitted.model.losses()

    def test_load_tolerates_files_without_history(self, fitted, tmp_path):
        """Pre-history .npz files (no 'history' key) still load."""
        import json

        import numpy as np

        path = tmp_path / "legacy.npz"
        fitted.save(path)
        with np.load(path) as data:
            meta = json.loads(bytes(data["meta"].tobytes()).decode())
            X, Y = data["X"], data["Y"]
        del meta["history"]
        np.savez_compressed(
            path,
            X=X,
            Y=Y,
            meta=np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8),
        )
        loaded = Recommender.load(path)
        assert loaded.model.history == []
        np.testing.assert_array_equal(loaded.model.X, fitted.model.X)


class TestSingleConversion:
    """fit() builds the row-CSR once and shares it with exclude_seen.

    The CSC (column) view is always built from the transpose inside the
    trainer, so only conversions in the *input* orientation count.
    """

    @staticmethod
    def _count_row_conversions(monkeypatch, shape):
        from repro.sparse.csr import CSRMatrix

        calls = []
        original = CSRMatrix.from_coo.__func__

        def counting(cls, coo):
            if coo.shape == shape:
                calls.append(coo)
            return original(cls, coo)

        monkeypatch.setattr(CSRMatrix, "from_coo", classmethod(counting))
        return calls

    def test_fit_converts_coo_to_csr_exactly_once(self, data, monkeypatch):
        calls = self._count_row_conversions(monkeypatch, data.train.shape)
        Recommender(k=3, iterations=2).fit(data.train)
        assert len(calls) == 1

    def test_fit_accepts_prebuilt_csr(self, data):
        from repro.sparse.csr import CSRMatrix

        csr = CSRMatrix.from_coo(data.train.deduplicate())
        rec = Recommender(k=3, iterations=2).fit(csr)
        assert rec._train_csr is csr
        assert rec.evaluate(data.test)["rmse"] < 1.5

    def test_alswr_fit_converts_once_too(self, data, monkeypatch):
        calls = self._count_row_conversions(monkeypatch, data.train.shape)
        Recommender(k=3, iterations=2, algorithm="als-wr").fit(data.train)
        assert len(calls) == 1
