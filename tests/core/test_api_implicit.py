"""Recommender facade: the implicit algorithm and persistence hardening."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.api import Recommender
from repro.core.als import ALSConfig, IterationStats
from repro.core.implicit import ImplicitConfig, ImplicitModel
from repro.sparse import COOMatrix


@pytest.fixture
def counts(rng) -> COOMatrix:
    dense = np.where(
        rng.random((20, 14)) < 0.3, rng.integers(1, 6, size=(20, 14)), 0
    ).astype(np.float32)
    return COOMatrix.from_dense(dense)


@pytest.fixture
def fitted(counts) -> Recommender:
    return Recommender(k=3, iterations=2, algorithm="implicit", alpha=15.0).fit(
        counts
    )


class TestImplicitAlgorithm:
    def test_fit_produces_implicit_model(self, fitted):
        assert isinstance(fitted.model, ImplicitModel)
        assert isinstance(fitted.config, ImplicitConfig)
        assert fitted.config.alpha == 15.0
        assert all(isinstance(h, IterationStats) for h in fitted.model.history)
        assert all(isinstance(h.loss, float) for h in fitted.model.history)
        assert all(h.train_rmse is None for h in fitted.model.history)

    def test_predict_and_recommend_work(self, fitted, counts):
        scores = fitted.predict([0, 1], [2, 3])
        assert scores.shape == (2,)
        recs = fitted.recommend(user=0, n_items=5)
        seen = set(counts.col[counts.row == 0].tolist())
        assert all(item not in seen for item, _ in recs)

    def test_evaluate_ranking_accepts_implicit_model(self, fitted, counts):
        test = COOMatrix((20, 14), [0, 3], [1, 2], [1.0, 1.0])
        metrics = fitted.evaluate_ranking(test, n=5)
        assert metrics.users == 2

    def test_save_load_roundtrip(self, fitted, tmp_path):
        path = tmp_path / "implicit.npz"
        fitted.save(path)
        loaded = Recommender.load(path)
        assert loaded.algorithm == "implicit"
        assert isinstance(loaded.model, ImplicitModel)
        assert loaded.config.alpha == 15.0
        np.testing.assert_array_equal(loaded.model.X, fitted.model.X)
        np.testing.assert_array_equal(loaded.model.Y, fitted.model.Y)
        assert loaded.model.history == fitted.model.history

    def test_loaded_model_serves(self, fitted, tmp_path):
        path = tmp_path / "implicit.npz"
        fitted.save(path)
        loaded = Recommender.load(path)
        np.testing.assert_array_equal(
            loaded.predict([0, 1], [2, 3]), fitted.predict([0, 1], [2, 3])
        )


class TestPersistenceHardening:
    def test_explicit_roundtrip_unchanged(self, counts, tmp_path):
        rec = Recommender(k=3, iterations=2).fit(counts)
        path = tmp_path / "als.npz"
        rec.save(path)
        loaded = Recommender.load(path)
        assert loaded.algorithm == "als"
        np.testing.assert_array_equal(loaded.model.X, rec.model.X)
        assert loaded.model.history[-1].train_rmse == rec.model.history[-1].train_rmse

    def test_missing_keys_is_value_error(self, tmp_path):
        path = tmp_path / "broken.npz"
        np.savez(path, X=np.zeros((2, 3)))
        with pytest.raises(ValueError, match="missing"):
            Recommender.load(path)

    def test_unknown_algorithm_is_value_error(self, tmp_path):
        path = tmp_path / "alien.npz"
        meta = {"algorithm": "svd++", "config": {"k": 3}, "history": []}
        np.savez(
            path, X=np.zeros((2, 3)), Y=np.zeros((4, 3)),
            meta=np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8),
        )
        with pytest.raises(ValueError, match="unknown algorithm"):
            Recommender.load(path)

    def test_factor_shape_mismatch_is_value_error(self, counts, tmp_path):
        rec = Recommender(k=3, iterations=1).fit(counts)
        path = tmp_path / "truncated.npz"
        rec.save(path)
        with np.load(path) as data:
            meta, X, Y = data["meta"], data["X"], data["Y"]
        np.savez(tmp_path / "bad.npz", X=X[:, :2], Y=Y, meta=meta)
        with pytest.raises(ValueError, match="shape"):
            Recommender.load(tmp_path / "bad.npz")


#: Every config knob an older checkpoint wrote, in its field order.
_OLD_IMPLICIT_CONFIG = {
    "k": 3, "lam": 0.1, "alpha": 15.0, "iterations": 2, "tol": 0.0,
    "track_loss": True, "seed": 0, "init_scale": 0.1, "assembly": None,
    "tile_nnz": None, "assembly_dtype": None, "solver": None,
    "workers": None, "factors": "ram", "factors_dir": None,
    "block_size": None, "block_schedule": "paired",
}
_OLD_ALS_CONFIG = {
    "k": 3, "lam": 0.1, "iterations": 2, "tol": 0.0, "seed": 0,
    "cholesky": True, "init_scale": 0.1, "track_loss": True,
    "assembly": None, "tile_nnz": None, "assembly_dtype": None,
    "solver": None, "workers": None, "factors": "ram",
    "factors_dir": None, "block_size": None, "block_schedule": "paired",
}


#: Config keys of retired code variants, which a load drops.
_RETIRED = ("assembly", "solver", "cholesky")


def _kept(cfg: dict) -> dict:
    return {key: value for key, value in cfg.items() if key not in _RETIRED}


def _write_envelope(path, meta, rng):
    """A checkpoint written by hand: ``.npz`` file or directory."""
    X, Y = rng.standard_normal((5, 3)), rng.standard_normal((4, 3))
    if str(path).endswith(".npz"):
        np.savez_compressed(
            path, X=X, Y=Y,
            meta=np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8),
        )
    else:
        path.mkdir()
        np.save(path / "X.npy", X)
        np.save(path / "Y.npy", Y)
        (path / "meta.json").write_text(json.dumps(meta))
    return X, Y


@pytest.mark.parametrize("name", ("old.npz", "old"))
class TestOlderCheckpointsLoad:
    """Envelopes in the formats earlier versions wrote still load."""

    def test_implicit_float_history_with_stats(self, rng, tmp_path, name):
        stats = [
            {"iteration": 1, "loss": 9.5, "train_rmse": None,
             "validation_rmse": None, "elapsed_seconds": 0.25},
            {"iteration": 2, "loss": 7.0, "train_rmse": None,
             "validation_rmse": None, "elapsed_seconds": 0.5},
        ]
        meta = {"algorithm": "implicit", "config": _OLD_IMPLICIT_CONFIG,
                "history": [9.5, 7.0], "stats": stats}
        X, _ = _write_envelope(tmp_path / name, meta, rng)
        loaded = Recommender.load(tmp_path / name)
        assert isinstance(loaded.model, ImplicitModel)
        assert loaded.config == ImplicitConfig(**_kept(_OLD_IMPLICIT_CONFIG))
        assert loaded.model.history == [IterationStats(**s) for s in stats]
        np.testing.assert_array_equal(loaded.model.X, X)

    def test_implicit_float_history_only(self, rng, tmp_path, name):
        meta = {"algorithm": "implicit", "config": _OLD_IMPLICIT_CONFIG,
                "history": [9.5, 7.0]}
        _write_envelope(tmp_path / name, meta, rng)
        loaded = Recommender.load(tmp_path / name)
        assert loaded.model.history == [
            IterationStats(iteration=1, loss=9.5, train_rmse=None),
            IterationStats(iteration=2, loss=7.0, train_rmse=None),
        ]

    # Each case is a (cholesky, solver) pair older versions wrote; its id
    # ends in the S3 solver those versions resolved the pair to.
    @pytest.mark.parametrize(
        ("cholesky", "solver"),
        (pytest.param(False, None, id="False-None-gaussian"),
         pytest.param(True, None, id="True-None-None"),
         pytest.param(False, "lapack", id="False-lapack-lapack")),
    )
    def test_explicit_cholesky_flag(
        self, rng, tmp_path, name, cholesky, solver
    ):
        """A config naming the retired assembly and S3 variants loads: the
        keys are dropped and the factors load as stored."""
        cfg = dict(
            _OLD_ALS_CONFIG, cholesky=cholesky, solver=solver, assembly="scatter"
        )
        meta = {"algorithm": "als", "config": cfg, "history": []}
        X, Y = _write_envelope(tmp_path / name, meta, rng)
        loaded = Recommender.load(tmp_path / name)
        assert loaded.config == ALSConfig(**_kept(cfg))
        assert not any(hasattr(loaded.config, key) for key in _RETIRED)
        np.testing.assert_array_equal(loaded.model.X, X)
        np.testing.assert_array_equal(loaded.model.Y, Y)


@pytest.mark.parametrize("algorithm", ("als", "implicit"))
def test_save_writes_one_history_format(counts, tmp_path, algorithm):
    rec = Recommender(k=3, iterations=2, algorithm=algorithm).fit(counts)
    rec.save(tmp_path / "model")
    meta = json.loads((tmp_path / "model" / "meta.json").read_text())
    assert "stats" not in meta
    assert [IterationStats(**h) for h in meta["history"]] == rec.model.history
