"""Directory checkpoints: chunked memmap writes, mmap loads, crash safety.

The directory format exists so that factors too large for RAM can be
saved (streamed row chunks through ``open_memmap``) and served
(``mmap_mode="r"`` faults pages in on demand).  Correctness bar: a
save/load round trip is bit-exact, an interrupted save (no ``meta.json``)
is rejected, and the legacy ``.npz`` envelope keeps working unchanged.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro
from repro.datasets.catalog import DatasetSpec
from repro.datasets.shardio import build_shard_store
from repro.datasets.synthetic import generate_ratings

_SPEC = DatasetSpec(
    name="ckpt", abbr="CKPT", m=120, n=50, nnz=1500,
    row_alpha=0.9, col_alpha=0.9, rating_min=1.0, rating_max=5.0,
)


@pytest.fixture(scope="module")
def fitted(tmp_path_factory):
    ratings = generate_ratings(_SPEC, seed=6)
    rec = repro.Recommender(k=6, lam=0.1, iterations=3).fit(ratings)
    return ratings, rec


class TestDirectoryRoundTrip:
    def test_round_trip_is_bit_exact(self, fitted, tmp_path):
        _, rec = fitted
        rec.save(tmp_path / "ckpt")
        assert (tmp_path / "ckpt" / "meta.json").is_file()
        loaded = repro.Recommender.load(tmp_path / "ckpt")
        assert np.array_equal(rec.model.X, loaded.model.X)
        assert np.array_equal(rec.model.Y, loaded.model.Y)
        assert loaded.algorithm == rec.algorithm

    def test_mmap_load_serves_without_copy(self, fitted, tmp_path):
        _, rec = fitted
        rec.save(tmp_path / "ckpt")
        loaded = repro.Recommender.load(tmp_path / "ckpt", mmap_mode="r")
        assert isinstance(loaded.model.X, np.memmap)
        assert not loaded.model.X.flags.writeable
        got = loaded.recommend(user=0, n_items=5, exclude_seen=False)
        want = rec.recommend(user=0, n_items=5, exclude_seen=False)
        assert [i for i, _ in got] == [i for i, _ in want]

    def test_interrupted_save_rejected(self, fitted, tmp_path):
        _, rec = fitted
        rec.save(tmp_path / "ckpt")
        (tmp_path / "ckpt" / "meta.json").unlink()  # simulate a crash
        with pytest.raises(ValueError, match="meta.json"):
            repro.Recommender.load(tmp_path / "ckpt")

    def test_npz_suffix_selects_legacy_envelope(self, fitted, tmp_path):
        _, rec = fitted
        rec.save(tmp_path / "m.npz")
        assert (tmp_path / "m.npz").is_file()
        loaded = repro.Recommender.load(tmp_path / "m.npz")
        assert np.array_equal(rec.model.X, loaded.model.X)

    def test_npz_rejects_mmap_mode(self, fitted, tmp_path):
        _, rec = fitted
        rec.save(tmp_path / "m.npz")
        with pytest.raises(ValueError, match="mmap_mode"):
            repro.Recommender.load(tmp_path / "m.npz", mmap_mode="r")


class TestNonFiniteCheckpoint:
    """A NaN or infinity written into a saved checkpoint is refused on
    load, naming the factor and the row, in both formats."""

    @pytest.mark.parametrize(
        "name, row, value", [("X", 7, np.nan), ("Y", 49, np.inf)]
    )
    def test_directory(self, fitted, tmp_path, name, row, value):
        _, rec = fitted
        rec.save(tmp_path / "ckpt")
        factor = np.load(tmp_path / "ckpt" / f"{name}.npy", mmap_mode="r+")
        factor[row, 2] = value
        factor.flush()
        del factor
        for mmap_mode in (None, "r"):
            with pytest.raises(ValueError, match=f"factor {name}, row {row}$"):
                repro.Recommender.load(tmp_path / "ckpt", mmap_mode=mmap_mode)

    @pytest.mark.parametrize(
        "name, row, value", [("X", 0, -np.inf), ("Y", 12, np.nan)]
    )
    def test_npz(self, fitted, tmp_path, name, row, value):
        _, rec = fitted
        rec.save(tmp_path / "m.npz")
        with np.load(tmp_path / "m.npz") as data:
            arrays = {key: data[key] for key in data.files}
        arrays[name][row, 0] = value
        np.savez_compressed(tmp_path / "bad.npz", **arrays)
        with pytest.raises(ValueError, match=f"factor {name}, row {row}$"):
            repro.Recommender.load(tmp_path / "bad.npz")

    def test_hot_swap_refuses_it(self, fitted, tmp_path):
        from repro.serving.service import RecommendService

        _, rec = fitted
        rec.save(tmp_path / "ckpt")
        factor = np.load(tmp_path / "ckpt" / "X.npy", mmap_mode="r+")
        factor[3, 0] = np.nan
        factor.flush()
        del factor
        svc = RecommendService(rec)
        with pytest.raises(ValueError, match="factor X, row 3$"):
            svc.hot_swap(tmp_path / "ckpt")
        assert svc.generation == 0 and svc._rec is rec
        assert svc.stats.snapshot()["refused_swaps"] == 1


class TestShardStoreFit:
    def test_fit_from_store_matches_in_ram(self, fitted, tmp_path):
        ratings, rec = fitted
        build_shard_store(tmp_path / "store", ratings)
        store = repro.ShardStore.open(tmp_path / "store")
        ooc = repro.Recommender(k=6, lam=0.1, iterations=3).fit(store)
        assert np.array_equal(rec.model.X, ooc.model.X)
        assert np.array_equal(rec.model.Y, ooc.model.Y)
        # exclude-seen recommendation reads the ShardedCSR directly
        got = ooc.recommend(user=1, n_items=4)
        want = rec.recommend(user=1, n_items=4)
        assert [i for i, _ in got] == [i for i, _ in want]
