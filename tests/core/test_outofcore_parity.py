"""Sharded training == in-RAM training, bit for bit.

The contract the whole out-of-core subsystem rests on: because degree
bins come from a fixed geometric grid (a pure function of each row's own
degree) and the cols orientation replays ``CSCMatrix.from_csr``'s entry
order, a blocked half-sweep over resident shards assembles and solves
the *identical* float64 systems the in-RAM sweep does.  Factors must be
``np.array_equal``; loss trajectories (streamed partial sums) agree to
1e-10 relative.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.als import ALSConfig, train_als
from repro.core.alswr import train_als_wr, weighted_half_sweep
from repro.core.implicit import (
    ImplicitConfig,
    implicit_half_sweep,
    train_implicit_als,
)
from repro.core.init import init_factors
from repro.datasets.catalog import DatasetSpec
from repro.datasets.shardio import build_shard_store
from repro.datasets.synthetic import generate_ratings
from repro.kernels.fastpath import fast_half_sweep
from repro.sparse import CSRMatrix, ShardStore

_SPEC = DatasetSpec(
    name="parity", abbr="PRTY", m=900, n=220, nnz=14000,
    row_alpha=0.9, col_alpha=0.9, rating_min=1.0, rating_max=5.0,
)
_K = 12
_EXTRA = 4096  # per-row budget padding that forces several shards


@pytest.fixture(scope="module")
def data(tmp_path_factory):
    coo = generate_ratings(_SPEC, seed=5)
    root = tmp_path_factory.mktemp("ooc")
    build_shard_store(root / "store", coo)
    store = ShardStore.open(root / "store", shard_bytes=1 << 20)
    pos = type(coo)(coo.shape, coo.row, coo.col, np.abs(coo.value) + 0.25)
    build_shard_store(root / "store_pos", pos)
    store_pos = ShardStore.open(root / "store_pos", shard_bytes=1 << 20)
    return coo, store, pos, store_pos


def _multi_sharded(view):
    return len(view.shards(_EXTRA)) > 1


class TestHalfSweepParity:
    def test_plain(self, data):
        coo, store, _, _ = data
        R = CSRMatrix.from_coo(coo.deduplicate())
        Y = np.random.default_rng(0).uniform(-0.1, 0.1, (R.ncols, _K))
        assert _multi_sharded(store.rows)
        assert np.array_equal(
            fast_half_sweep(R, Y, 0.1), fast_half_sweep(store.rows, Y, 0.1)
        )

    def test_weighted(self, data):
        coo, store, _, _ = data
        R = CSRMatrix.from_coo(coo.deduplicate())
        Y = np.random.default_rng(1).uniform(-0.1, 0.1, (R.ncols, _K))
        assert np.array_equal(
            weighted_half_sweep(R, Y, 0.1),
            weighted_half_sweep(store.rows, Y, 0.1),
        )

    def test_implicit(self, data):
        _, _, pos, store_pos = data
        R = CSRMatrix.from_coo(pos.deduplicate())
        Y = np.random.default_rng(2).uniform(-0.1, 0.1, (R.ncols, _K))
        assert np.array_equal(
            implicit_half_sweep(R, Y, 0.1, 40.0),
            implicit_half_sweep(store_pos.rows, Y, 0.1, 40.0),
        )

    def test_cols_orientation(self, data):
        coo, store, _, _ = data
        from repro.sparse import CSCMatrix

        R = CSRMatrix.from_coo(coo.deduplicate())
        Rt = CSCMatrix.from_csr(R).transpose_as_csr()
        X = np.random.default_rng(3).uniform(-0.1, 0.1, (R.nrows, _K))
        assert np.array_equal(
            fast_half_sweep(Rt, X, 0.1), fast_half_sweep(store.cols, X, 0.1)
        )


class TestTrainerParity:
    @pytest.mark.parametrize("workers", [None, 2])
    def test_als(self, data, workers):
        coo, store, _, _ = data
        cfg = ALSConfig(k=_K, iterations=2, workers=workers)
        ram = train_als(coo, cfg)
        ooc = train_als(store, cfg)
        assert np.array_equal(ram.X, ooc.X)
        assert np.array_equal(ram.Y, ooc.Y)
        for a, b in zip(ram.history, ooc.history):
            assert abs(a.loss - b.loss) <= 1e-10 * max(1.0, abs(a.loss))
            assert abs(a.train_rmse - b.train_rmse) <= 1e-10

    @pytest.mark.parametrize("workers", [None, 2])
    def test_als_wr(self, data, workers):
        coo, store, _, _ = data
        cfg = ALSConfig(k=_K, iterations=2, workers=workers)
        ram = train_als_wr(coo, cfg)
        ooc = train_als_wr(store, cfg)
        assert np.array_equal(ram.X, ooc.X)
        assert np.array_equal(ram.Y, ooc.Y)

    @pytest.mark.parametrize("workers", [None, 2])
    def test_implicit(self, data, workers):
        _, _, pos, store_pos = data
        cfg = ImplicitConfig(k=_K, iterations=2, workers=workers)
        ram = train_implicit_als(pos, cfg)
        ooc = train_implicit_als(store_pos, cfg)
        assert np.array_equal(ram.X, ooc.X)
        assert np.array_equal(ram.Y, ooc.Y)
        for a, b in zip(ram.losses(), ooc.losses()):
            assert abs(a - b) <= 1e-10 * max(1.0, abs(a))

    def test_implicit_negative_values_rejected(self, data, tmp_path):
        coo, *_ = data
        neg = type(coo)(
            coo.shape, coo.row, coo.col, -np.abs(coo.value)
        )
        build_shard_store(tmp_path / "neg", neg)
        with pytest.raises(ValueError, match="non-negative"):
            train_implicit_als(ShardStore.open(tmp_path / "neg"))


class TestMemmapFactors:
    def test_als_memmap_matches_ram(self, data, tmp_path):
        _, store, _, _ = data
        ram = train_als(store, ALSConfig(k=_K, iterations=2))
        mm = train_als(
            store,
            ALSConfig(
                k=_K, iterations=2, factors="memmap",
                factors_dir=str(tmp_path / "f"),
            ),
        )
        assert isinstance(mm.X, np.memmap)
        assert np.array_equal(ram.X, np.asarray(mm.X))
        assert np.array_equal(ram.Y, np.asarray(mm.Y))
        assert (tmp_path / "f" / "X.npy").is_file()

    def test_implicit_memmap_matches_ram(self, data, tmp_path):
        _, _, _, store_pos = data
        ram = train_implicit_als(store_pos, ImplicitConfig(k=_K, iterations=2))
        mm = train_implicit_als(
            store_pos,
            ImplicitConfig(
                k=_K, iterations=2, factors="memmap",
                factors_dir=str(tmp_path / "f"),
            ),
        )
        assert np.array_equal(ram.X, np.asarray(mm.X))

    def test_bad_factor_mode_rejected(self):
        with pytest.raises(ValueError, match="factors"):
            ALSConfig(factors="cloud")
        with pytest.raises(ValueError, match="factors"):
            ImplicitConfig(factors="cloud")


class TestInitFactors:
    def test_memmap_rng_identity(self, tmp_path):
        """Chunked memmap fill draws the same stream as the one-shot path."""
        X1, Y1 = init_factors(64, 70000, 4, seed=11)
        X2, Y2 = init_factors(64, 70000, 4, seed=11, memmap_dir=tmp_path / "f")
        assert np.array_equal(X1, np.asarray(X2))
        assert np.array_equal(Y1, np.asarray(Y2))
