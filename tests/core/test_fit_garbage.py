"""A fit leaves no cyclic garbage: its matrices die by reference counting.

A training run builds per-fit structure — the transposed ``R_cols``,
the executor's row shards, every matrix's degree bins and lane plans.
If any of it sits on a reference cycle (a matrix caching itself as its
own occupied submatrix did), it outlives the fit until a full garbage
collection, and the process's memory climbs fit after fit.  Each test
runs a fit with the collector off and ``DEBUG_SAVEALL`` on, so anything
only a collection could free shows up in ``gc.garbage``.
"""

from __future__ import annotations

import gc
import weakref
from collections import Counter

import numpy as np
import pytest

from repro.core.als import ALSConfig, train_als
from repro.core.alswr import train_als_wr
from repro.core.implicit import ImplicitConfig, train_implicit_als
from repro.datasets.shardio import build_shard_store
from repro.parallel.executor import solve_bytes_per_row
from repro.sparse import CSCMatrix, COOMatrix, ShardStore


def _ratings(seed: int = 0, m: int = 60, n: int = 40) -> COOMatrix:
    """Ratings in which every row and every column is occupied."""
    rng = np.random.default_rng(seed)
    mask = rng.random((m, n)) < 0.25
    mask[np.arange(m), np.arange(m) % n] = True
    mask[np.arange(n) % m, np.arange(n)] = True
    rows, cols = np.nonzero(mask)
    values = rng.integers(1, 6, rows.size).astype(np.float32)
    return COOMatrix((m, n), rows, cols, values)


@pytest.fixture
def collector_off():
    """Collector off, and whatever a collection finds kept for the test."""
    gc.collect()
    gc.disable()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        yield
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        gc.enable()
        gc.collect()


def _assert_no_cyclic_garbage() -> None:
    found = gc.collect()
    kinds = Counter(type(obj).__name__ for obj in gc.garbage)
    assert found == 0, f"cyclic garbage after the fit: {dict(kinds)}"


_TRAINERS = {
    "als": (train_als, ALSConfig),
    "als_wr": (train_als_wr, ALSConfig),
    "implicit": (train_implicit_als, ImplicitConfig),
}


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("algorithm", sorted(_TRAINERS))
def test_in_ram_fit(collector_off, algorithm, workers):
    train, config = _TRAINERS[algorithm]
    model = train(_ratings(), config(k=8, iterations=2, workers=workers))
    assert np.isfinite(model.X).all()
    del model
    _assert_no_cyclic_garbage()


@pytest.mark.parametrize("workers", [1, 2])
def test_subspace_fit(collector_off, workers):
    cfg = ImplicitConfig(k=8, iterations=2, block_size=4, workers=workers)
    model = train_implicit_als(_ratings(1), cfg)
    assert np.isfinite(model.X).all()
    del model
    _assert_no_cyclic_garbage()


@pytest.fixture
def store(tmp_path):
    build_shard_store(tmp_path / "store", _ratings(2, m=300, n=80))
    return ShardStore.open(tmp_path / "store", shard_bytes=1 << 20)


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("algorithm", ["als", "implicit"])
def test_out_of_core_fit(store, collector_off, algorithm, workers):
    # k = 32 puts ~120 rows in a 1 MiB shard: the row sweep streams.
    assert len(store.rows.shards(solve_bytes_per_row(32))) > 1
    train, config = _TRAINERS[algorithm]
    model = train(store, config(k=32, iterations=2, workers=workers))
    assert np.isfinite(model.X).all()
    del model
    _assert_no_cyclic_garbage()


@pytest.mark.parametrize("workers", [1, 2])
def test_transposed_view_dies_with_the_fit(collector_off, monkeypatch, workers):
    """The per-fit ``R_cols`` is freed by reference counting alone."""
    views = []
    transpose = CSCMatrix.transpose_as_csr

    def recording(self):
        out = transpose(self)
        views.append(weakref.ref(out))
        return out

    monkeypatch.setattr(CSCMatrix, "transpose_as_csr", recording)
    model = train_implicit_als(
        _ratings(3), ImplicitConfig(k=8, iterations=2, workers=workers)
    )
    assert len(views) == 1
    assert model.Y.shape == (40, 8)
    assert views[0]() is None
