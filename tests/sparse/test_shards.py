"""The on-disk shard store: format round-trip, budget planning, knobs.

The out-of-core trainers' correctness reduces to two properties tested
here: (1) a store round-trips any rating matrix exactly (both
orientations, any dtype, empty rows included), and (2) the cols
orientation stores within-column entries in the same order as
``CSCMatrix.from_csr`` — the invariant that makes the sharded Y
half-sweep bitwise-equal to the in-RAM one.
"""

from __future__ import annotations

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datasets.shardio import build_shard_store
from repro.parallel.executor import solve_bytes_per_row
from repro.sparse import COOMatrix, CSCMatrix, CSRMatrix
from repro.sparse.shards import (
    DEFAULT_SHARD_BYTES,
    MIN_SHARD_BYTES,
    ShardStore,
    ShardedCSR,
    configure_sharding,
    is_shard_store,
    resolve_shard_bytes,
)


def _random_coo(m, n, nnz, seed=0, dtype=np.float32):
    rng = np.random.default_rng(seed)
    flat = rng.choice(m * n, size=min(nnz, m * n), replace=False)
    rows = (flat // n).astype(np.int64)
    cols = (flat % n).astype(np.int64)
    vals = rng.uniform(1.0, 5.0, size=flat.size).astype(dtype)
    return COOMatrix((m, n), rows, cols, vals)


class TestRoundTrip:
    def test_rows_orientation_matches_csr(self, tmp_path):
        coo = _random_coo(40, 17, 300, seed=1)
        store = build_shard_store(tmp_path / "s", coo)
        assert store.rows.to_csr() == CSRMatrix.from_coo(coo)

    def test_cols_orientation_is_bitwise_csc_transpose(self, tmp_path):
        coo = _random_coo(33, 21, 250, seed=2)
        R = CSRMatrix.from_coo(coo)
        expected = CSCMatrix.from_csr(R).transpose_as_csr()
        store = build_shard_store(tmp_path / "s", coo)
        got = store.cols.to_csr()
        assert np.array_equal(got.row_ptr, expected.row_ptr)
        assert np.array_equal(got.col_idx, expected.col_idx)
        assert np.array_equal(got.value, expected.value)

    def test_float64_values(self, tmp_path):
        coo = _random_coo(10, 8, 40, seed=3, dtype=np.float64)
        store = build_shard_store(tmp_path / "s", coo, value_dtype="float64")
        assert store.meta["value_dtype"] == "float64"
        assert store.rows._values.dtype == np.float64  # on-disk precision
        # Resident CSR shards follow the substrate's float32 value policy.
        assert store.rows.to_csr() == CSRMatrix.from_coo(coo)

    def test_empty_matrix(self, tmp_path):
        coo = COOMatrix(
            (5, 4),
            np.empty(0, np.int64), np.empty(0, np.int64),
            np.empty(0, np.float32),
        )
        store = build_shard_store(tmp_path / "s", coo)
        assert store.nnz == 0
        assert store.rows.to_csr().nnz == 0
        assert list(store.rows.iter_resident()) != []  # one empty span

    def test_csr_source_fast_path(self, tmp_path):
        R = CSRMatrix.from_coo(_random_coo(25, 12, 120, seed=4))
        store = build_shard_store(tmp_path / "s", R)
        assert store.rows.to_csr() == R

    def test_chunk_factory_source(self, tmp_path):
        coo = _random_coo(30, 14, 200, seed=5)
        order = np.argsort(coo.col, kind="stable")  # deliberately shuffled

        def chunks():
            for a in range(0, coo.nnz, 64):
                sl = order[a:a + 64]
                yield coo.row[sl], coo.col[sl], coo.value[sl]

        store = build_shard_store(tmp_path / "s", chunks, shape=(30, 14))
        assert store.rows.to_csr() == CSRMatrix.from_coo(coo)

    def test_duplicate_entries_rejected(self, tmp_path):
        def chunks():
            yield (
                np.array([2, 2], np.int64),
                np.array([3, 3], np.int64),
                np.array([1.0, 2.0], np.float32),
            )

        with pytest.raises(ValueError, match="duplicate rating"):
            build_shard_store(tmp_path / "s", chunks, shape=(5, 5))


@settings(max_examples=25, deadline=None)
@given(
    m=st.integers(1, 12),
    n=st.integers(1, 9),
    density=st.floats(0.0, 1.0),
    dtype=st.sampled_from([np.float32, np.float64]),
    seed=st.integers(0, 99),
)
def test_roundtrip_property(tmp_path_factory, m, n, density, dtype, seed):
    """Any matrix survives store-and-reload in both orientations."""
    nnz = int(density * m * n)
    coo = _random_coo(m, n, nnz, seed=seed, dtype=dtype)
    dest = tmp_path_factory.mktemp("prop") / "s"
    store = build_shard_store(
        dest, coo, value_dtype=np.dtype(dtype).name
    )
    R = CSRMatrix.from_coo(coo)
    assert store.rows.to_csr() == R
    expected_cols = CSCMatrix.from_csr(R).transpose_as_csr()
    assert store.cols.to_csr() == expected_cols


class TestSpans:
    def test_spans_cover_all_rows_once(self, tmp_path):
        coo = _random_coo(200, 30, 2000, seed=6)
        store = build_shard_store(tmp_path / "s", coo)
        view = ShardStore.open(tmp_path / "s", shard_bytes=MIN_SHARD_BYTES).rows
        spans = view.shards(extra_row_bytes=32 << 10)  # force several
        assert len(spans) > 1
        assert spans[0].row_start == 0
        assert spans[-1].row_stop == view.nrows
        for a, b in zip(spans, spans[1:]):
            assert a.row_stop == b.row_start
        assert sum(sp.nnz for sp in spans) == view.nnz

    def test_single_span_when_budget_is_large(self, tmp_path):
        coo = _random_coo(20, 10, 80, seed=7)
        store = build_shard_store(tmp_path / "s", coo)
        assert len(store.rows.shards()) == 1

    def test_iter_resident_matches_row_ranges(self, tmp_path):
        coo = _random_coo(150, 25, 1500, seed=8)
        store = build_shard_store(tmp_path / "s", coo)
        view = ShardStore.open(tmp_path / "s", shard_bytes=MIN_SHARD_BYTES).rows
        R = CSRMatrix.from_coo(coo)
        extra = solve_bytes_per_row(64)
        for prefetch in (False, True):
            seen = 0
            for sp, mat in view.iter_resident(extra, prefetch=prefetch):
                expected = R.take_rows(np.arange(sp.row_start, sp.row_stop))
                assert mat == expected
                seen += mat.nnz
            assert seen == R.nnz

    def test_degree_bins_match_in_ram_grid(self, tmp_path):
        coo = _random_coo(60, 15, 400, seed=9)
        store = build_shard_store(tmp_path / "s", coo)
        R = CSRMatrix.from_coo(coo)
        got = store.rows.degree_bins()
        want = R.degree_bins()
        assert len(got) == len(want)
        for g, w in zip(got, want):
            assert g.width == w.width
            assert np.array_equal(g.rows, w.rows)

    def test_matmat_and_min_value(self, tmp_path):
        coo = _random_coo(45, 12, 300, seed=10)
        store = build_shard_store(tmp_path / "s", coo)
        R = CSRMatrix.from_coo(coo)
        B = np.random.default_rng(0).standard_normal((12, 6))
        assert np.allclose(store.rows.matmat(B), R.matmat(B))
        assert store.rows.min_value() == float(R.value.min())


class TestStoreErrors:
    def test_open_missing_directory(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            ShardStore.open(tmp_path / "nope")

    def test_version_mismatch(self, tmp_path):
        coo = _random_coo(5, 5, 10, seed=11)
        build_shard_store(tmp_path / "s", coo)
        meta_path = tmp_path / "s" / "meta.json"
        meta = json.loads(meta_path.read_text())
        meta["format_version"] = 999
        meta_path.write_text(json.dumps(meta))
        with pytest.raises(ValueError, match="format"):
            ShardStore.open(tmp_path / "s")

    def test_truncated_data_file(self, tmp_path):
        coo = _random_coo(8, 6, 20, seed=12)
        build_shard_store(tmp_path / "s", coo)
        data = tmp_path / "s" / "rows.values.bin"
        data.write_bytes(data.read_bytes()[:-4])
        with pytest.raises(ValueError):
            ShardStore.open(tmp_path / "s")

    def test_existing_dest_needs_overwrite(self, tmp_path):
        coo = _random_coo(5, 5, 10, seed=13)
        build_shard_store(tmp_path / "s", coo)
        with pytest.raises(FileExistsError):
            build_shard_store(tmp_path / "s", coo)
        build_shard_store(tmp_path / "s", coo, overwrite=True)

    def test_is_shard_store(self, tmp_path):
        coo = _random_coo(5, 5, 10, seed=14)
        build_shard_store(tmp_path / "s", coo)
        assert is_shard_store(tmp_path / "s")
        assert not is_shard_store(tmp_path)
        assert not is_shard_store(tmp_path / "absent")


class TestKnobs:
    def test_precedence(self, monkeypatch):
        assert resolve_shard_bytes() == DEFAULT_SHARD_BYTES
        monkeypatch.setenv("REPRO_SHARD_BYTES", str(4 << 20))
        assert resolve_shard_bytes() == 4 << 20
        configure_sharding(8 << 20)
        assert resolve_shard_bytes() == 8 << 20  # configured beats env
        assert resolve_shard_bytes(2 << 20) == 2 << 20  # explicit wins

    def test_floor_enforced(self):
        with pytest.raises(ValueError, match="shard_bytes"):
            resolve_shard_bytes(MIN_SHARD_BYTES - 1)
        with pytest.raises(ValueError, match="shard_bytes"):
            configure_sharding(1)

    def test_bad_env_value(self, monkeypatch):
        monkeypatch.setenv("REPRO_SHARD_BYTES", "12")
        with pytest.raises(ValueError, match="REPRO_SHARD_BYTES"):
            resolve_shard_bytes()
