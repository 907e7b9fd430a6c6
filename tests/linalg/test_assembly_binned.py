"""Tests for the degree-binned, tiled normal-equations assembly."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.linalg import (
    assemble_gram,
    assemble_rhs,
    assembly_defaults,
    binned_normal_equations,
    configure_assembly,
    scatter_normal_equations,
    tile_bytes_bound,
)
from repro.linalg.normal_equations import DEFAULT_TILE_NNZ, complement_predictions
from repro.obs import metrics as obs_metrics
from repro.obs.spans import capture, disable
from repro.sparse import CSRMatrix


def _random_matrix(
    rng: np.random.Generator, m: int, n: int, density: float, skewed: bool = False
) -> CSRMatrix:
    mask = rng.random((m, n)) < density
    if skewed and m >= 4:
        # A few heavy rows plus empty rows — the degree profile the
        # binning exists for.
        mask[0] = True
        mask[1] = rng.random(n) < min(1.0, 4 * density)
        mask[m // 2] = False
    dense = np.where(mask, rng.integers(1, 6, size=(m, n)).astype(np.float32), 0.0)
    return CSRMatrix.from_dense(dense.astype(np.float32))


def _reference(R: CSRMatrix, Y: np.ndarray, lam: float):
    """The per-row Algorithm-2 reference every batched path must match."""
    m, k = R.nrows, Y.shape[1]
    A = np.empty((m, k, k))
    b = np.empty((m, k))
    for u in range(m):
        cols, vals = R.row_slice(u)
        A[u] = assemble_gram(Y, cols, lam)
        b[u] = assemble_rhs(Y, cols, vals)
    return A, b


class TestBinnedMatchesReference:
    @settings(max_examples=25, deadline=None)
    @given(
        m=st.integers(min_value=1, max_value=40),
        n=st.integers(min_value=1, max_value=30),
        k=st.integers(min_value=1, max_value=9),
        density=st.floats(min_value=0.0, max_value=0.7),
        skewed=st.booleans(),
        seed=st.integers(min_value=0, max_value=2**31),
    )
    def test_property_binned_matches_per_row(self, m, n, k, density, skewed, seed):
        rng = np.random.default_rng(seed)
        R = _random_matrix(rng, m, n, density, skewed)
        Y = rng.standard_normal((n, k))
        A_ref, b_ref = _reference(R, Y, 0.3)
        A, b = binned_normal_equations(R, Y, 0.3)
        np.testing.assert_allclose(A, A_ref, atol=1e-10)
        np.testing.assert_allclose(b, b_ref, atol=1e-10)

    @settings(max_examples=15, deadline=None)
    @given(
        m=st.integers(min_value=1, max_value=30),
        n=st.integers(min_value=1, max_value=20),
        k=st.integers(min_value=1, max_value=8),
        tile_nnz=st.integers(min_value=1, max_value=64),
        seed=st.integers(min_value=0, max_value=2**31),
    )
    def test_property_tiling_never_changes_the_result(self, m, n, k, tile_nnz, seed):
        """Tiny tile budgets force row tiling *and* width segmentation."""
        rng = np.random.default_rng(seed)
        R = _random_matrix(rng, m, n, 0.4, skewed=True)
        Y = rng.standard_normal((n, k))
        A_ref, b_ref = _reference(R, Y, 0.1)
        A, b = binned_normal_equations(R, Y, 0.1, tile_nnz=tile_nnz)
        np.testing.assert_allclose(A, A_ref, atol=1e-10)
        np.testing.assert_allclose(b, b_ref, atol=1e-10)

    @settings(max_examples=15, deadline=None)
    @given(
        m=st.integers(min_value=1, max_value=30),
        n=st.integers(min_value=1, max_value=20),
        k=st.integers(min_value=1, max_value=8),
        seed=st.integers(min_value=0, max_value=2**31),
    )
    def test_property_float32_compute_stays_close(self, m, n, k, seed):
        rng = np.random.default_rng(seed)
        R = _random_matrix(rng, m, n, 0.4, skewed=True)
        Y = rng.standard_normal((n, k))
        A_ref, b_ref = _reference(R, Y, 0.2)
        A, b = binned_normal_equations(R, Y, 0.2, compute_dtype="float32")
        assert A.dtype == np.float64 and b.dtype == np.float64
        np.testing.assert_allclose(A, A_ref, atol=1e-4, rtol=1e-4)
        np.testing.assert_allclose(b, b_ref, atol=1e-4, rtol=1e-4)

    def test_matches_scatter_exactly_on_fixture(self, small_ratings, rng):
        Y = rng.standard_normal((small_ratings.ncols, 6))
        A_s, b_s = scatter_normal_equations(small_ratings, Y, 0.1)
        A_b, b_b = binned_normal_equations(small_ratings, Y, 0.1)
        np.testing.assert_allclose(A_b, A_s, atol=1e-12)
        np.testing.assert_allclose(b_b, b_s, atol=1e-12)

    def test_empty_rows_get_lambda_identity(self):
        dense = np.zeros((3, 4), dtype=np.float32)
        dense[0, 1] = 2.0
        R = CSRMatrix.from_dense(dense)
        A, b = binned_normal_equations(R, np.ones((4, 3)), 0.7)
        np.testing.assert_allclose(A[1], 0.7 * np.eye(3))
        np.testing.assert_allclose(b[1], np.zeros(3))

    def test_empty_matrix(self):
        R = CSRMatrix(
            (3, 4),
            np.array([], dtype=np.float32),
            np.array([], dtype=np.int64),
            np.zeros(4, dtype=np.int64),
        )
        A, b = binned_normal_equations(R, np.ones((4, 2)), 0.5)
        np.testing.assert_allclose(A, np.broadcast_to(0.5 * np.eye(2), (3, 2, 2)))
        np.testing.assert_allclose(b, np.zeros((3, 2)))

    def test_shape_mismatch_rejected(self, small_ratings, rng):
        with pytest.raises(ValueError):
            binned_normal_equations(small_ratings, rng.standard_normal((3, 5)), 0.1)


class TestFusedRhs:
    """S2 rides S1's gather; it must still be the sparse product R @ Y."""

    @settings(max_examples=60, deadline=None)
    @given(
        m=st.integers(2, 24),
        n=st.integers(2, 20),
        k=st.integers(2, 6),
        density=st.floats(0.0, 0.8),
        tile_frac=st.floats(0.0, 1.0),
        float32=st.booleans(),
        implicit=st.booleans(),
        blocked=st.booleans(),
        seed=st.integers(0, 2**31 - 1),
    )
    def test_property_fused_rhs_matches_matmat(
        self, m, n, k, density, tile_frac, float32, implicit, blocked, seed
    ):
        rng = np.random.default_rng(seed)
        mask = rng.random((m, n)) < density
        mask[0] = True  # a full row, wider than any tile below: segmented
        mask[-1] = False  # an empty row
        dense = np.where(mask, rng.integers(1, 6, size=(m, n)), 0)
        R = CSRMatrix.from_dense(dense.astype(np.float32))
        tile_nnz = 1 + int(tile_frac * (n - 2))  # < n
        dtype = np.float32 if float32 else np.float64
        Y = rng.standard_normal((n, k))
        value = R.value.astype(np.float64)
        w = 40.0 * value if implicit else None
        rv = w + 1.0 if implicit else None
        start, stop = 0, k
        if blocked:  # a strict col_block, as the iALS++ sweep assembles it
            d = int(rng.integers(1, k))
            start = int(rng.integers(0, k - d + 1))
            stop = start + d
            X = rng.standard_normal((m, k))
            pbar = complement_predictions(R, X, Y, start, stop, tile_nnz=tile_nnz)
            rv = rv - w * pbar if implicit else value - pbar
        Yb = Y[:, start:stop]
        _, b = binned_normal_equations(
            R, Yb, 0.1, tile_nnz=tile_nnz, compute_dtype=dtype,
            nnz_weight=w, rhs_nnz_value=rv,
        )
        Yc = Yb.astype(dtype).astype(np.float64)
        coef = value if rv is None else rv
        ref = R.matmat(Yc, values=coef)
        scale = R.matmat(np.abs(Yc), values=np.abs(coef))
        assert np.all(np.abs(b - ref) <= 1e-12 * scale)
        assert not b[-1].any()


class TestTileBudget:
    def test_peak_tile_bytes_gauge_respects_budget(self, rng):
        R = _random_matrix(rng, 60, 40, 0.5, skewed=True)
        k = 7
        Y = rng.standard_normal((40, k))
        for tile_nnz in (16, 128, 4096):
            obs_metrics.reset()
            with capture():
                binned_normal_equations(R, Y, 0.1, tile_nnz=tile_nnz)
            snap = obs_metrics.snapshot()
            peak = snap["gauges"]["assembly.peak_tile_bytes"]
            assert 0 < peak <= tile_bytes_bound(tile_nnz, k)
            assert snap["gauges"]["assembly.bins"] >= 1
            assert snap["counters"]["assembly.tiles"] >= 1

    def test_smaller_budget_means_smaller_peak(self, rng):
        R = _random_matrix(rng, 80, 50, 0.5)
        Y = rng.standard_normal((50, 6))
        peaks = []
        for tile_nnz in (8, 2048):
            obs_metrics.reset()
            with capture():
                binned_normal_equations(R, Y, 0.1, tile_nnz=tile_nnz)
            peaks.append(obs_metrics.snapshot()["gauges"]["assembly.peak_tile_bytes"])
        assert peaks[0] < peaks[1]

    def test_float32_bound_uses_compute_itemsize(self):
        assert tile_bytes_bound(1024, 8, "float32") < tile_bytes_bound(1024, 8)

    def test_bad_tile_budget_rejected(self, small_ratings, rng):
        with pytest.raises(ValueError):
            binned_normal_equations(
                small_ratings, rng.standard_normal((small_ratings.ncols, 2)), 0.1,
                tile_nnz=0,
            )


class TestDispatchAndConfig:
    def test_defaults_resolve_builtin(self):
        d = assembly_defaults()
        assert d == {"tile_nnz": DEFAULT_TILE_NNZ, "compute_dtype": "float64"}

    def test_configure_assembly_installs_and_resets(self):
        configure_assembly(tile_nnz=77, compute_dtype="float32")
        assert assembly_defaults() == {"tile_nnz": 77, "compute_dtype": "float32"}
        configure_assembly()
        assert assembly_defaults() == {
            "tile_nnz": DEFAULT_TILE_NNZ, "compute_dtype": "float64",
        }

    def test_configure_assembly_validates(self):
        with pytest.raises(ValueError):
            configure_assembly(tile_nnz=0)
        with pytest.raises(ValueError):
            configure_assembly(compute_dtype="float16")

    def test_environment_overrides(self, monkeypatch, small_ratings, rng):
        monkeypatch.setenv("REPRO_TILE_NNZ", "123")
        monkeypatch.setenv("REPRO_ASSEMBLY_DTYPE", "float32")
        d = assembly_defaults()
        assert d == {"tile_nnz": 123, "compute_dtype": "float32"}
        # configure_assembly wins over the environment...
        configure_assembly(compute_dtype="float64")
        assert assembly_defaults()["compute_dtype"] == "float64"
        # ...and the explicit argument wins over both.
        Y = rng.standard_normal((small_ratings.ncols, 3))
        A_env, _ = binned_normal_equations(small_ratings, Y, 0.1)
        A_arg, _ = binned_normal_equations(
            small_ratings, Y, 0.1, compute_dtype="float32"
        )
        assert A_env.shape == (small_ratings.nrows, 3, 3)
        assert not np.array_equal(A_env, A_arg)

    def test_bad_environment_value_raises(self, monkeypatch):
        monkeypatch.setenv("REPRO_ASSEMBLY_DTYPE", "nope")
        with pytest.raises(ValueError):
            assembly_defaults()

    def test_spans_disabled_still_correct(self, small_ratings, rng):
        disable()
        Y = rng.standard_normal((small_ratings.ncols, 3))
        A_ref, b_ref = _reference(small_ratings, Y, 0.1)
        A, b = binned_normal_equations(small_ratings, Y, 0.1)
        np.testing.assert_allclose(A, A_ref, atol=1e-10)
        np.testing.assert_allclose(b, b_ref, atol=1e-10)


class TestAssembleHelpers:
    def test_gram_keeps_inputs_unchanged(self, rng):
        """The cached-diagonal ridge must not alias caller data."""
        Y = rng.standard_normal((9, 4))
        Y0 = Y.copy()
        g1 = assemble_gram(Y, np.array([1, 3, 8]), 0.5)
        g2 = assemble_gram(Y, np.array([1, 3, 8]), 0.5)
        np.testing.assert_array_equal(Y, Y0)
        np.testing.assert_allclose(g1, g2)
        np.testing.assert_allclose(
            g1, Y[[1, 3, 8]].T @ Y[[1, 3, 8]] + 0.5 * np.eye(4)
        )

    def test_no_copy_for_float64_contiguous(self, rng):
        from repro.linalg.normal_equations import _as_float

        Y = np.ascontiguousarray(rng.standard_normal((5, 3)))
        assert _as_float(Y, np.dtype(np.float64)) is Y
        Y32 = Y.astype(np.float32)
        assert _as_float(Y32, np.dtype(np.float32)) is Y32
        assert _as_float(Y32, np.dtype(np.float64)) is not Y32
