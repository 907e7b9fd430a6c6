"""Unit and property tests for CSR/CSC storage."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.sparse import COOMatrix, CSCMatrix, CSRMatrix


class TestPaperFig2:
    """CSR of the Fig. 2 example must match the paper's arrays."""

    def test_value_array(self, paper_fig2_matrix):
        csr = CSRMatrix.from_coo(paper_fig2_matrix)
        np.testing.assert_array_equal(csr.value, [1, 2, 3, 4, 5])

    def test_col_idx_array(self, paper_fig2_matrix):
        csr = CSRMatrix.from_coo(paper_fig2_matrix)
        np.testing.assert_array_equal(csr.col_idx, [0, 3, 1, 0, 2])

    def test_row_ptr_array(self, paper_fig2_matrix):
        csr = CSRMatrix.from_coo(paper_fig2_matrix)
        np.testing.assert_array_equal(csr.row_ptr, [0, 2, 3, 3, 5])

    def test_count_nonzeros_matches_algorithm2(self, paper_fig2_matrix):
        csr = CSRMatrix.from_coo(paper_fig2_matrix)
        assert [csr.count_nonzeros(u) for u in range(4)] == [2, 1, 0, 2]


class TestCSRValidation:
    def test_bad_row_ptr_length(self):
        with pytest.raises(ValueError, match="row_ptr"):
            CSRMatrix((2, 2), np.array([1.0]), np.array([0]), np.array([0, 1]))

    def test_row_ptr_not_ending_at_nnz(self):
        with pytest.raises(ValueError, match="row_ptr"):
            CSRMatrix((2, 2), np.array([1.0]), np.array([0]), np.array([0, 0, 2]))

    def test_decreasing_row_ptr(self):
        with pytest.raises(ValueError, match="non-decreasing"):
            CSRMatrix(
                (2, 2),
                np.array([1.0, 2.0]),
                np.array([0, 1]),
                np.array([0, 3, 2]),
            )

    def test_col_idx_out_of_range(self):
        with pytest.raises(ValueError, match="col_idx"):
            CSRMatrix((1, 2), np.array([1.0]), np.array([2]), np.array([0, 1]))

    def test_value_colidx_length_mismatch(self):
        with pytest.raises(ValueError, match="same length"):
            CSRMatrix((1, 2), np.array([1.0]), np.array([0, 1]), np.array([0, 1]))


class TestCSROperations:
    def test_dense_roundtrip(self, small_ratings):
        dense = small_ratings.to_dense()
        assert CSRMatrix.from_dense(dense) == small_ratings

    def test_row_slice_contents(self, paper_fig2_matrix):
        csr = CSRMatrix.from_coo(paper_fig2_matrix)
        cols, vals = csr.row_slice(3)
        np.testing.assert_array_equal(cols, [0, 2])
        np.testing.assert_array_equal(vals, [4.0, 5.0])

    def test_row_slice_out_of_range(self, small_ratings):
        with pytest.raises(IndexError):
            small_ratings.row_slice(small_ratings.nrows)

    def test_row_lengths_sum_to_nnz(self, small_ratings):
        assert small_ratings.row_lengths().sum() == small_ratings.nnz

    def test_matvec_matches_dense(self, small_ratings, rng):
        x = rng.random(small_ratings.ncols)
        np.testing.assert_allclose(
            small_ratings.matvec(x), small_ratings.to_dense() @ x, rtol=1e-6
        )

    def test_matvec_shape_check(self, small_ratings):
        with pytest.raises(ValueError):
            small_ratings.matvec(np.zeros(small_ratings.ncols + 1))

    def test_matmat_matches_dense(self, small_ratings, rng):
        B = rng.random((small_ratings.ncols, 6))
        np.testing.assert_allclose(
            small_ratings.matmat(B), small_ratings.to_dense() @ B, rtol=1e-6
        )

    def test_matmat_shape_check(self, small_ratings):
        with pytest.raises(ValueError):
            small_ratings.matmat(np.zeros((small_ratings.ncols + 2, 3)))

    def test_transpose_to_csr(self, small_ratings):
        t = small_ratings.transpose_to_csr()
        np.testing.assert_array_equal(t.to_dense(), small_ratings.to_dense().T)

    def test_expanded_rows(self, paper_fig2_matrix):
        csr = CSRMatrix.from_coo(paper_fig2_matrix)
        np.testing.assert_array_equal(csr.expanded_rows(), [0, 0, 1, 3, 3])

    def test_from_coo_deduplicates(self):
        coo = COOMatrix((2, 2), [0, 0], [1, 1], [1.0, 9.0])
        csr = CSRMatrix.from_coo(coo)
        assert csr.nnz == 1
        assert csr.to_dense()[0, 1] == 9.0


class TestDerivedStructureCaches:
    """row_lengths/expanded_rows are computed once and can never go stale:
    the matrix is immutable and the caches are handed out read-only."""

    def test_row_lengths_cached(self, small_ratings):
        first = small_ratings.row_lengths()
        assert small_ratings.row_lengths() is first

    def test_expanded_rows_cached(self, small_ratings):
        first = small_ratings.expanded_rows()
        assert small_ratings.expanded_rows() is first

    def test_caches_are_read_only(self, small_ratings):
        with pytest.raises(ValueError):
            small_ratings.row_lengths()[0] = 99
        with pytest.raises(ValueError):
            small_ratings.expanded_rows()[0] = 99

    def test_cached_values_correct(self, small_ratings):
        np.testing.assert_array_equal(
            small_ratings.row_lengths(), np.diff(small_ratings.row_ptr)
        )
        np.testing.assert_array_equal(
            small_ratings.expanded_rows(),
            np.repeat(
                np.arange(small_ratings.nrows), np.diff(small_ratings.row_ptr)
            ),
        )

    def test_to_coo_arrays_stay_writable(self, small_ratings):
        """Conversions must hand out fresh arrays, not the frozen caches."""
        coo = small_ratings.to_coo()
        coo.row[0] = coo.row[0]  # would raise on a read-only view


class TestDegreeBins:
    def test_bins_partition_occupied_rows(self, small_ratings):
        bins = small_ratings.degree_bins()
        all_rows = np.concatenate([b.rows for b in bins]) if bins else np.array([])
        occupied = np.nonzero(small_ratings.row_lengths() > 0)[0]
        assert sorted(all_rows.tolist()) == sorted(occupied.tolist())

    def test_bin_invariants(self, small_ratings):
        growth = 1.25
        lengths = small_ratings.row_lengths()
        for b in small_ratings.degree_bins(growth):
            assert np.all(np.diff(b.lengths) >= 0)  # ascending degrees
            assert int(b.lengths[-1]) <= b.width  # grid edge covers the bin
            assert b.width <= max(int(b.lengths[0]), int(b.lengths[0] * growth))
            np.testing.assert_array_equal(b.lengths, lengths[b.rows])
            np.testing.assert_array_equal(b.starts, small_ratings.row_ptr[b.rows])
            assert b.nnz == int(b.lengths.sum())

    def test_exact_bins_with_growth_one(self, small_ratings):
        for b in small_ratings.degree_bins(growth=1.0):
            assert b.is_uniform
            assert np.all(b.lengths == b.width)

    def test_bins_cached_per_growth(self, small_ratings):
        assert small_ratings.degree_bins(1.25) is small_ratings.degree_bins(1.25)
        assert small_ratings.degree_bins(1.0) is not small_ratings.degree_bins(1.25)

    def test_empty_rows_excluded(self):
        dense = np.zeros((4, 3), dtype=np.float32)
        dense[1, 0] = 1.0
        dense[3, :] = 2.0
        csr = CSRMatrix.from_dense(dense)
        bins = csr.degree_bins()
        assert {int(r) for b in bins for r in b.rows} == {1, 3}

    def test_empty_matrix_has_no_bins(self):
        csr = CSRMatrix(
            (3, 2),
            np.array([], dtype=np.float32),
            np.array([], dtype=np.int64),
            np.zeros(4, dtype=np.int64),
        )
        assert csr.degree_bins() == ()

    def test_bad_growth_rejected(self, small_ratings):
        with pytest.raises(ValueError):
            small_ratings.degree_bins(growth=0.5)


class TestCSC:
    def test_paper_example_arrays(self, paper_fig2_matrix):
        csc = CSCMatrix.from_coo(paper_fig2_matrix)
        # column-major: col0 has rows 0,3; col1 row 1; col2 row 3; col3 row 0
        np.testing.assert_array_equal(csc.value, [1, 4, 3, 5, 2])
        np.testing.assert_array_equal(csc.row_idx, [0, 3, 1, 3, 0])
        np.testing.assert_array_equal(csc.col_ptr, [0, 2, 3, 4, 5])

    def test_dense_roundtrip(self, small_ratings):
        csc = CSCMatrix.from_csr(small_ratings)
        np.testing.assert_array_equal(csc.to_dense(), small_ratings.to_dense())

    def test_col_slice(self, paper_fig2_matrix):
        csc = CSCMatrix.from_coo(paper_fig2_matrix)
        rows, vals = csc.col_slice(0)
        np.testing.assert_array_equal(rows, [0, 3])
        np.testing.assert_array_equal(vals, [1.0, 4.0])

    def test_col_lengths_sum_to_nnz(self, small_ratings):
        csc = CSCMatrix.from_csr(small_ratings)
        assert csc.col_lengths().sum() == csc.nnz == small_ratings.nnz

    def test_transpose_as_csr_is_zero_copy_view(self, small_ratings):
        csc = CSCMatrix.from_csr(small_ratings)
        t = csc.transpose_as_csr()
        assert t.value is csc.value

    def test_to_coo_roundtrip(self, small_ratings):
        csc = CSCMatrix.from_csr(small_ratings)
        assert CSCMatrix.from_coo(csc.to_coo()) == csc

    def test_direct_constructor_validates(self):
        with pytest.raises(ValueError):
            CSCMatrix((2, 2), np.array([1.0]), np.array([0]), np.array([0, 2, 1]))

    def test_count_nonzeros(self, paper_fig2_matrix):
        csc = CSCMatrix.from_coo(paper_fig2_matrix)
        assert [csc.count_nonzeros(i) for i in range(4)] == [2, 1, 1, 1]


sparse_dense = hnp.arrays(
    np.float32,
    hnp.array_shapes(min_dims=2, max_dims=2, min_side=1, max_side=15),
    elements=st.sampled_from([0.0, 0.0, 0.0, 1.0, 3.5, 5.0]),
)


@settings(max_examples=40, deadline=None)
@given(dense=sparse_dense)
def test_property_csr_csc_consistent(dense):
    """CSR and CSC views of the same matrix must agree everywhere."""
    csr = CSRMatrix.from_dense(dense)
    csc = CSCMatrix.from_dense(dense)
    np.testing.assert_array_equal(csr.to_dense(), csc.to_dense())
    assert csr.nnz == csc.nnz
    # row lengths from CSC row_idx must match CSR row_ptr diffs
    np.testing.assert_array_equal(
        np.bincount(csc.row_idx, minlength=dense.shape[0]), csr.row_lengths()
    )


@settings(max_examples=40, deadline=None)
@given(dense=sparse_dense)
def test_property_transpose_roundtrip(dense):
    csr = CSRMatrix.from_dense(dense)
    assert csr.transpose_to_csr().transpose_to_csr() == csr


@st.composite
def coo_with_duplicates(draw):
    m, n = draw(st.integers(1, 9)), draw(st.integers(1, 9))
    nnz = draw(st.integers(0, 40))
    cell = st.tuples(st.integers(0, m - 1), st.integers(0, n - 1))
    # Few distinct cells, so duplicates (and empty rows) are common.
    pool = draw(st.lists(cell, min_size=1, max_size=6))
    cells = draw(st.lists(st.sampled_from(pool), min_size=nnz, max_size=nnz))
    values = draw(st.lists(st.floats(-5, 5, width=32), min_size=nnz, max_size=nnz))
    rows = np.array([r for r, _ in cells], dtype=np.int64)
    cols = np.array([c for _, c in cells], dtype=np.int64)
    return COOMatrix((m, n), rows, cols, np.array(values, dtype=np.float32))


@settings(max_examples=150, deadline=None)
@given(coo=coo_with_duplicates())
def test_property_from_coo_matches_lexsort_reference(coo):
    """``from_coo`` sorts once (in ``deduplicate``); a second row-major
    lexsort over its result must be the identity."""
    dedup = coo.deduplicate()
    order = np.lexsort((dedup.col, dedup.row))
    row_ptr = np.zeros(coo.shape[0] + 1, dtype=np.int64)
    np.cumsum(np.bincount(dedup.row, minlength=coo.shape[0]), out=row_ptr[1:])
    csr = CSRMatrix.from_coo(coo)
    assert csr.value.tobytes() == dedup.value[order].tobytes()
    assert csr.col_idx.tobytes() == dedup.col[order].tobytes()
    assert csr.row_ptr.tobytes() == row_ptr.tobytes()
