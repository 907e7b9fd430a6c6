"""Tests for Gaussian elimination and normal-equation assembly."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.linalg import (
    assemble_gram,
    assemble_rhs,
    batched_gaussian_solve,
    binned_normal_equations,
    gaussian_solve,
)
from repro.sparse import CSRMatrix


class TestGaussian:
    def test_matches_numpy(self, rng):
        a = rng.standard_normal((8, 8)) + 8 * np.eye(8)
        b = rng.standard_normal(8)
        np.testing.assert_allclose(gaussian_solve(a, b), np.linalg.solve(a, b), rtol=1e-9)

    def test_needs_pivoting(self):
        # Zero leading pivot forces a row swap.
        a = np.array([[0.0, 1.0], [1.0, 0.0]])
        b = np.array([2.0, 3.0])
        np.testing.assert_allclose(gaussian_solve(a, b), [3.0, 2.0])

    def test_singular_rejected(self):
        with pytest.raises(np.linalg.LinAlgError):
            gaussian_solve(np.ones((2, 2)), np.ones(2))

    def test_non_square_rejected(self):
        with pytest.raises(ValueError):
            gaussian_solve(np.ones((2, 3)), np.ones(2))

    def test_rhs_length_checked(self):
        with pytest.raises(ValueError):
            gaussian_solve(np.eye(3), np.ones(2))

    def test_inputs_not_mutated(self, rng):
        a = rng.standard_normal((5, 5)) + 5 * np.eye(5)
        b = rng.standard_normal(5)
        a0, b0 = a.copy(), b.copy()
        gaussian_solve(a, b)
        np.testing.assert_array_equal(a, a0)
        np.testing.assert_array_equal(b, b0)

    def test_batched_matches_scalar(self, rng):
        stack = rng.standard_normal((6, 5, 5)) + 5 * np.eye(5)
        rhs = rng.standard_normal((6, 5))
        out = batched_gaussian_solve(stack, rhs)
        for i in range(6):
            np.testing.assert_allclose(out[i], gaussian_solve(stack[i], rhs[i]), rtol=1e-8)

    def test_batched_with_pivot_swaps(self):
        a = np.array([[[0.0, 1.0], [1.0, 0.0]], [[2.0, 0.0], [0.0, 2.0]]])
        b = np.array([[2.0, 3.0], [4.0, 6.0]])
        np.testing.assert_allclose(
            batched_gaussian_solve(a, b), [[3.0, 2.0], [2.0, 3.0]]
        )

    def test_batched_shape_checks(self):
        with pytest.raises(ValueError):
            batched_gaussian_solve(np.ones((2, 2, 3)), np.ones((2, 2)))
        with pytest.raises(ValueError):
            batched_gaussian_solve(np.eye(2)[None], np.ones((2, 2)))


class TestNormalEquations:
    def test_gram_definition(self, rng):
        Y = rng.standard_normal((9, 4))
        cols = np.array([1, 3, 8])
        g = assemble_gram(Y, cols, 0.5)
        np.testing.assert_allclose(g, Y[cols].T @ Y[cols] + 0.5 * np.eye(4))

    def test_rhs_definition(self, rng):
        Y = rng.standard_normal((9, 4))
        cols = np.array([0, 2])
        r = np.array([5.0, 3.0])
        np.testing.assert_allclose(assemble_rhs(Y, cols, r), Y[cols].T @ r)

    def test_batched_matches_per_row(self, small_ratings, rng):
        Y = rng.standard_normal((small_ratings.ncols, 5))
        A, b = binned_normal_equations(small_ratings, Y, 0.1)
        for u in range(small_ratings.nrows):
            cols, vals = small_ratings.row_slice(u)
            np.testing.assert_allclose(A[u], assemble_gram(Y, cols, 0.1), rtol=1e-8)
            np.testing.assert_allclose(
                b[u], assemble_rhs(Y, cols, vals), rtol=1e-8, atol=1e-10
            )

    def test_empty_row_gets_lambda_identity(self):
        dense = np.zeros((3, 4), dtype=np.float32)
        dense[0, 1] = 2.0
        R = CSRMatrix.from_dense(dense)
        Y = np.ones((4, 3))
        A, b = binned_normal_equations(R, Y, 0.7)
        np.testing.assert_allclose(A[1], 0.7 * np.eye(3))
        np.testing.assert_allclose(b[1], np.zeros(3))

    def test_shape_mismatch_rejected(self, small_ratings, rng):
        with pytest.raises(ValueError):
            binned_normal_equations(small_ratings, rng.standard_normal((3, 5)), 0.1)

    def test_duplicate_ratings_summed_consistently(self, rng):
        # A row with repeated column patterns accumulates outer products.
        dense = np.array([[2.0, 3.0, 0.0]], dtype=np.float32)
        R = CSRMatrix.from_dense(dense)
        Y = rng.standard_normal((3, 2))
        A, b = binned_normal_equations(R, Y, 0.0)
        expect = np.outer(Y[0], Y[0]) + np.outer(Y[1], Y[1])
        np.testing.assert_allclose(A[0], expect, rtol=1e-8)


@settings(max_examples=30, deadline=None)
@given(
    k=st.integers(min_value=1, max_value=6),
    seed=st.integers(min_value=0, max_value=2**31),
)
def test_property_gaussian_residual(k, seed):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((k, k)) + (k + 1) * np.eye(k)
    b = rng.standard_normal(k)
    x = gaussian_solve(a, b)
    np.testing.assert_allclose(a @ x, b, rtol=1e-7, atol=1e-8)
