"""Ground-truth validation: every code variant == dense reference.

This is the license for the solvers' vectorized fast path: each of the 8
thread-batched variants and the flat baseline, executed work-item by
work-item through the barrier-accurate interpreter, must reproduce the
reference normal-equation solution.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.clsim.costmodel import OptFlags
from repro.kernels import fast_half_sweep, interpreted_half_sweep
from repro.kernels.variants import all_variants
from repro.linalg.gaussian import batched_gaussian_solve
from repro.sparse import CSRMatrix
from tests.oracle import oracle_half_sweep

LAM = 0.1


def _problem(seed: int, m: int = 13, n: int = 9, k: int = 5, density: float = 0.3):
    rng = np.random.default_rng(seed)
    dense = np.where(
        rng.random((m, n)) < density,
        rng.integers(1, 6, (m, n)).astype(np.float32),
        0.0,
    ).astype(np.float32)
    R = CSRMatrix.from_dense(dense)
    Y = rng.standard_normal((n, k)).astype(np.float32)
    return R, Y


def _reference(R: CSRMatrix, Y: np.ndarray) -> np.ndarray:
    """Row-by-row dense solve, independent of all library code paths."""
    k = Y.shape[1]
    X = np.zeros((R.nrows, k))
    for u in range(R.nrows):
        cols, vals = R.row_slice(u)
        if cols.size == 0:
            continue
        sub = Y[cols].astype(np.float64)
        X[u] = np.linalg.solve(
            sub.T @ sub + LAM * np.eye(k), sub.T @ vals.astype(np.float64)
        )
    return X


@pytest.mark.parametrize("variant", all_variants(), ids=lambda v: v.name)
class TestBatchedVariants:
    def test_matches_reference(self, variant):
        R, Y = _problem(seed=1)
        ref = _reference(R, Y)
        X = interpreted_half_sweep(R, Y, LAM, variant.flags, ws=4, tile=3)
        np.testing.assert_allclose(X, ref, rtol=5e-4, atol=5e-4)

    def test_ws_larger_than_k(self, variant):
        R, Y = _problem(seed=2, k=3)
        ref = _reference(R, Y)
        X = interpreted_half_sweep(R, Y, LAM, variant.flags, ws=8, tile=4)
        np.testing.assert_allclose(X, ref, rtol=5e-4, atol=5e-4)

    def test_single_lane_group(self, variant):
        R, Y = _problem(seed=3, m=6, n=5, k=4)
        ref = _reference(R, Y)
        X = interpreted_half_sweep(R, Y, LAM, variant.flags, ws=1, tile=2)
        np.testing.assert_allclose(X, ref, rtol=5e-4, atol=5e-4)

    def test_empty_rows_keep_previous_value(self, variant):
        dense = np.zeros((4, 3), dtype=np.float32)
        dense[0, 1] = 3.0
        dense[2, 0] = 2.0
        R = CSRMatrix.from_dense(dense)
        Y = np.ones((3, 2), dtype=np.float32)
        prev = np.full((4, 2), 7.0, dtype=np.float32)
        X = interpreted_half_sweep(R, Y, LAM, variant.flags, ws=2, X_prev=prev)
        np.testing.assert_array_equal(X[1], [7.0, 7.0])
        np.testing.assert_array_equal(X[3], [7.0, 7.0])
        assert not np.allclose(X[0], 7.0)


class TestFlatBaseline:
    def test_matches_reference(self):
        R, Y = _problem(seed=4)
        ref = _reference(R, Y)
        X = interpreted_half_sweep(R, Y, LAM, OptFlags(batched=False), ws=4)
        np.testing.assert_allclose(X, ref, rtol=5e-4, atol=5e-4)

    def test_gaussian_s3_matches_too(self):
        R, Y = _problem(seed=5)
        ref = _reference(R, Y)
        X = interpreted_half_sweep(
            R, Y, LAM, OptFlags(batched=False, cholesky=False), ws=4
        )
        np.testing.assert_allclose(X, ref, rtol=5e-4, atol=5e-4)

    def test_row_count_not_multiple_of_ws(self):
        # m=13 with ws=4 needs a padded launch; the guard must hold.
        R, Y = _problem(seed=6, m=13)
        X = interpreted_half_sweep(R, Y, LAM, OptFlags(batched=False), ws=4)
        np.testing.assert_allclose(X, _reference(R, Y), rtol=5e-4, atol=5e-4)


class TestFastPath:
    def test_matches_reference(self):
        R, Y = _problem(seed=7, m=30, n=20, k=6)
        np.testing.assert_allclose(
            fast_half_sweep(R, Y, LAM), _reference(R, Y), rtol=1e-8, atol=1e-10
        )

    def test_gaussian_matches_cholesky(self):
        R, Y = _problem(seed=8)
        np.testing.assert_allclose(
            oracle_half_sweep(R, Y, LAM, solve=batched_gaussian_solve),
            oracle_half_sweep(R, Y, LAM),
            rtol=1e-8,
            atol=1e-10,
        )

    def test_rejects_nonpositive_lambda(self):
        R, Y = _problem(seed=9)
        with pytest.raises(ValueError):
            fast_half_sweep(R, Y, 0.0)

    def test_xprev_shape_checked(self):
        R, Y = _problem(seed=10)
        with pytest.raises(ValueError):
            fast_half_sweep(R, Y, LAM, X_prev=np.zeros((2, 2)))


@settings(max_examples=15, deadline=None)
@given(
    seed=st.integers(0, 2**31),
    ws=st.sampled_from([1, 2, 4, 8]),
    tile=st.sampled_from([2, 5, 16]),
)
def test_property_all_variants_agree(seed, ws, tile):
    """All 8 variants compute the same half-sweep on random problems."""
    R, Y = _problem(seed=seed, m=8, n=7, k=4, density=0.35)
    results = [
        interpreted_half_sweep(R, Y, LAM, v.flags, ws=ws, tile=tile)
        for v in all_variants()
    ]
    for other in results[1:]:
        np.testing.assert_allclose(other, results[0], rtol=5e-4, atol=5e-4)
