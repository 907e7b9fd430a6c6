"""Tests for the LAPACK-class batched S3 solve and its references."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.linalg import (
    CholeskyError,
    as_float64_stack,
    batched_cholesky_solve,
    batched_gaussian_solve,
    batched_lapack_solve,
    lapack_cholesky_factor,
)
from repro.core.als import ALSConfig, train_als
from repro.obs import metrics as obs_metrics
from repro.obs.spans import capture
from tests.conftest import random_rating_matrix


def spd_stack(
    rng: np.random.Generator, batch: int, k: int, lam: float = 0.1
) -> tuple[np.ndarray, np.ndarray]:
    """An ALS-shaped stack of normal equations ``WᵀW + λI``, with RHS."""
    W = rng.standard_normal((batch, k + 3, k))
    A = W.transpose(0, 2, 1) @ W
    idx = np.arange(k)
    A[:, idx, idx] += lam
    return A, rng.standard_normal((batch, k))


class TestVariantAgreement:
    """The three variants are code variants of ONE solve: same answer."""

    @pytest.mark.parametrize("k", [1, 10, 64])
    def test_all_variants_agree(self, rng, k):
        A, b = spd_stack(rng, 17, k)
        x_ref = batched_cholesky_solve(A, b)
        np.testing.assert_allclose(
            batched_lapack_solve(A, b), x_ref, rtol=1e-10, atol=1e-10
        )
        np.testing.assert_allclose(
            batched_gaussian_solve(A, b), x_ref, rtol=1e-10, atol=1e-10
        )

    @pytest.mark.parametrize("batch", [1, 2, 7, 257])
    def test_skewed_batch_sizes(self, rng, batch):
        A, b = spd_stack(rng, batch, 11)
        np.testing.assert_allclose(
            batched_lapack_solve(A, b),
            batched_cholesky_solve(A, b),
            rtol=1e-10,
            atol=1e-10,
        )

    def test_near_singular_systems(self, rng):
        # λ barely above machine noise: conditioning is poor but all
        # variants must still agree on the (well-defined) solution.
        A, b = spd_stack(rng, 9, 8, lam=1e-8)
        x_ref = batched_cholesky_solve(A, b)
        x_lap = batched_lapack_solve(A, b)
        residual_ref = np.einsum("bij,bj->bi", A, x_ref) - b
        residual_lap = np.einsum("bij,bj->bi", A, x_lap) - b
        np.testing.assert_allclose(residual_lap, residual_ref, atol=1e-5)

    def test_solves_the_system(self, rng):
        A, b = spd_stack(rng, 13, 20)
        x = batched_lapack_solve(A, b)
        np.testing.assert_allclose(
            np.einsum("bij,bj->bi", A, x), b, rtol=1e-8, atol=1e-8
        )


class TestLapackFactor:
    def test_matches_numpy(self, rng):
        A, _ = spd_stack(rng, 6, 9)
        np.testing.assert_allclose(
            lapack_cholesky_factor(A), np.linalg.cholesky(A), rtol=1e-12
        )

    def test_indefinite_member_reported_by_index(self, rng):
        A, _ = spd_stack(rng, 4, 3)
        A[2] = -np.eye(3)
        with pytest.raises(CholeskyError, match="matrix 2"):
            lapack_cholesky_factor(A)

    def test_non_square_rejected(self):
        with pytest.raises(ValueError, match="batch, k, k"):
            lapack_cholesky_factor(np.ones((2, 3, 4)))


class TestFallback:
    def test_one_bad_system_does_not_abort_the_batch(self, rng):
        A, b = spd_stack(rng, 5, 4)
        A[3] = -np.eye(4)  # indefinite: the batched dpotrf rejects the stack
        x = batched_lapack_solve(A, b)
        good = [0, 1, 2, 4]
        np.testing.assert_allclose(
            x[good],
            batched_cholesky_solve(A[good], b[good]),
            rtol=1e-10,
            atol=1e-10,
        )
        # the bad system got the least-squares answer, not garbage
        np.testing.assert_allclose(
            x[3], np.linalg.lstsq(A[3], b[3], rcond=None)[0], rtol=1e-10
        )

    def test_fallback_counted_in_metrics(self, rng):
        A, b = spd_stack(rng, 4, 3)
        A[1] = 0.0  # singular: LU rejects it, least squares answers 0
        obs_metrics.reset()
        with capture():
            x = batched_lapack_solve(A, b)
        counters = obs_metrics.snapshot()["counters"]
        assert counters["solver.lapack.fallback_systems"] == 1.0
        np.testing.assert_array_equal(x[1], 0.0)
        good = [0, 2, 3]
        np.testing.assert_array_equal(x[good], batched_lapack_solve(A[good], b[good]))

    def test_indefinite_system_solved_exactly_and_not_counted(self, rng):
        A, b = spd_stack(rng, 4, 3)
        A[2] = -np.eye(3)  # indefinite but nonsingular: LU solves it
        obs_metrics.reset()
        with capture():
            x = batched_lapack_solve(A, b)
        counters = obs_metrics.snapshot()["counters"]
        assert counters.get("solver.lapack.fallback_systems", 0.0) == 0.0
        np.testing.assert_array_equal(x[2], -b[2])

    def test_fallback_disabled_raises_like_reference(self, rng):
        A, b = spd_stack(rng, 4, 3)
        A[1] = -np.eye(3)
        with pytest.raises(CholeskyError, match="matrix 1"):
            batched_lapack_solve(A, b, fallback=False)

    def test_fallback_disabled_names_the_system(self, rng):
        """Indefinite or singular, ``fallback=False`` raises the
        reference's error for that system instead of solving it."""
        for bad in (-np.eye(3), np.zeros((3, 3))):
            A, b = spd_stack(rng, 4, 3)
            A[2] = bad
            with pytest.raises(CholeskyError, match="matrix 2 not positive definite"):
                batched_lapack_solve(A, b, fallback=False)
            with pytest.raises(CholeskyError, match="matrix 2"):
                batched_cholesky_solve(A, b)

    def test_shape_validation(self, rng):
        A, b = spd_stack(rng, 3, 4)
        with pytest.raises(ValueError, match="rhs"):
            batched_lapack_solve(A, b[:, :3])
        with pytest.raises(ValueError, match="batch, k, k"):
            batched_lapack_solve(np.ones((2, 3, 4)), np.ones((2, 3)))


class TestNonFiniteInput:
    """NaN/inf systems fail as loudly as the reference, in both modes.

    ``dpotrf`` lets a NaN through (its factor comes back NaN) and an inf
    system used to reach the least-squares fallback, which fails with
    "SVD did not converge"; both now raise :class:`CholeskyError`.
    """

    @pytest.mark.parametrize("fallback", [True, False])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("entry", [(4, 1), (3, 3)])
    def test_one_system_of_a_batch(self, rng, bad, fallback, entry):
        A, b = spd_stack(rng, 5, 6)
        A[2][entry] = bad
        with pytest.raises(CholeskyError, match="matrix 2"):
            batched_cholesky_solve(A, b)
        with pytest.raises(CholeskyError, match="matrix 2"):
            batched_lapack_solve(A, b, fallback=fallback)
        with pytest.raises(CholeskyError, match="matrix 2"):
            lapack_cholesky_factor(A)

    def test_beside_an_indefinite_system(self, rng):
        """The fallback recovers the indefinite system, not the NaN one."""
        A, b = spd_stack(rng, 5, 4)
        A[1] = -np.eye(4)
        A[3, 2, 0] = np.nan
        with pytest.raises(CholeskyError, match="matrix 3 has non-finite"):
            batched_lapack_solve(A, b)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_nan_factor_fails_a_training_half_sweep(
        self, rng, monkeypatch, workers
    ):
        import repro.core.als as als_module

        init = als_module.init_factors

        def poisoned_init(*args, **kwargs):
            X, Y = init(*args, **kwargs)
            Y[1] = np.nan  # every user who rated item 1 gets a NaN system
            return X, Y

        monkeypatch.setattr(als_module, "init_factors", poisoned_init)
        R = random_rating_matrix(rng, m=20, n=8, density=0.6)
        assert R.to_dense()[:, 1].any()
        cfg = ALSConfig(k=3, iterations=1, workers=workers)
        with pytest.raises(CholeskyError, match="non-finite"):
            train_als(R, cfg)


class TestAsFloat64Stack:
    """Satellite of PR 3: validation must not copy already-conforming input."""

    def test_float64_contiguous_returned_unchanged(self, rng):
        a = rng.standard_normal((4, 3, 3))
        assert as_float64_stack(a, 3) is a

    def test_float32_converted(self, rng):
        a = rng.standard_normal((4, 3, 3)).astype(np.float32)
        out = as_float64_stack(a, 3)
        assert out.dtype == np.float64
        np.testing.assert_allclose(out, a)

    def test_fortran_order_made_contiguous(self, rng):
        a = np.asfortranarray(rng.standard_normal((4, 3, 3)))
        out = as_float64_stack(a, 3)
        assert out.flags["C_CONTIGUOUS"]
        np.testing.assert_array_equal(out, a)

    def test_wrong_ndim_rejected(self):
        with pytest.raises(ValueError, match="3-D"):
            as_float64_stack(np.ones((2, 2)), 3)


@settings(max_examples=25, deadline=None)
@given(
    batch=st.integers(min_value=1, max_value=12),
    k=st.integers(min_value=1, max_value=10),
    seed=st.integers(min_value=0, max_value=2**31),
    lam=st.floats(min_value=1e-4, max_value=10.0),
)
def test_property_lapack_matches_reference(batch, k, seed, lam):
    """For any ALS-shaped stack, lapack and the reference agree to 1e-10."""
    rng = np.random.default_rng(seed)
    A, b = spd_stack(rng, batch, k, lam)
    np.testing.assert_allclose(
        batched_lapack_solve(A, b),
        batched_cholesky_solve(A, b),
        rtol=1e-10,
        atol=1e-10,
    )


@settings(max_examples=40, deadline=None)
@given(
    batch=st.integers(min_value=1, max_value=24),
    k=st.one_of(st.just(1), st.integers(min_value=16, max_value=64)),
    seed=st.integers(min_value=0, max_value=2**31),
    lam=st.floats(min_value=1e-4, max_value=10.0),
    cuts=st.lists(st.integers(min_value=0, max_value=24), max_size=4),
)
def test_property_solve_is_batch_invariant(batch, k, seed, lam, cuts):
    """A system's answer depends on that system alone, bit for bit.

    ``workers=N`` shards split a sweep's solve groups into contiguous
    row ranges of any size, so every split of a stack, and every system
    solved on its own, must give the whole-stack answer exactly.
    """
    A, b = spd_stack(np.random.default_rng(seed), batch, k, lam)
    whole = batched_lapack_solve(A, b)
    edges = [0, *sorted({min(c, batch) for c in cuts}), batch]
    parts = [
        batched_lapack_solve(A[lo:hi], b[lo:hi])
        for lo, hi in zip(edges[:-1], edges[1:])
        if hi > lo
    ]
    np.testing.assert_array_equal(np.concatenate(parts), whole)
    for i in range(batch):
        np.testing.assert_array_equal(
            batched_lapack_solve(A[i:i + 1], b[i:i + 1])[0], whole[i]
        )
