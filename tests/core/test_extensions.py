"""Tests for ALS-WR and implicit-feedback ALS."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import ALSConfig, ImplicitConfig, train_als, train_als_wr, train_implicit_als
from repro.core.alswr import weighted_half_sweep
from repro.core.implicit import implicit_half_sweep
from repro.datasets import planted_problem
from repro.sparse import COOMatrix, CSRMatrix


@pytest.fixture(scope="module")
def problem():
    return planted_problem(m=50, n=35, rank=3, density=0.3, seed=21)


class TestALSWR:
    def test_weighted_system_definition(self, rng):
        """x_u must solve (Y_ΩᵀY_Ω + λ·n_u·I) x = Y_Ωᵀ r_u exactly."""
        dense = np.zeros((3, 6), dtype=np.float32)
        dense[1, [0, 2, 5]] = [4.0, 3.0, 5.0]
        R = CSRMatrix.from_dense(dense)
        Y = rng.standard_normal((6, 4))
        lam = 0.3
        X = weighted_half_sweep(R, Y, lam)
        cols, vals = R.row_slice(1)
        sub = Y[cols]
        expect = np.linalg.solve(
            sub.T @ sub + lam * 3 * np.eye(4), sub.T @ vals.astype(np.float64)
        )
        np.testing.assert_allclose(X[1], expect, rtol=1e-8)
        np.testing.assert_array_equal(X[0], np.zeros(4))  # empty row

    def test_reduces_to_als_on_constant_degree(self, rng):
        """When every row has the same count n₀, WR with λ equals plain ALS
        with λ·n₀."""
        dense = rng.integers(1, 6, size=(8, 5)).astype(np.float32)  # full
        R = CSRMatrix.from_dense(dense)
        Y = rng.standard_normal((5, 3))
        from repro.kernels.fastpath import fast_half_sweep

        wr = weighted_half_sweep(R, Y, 0.2)
        plain = fast_half_sweep(R, Y, 0.2 * 5)
        np.testing.assert_allclose(wr, plain, rtol=1e-9)

    def test_training_improves_rmse(self, problem):
        model = train_als_wr(problem.ratings, ALSConfig(k=3, lam=0.02, iterations=6))
        rmses = [s.train_rmse for s in model.history]
        assert rmses[-1] < rmses[0]
        assert rmses[-1] < 0.3

    def test_rejects_nonpositive_lambda(self, rng):
        R = CSRMatrix.from_dense(rng.random((3, 3)).astype(np.float32))
        with pytest.raises(ValueError):
            weighted_half_sweep(R, rng.standard_normal((3, 2)), 0.0)


class TestImplicit:
    def test_half_sweep_matches_direct_solve(self, rng):
        """Check the Hu-Koren shortcut against the explicit weighted system."""
        dense = np.zeros((4, 5), dtype=np.float32)
        dense[2, [1, 3]] = [2.0, 1.0]
        R = CSRMatrix.from_dense(dense)
        Y = rng.standard_normal((5, 3))
        lam, alpha = 0.1, 10.0
        X = implicit_half_sweep(R, Y, lam, alpha)
        # Direct: C = diag(1 + α r) over all items (r=0 unobserved), p = 1{r>0}
        r = dense[2].astype(np.float64)
        C = np.diag(1.0 + alpha * r)
        p = (r > 0).astype(np.float64)
        expect = np.linalg.solve(Y.T @ C @ Y + lam * np.eye(3), Y.T @ C @ p)
        np.testing.assert_allclose(X[2], expect, rtol=1e-8)

    def test_empty_row_solves_to_zero(self, rng):
        dense = np.zeros((2, 4), dtype=np.float32)
        dense[0, 1] = 1.0
        X = implicit_half_sweep(
            CSRMatrix.from_dense(dense), rng.standard_normal((4, 2)), 0.1, 5.0
        )
        np.testing.assert_allclose(X[1], np.zeros(2), atol=1e-12)

    def test_training_loss_decreases(self, problem):
        counts = COOMatrix(
            problem.ratings.shape,
            problem.ratings.row,
            problem.ratings.col,
            np.abs(problem.ratings.value) + 0.5,
        )
        model = train_implicit_als(counts, ImplicitConfig(k=3, iterations=5))
        assert model.history[-1].loss < model.history[0].loss

    def test_scores_rank_observed_above_unobserved(self, rng):
        """On data with learnable block structure, a user's in-block items
        must outscore out-of-block items."""
        m, n = 40, 30
        dense = np.zeros((m, n), dtype=np.float32)
        # Two taste communities with dense in-block interactions.
        dense[:20, :15] = (rng.random((20, 15)) < 0.6).astype(np.float32)
        dense[20:, 15:] = (rng.random((20, 15)) < 0.6).astype(np.float32)
        counts = COOMatrix.from_dense(dense)
        model = train_implicit_als(counts, ImplicitConfig(k=3, iterations=8, alpha=40))
        scores = model.score(0)  # community-A user
        assert scores[:15].mean() > scores[15:].mean() + 0.2

    def test_negative_feedback_rejected(self):
        coo = COOMatrix((2, 2), [0], [0], [-1.0])
        with pytest.raises(ValueError):
            train_implicit_als(coo)

    def test_invalid_config(self):
        with pytest.raises(ValueError):
            ImplicitConfig(alpha=0.0)
        with pytest.raises(ValueError):
            ImplicitConfig(k=0)
