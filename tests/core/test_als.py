"""Tests for the ALS driver: convergence properties and API contracts."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import ALSConfig, regularized_loss, rmse, train_als
from repro.datasets import planted_problem, train_test_split
from repro.linalg import batched_cholesky_solve, batched_gaussian_solve
from repro.sparse import COOMatrix, CSRMatrix
from tests.oracle import oracle_fit


@pytest.fixture(scope="module")
def planted():
    # Large enough that the rank-4 factorization is well-determined even
    # after holding out 20% (≈ 27 observations per user for 4 parameters).
    return planted_problem(m=120, n=90, rank=4, density=0.3, noise_std=0.05, seed=3)


class TestConvergence:
    def test_loss_decreases_monotonically(self, planted):
        """Each ALS half-sweep exactly minimizes Eq. 2 in its block, so the
        objective can never increase between iterations."""
        model = train_als(planted.ratings, ALSConfig(k=4, lam=0.1, iterations=8))
        losses = model.losses()
        assert all(a >= b - 1e-9 for a, b in zip(losses, losses[1:]))

    def test_recovers_planted_structure(self, planted):
        """Held-out RMSE approaches the noise floor on a planted problem."""
        split = train_test_split(planted.ratings, test_fraction=0.2, seed=1)
        model = train_als(split.train, ALSConfig(k=4, lam=0.05, iterations=20))
        test_rmse = rmse(split.test, model.X, model.Y)
        assert test_rmse < 4 * planted.ideal_rmse()

    def test_training_beats_constant_predictor(self, planted):
        model = train_als(planted.ratings, ALSConfig(k=4, lam=0.1, iterations=5))
        values = planted.ratings.value.astype(np.float64)
        baseline = float(np.sqrt(np.mean((values - values.mean()) ** 2)))
        assert model.history[-1].train_rmse < baseline / 2

    def test_more_iterations_never_hurt_train_loss(self, planted):
        cfg = dict(k=4, lam=0.1)
        short = train_als(planted.ratings, ALSConfig(iterations=2, **cfg))
        long = train_als(planted.ratings, ALSConfig(iterations=10, **cfg))
        assert long.losses()[-1] <= short.losses()[-1] + 1e-9

    def test_lambda_controls_factor_norm(self, planted):
        small = train_als(planted.ratings, ALSConfig(k=4, lam=0.01, iterations=4))
        large = train_als(planted.ratings, ALSConfig(k=4, lam=10.0, iterations=4))
        assert np.linalg.norm(large.X) < np.linalg.norm(small.X)


class TestDriverContracts:
    def test_accepts_coo_and_csr(self, planted):
        cfg = ALSConfig(k=3, iterations=2)
        a = train_als(planted.ratings, cfg)
        b = train_als(CSRMatrix.from_coo(planted.ratings), cfg)
        np.testing.assert_allclose(a.X, b.X, rtol=1e-10)

    def test_rejects_other_types(self):
        with pytest.raises(TypeError):
            train_als(np.zeros((3, 3)))

    def test_shapes_and_history_length(self, planted):
        cfg = ALSConfig(k=6, iterations=3)
        model = train_als(planted.ratings, cfg)
        assert model.X.shape == (120, 6)
        assert model.Y.shape == (90, 6)
        assert model.k == 6
        assert model.shape == (120, 90)
        assert len(model.history) == 3
        assert [s.iteration for s in model.history] == [1, 2, 3]

    def test_track_loss_off(self, planted):
        model = train_als(planted.ratings, ALSConfig(k=3, iterations=2, track_loss=False))
        assert model.history == []

    def test_empty_rows_stay_zero(self):
        dense = np.zeros((5, 4), dtype=np.float32)
        dense[0, :2] = [3.0, 4.0]
        dense[2, 1:3] = [2.0, 5.0]
        model = train_als(COOMatrix.from_dense(dense), ALSConfig(k=2, iterations=3))
        np.testing.assert_array_equal(model.X[1], [0.0, 0.0])
        np.testing.assert_array_equal(model.X[4], [0.0, 0.0])

    def test_deterministic_given_seed(self, planted):
        cfg = ALSConfig(k=4, iterations=2, seed=42)
        a = train_als(planted.ratings, cfg)
        b = train_als(planted.ratings, cfg)
        np.testing.assert_array_equal(a.X, b.X)

    def test_seed_changes_init(self, planted):
        a = train_als(planted.ratings, ALSConfig(k=4, iterations=1, seed=0))
        b = train_als(planted.ratings, ALSConfig(k=4, iterations=1, seed=1))
        assert not np.allclose(a.Y, b.Y)

    def test_cholesky_and_gaussian_agree(self, planted):
        """The sweep (LAPACK) trains what both retained S3 references do."""
        model = train_als(planted.ratings, ALSConfig(k=4, iterations=3))
        for solve in (batched_cholesky_solve, batched_gaussian_solve):
            X, _ = oracle_fit(planted.ratings, k=4, iterations=3, solve=solve)
            np.testing.assert_allclose(model.X, X, rtol=1e-7, atol=1e-9)

    def test_invalid_config_rejected(self):
        with pytest.raises(ValueError):
            ALSConfig(k=0)
        with pytest.raises(ValueError):
            ALSConfig(lam=0.0)
        with pytest.raises(ValueError):
            ALSConfig(iterations=0)


class TestLossDefinition:
    def test_loss_formula_matches_eq2(self, rng):
        coo = COOMatrix((2, 2), [0, 1], [1, 0], [4.0, 2.0])
        X = rng.standard_normal((2, 3))
        Y = rng.standard_normal((2, 3))
        lam = 0.5
        expected = (
            (4.0 - X[0] @ Y[1]) ** 2
            + (2.0 - X[1] @ Y[0]) ** 2
            + lam * (np.sum(X**2) + np.sum(Y**2))
        )
        assert regularized_loss(coo, X, Y, lam) == pytest.approx(expected)

    def test_shape_mismatch_rejected(self, rng):
        coo = COOMatrix((2, 2), [0], [1], [4.0])
        with pytest.raises(ValueError):
            regularized_loss(coo, rng.standard_normal((3, 2)), rng.standard_normal((2, 2)), 0.1)

    def test_rmse_of_perfect_fit_is_zero(self):
        X = np.array([[1.0, 0.0], [0.0, 1.0]])
        Y = np.array([[2.0, 3.0], [4.0, 5.0]])
        coo = COOMatrix((2, 2), [0, 1], [0, 1], [2.0, 5.0])
        assert rmse(coo, X, Y) == pytest.approx(0.0)

    def test_rmse_empty_matrix(self):
        assert rmse(COOMatrix.empty((3, 3)), np.zeros((3, 2)), np.zeros((3, 2))) == 0.0

    def test_history_equals_separate_recomputation(self, planted):
        """One shared error reduction per iteration, bitwise the two calls."""
        cfg = ALSConfig(k=4, iterations=2, lam=0.07)
        model = train_als(planted.ratings, cfg)
        coo = planted.ratings.deduplicate()
        last = model.history[-1]
        assert last.loss == regularized_loss(coo, model.X, model.Y, cfg.lam)
        assert last.train_rmse == rmse(coo, model.X, model.Y)


class TestAssemblyConfig:
    def test_invalid_tile_nnz_rejected(self):
        with pytest.raises(ValueError, match="tile_nnz"):
            ALSConfig(tile_nnz=0)

    def test_invalid_assembly_dtype_rejected(self):
        with pytest.raises(ValueError, match="assembly_dtype"):
            ALSConfig(assembly_dtype="float16")

    def test_scatter_and_binned_train_identically(self, planted):
        """The assembly is a hardware mapping, not an algorithm change:
        training matches the scatter-assembled oracle bit-for-bit-close."""
        base = dict(k=4, lam=0.1, iterations=2, seed=1)
        binned = train_als(planted.ratings, ALSConfig(**base))
        X, Y = oracle_fit(planted.ratings, **base)
        np.testing.assert_allclose(binned.X, X, atol=1e-9)
        np.testing.assert_allclose(binned.Y, Y, atol=1e-9)

    def test_tile_budget_and_dtype_pass_through(self, planted):
        model = train_als(
            planted.ratings,
            ALSConfig(k=3, iterations=1, tile_nnz=64, assembly_dtype="float32"),
        )
        assert np.isfinite(model.losses()[-1])


@settings(max_examples=10, deadline=None)
@given(
    seed=st.integers(0, 2**31),
    k=st.integers(2, 5),
    lam=st.floats(0.01, 1.0),
)
def test_property_monotone_descent(seed, k, lam):
    """Monotone loss descent holds for any problem and hyper-parameters."""
    problem = planted_problem(m=25, n=20, rank=3, density=0.3, seed=seed)
    model = train_als(problem.ratings, ALSConfig(k=k, lam=lam, iterations=4))
    losses = model.losses()
    assert all(a >= b - 1e-7 * abs(a) for a, b in zip(losses, losses[1:]))
