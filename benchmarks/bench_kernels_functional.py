"""Functional micro-benchmarks: the NumPy fast path and its substrates.

These measure real Python/NumPy wall time (not simulated device time) for
the building blocks the solvers execute: normal-equation assembly,
batched Cholesky, a full half-sweep and a full training iteration on a
MovieLens-shaped matrix.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import ALSConfig, train_als
from repro.kernels.fastpath import fast_half_sweep, fast_iteration
from repro.linalg import batched_cholesky_solve, binned_normal_equations

K = 10
LAM = 0.1


@pytest.fixture(scope="module")
def factors(movielens_small):
    _, csr, _ = movielens_small
    rng = np.random.default_rng(0)
    return rng.standard_normal((csr.ncols, K))


def test_bench_normal_equation_assembly(movielens_small, factors, benchmark):
    _, csr, _ = movielens_small
    A, b = benchmark(binned_normal_equations, csr, factors, LAM)
    assert A.shape == (csr.nrows, K, K)
    assert np.isfinite(b).all()


def test_bench_batched_cholesky(movielens_small, factors, benchmark):
    _, csr, _ = movielens_small
    A, b = binned_normal_equations(csr, factors, LAM)
    x = benchmark(batched_cholesky_solve, A, b)
    np.testing.assert_allclose(
        np.einsum("bij,bj->bi", A, x), b, rtol=1e-6, atol=1e-8
    )


def test_bench_half_sweep(movielens_small, factors, benchmark):
    _, csr, _ = movielens_small
    X = benchmark(fast_half_sweep, csr, factors, LAM)
    assert X.shape == (csr.nrows, K)


def test_bench_full_iteration(movielens_small, factors, benchmark):
    _, csr, csc = movielens_small
    X0 = np.zeros((csr.nrows, K))
    X, Y = benchmark(fast_iteration, csr, csc, X0, factors, LAM)
    assert X.shape[0] == csr.nrows and Y.shape[0] == csr.ncols


def test_bench_training_run(movielens_small, benchmark):
    coo, _, _ = movielens_small
    model = benchmark.pedantic(
        train_als,
        args=(coo, ALSConfig(k=K, lam=LAM, iterations=2, track_loss=False)),
        rounds=2,
        iterations=1,
    )
    assert model.X.shape[1] == K
