"""The tests' one reference sweep: scatter assembly + Cholesky, all primal.

The sweep builds its systems with the binned assembly, solves short rows
in the dual form and solves every group with one LAPACK call.  The
parity tests hold it to an independent route through the retained
reference functions: the ``np.add.at`` assembly
(:func:`~repro.linalg.normal_equations.scatter_normal_equations`) and the
from-scratch :func:`~repro.linalg.cholesky.batched_cholesky_solve`, with
every row solved in its k×k primal form.  The implicit ``YᵀY`` base,
ALS-WR's per-row ridge ``λ·|Ω_u|`` and subspace blocks (a complement
folded into the right-hand side) follow the sweep's equations, written
out again here.
"""

from __future__ import annotations

import numpy as np

from repro.core.als import training_views
from repro.core.init import init_factors
from repro.linalg.cholesky import batched_cholesky_solve
from repro.linalg.normal_equations import scatter_normal_equations
from repro.sparse.csc import CSCMatrix


def oracle_sweep(
    R,
    Y,
    lam,
    *,
    weighted=False,
    implicit_alpha=None,
    col_block=None,
    complement=None,
    gram_complement=None,
    solve=batched_cholesky_solve,
):
    """``(rows, X_rows)`` as :func:`~repro.kernels.fastpath.sweep_occupied`
    returns them, by the reference route."""
    rows, sub = R.occupied_submatrix()
    k = Y.shape[1]
    start, stop = col_block if col_block is not None else (0, k)
    blocked = stop - start < k
    Yb = Y[:, start:stop]
    values = sub.value.astype(np.float64)
    if implicit_alpha is None:
        rv = values - complement if blocked else None
        A, b = scatter_normal_equations(sub, Yb, 0.0, rhs_nnz_value=rv)
        ridge = lam * sub.row_lengths().astype(np.float64) if weighted else lam
        idx = np.arange(stop - start)
        A[:, idx, idx] += np.reshape(ridge, (-1, 1))
    else:
        w = implicit_alpha * values
        rv = w + 1.0 - (w * complement if blocked else 0.0)
        A, b = scatter_normal_equations(sub, Yb, lam, nnz_weight=w, rhs_nnz_value=rv)
        A += (Y.T @ Y)[start:stop, start:stop]
        if blocked:
            b -= gram_complement[rows]
    return rows, solve(A, b)


def oracle_half_sweep(R, Y, lam, X_prev=None, **kw):
    """Every row of ``R`` against fixed ``Y``; empty rows keep ``X_prev``
    (or zero)."""
    X = np.zeros((R.nrows, Y.shape[1])) if X_prev is None else X_prev.copy()
    rows, X_rows = oracle_sweep(R, Y, lam, **kw)
    X[rows] = X_rows
    return X


def oracle_fit(ratings, k, lam=0.1, iterations=5, seed=0, init_scale=0.1, **kw):
    """``(X, Y)`` after ``iterations`` reference sweeps from the trainers'
    initial factors; ``implicit_alpha`` resets empty rows to zero as the
    implicit trainer does, explicit sweeps keep them."""
    R_rows = training_views(ratings)[0]
    R_cols = CSCMatrix.from_csr(R_rows).transpose_as_csr()
    X, Y = init_factors(*R_rows.shape, k, seed=seed, scale=init_scale)
    keep = kw.get("implicit_alpha") is None
    for _ in range(iterations):
        X = oracle_half_sweep(R_rows, Y, lam, X if keep else None, **kw)
        Y = oracle_half_sweep(R_cols, X, lam, Y if keep else None, **kw)
    return X, Y
