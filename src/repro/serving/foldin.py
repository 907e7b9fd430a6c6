"""Incremental fold-in: new users/items without a full retrain.

A new user with observed ratings ``r`` over the fixed item factors ``Y``
is exactly one ridge system

    x = (Y_Ωᵀ Y_Ω + λI)⁻¹ Y_Ωᵀ r

— the same ridge system every ALS half-sweep solves per row.
Fold-in therefore reuses the whole training substrate unchanged: the
new rows' equations are assembled through the binned/tiled S1/S2
kernels (:func:`repro.kernels.fastpath.sweep_occupied`) and solved in
batched LAPACK S3 calls — an explicit row with
fewer ratings than k in its exact n×n dual form, exactly as training
solves it.  Nothing is approximated, and nothing existing is touched:
the basis factors stay fixed and only the new rows are computed.

Because degree bins come from a fixed geometric grid (a row's padded
width is a function of its own degree, never of which rows share the
batch) and the batched S3 solve is per-system independent, the
folded factors are **bitwise identical** to the corresponding rows of a
fresh serial half-sweep over the augmented matrix — the invariant the
parallel sweep executor already relies on, now carried to serving time.
The three trainers map directly:

* explicit ALS — uniform ridge ``λI``;
* ALS-WR        — per-row ridge ``λ·|Ω|·I`` (``weighted=True``);
* implicit      — Hu–Koren confidence weights with the shared dense
  ``YᵀY`` broadcast onto every system (``base_gram``), computed here
  exactly as :func:`repro.core.implicit.implicit_half_sweep` computes it
  so the parity is bitwise, not just numerical.

Item fold-in is the transpose of the same statement: a new item's
factors solve against the fixed user factors ``X``.
"""

from __future__ import annotations

import numpy as np

from repro.kernels.fastpath import sweep_occupied
from repro.obs.spans import span
from repro.sparse.coo import COOMatrix
from repro.sparse.csr import CSRMatrix

__all__ = ["FOLDIN_ALGORITHMS", "fold_in_factors", "as_new_rows_csr"]

#: Algorithms fold-in understands — the same names the trainers use.
FOLDIN_ALGORITHMS = ("als", "als-wr", "implicit")


def as_new_rows_csr(
    ratings: COOMatrix | CSRMatrix, n_cols: int
) -> CSRMatrix:
    """Coerce a fold-in payload to a CSR of new rows over ``n_cols``.

    Rows index the *new* entities (0..h-1); columns must live in the
    existing basis dimension.  A COO payload may understate the column
    dimension (it only knows the columns it saw), so the shape is
    widened to ``n_cols`` here; overshooting it is an error — a new
    user cannot rate an item the model has no factors for.
    """
    if isinstance(ratings, CSRMatrix):
        if ratings.ncols > n_cols:
            raise ValueError(
                f"fold-in ratings reference {ratings.ncols} columns but the "
                f"model has only {n_cols}"
            )
        if ratings.ncols == n_cols:
            return ratings
        return CSRMatrix(
            (ratings.nrows, n_cols),
            ratings.value, ratings.col_idx, ratings.row_ptr,
        )
    if not isinstance(ratings, COOMatrix):
        raise TypeError(
            f"fold-in ratings must be COOMatrix or CSRMatrix, got "
            f"{type(ratings).__name__}"
        )
    if ratings.shape[1] > n_cols:
        raise ValueError(
            f"fold-in ratings reference {ratings.shape[1]} columns but the "
            f"model has only {n_cols}"
        )
    widened = COOMatrix(
        (ratings.shape[0], n_cols), ratings.row, ratings.col, ratings.value
    )
    return CSRMatrix.from_coo(widened)


def fold_in_factors(
    R_new: CSRMatrix,
    basis: np.ndarray,
    lam: float,
    algorithm: str = "als",
    alpha: float | None = None,
    *,
    tile_nnz: int | None = None,
    compute_dtype: object | None = None,
    gram: np.ndarray | None = None,
) -> np.ndarray:
    """Solve the new rows' k×k systems against a fixed factor basis.

    ``R_new`` holds one row per new entity over the basis' row space
    (items for user fold-in, users for item fold-in); ``basis`` is the
    fixed factor matrix (``Y`` resp. ``X``).  Returns the ``(h, k)``
    float64 factors; empty rows come back zero, matching a fresh
    half-sweep with no warm start.

    ``gram`` is an implicit fold-in's ``YᵀY``, for a caller that keeps
    it across calls; it must be the product computed here, which is the
    one a fresh half-sweep computes (a different one breaks parity).

    The result row for any new entity is bitwise-equal to the same row
    of a serial float64 half-sweep over the augmented matrix — see the
    module docstring for why batching composition cannot change it.
    """
    if algorithm not in FOLDIN_ALGORITHMS:
        known = ", ".join(FOLDIN_ALGORITHMS)
        raise ValueError(f"unknown fold-in algorithm {algorithm!r}; known: {known}")
    basis = np.asarray(basis)
    if basis.ndim != 2:
        raise ValueError("basis must be a 2-D factor matrix")
    if R_new.ncols != basis.shape[0]:
        raise ValueError(
            f"fold-in ratings have {R_new.ncols} columns but the basis has "
            f"{basis.shape[0]} rows"
        )
    k = basis.shape[1]
    kw: dict = dict(tile_nnz=tile_nnz, compute_dtype=compute_dtype)
    with span(
        "serve.fold_in", algorithm=algorithm, rows=R_new.nrows, nnz=R_new.nnz
    ):
        if algorithm == "implicit":
            if alpha is None or alpha <= 0:
                raise ValueError("implicit fold-in requires a positive alpha")
            # Mirror implicit_half_sweep exactly: contiguous float64 basis,
            # dense Gramian computed once — any other order of operations
            # would break the bitwise parity with a fresh half-sweep.
            Y = np.ascontiguousarray(basis, dtype=np.float64)
            if gram is None:
                gram = Y.T @ Y
            rows, X_rows = sweep_occupied(
                R_new, Y, lam, implicit_alpha=float(alpha), base_gram=gram, **kw
            )
        else:
            rows, X_rows = sweep_occupied(
                R_new, basis, lam, weighted=(algorithm == "als-wr"), **kw
            )
    X_new = np.zeros((R_new.nrows, k), dtype=np.float64)
    X_new[rows] = X_rows
    return X_new
