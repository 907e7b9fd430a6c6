"""Loss and error metrics.

``regularized_loss`` is Eq. 2 of the paper — the objective ALS minimizes:

    L(X, Y) = Σ_{(u,i)∈Ω} (r_ui − x_uᵀ y_i)² + λ (Σ_u |x_u|² + Σ_i |y_i|²)

Note the regularizer sums over *all* factor rows once (the standard ALS
objective); each half-sweep is an exact minimizer of L in its own block,
which gives the monotone-descent property the tests assert.
"""

from __future__ import annotations

import numpy as np

from repro.sparse.coo import COOMatrix
from repro.sparse.shards import ShardedCSR

__all__ = [
    "regularized_loss",
    "rmse",
    "mae",
    "loss_and_rmse",
    "entry_predictions",
]

#: Bytes of one factor gather per prediction chunk: the two gathered
#: blocks stay cache-resident instead of streaming ``2·nnz·k`` fresh
#: doubles through memory (about 3x faster at k = 64 on a 2-core x86 VM,
#: and no ``nnz × k`` temporaries in peak RSS).  On that VM (2 MB L2 per
#: core) 512 KB beat 1 MB by 1.3x at k = 64 and 1.6x at d = 16 wide
#: blocks; 2 MB was 3x slower than 512 KB.
_PREDICT_CHUNK_BYTES = 1 << 19


def entry_predictions(
    X: np.ndarray, rows: np.ndarray, Y: np.ndarray, cols: np.ndarray
) -> np.ndarray:
    """``x_rows[e] · y_cols[e]`` for every entry e, in cache-sized chunks.

    Each entry's dot product is computed exactly as one whole-array
    ``einsum`` would, so chunking leaves the result bitwise unchanged.
    ``np.take`` gathers the same rows as fancy indexing, about 2-3x
    faster on contiguous factors.
    """
    chunk = max(1, _PREDICT_CHUNK_BYTES // (8 * max(1, X.shape[1])))
    out = np.empty(rows.size, dtype=np.float64)
    for s in range(0, rows.size, chunk):
        e = s + chunk
        out[s:e] = np.einsum(
            "ij,ij->i",
            np.take(X, rows[s:e], axis=0),
            np.take(Y, cols[s:e], axis=0),
        )
    return out


def _predicted(ratings: COOMatrix, X: np.ndarray, Y: np.ndarray) -> np.ndarray:
    if X.shape[0] != ratings.shape[0] or Y.shape[0] != ratings.shape[1]:
        raise ValueError(
            f"factor shapes {X.shape}/{Y.shape} do not match ratings {ratings.shape}"
        )
    return entry_predictions(X, ratings.row, Y, ratings.col)


def _err_reductions(
    ratings: COOMatrix | ShardedCSR, X: np.ndarray, Y: np.ndarray
) -> tuple[float, float]:
    """``(Σ err², Σ |err|)`` over observed entries, for either view.

    A :class:`ShardedCSR` streams one resident row-range shard at a
    time (no prefetch — loss is off the hot path), accumulating partial
    sums; each partial matches the in-RAM reduction to float64 rounding,
    which is why the trainers' loss trajectories agree to 1e-10 rather
    than bitwise.
    """
    if isinstance(ratings, ShardedCSR):
        if X.shape[0] != ratings.shape[0] or Y.shape[0] != ratings.shape[1]:
            raise ValueError(
                f"factor shapes {X.shape}/{Y.shape} do not match "
                f"ratings {ratings.shape}"
            )
        sq = 0.0
        ab = 0.0
        for sp, mat in ratings.iter_resident(prefetch=False):
            rows = sp.row_start + mat.expanded_rows()
            pred = entry_predictions(X, rows, Y, mat.col_idx)
            err = mat.value.astype(np.float64) - pred
            sq += float(err @ err)
            ab += float(np.abs(err).sum())
        return sq, ab
    err = ratings.value.astype(np.float64) - _predicted(ratings, X, Y)
    return float(err @ err), float(np.abs(err).sum())


def _penalty(X: np.ndarray, Y: np.ndarray, lam: float) -> float:
    return lam * (float(np.sum(X * X)) + float(np.sum(Y * Y)))


def regularized_loss(
    ratings: COOMatrix | ShardedCSR, X: np.ndarray, Y: np.ndarray, lam: float
) -> float:
    """Eq. 2: squared error over observed entries plus the λ penalty."""
    sq, _ = _err_reductions(ratings, X, Y)
    return sq + _penalty(X, Y, lam)


def rmse(ratings: COOMatrix | ShardedCSR, X: np.ndarray, Y: np.ndarray) -> float:
    """Root-mean-square error over the given ratings (train or held-out)."""
    if ratings.nnz == 0:
        return 0.0
    sq, _ = _err_reductions(ratings, X, Y)
    return float(np.sqrt(sq / ratings.nnz))


def loss_and_rmse(
    ratings: COOMatrix | ShardedCSR, X: np.ndarray, Y: np.ndarray, lam: float
) -> tuple[float, float]:
    """``(regularized_loss, rmse)`` from one pass over the observed entries.

    Bitwise equal to the two separate calls, at half the gathers.
    """
    sq, _ = _err_reductions(ratings, X, Y)
    err_rmse = float(np.sqrt(sq / ratings.nnz)) if ratings.nnz else 0.0
    return sq + _penalty(X, Y, lam), err_rmse


def mae(ratings: COOMatrix | ShardedCSR, X: np.ndarray, Y: np.ndarray) -> float:
    """Mean absolute error over the given ratings."""
    if ratings.nnz == 0:
        return 0.0
    _, ab = _err_reductions(ratings, X, Y)
    return float(ab / ratings.nnz)
