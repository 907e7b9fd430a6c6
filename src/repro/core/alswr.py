"""ALS-WR: weighted-λ regularization (Zhou et al. [3]).

Identical to plain ALS except the regularizer scales with each entity's
rating count: row u is solved with ``λ · n_u · I`` where ``n_u = |Ω_u|``.
This is the variant that won Netflix-Prize-era practice because the
effective shrinkage stays comparable between heavy and light raters.

The sweep itself is the shared ``sweep_occupied`` kernel with
``weighted=True``, which is what lets the multicore executor
(:mod:`repro.parallel`) shard ALS-WR exactly like plain ALS.
"""

from __future__ import annotations

import numpy as np

from repro.core.als import ALSConfig, ALSModel, _Objective, _train, training_views
from repro.core.loss import rmse
from repro.parallel.executor import SweepExecutor
from repro.sparse.coo import COOMatrix
from repro.sparse.csr import CSRMatrix
from repro.sparse.shards import ShardStore, ShardedCSR

__all__ = ["train_als_wr", "weighted_half_sweep"]


def weighted_half_sweep(
    R: CSRMatrix | ShardedCSR,
    Y: np.ndarray,
    lam: float,
    X_prev: np.ndarray | None = None,
    tile_nnz: int | None = None,
    compute_dtype: object | None = None,
) -> np.ndarray:
    """One ALS-WR half-sweep: ``x_u = (Y_ΩᵀY_Ω + λ·n_u·I)⁻¹ Y_Ωᵀ r_u``."""
    if lam <= 0:
        raise ValueError("lam must be positive")
    with SweepExecutor(1) as ex:
        return ex.half_sweep(
            R, Y, lam, X_prev=X_prev, weighted=True,
            tile_nnz=tile_nnz, compute_dtype=compute_dtype,
        )


def _wr_loss(
    view, X: np.ndarray, Y: np.ndarray, config: ALSConfig, predictions=None
):
    """The WR objective differs from Eq. 2; RMSE is the comparable
    metric, so the loss records the (unweighted) fit term RMSE²·nnz."""
    err = rmse(view, X, Y)
    return err**2 * view.nnz, err


def train_als_wr(
    ratings: COOMatrix | CSRMatrix | ShardStore, config: ALSConfig | None = None
) -> ALSModel:
    """Train with weighted-λ regularization; same driver as ALS.

    A :class:`ShardStore` input runs the blocked out-of-core sweeps,
    exactly as :func:`train_als` does.
    """
    return _train(
        training_views(ratings), config or ALSConfig(),
        _Objective("als-wr", _wr_loss, {"weighted": True}),
    )
