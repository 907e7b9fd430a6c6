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

from time import perf_counter

import numpy as np

from repro.core.als import (
    ALSConfig,
    ALSModel,
    IterationStats,
    resolve_factor_dir,
    training_views,
)
from repro.core.init import init_factors
from repro.core.loss import rmse
from repro.core.subspace import (
    SubspaceState,
    make_blocks,
    resolve_block_size,
    subspace_iteration,
)
from repro.kernels.fastpath import sweep_occupied
from repro.obs import metrics as obs_metrics
from repro.obs.spans import span
from repro.parallel.executor import SweepExecutor
from repro.sparse.coo import COOMatrix
from repro.sparse.csc import CSCMatrix
from repro.sparse.csr import CSRMatrix
from repro.sparse.shards import ShardStore, ShardedCSR

__all__ = ["train_als_wr", "weighted_half_sweep"]


def weighted_half_sweep(
    R: CSRMatrix | ShardedCSR,
    Y: np.ndarray,
    lam: float,
    X_prev: np.ndarray | None = None,
    solver: str | None = None,
    assembly: str | None = None,
    tile_nnz: int | None = None,
    compute_dtype: object | None = None,
) -> np.ndarray:
    """One ALS-WR half-sweep: ``x_u = (Y_ΩᵀY_Ω + λ·n_u·I)⁻¹ Y_Ωᵀ r_u``."""
    if lam <= 0:
        raise ValueError("lam must be positive")
    if isinstance(R, ShardedCSR):
        with SweepExecutor(1) as ex:
            return ex.half_sweep(
                R, Y, lam, X_prev=X_prev, weighted=True, solver=solver,
                assembly=assembly, tile_nnz=tile_nnz, compute_dtype=compute_dtype,
            )
    k = Y.shape[1]
    X = np.zeros((R.nrows, k), dtype=np.float64)
    if X_prev is not None:
        X[:] = X_prev
    rows, X_rows = sweep_occupied(
        R, Y, lam, weighted=True, solver=solver,
        assembly=assembly, tile_nnz=tile_nnz, compute_dtype=compute_dtype,
    )
    X[rows] = X_rows
    return X


def train_als_wr(
    ratings: COOMatrix | CSRMatrix | ShardStore, config: ALSConfig | None = None
) -> ALSModel:
    """Train with weighted-λ regularization; same driver shape as ALS.

    A :class:`ShardStore` input runs the blocked out-of-core sweeps,
    exactly as :func:`train_als` does.
    """
    config = config or ALSConfig()
    R_rows, R_cols, loss_view = training_views(ratings)
    sharded = R_cols is not None
    with span(
        "als.train",
        algorithm="als-wr",
        k=config.k,
        iterations=config.iterations,
        nnz=R_rows.nnz,
        out_of_core=sharded,
    ):
        with span("als.build_views"):
            if R_cols is None:
                R_cols = CSCMatrix.from_csr(R_rows).transpose_as_csr()
            m, n = R_rows.shape
            X, Y = init_factors(
                m, n, config.k, seed=config.seed, scale=config.init_scale,
                memmap_dir=resolve_factor_dir(config),
            )
        model = ALSModel(X=X, Y=Y, config=config)
        inplace = config.factors == "memmap"
        sweep_kw = dict(
            weighted=True, solver=config.solver, cholesky=config.cholesky,
            assembly=config.assembly, tile_nnz=config.tile_nnz,
            compute_dtype=config.assembly_dtype,
        )
        block_d = resolve_block_size(
            config.block_size, config.k,
            nnz_per_row=R_rows.nnz / max(1, m),
            compute_dtype=config.assembly_dtype,
        )
        blocks = None if block_d is None else make_blocks(config.k, block_d)
        state = SubspaceState()  # carried across iterations
        elapsed = 0.0
        with SweepExecutor(config.workers) as executor:
            for it in range(1, config.iterations + 1):
                with span("als.iteration", iteration=it):
                    obs_metrics.inc("als.iterations")
                    t_iter = perf_counter()
                    if blocks is None:
                        t_hs = perf_counter()
                        with span("als.half_sweep", side="X", iteration=it):
                            X = executor.half_sweep(
                                R_rows, Y, config.lam, X_prev=X,
                                out=X if inplace else None, **sweep_kw
                            )
                        obs_metrics.observe_latency(
                            "als.half_sweep.seconds", perf_counter() - t_hs
                        )
                        t_hs = perf_counter()
                        with span("als.half_sweep", side="Y", iteration=it):
                            Y = executor.half_sweep(
                                R_cols, X, config.lam, X_prev=Y,
                                out=Y if inplace else None, **sweep_kw
                            )
                        obs_metrics.observe_latency(
                            "als.half_sweep.seconds", perf_counter() - t_hs
                        )
                    else:
                        X, Y = subspace_iteration(
                            executor, R_rows, R_cols, X, Y, config.lam,
                            blocks, config.block_schedule, sweep_kw,
                            state=state, inplace=inplace, iteration=it,
                        )
                    elapsed += perf_counter() - t_iter
                    if config.track_loss:
                        # The WR objective differs from Eq. 2; RMSE is the
                        # comparable metric, so loss tracking records the
                        # (unweighted) fit term.
                        with span("als.loss", iteration=it):
                            err_rmse = rmse(loss_view, X, Y)
                        model.history.append(
                            IterationStats(
                                iteration=it,
                                loss=err_rmse**2 * R_rows.nnz,
                                train_rmse=err_rmse,
                                elapsed_seconds=elapsed,
                            )
                        )
        model.X, model.Y = X, Y
    return model
