"""Implicit-feedback ALS (Hu, Koren & Volinsky) on the optimized substrate.

The paper's introduction credits ALS with being able to "incorporate
implicit ratings" [1]; this module implements that variant.  Observations
become binary preferences ``p_ui = 1`` with confidence
``c_ui = 1 + α·r_ui``, and each row solves

    x_u = (YᵀY + Yᵀ(C_u − I)Y + λI)⁻¹ Yᵀ C_u p_u

using the classic trick: the dense ``YᵀY`` is computed once per
half-sweep and only the sparse correction ``Yᵀ(C_u − I)Y`` is assembled
per row.

Historically that correction was built by materializing every per-rating
outer product as an ``(nnz, k, k)`` tensor and scatter-adding it — ~32 GB
at MovieLens-1M with k = 64, an out-of-memory crash on exactly the
datasets the paper benchmarks.  The sweep now runs on the shared
machinery the explicit path uses:

* the correction ``Σ α·r · y yᵀ`` and the RHS ``Σ (1 + α·r) · y`` ride
  the degree-binned, nnz-tile-budgeted assembly of
  :mod:`repro.linalg.normal_equations` (per-nnz weight vector; the
  ``(nnz, k, k)`` intermediate is gone and peak scratch is bounded by
  the ``tile_nnz`` budget / ``REPRO_TILE_NNZ``);
* S3 is one batched LAPACK solve per sweep group
  (:mod:`repro.linalg.solvers`), with the shared ``YᵀY`` broadcast kept;
* half-sweeps shard over :class:`repro.parallel.SweepExecutor` with the
  same bitwise-equal-to-serial guarantee as explicit ALS (weights derive
  from each shard's own values);
* instrumented runs emit ``als.implicit.s1``/``s3`` spans (the binned
  S1 span carries the fused S2) plus the
  ``assembly.implicit.peak_tile_bytes`` gauge.

The scatter kernel stays as the weighted reference
(:func:`~repro.linalg.normal_equations.scatter_normal_equations` with
``nnz_weight``) for parity tests and ``benchmarks/bench_implicit.py``;
no sweep runs it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.als import (
    ALSConfig,
    ALSModel,
    _half_sweep,
    _Objective,
    _train,
    training_views,
)
from repro.core.loss import entry_predictions
from repro.parallel.executor import SweepExecutor
from repro.sparse.coo import COOMatrix
from repro.sparse.csr import CSRMatrix
from repro.sparse.shards import ShardStore, ShardedCSR

__all__ = ["ImplicitConfig", "ImplicitModel", "implicit_half_sweep", "train_implicit_als"]


@dataclass(frozen=True)
class ImplicitConfig(ALSConfig):
    """Hyper-parameters of implicit-feedback ALS: :class:`ALSConfig`
    plus the confidence slope ``alpha``.

    ``tol`` stops on the relative improvement of the exact implicit
    objective (unobserved cells included, see :func:`_implicit_loss`),
    with the explicit trainer's exact semantics.
    """

    alpha: float = 40.0  # confidence slope: c = 1 + α·r

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.alpha <= 0:
            raise ValueError("alpha must be positive")


class ImplicitModel(ALSModel):
    """Implicit factors; ``history`` tracks the exact implicit objective
    over every cell, observed or not (no RMSE)."""

    def score(self, user: int) -> np.ndarray:
        """Preference scores of one user over all items."""
        return self.Y @ self.X[user]


def implicit_half_sweep(
    R: CSRMatrix | ShardedCSR,
    Y: np.ndarray,
    lam: float,
    alpha: float,
    *,
    tile_nnz: int | None = None,
    compute_dtype: object | None = None,
    executor: SweepExecutor | None = None,
    workers: int | str | None = None,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """Update all row factors of ``R`` for implicit feedback.

    Empty rows resolve to zero (their preference vector is all-zero and
    the system is ``(YᵀY + λI) x = 0``).  The shared dense ``YᵀY`` is
    computed once here and broadcast onto every occupied row's system
    (the Hu-Koren trick); the sparse correction assembles through the
    binned/tiled weighted kernel, so peak scratch is bounded by the
    ``tile_nnz`` budget instead of growing with ``nnz·k²``.

    Pass an ``executor`` to reuse a thread pool; with ``workers`` (or
    neither) a transient executor handles this sweep.  The parallel
    result is bitwise-identical to the serial one, as is the blocked
    out-of-core sweep a :class:`ShardedCSR` ``R`` selects.
    """
    if alpha <= 0:
        raise ValueError("alpha must be positive")
    kw = dict(
        implicit_alpha=float(alpha), tile_nnz=tile_nnz, compute_dtype=compute_dtype,
    )
    if executor is not None:
        return _half_sweep(executor, R, Y, lam, None, out, kw)
    with SweepExecutor(workers) as ex:
        return _half_sweep(ex, R, Y, lam, None, out, kw)


def _observed_fit(value: np.ndarray, s: np.ndarray, alpha: float) -> float:
    """``Σ [c·(1 − s)² − s²]`` over stored entries with predictions ``s``.

    The observed cells' share of the objective once the dense
    ``Σ_all s²`` is split off (:func:`_implicit_loss`).
    """
    conf = 1.0 + alpha * value.astype(np.float64)
    err = 1.0 - s
    return float(conf @ (err * err)) - float(s @ s)


def _implicit_loss(
    ratings: COOMatrix | ShardedCSR,
    X: np.ndarray,
    Y: np.ndarray,
    config: ImplicitConfig,
    predictions: np.ndarray | None = None,
) -> tuple[float, None]:
    """The exact implicit objective: every cell, observed or not.

    ``Σ_all c·(p − x_uᵀy_i)² + λ(‖X‖² + ‖Y‖²)`` with ``p = 1, c = 1 + α·r``
    on observed cells and ``p = 0, c = 1`` elsewhere.  Splitting the
    unobserved cells off through ``Σ_all s² = ⟨XᵀX, YᵀY⟩_F`` leaves

        Σ_obs [c·(1 − s)² − s²] + ⟨XᵀX, YᵀY⟩_F + λ(‖X‖² + ‖Y‖²),

    an O(nnz) pass plus two k×k Gramians.  ``predictions`` are the
    subspace trainer's maintained ``s`` (:class:`SubspaceState` ``p``,
    in ``ratings`` entry order): with them the observed pass reads
    ``s`` instead of recomputing ``nnz·k`` dots.  Without them (the
    full-sweep and d = k paths) ``s`` is computed fresh by one shared
    code path, so those two loss histories stay bitwise equal.  A
    :class:`ShardedCSR` streams its resident shards and reads the
    predictions by entry range, matching the in-RAM value to float64
    rounding.  There is no train RMSE.
    """
    alpha = config.alpha
    if isinstance(ratings, ShardedCSR):
        fit = 0.0
        for sp, mat in ratings.iter_resident(prefetch=False):
            if predictions is None:
                rows = sp.row_start + mat.expanded_rows()
                s = entry_predictions(X, rows, Y, mat.col_idx)
            else:
                s = predictions[sp.nnz_start:sp.nnz_stop]
            fit += _observed_fit(mat.value, s, alpha)
    else:
        if predictions is None:
            s = entry_predictions(X, ratings.row, Y, ratings.col)
        else:
            s = predictions
        fit = _observed_fit(ratings.value, s, alpha)
    Xc = np.ascontiguousarray(X, dtype=np.float64)
    Yc = np.ascontiguousarray(Y, dtype=np.float64)
    unobserved = float(np.vdot(Xc.T @ Xc, Yc.T @ Yc))
    penalty = float(np.sum(X * X)) + float(np.sum(Y * Y))
    return fit + unobserved + config.lam * penalty, None


def train_implicit_als(
    ratings: COOMatrix | CSRMatrix | ShardStore, config: ImplicitConfig | None = None
) -> ImplicitModel:
    """Train implicit-feedback factors on interaction counts/strengths.

    Accepts COO (deduplicated and converted once), a prebuilt CSR
    matrix, or an on-disk :class:`ShardStore` (the blocked out-of-core
    path), like :func:`train_als`, and runs the same driver.
    """
    config = config or ImplicitConfig()
    views = training_views(ratings)
    R_rows, R_cols, loss_view = views
    if R_cols is not None:
        negative = R_rows.nnz and R_rows.min_value() < 0
    else:
        negative = loss_view.nnz and loss_view.value.min() < 0
    if negative:
        raise ValueError("implicit feedback must be non-negative")
    objective = _Objective(
        "implicit", _implicit_loss, {"implicit_alpha": float(config.alpha)},
        ImplicitModel,
    )
    return _train(views, config, objective)
