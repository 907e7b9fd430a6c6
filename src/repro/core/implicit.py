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
* S3 goes through the :mod:`repro.linalg.solvers` registry (LAPACK-class
  batched Cholesky by default), with the shared ``YᵀY`` broadcast kept;
* half-sweeps shard over :class:`repro.parallel.SweepExecutor` with the
  same bitwise-equal-to-serial guarantee as explicit ALS (weights derive
  from each shard's own values);
* instrumented runs emit ``als.implicit.s1``/``s3`` spans (the binned
  S1 span carries the fused S2; the scatter reference adds
  ``als.implicit.s2``) plus the ``assembly.implicit.peak_tile_bytes``
  gauge.

The retained scatter reference is one knob away (``assembly="scatter"``)
for parity tests and ``benchmarks/bench_implicit.py``.
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

    ``tol`` stops on the relative weighted-loss improvement, with the
    explicit trainer's exact semantics.
    """

    alpha: float = 40.0  # confidence slope: c = 1 + α·r

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.alpha <= 0:
            raise ValueError("alpha must be positive")


class ImplicitModel(ALSModel):
    """Implicit factors; ``history`` tracks the weighted loss (no RMSE)."""

    def score(self, user: int) -> np.ndarray:
        """Preference scores of one user over all items."""
        return self.Y @ self.X[user]


def implicit_half_sweep(
    R: CSRMatrix | ShardedCSR,
    Y: np.ndarray,
    lam: float,
    alpha: float,
    *,
    solver: str | None = None,
    assembly: str | None = None,
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
        implicit_alpha=float(alpha), solver=solver, assembly=assembly,
        tile_nnz=tile_nnz, compute_dtype=compute_dtype,
    )
    if executor is not None:
        return _half_sweep(executor, R, Y, lam, None, out, kw)
    with SweepExecutor(workers) as ex:
        return _half_sweep(ex, R, Y, lam, None, out, kw)


def _weighted_loss(
    ratings: COOMatrix | ShardedCSR,
    X: np.ndarray,
    Y: np.ndarray,
    config: ImplicitConfig,
) -> tuple[float, None]:
    """Confidence-weighted objective over observed entries plus penalty.

    The full implicit objective also sums over *unobserved* cells; this
    tracker omits that constant-heavy term (standard practice for
    monitoring convergence direction cheaply).  A :class:`ShardedCSR`
    streams resident shards and accumulates partial sums (matching the
    in-RAM value to float64 rounding).  There is no train RMSE.
    """
    alpha = config.alpha
    if isinstance(ratings, ShardedCSR):
        fit = 0.0
        for sp, mat in ratings.iter_resident(prefetch=False):
            rows = sp.row_start + mat.expanded_rows()
            pred = entry_predictions(X, rows, Y, mat.col_idx)
            conf = 1.0 + alpha * mat.value.astype(np.float64)
            err = 1.0 - pred
            fit += float(conf @ (err * err))
    else:
        pred = entry_predictions(X, ratings.row, Y, ratings.col)
        conf = 1.0 + alpha * ratings.value.astype(np.float64)
        err = 1.0 - pred
        fit = float(conf @ (err * err))
    penalty = float(np.sum(X * X)) + float(np.sum(Y * Y))
    return fit + config.lam * penalty, None


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
        "implicit", _weighted_loss, {"implicit_alpha": float(config.alpha)},
        ImplicitModel,
    )
    return _train(views, config, objective)
