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

import tempfile
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np

from repro.core.als import FACTOR_MODES, IterationStats, training_views
from repro.core.init import init_factors
from repro.core.loss import entry_predictions
from repro.core.subspace import (
    BLOCK_SCHEDULES,
    SubspaceState,
    make_blocks,
    resolve_block_size,
    subspace_iteration,
    validate_block_size,
)
from repro.linalg.normal_equations import ASSEMBLY_MODES
from repro.linalg.solvers import SOLVER_MODES
from repro.obs import metrics as obs_metrics
from repro.obs.spans import span
from repro.parallel.executor import SweepExecutor, _parse_workers
from repro.sparse.coo import COOMatrix
from repro.sparse.csc import CSCMatrix
from repro.sparse.csr import CSRMatrix
from repro.sparse.shards import ShardStore, ShardedCSR

__all__ = ["ImplicitConfig", "ImplicitModel", "implicit_half_sweep", "train_implicit_als"]


@dataclass(frozen=True)
class ImplicitConfig:
    """Hyper-parameters of implicit-feedback ALS.

    The assembly/solver/parallelism knobs mirror :class:`ALSConfig` —
    ``None`` defers to the configured / environment defaults of the
    respective subsystem, exactly as the explicit trainer does.
    """

    k: int = 10
    lam: float = 0.1
    alpha: float = 40.0  # confidence slope: c = 1 + α·r
    iterations: int = 5
    # Early stopping, with ALSConfig's exact semantics: stop once the
    # relative weighted-loss improvement between iterations falls below
    # `tol` (0 disables); `track_loss` gates the per-iteration loss
    # evaluation that stopping (and the history) depends on.
    tol: float = 0.0
    track_loss: bool = True
    seed: int = 0
    init_scale: float = 0.1
    # S1/S2 assembly code variant; None defers to configure_assembly /
    # REPRO_ASSEMBLY, then the built-in binned default.
    assembly: str | None = None  # "binned" | "scatter" | "auto"
    tile_nnz: int | None = None  # nnz budget per assembly tile
    assembly_dtype: str | None = None  # "float32" | "float64" compute mode
    # S3 solver code variant; None defers to configure_solver / REPRO_SOLVER.
    solver: str | None = None  # "lapack" | "cholesky" | "gaussian"
    # Half-sweep parallelism: "auto" = one worker per core, N = exactly N
    # threads; None defers to configure_workers / REPRO_WORKERS (serial).
    workers: int | str | None = None
    # Factor-matrix backing: "ram" or "memmap" (see ALSConfig).
    factors: str = "ram"
    factors_dir: str | None = None
    # iALS++ subspace descent knobs (see ALSConfig / core.subspace).
    block_size: int | str | None = None
    block_schedule: str = "paired"

    def __post_init__(self) -> None:
        if self.k <= 0 or self.iterations <= 0:
            raise ValueError("k and iterations must be positive")
        if self.lam <= 0 or self.alpha <= 0:
            raise ValueError("lam and alpha must be positive")
        if self.tol < 0:
            raise ValueError("tol must be non-negative")
        if self.tol > 0 and not self.track_loss:
            raise ValueError("tol-based stopping requires track_loss")
        if self.assembly is not None and self.assembly not in ASSEMBLY_MODES:
            raise ValueError(
                f"assembly must be one of {ASSEMBLY_MODES}, got {self.assembly!r}"
            )
        if self.tile_nnz is not None and self.tile_nnz < 1:
            raise ValueError("tile_nnz must be >= 1")
        if self.assembly_dtype is not None and self.assembly_dtype not in (
            "float32",
            "float64",
        ):
            raise ValueError(
                f"assembly_dtype must be 'float32' or 'float64', "
                f"got {self.assembly_dtype!r}"
            )
        if self.solver is not None and self.solver not in SOLVER_MODES:
            raise ValueError(
                f"solver must be one of {SOLVER_MODES}, got {self.solver!r}"
            )
        if self.workers is not None:
            _parse_workers(self.workers)  # raises on bad specs
        if self.factors not in FACTOR_MODES:
            raise ValueError(
                f"factors must be one of {FACTOR_MODES}, got {self.factors!r}"
            )
        validate_block_size(self.block_size)
        if self.block_schedule not in BLOCK_SCHEDULES:
            raise ValueError(
                f"block_schedule must be one of {BLOCK_SCHEDULES}, "
                f"got {self.block_schedule!r}"
            )


@dataclass
class ImplicitModel:
    X: np.ndarray
    Y: np.ndarray
    config: ImplicitConfig
    history: list[float] = field(default_factory=list)  # weighted loss per iter
    # Structured per-iteration tracking (loss + cumulative training
    # seconds); `history` keeps the historical plain-float surface.
    stats: list[IterationStats] = field(default_factory=list)

    @property
    def shape(self) -> tuple[int, int]:
        return (self.X.shape[0], self.Y.shape[0])

    @property
    def k(self) -> int:
        return self.X.shape[1]

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

    Pass an ``executor`` to reuse a training run's thread pool; with
    ``workers`` (or neither) a transient executor handles this sweep.
    The parallel result is bitwise-identical to the serial one, as is
    the blocked out-of-core sweep a :class:`ShardedCSR` ``R`` selects.
    """
    if alpha <= 0:
        raise ValueError("alpha must be positive")
    Y = np.ascontiguousarray(Y, dtype=np.float64)
    YtY = Y.T @ Y  # shared dense part, computed once (the Hu-Koren trick)
    kw = dict(
        implicit_alpha=float(alpha), base_gram=YtY, solver=solver,
        assembly=assembly, tile_nnz=tile_nnz, compute_dtype=compute_dtype,
        out=out,
    )
    if executor is not None:
        return executor.half_sweep(R, Y, lam, **kw)
    with SweepExecutor(workers) as ex:
        return ex.half_sweep(R, Y, lam, **kw)


def _weighted_loss(
    ratings: COOMatrix | ShardedCSR,
    X: np.ndarray,
    Y: np.ndarray,
    lam: float,
    alpha: float,
) -> float:
    """Confidence-weighted objective over observed entries plus penalty.

    The full implicit objective also sums over *unobserved* cells; this
    tracker omits that constant-heavy term (standard practice for
    monitoring convergence direction cheaply).  A :class:`ShardedCSR`
    streams resident shards and accumulates partial sums (matching the
    in-RAM value to float64 rounding).
    """
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
    return fit + lam * (float(np.sum(X * X)) + float(np.sum(Y * Y)))


def train_implicit_als(
    ratings: COOMatrix | CSRMatrix | ShardStore, config: ImplicitConfig | None = None
) -> ImplicitModel:
    """Train implicit-feedback factors on interaction counts/strengths.

    Accepts COO (deduplicated and converted once), a prebuilt CSR
    matrix, or an on-disk :class:`ShardStore` (the blocked out-of-core
    path), like :func:`train_als`.  Each iteration runs the two
    half-sweeps through one shared :class:`SweepExecutor`, so the
    ``workers`` knob shards both sides over a reusable thread pool.
    """
    config = config or ImplicitConfig()
    R_rows, R_cols, loss_view = training_views(ratings)
    sharded = R_cols is not None
    if sharded:
        if R_rows.nnz and R_rows.min_value() < 0:
            raise ValueError("implicit feedback must be non-negative")
    elif loss_view.nnz and loss_view.value.min() < 0:
        raise ValueError("implicit feedback must be non-negative")
    with span(
        "als.train",
        algorithm="implicit",
        k=config.k,
        iterations=config.iterations,
        nnz=R_rows.nnz,
        out_of_core=sharded,
    ):
        with span("als.build_views"):
            if R_cols is None:
                R_cols = CSCMatrix.from_csr(R_rows).transpose_as_csr()
            m, n = R_rows.shape
            memmap_dir = None
            if config.factors == "memmap":
                memmap_dir = config.factors_dir or tempfile.mkdtemp(
                    prefix="repro-factors-"
                )
            X, Y = init_factors(
                m, n, config.k, seed=config.seed, scale=config.init_scale,
                memmap_dir=memmap_dir,
            )
        model = ImplicitModel(X=X, Y=Y, config=config)
        inplace = config.factors == "memmap"
        sweep_kw = dict(
            solver=config.solver, assembly=config.assembly,
            tile_nnz=config.tile_nnz, compute_dtype=config.assembly_dtype,
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
                            X = implicit_half_sweep(
                                R_rows, Y, config.lam, config.alpha,
                                executor=executor, out=X if inplace else None,
                                **sweep_kw,
                            )
                        obs_metrics.observe_latency(
                            "als.half_sweep.seconds", perf_counter() - t_hs
                        )
                        t_hs = perf_counter()
                        with span("als.half_sweep", side="Y", iteration=it):
                            Y = implicit_half_sweep(
                                R_cols, X, config.lam, config.alpha,
                                executor=executor, out=Y if inplace else None,
                                **sweep_kw,
                            )
                        obs_metrics.observe_latency(
                            "als.half_sweep.seconds", perf_counter() - t_hs
                        )
                    else:
                        X, Y = subspace_iteration(
                            executor, R_rows, R_cols, X, Y, config.lam,
                            blocks, config.block_schedule, sweep_kw,
                            implicit_alpha=float(config.alpha), state=state,
                            inplace=inplace, iteration=it,
                        )
                    elapsed += perf_counter() - t_iter
                    if config.track_loss:
                        with span("als.loss", iteration=it):
                            wl = _weighted_loss(
                                loss_view, X, Y, config.lam, config.alpha
                            )
                        model.history.append(wl)
                        model.stats.append(
                            IterationStats(
                                iteration=it,
                                loss=wl,
                                train_rmse=None,
                                elapsed_seconds=elapsed,
                            )
                        )
                if config.track_loss and config.tol > 0 and len(model.history) >= 2:
                    prev = model.history[-2]
                    cur = model.history[-1]
                    if prev > 0 and (prev - cur) / prev < config.tol:
                        break
        model.X, model.Y = X, Y
    return model
