"""The ALS driver (Algorithm 1).

Alternates exact least-squares updates of X (rows, CSR sweep) and Y
(columns, CSC sweep) until the iteration budget is reached — the same
fixed-iteration regime the paper benchmarks (5 iterations, k = 10,
λ = 0.1 unless stated, §IV-B).  The one loop serves all three trainers:
plain ALS here, ALS-WR (:mod:`repro.core.alswr`) and implicit feedback
(:mod:`repro.core.implicit`) differ only in the per-row system and the
tracked loss, which a small objective supplies.
"""

from __future__ import annotations

import tempfile
from collections.abc import Callable
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np

from repro.core.init import init_factors
from repro.core.loss import loss_and_rmse, rmse
from repro.core.subspace import (
    BLOCK_SCHEDULES,
    SubspaceState,
    make_blocks,
    resolve_block_size,
    subspace_iteration,
    validate_block_size,
)
from repro.linalg.normal_equations import ASSEMBLY_DTYPE, TILE_NNZ
from repro.parallel.executor import WORKERS, SweepExecutor
from repro.obs import metrics as obs_metrics
from repro.obs.resource import minor_faults
from repro.obs.spans import span
from repro.sparse.coo import COOMatrix
from repro.sparse.csc import CSCMatrix
from repro.sparse.csr import CSRMatrix
from repro.sparse.shards import ShardStore, ShardedCSR

__all__ = [
    "ALSConfig",
    "IterationStats",
    "ALSModel",
    "train_als",
    "ratings_views",
    "training_views",
]

FACTOR_MODES = ("ram", "memmap")


@dataclass(frozen=True)
class ALSConfig:
    """Hyper-parameters of Algorithm 1.

    Algorithm 1 "iterates until it reaches the maximum specified cycles
    or error rate": ``iterations`` is the cycle budget and ``tol`` the
    error-rate criterion — training stops early once the relative loss
    improvement between iterations falls below it (0 disables).
    """

    k: int = 10  # latent factor dimensionality (paper default)
    lam: float = 0.1  # regularization λ (paper default)
    iterations: int = 5  # sweeps (paper's benchmark setting)
    tol: float = 0.0  # relative-improvement stopping threshold
    seed: int = 0
    init_scale: float = 0.1
    track_loss: bool = True  # compute the loss (Eq. 2) after every iteration
    # Code-variant knobs (§III-D analogue): each field is the explicit
    # argument of the knob of the same name; None defers to the knob's
    # configured, env or default value (repro.knobs).
    tile_nnz: int | None = None  # nnz budget per assembly tile
    assembly_dtype: str | None = None  # "float32" | "float64" compute mode
    # Half-sweep parallelism: "auto" = one worker per core, N = exactly N
    # threads (default serial).
    workers: int | str | None = None
    # Factor-matrix backing: "ram" (heap arrays, the default) or "memmap"
    # (.npy-backed maps with per-shard spill — the out-of-core trainers'
    # option for shapes where even X and Y strain memory).
    factors: str = "ram"
    factors_dir: str | None = None  # memmap location; None = fresh temp dir
    # iALS++ subspace descent: update the factors in column blocks of
    # width `block_size` — an int, or None for the historical full-k
    # sweeps.  A full-width block reproduces the full sweep bitwise.
    # `block_schedule` orders the updates: "paired" interleaves X/Y per
    # block (iALS++), "sweep" finishes all X blocks before any Y block.
    block_size: int | None = None
    block_schedule: str = "paired"

    def __post_init__(self) -> None:
        if self.k <= 0:
            raise ValueError("k must be positive")
        if self.lam <= 0:
            raise ValueError("lam must be positive (λI keeps smat SPD)")
        if self.iterations <= 0:
            raise ValueError("iterations must be positive")
        if self.tol < 0:
            raise ValueError("tol must be non-negative")
        if self.tol > 0 and not self.track_loss:
            raise ValueError("tol-based stopping requires track_loss")
        for knob, value in (
            (TILE_NNZ, self.tile_nnz),
            (ASSEMBLY_DTYPE, self.assembly_dtype),
            (WORKERS, self.workers),
        ):
            if value is not None:
                knob.check(value)
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


@dataclass(frozen=True)
class IterationStats:
    """Objective tracking for one ALS iteration.

    ``elapsed_seconds`` is the cumulative monotonic training time up to
    and including this iteration's sweeps — loss/validation evaluation
    is excluded, so the history doubles as a loss-vs-wall-seconds curve
    (checkpoints written before this field existed load as 0.0).
    """

    iteration: int
    loss: float
    train_rmse: float | None
    validation_rmse: float | None = None
    elapsed_seconds: float = 0.0


@dataclass
class ALSModel:
    """Trained factors plus the per-iteration history."""

    X: np.ndarray  # (m, k) user factors
    Y: np.ndarray  # (n, k) item factors
    config: ALSConfig
    history: list[IterationStats] = field(default_factory=list)

    @property
    def shape(self) -> tuple[int, int]:
        return (self.X.shape[0], self.Y.shape[0])

    @property
    def k(self) -> int:
        return self.X.shape[1]

    def losses(self) -> list[float]:
        return [s.loss for s in self.history]


def ratings_views(ratings: COOMatrix | CSRMatrix) -> tuple[COOMatrix, CSRMatrix]:
    """Canonical ``(deduplicated COO, CSR)`` views of a rating input.

    The single conversion point every trainer (and the ``Recommender``
    facade) shares: COO inputs are deduplicated and converted exactly
    once; a prebuilt CSR passes through untouched.
    """
    if isinstance(ratings, COOMatrix):
        coo = ratings.deduplicate()
        return coo, CSRMatrix.from_coo(coo)
    if isinstance(ratings, CSRMatrix):
        return ratings.to_coo(), ratings
    raise TypeError(f"ratings must be COOMatrix or CSRMatrix, got {type(ratings)}")


def training_views(
    ratings: COOMatrix | CSRMatrix | ShardStore,
) -> tuple[CSRMatrix | ShardedCSR, CSRMatrix | ShardedCSR | None, object]:
    """``(R_rows, R_cols, loss_view)`` for in-RAM or out-of-core input.

    A :class:`ShardStore` contributes both pre-materialized orientations
    (nothing to transpose at train time) and its row view doubles as the
    streaming loss view.  For in-RAM input ``R_cols`` comes back ``None``
    — the trainer builds the CSC view inside its ``als.build_views``
    span, where the conversion cost is attributed.
    """
    if isinstance(ratings, ShardStore):
        return ratings.rows, ratings.cols, ratings.rows
    coo, R_rows = ratings_views(ratings)
    return R_rows, None, coo


def resolve_factor_dir(config: "ALSConfig") -> str | None:
    """The memmap directory for factor spill (``None`` for RAM factors)."""
    if config.factors != "memmap":
        return None
    return config.factors_dir or tempfile.mkdtemp(prefix="repro-factors-")


def _eq2_loss(
    view, X: np.ndarray, Y: np.ndarray, config: ALSConfig, predictions=None
):
    """Eq. 2 and the train RMSE, from one fresh pass over the ratings."""
    return loss_and_rmse(view, X, Y, config.lam)


@dataclass(frozen=True)
class _Objective:
    """What sets one ALS variant apart inside Algorithm 1's loop.

    ``sweep_kw`` rides into every half-sweep and block update next to
    the config's assembly knobs: ``weighted=True`` selects
    ALS-WR's ``λ·n_u`` regularizer, ``implicit_alpha`` the implicit
    kernel (whose full half-sweeps also get the fixed side's ``FᵀF``).
    ``loss(view, X, Y, config, predictions)`` returns ``(loss,
    train_rmse or None)`` for the iteration history; ``predictions``
    are the subspace trainer's maintained per-rating ``x_uᵀy_i`` in
    ``view`` entry order on strict blocks, else ``None``.  Only the
    implicit objective reads them; the explicit ones recompute.
    """

    algorithm: str  # the als.train span's `algorithm` attribute
    loss: Callable[..., tuple[float, float | None]]
    sweep_kw: dict = field(default_factory=dict)
    model: type[ALSModel] = ALSModel


def _half_sweep(
    executor: SweepExecutor,
    R: CSRMatrix | ShardedCSR,
    F: np.ndarray,
    lam: float,
    F_prev: np.ndarray | None,
    out: np.ndarray | None,
    sweep_kw: dict,
) -> np.ndarray:
    """One full half-sweep (Eq. 4): every row of ``R`` against fixed ``F``.

    Explicit rows without ratings keep ``F_prev``.  The implicit kernel
    gets the dense ``FᵀF`` computed once here and broadcast to every
    row (the Hu-Koren trick); its empty rows resolve to zero.
    """
    if sweep_kw.get("implicit_alpha") is None:
        return executor.half_sweep(R, F, lam, X_prev=F_prev, out=out, **sweep_kw)
    F = np.ascontiguousarray(F, dtype=np.float64)
    return executor.half_sweep(R, F, lam, base_gram=F.T @ F, out=out, **sweep_kw)


def _train(
    views: tuple,
    config: ALSConfig,
    objective: _Objective,
    validation: COOMatrix | None = None,
) -> ALSModel:
    """Algorithm 1 for every variant: the one alternating loop.

    ``views`` is :func:`training_views`' triple.  Each iteration runs
    both full half-sweeps — or, with a ``block_size``, the iALS++
    subspace updates of :func:`subspace_iteration` — then records the
    objective's loss, stopping early once the relative improvement
    falls below ``config.tol``.
    """
    R_rows, R_cols, loss_view = views
    with span(
        "als.train",
        algorithm=objective.algorithm,
        k=config.k,
        iterations=config.iterations,
        nnz=R_rows.nnz,
        out_of_core=R_cols is not None,
    ) as train_span:
        faults = minor_faults()
        with span("als.build_views"):
            if R_cols is None:
                R_cols = CSCMatrix.from_csr(R_rows).transpose_as_csr()
            m, n = R_rows.shape
            X, Y = init_factors(
                m, n, config.k, seed=config.seed, scale=config.init_scale,
                memmap_dir=resolve_factor_dir(config),
            )

        inplace = config.factors == "memmap"
        sweep_kw = dict(
            tile_nnz=config.tile_nnz, compute_dtype=config.assembly_dtype,
            **objective.sweep_kw,
        )
        block_d = resolve_block_size(config.block_size, config.k)
        blocks = None if block_d is None else make_blocks(config.k, block_d)
        state = SubspaceState()  # carried across iterations
        history: list[IterationStats] = []
        elapsed = 0.0
        with SweepExecutor(config.workers) as executor:
            for it in range(1, config.iterations + 1):
                with span("als.iteration", iteration=it):
                    obs_metrics.inc("als.iterations")
                    t_iter = perf_counter()
                    if blocks is None:
                        t_hs = perf_counter()
                        with span("als.half_sweep", side="X", iteration=it):
                            X = _half_sweep(
                                executor, R_rows, Y, config.lam, X,
                                X if inplace else None, sweep_kw,
                            )
                        obs_metrics.observe_latency(
                            "als.half_sweep.seconds", perf_counter() - t_hs
                        )
                        t_hs = perf_counter()
                        with span("als.half_sweep", side="Y", iteration=it):
                            Y = _half_sweep(
                                executor, R_cols, X, config.lam, Y,
                                Y if inplace else None, sweep_kw,
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
                        with span("als.loss", iteration=it):
                            # state.p is current after the iteration's
                            # last restore (None without strict blocks).
                            loss, train_rmse = objective.loss(
                                loss_view, X, Y, config, state.p
                            )
                            history.append(
                                IterationStats(
                                    iteration=it,
                                    loss=loss,
                                    train_rmse=train_rmse,
                                    validation_rmse=(
                                        rmse(validation, X, Y)
                                        if validation is not None
                                        else None
                                    ),
                                    elapsed_seconds=elapsed,
                                )
                            )
                if config.tol > 0 and len(history) >= 2:
                    prev, cur = history[-2].loss, history[-1].loss
                    if prev > 0 and (prev - cur) / prev < config.tol:
                        break
        if faults is not None:
            # Pages the fit mapped afresh: the allocator churn that
            # shows in train_s and peak RSS without a name of its own.
            train_span.set(minor_faults=minor_faults() - faults)
        return objective.model(X=X, Y=Y, config=config, history=history)


def train_als(
    ratings: COOMatrix | CSRMatrix | ShardStore,
    config: ALSConfig | None = None,
    validation: COOMatrix | None = None,
) -> ALSModel:
    """Factorize ``ratings ≈ X Yᵀ`` with alternating least squares.

    Accepts COO (converted once), a prebuilt CSR matrix, or an on-disk
    :class:`ShardStore` — the out-of-core path, where each half-sweep
    streams byte-budgeted row-range shards of its natural orientation
    and the loss is accumulated the same way.  Each iteration performs
    the two half-sweeps of Algorithm 1: rows over the CSR view, columns
    over the CSC view (as the paper stores them, §III-A).  When a
    ``validation`` set is given its RMSE is tracked per iteration.
    """
    return _train(
        training_views(ratings), config or ALSConfig(),
        _Objective("als", _eq2_loss), validation,
    )
