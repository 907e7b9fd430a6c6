"""Empirical selection of the iALS++ subspace block size.

The right block width ``d`` is a hardware *and* shape question: smaller
blocks cut per-pass flops (``nnz·k·d`` assembly, ``d³`` solves) but pay
a fixed cost per block (an nnz-long permutation gather of the maintained
rating predictions, kernel and solver launches — the ``2·nnz·d`` dots
that keep those predictions current sum to ``2·nnz·k`` per pass at any
width) and make less progress per pass, and where the balance lands
depends on k, the matrix density, and the BLAS the host runs.  Following the paper's
measure-then-pick loop (§III-D) — the same scheme the assembly, solver,
and sharding autotuners use — this module *trains* a small synthetic
probe at every candidate width, reads the loss-vs-seconds curve each run
records (``IterationStats.elapsed_seconds``), and picks the width that
reached the common target loss fastest.  Verdicts are cached per
``(k, nnz/row bucket, dtype)`` so an ``"auto"`` training run pays the
measurement once.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.obs import metrics as obs_metrics
from repro.obs.spans import is_enabled

__all__ = [
    "BlockDecision",
    "block_candidates",
    "measure_blocks",
    "select_block_size",
    "cached_block_decisions",
    "clear_block_cache",
]

#: Probe corpus shape: large enough that per-iteration cost dominates
#: Python dispatch, small enough that a full candidate scan stays well
#: under a second at ML-scale k.
PROBE_ROWS = 384

_CACHE: dict[tuple[int, int, str], "BlockDecision"] = {}


@dataclass(frozen=True)
class BlockDecision:
    """One measured subspace-width verdict for a shape context."""

    block_size: int  # winning width (== k means full sweeps win)
    seconds_to_target: dict[int, float]  # probe time-to-target per width
    target_loss: float  # the common loss bar every candidate reached
    k: int
    nnz_bucket: int  # power-of-two nnz/row bucket
    dtype: str

    @property
    def speedup(self) -> float:
        """Winner's margin over full-k sweeps on the probe (>= 1 when
        a strict subspace wins)."""
        full = self.seconds_to_target.get(self.k)
        best = self.seconds_to_target[self.block_size]
        if full is None or best <= 0:
            return 1.0
        return full / best


def block_candidates(k: int) -> tuple[int, ...]:
    """Power-of-two widths below ``k`` plus ``k`` itself (full sweeps)."""
    if k <= 0:
        raise ValueError("k must be positive")
    cands = [d for d in (4, 8, 16, 32, 64) if d < k]
    return tuple(cands[-4:]) + (k,)


def _nnz_bucket(nnz_per_row: float) -> int:
    per_row = max(1, int(round(nnz_per_row)))
    return 1 << min(10, max(0, int(per_row - 1).bit_length()))


def _time_to_target(history, target: float) -> float:
    for stats in history:
        if stats.loss <= target:
            return max(stats.elapsed_seconds, 1e-9)
    return float("inf")


def measure_blocks(
    k: int,
    nnz_per_row: float,
    *,
    candidates: tuple[int, ...] | None = None,
    lam: float = 0.1,
    iterations: int = 4,
    probe_rows: int = PROBE_ROWS,
    seed: int = 0,
    compute_dtype: object | None = None,
) -> BlockDecision:
    """Train a synthetic probe at every candidate width; pick by
    measured time-to-target-loss.

    The target is the *loosest* final loss across candidates, so every
    width reached it and the comparison is purely about wall-seconds.
    """
    # Imported here: core.subspace resolves "auto" through this module.
    from repro.core.als import ALSConfig, train_als
    from repro.datasets.catalog import DatasetSpec
    from repro.datasets.synthetic import generate_ratings

    if k <= 0:
        raise ValueError("k must be positive")
    if nnz_per_row <= 0:
        raise ValueError("nnz_per_row must be positive")
    if iterations <= 0:
        raise ValueError("iterations must be positive")
    cands = candidates if candidates is not None else block_candidates(k)
    cands = tuple(sorted({min(k, int(d)) for d in cands}))
    if any(d < 1 for d in cands):
        raise ValueError(f"block candidates must be >= 1, got {cands}")
    m = max(64, int(probe_rows))
    n = max(32, m // 3)
    nnz = int(min(m * max(1.0, nnz_per_row), m * n * 0.5))
    spec = DatasetSpec(
        name=f"blockprobe-k{k}", abbr="BPRB", m=m, n=n, nnz=nnz,
        row_alpha=0.9, col_alpha=0.9, rating_min=1.0, rating_max=5.0,
    )
    ratings = generate_ratings(spec, seed=seed)
    dtype = "float64" if compute_dtype is None else str(compute_dtype)
    histories: dict[int, list] = {}
    for d in cands:
        config = ALSConfig(
            k=k, lam=lam, iterations=iterations, seed=seed,
            assembly_dtype=None if compute_dtype is None else str(compute_dtype),
            block_size=None if d == k else d,
        )
        histories[d] = train_als(ratings, config).history
    target = max(h[-1].loss for h in histories.values())
    seconds = {d: _time_to_target(h, target) for d, h in histories.items()}
    winner = min(seconds, key=lambda d: (seconds[d], d))
    return BlockDecision(
        block_size=int(winner),
        seconds_to_target=seconds,
        target_loss=float(target),
        k=int(k),
        nnz_bucket=_nnz_bucket(nnz_per_row),
        dtype=dtype,
    )


def select_block_size(
    k: int,
    *,
    nnz_per_row: float | None = None,
    compute_dtype: object | None = None,
) -> int:
    """The measured-best subspace width for this shape, cached per
    ``(k, nnz/row bucket, dtype)``."""
    per_row = 64.0 if not nnz_per_row or nnz_per_row <= 0 else float(nnz_per_row)
    dtype = "float64" if compute_dtype is None else str(compute_dtype)
    key = (int(k), _nnz_bucket(per_row), dtype)
    decision = _CACHE.get(key)
    if decision is None:
        decision = measure_blocks(
            k, per_row, compute_dtype=compute_dtype
        )
        _CACHE[key] = decision
        if is_enabled():
            obs_metrics.inc("blocks.auto.measurements")
            obs_metrics.set_gauge("blocks.auto.block_size", decision.block_size)
    return decision.block_size


def cached_block_decisions() -> tuple[BlockDecision, ...]:
    """Every verdict this process has measured (profile output reads it)."""
    return tuple(_CACHE[key] for key in sorted(_CACHE))


def clear_block_cache() -> None:
    """Forget all cached verdicts (tests and re-tuning)."""
    _CACHE.clear()
