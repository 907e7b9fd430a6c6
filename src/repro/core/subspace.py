"""iALS++ subspace block coordinate descent (Rendle et al. 2021).

A full ALS half-sweep solves every row's k×k normal equations; the cost
per coordinate step is O(k²) in assembly and O(k³) in the solve.  iALS++
observes that updating only a *block* of ``d ≪ k`` factor coordinates at
a time — holding the complement fixed and folding its contribution into
the right-hand side — drops those to O(d·k) and O(d³) per block while
converging to the same stationary point, so on large k the loss falls
much faster per wall-second.  This module is the schedule layer: it
walks the column blocks of the factor matrices and drives the existing
degree-binned, tile-budgeted kernels (:func:`sweep_occupied` with
``col_block``) through the shared :class:`SweepExecutor`, which keeps
every downstream optimization — binned assembly, batched LAPACK solve,
nnz-balanced sharding, blocked out-of-core streaming — in play
unchanged.

Two schedules are provided:

* ``"paired"`` — the iALS++ ordering: for each block, update the user
  factors then the item factors before moving on.  Freshly-updated user
  coordinates are visible to the very next item update, which is what
  gives iALS++ its convergence edge.
* ``"sweep"`` — finish every user block, then every item block; the
  closest analogue of the classical alternating sweep.

With one full-width block both schedules reduce to the historical
trainers *bitwise* (asserted by tests/core/test_subspace.py): the kernel
skips every complement term, the executor scatters whole rows, and the
implicit Gramian cache degenerates to the per-half-sweep recompute.

Each block update needs, for every rating, the prediction of the k−d
columns it holds fixed (the *complement*).  As in iALS++,
:func:`subspace_iteration` keeps every rating's full prediction ``p``
in a :class:`SubspaceState` for the whole fit and derives the
complement from it: ``p − x_B·y_B`` before a block visit, ``+ x_B·y_B``
of the new values after it — two d-wide dots per rating, O(nnz·d) per
block instead of the O(nnz·(k−d)) rebuild.  In the paired schedule one complement serves both sides of a
block (only the block's own columns change between the two updates),
permuted into the item-major entry order for the Y update.

For the implicit trainer the dense ``FᵀF`` Gramians are maintained
incrementally by :class:`~repro.linalg.normal_equations.GramCache` —
after a block update only the affected ``d`` rows/columns are
recomputed (O(m·d·k) instead of O(m·k²)).
"""

from __future__ import annotations

import tempfile
from pathlib import Path

import numpy as np

from repro.core.loss import entry_predictions
from repro.linalg.normal_equations import GramCache
from repro.obs import metrics as obs_metrics
from repro.obs.spans import is_enabled, span
from repro.sparse.shards import ShardedCSR

__all__ = [
    "BLOCK_SCHEDULES",
    "SubspaceState",
    "make_blocks",
    "pass_cost",
    "resolve_block_size",
    "subspace_iteration",
    "validate_block_size",
]

BLOCK_SCHEDULES = ("paired", "sweep")


def validate_block_size(value: int | None) -> None:
    """Raise on a malformed ``block_size`` spec (config validation)."""
    if value is None:
        return
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(
            f"block_size must be a positive integer (None = full sweeps), "
            f"got {value!r}"
        )
    if int(value) < 1:
        raise ValueError(f"block_size must be >= 1, got {int(value)}")


def resolve_block_size(block_size: int | None, k: int) -> int | None:
    """The effective subspace size: ``None`` (full sweeps) or an explicit
    ``d`` clamped to ``k``."""
    return None if block_size is None else min(k, int(block_size))


def make_blocks(k: int, d: int) -> tuple[tuple[int, int], ...]:
    """Contiguous column blocks of width ``d`` covering ``[0, k)``; when
    ``d`` does not divide ``k`` the last block is the shorter remainder."""
    if not 1 <= d <= k:
        raise ValueError(f"block size must be in [1, {k}], got {d}")
    return tuple((s, min(s + d, k)) for s in range(0, k, d))


def pass_cost(k: int, d: int, nnz: int, rows: int) -> float:
    """Flop-count proxy for one full subspace pass (both half-sweeps).

    Per block of width ``d``: the Gram tiles cost ``nnz·d²``, the
    complement ``nnz·(k−d)``, the RHS segment-sum ``nnz·d``, and the
    batched solve ``rows·(d³/3 + 2d²)``.  Summed over the ``⌈k/d⌉``
    blocks this is the wall-clock proxy the convergence tests use
    (machine-independent, monotone in the real cost).  The complement
    term prices a from-scratch rebuild; the maintained predictions of
    :class:`SubspaceState` pay ``2·nnz·d`` per block instead, so the
    proxy overstates small-``d`` passes, which only makes the tests'
    lower-cost claim harder to meet.
    """
    nblocks = -(-k // d)
    comp = (k - d) if d < k else 0
    assembly = nblocks * nnz * (d * d + comp + d)
    solve = nblocks * rows * (d ** 3 / 3.0 + 2.0 * d * d)
    return float(assembly + solve)


def _zero_unoccupied(F: np.ndarray, R, cache: GramCache | None) -> None:
    """Zero the factor rows with no observations, syncing ``cache``.

    The full implicit half-sweep resolves empty rows to zero (their
    system is ``(FᵀF + λI)x = 0``); the in-place block updates skip them
    entirely, so the driver zeroes them once up front.  When that
    actually changes values (the initializer's random rows, first
    iteration only) the Gramian cache is refreshed so its complement
    entries do not carry stale contributions.  Empty rows hold no
    ratings, so the maintained predictions never involve them.
    """
    empty = np.asarray(R.row_lengths()) == 0
    if not np.any(empty):
        return
    if not np.any(F[empty]):
        return
    F[empty] = 0.0
    if cache is not None:
        cache.refresh(F)


def _entries(R):
    """``(first entry, rows, cols)`` over ``R``'s stored entries.

    One block for an in-RAM matrix; a :class:`ShardedCSR` streams its
    row-range shards, each a contiguous entry range.
    """
    if isinstance(R, ShardedCSR):
        for sp, mat in R.iter_resident(prefetch=False):
            yield sp.nnz_start, sp.row_start + mat.expanded_rows(), mat.col_idx
    else:
        yield 0, R.expanded_rows(), R.col_idx


def _fan_out(executor, fn, lo: int, *arrays: np.ndarray) -> None:
    """``fn(first entry, *pieces)`` over an entry range starting at entry
    ``lo`` (``arrays`` aligned with it), split into one contiguous piece
    per worker.  Every entry's result depends on that entry alone, so
    the split cannot change it (workers=N ≡ serial)."""
    cuts = np.linspace(0, arrays[0].size, executor.workers + 1).astype(np.int64)
    executor.map(
        lambda ab: fn(lo + ab[0], *(v[ab[0]:ab[1]] for v in arrays)),
        [(int(a), int(b)) for a, b in zip(cuts[:-1], cuts[1:]) if b > a],
    )


def _entry_vector(nnz: int, dtype, spill_dir: Path | None) -> np.ndarray:
    """A length-``nnz`` work vector, memory-mapped in ``spill_dir`` if set.

    The mapped file is anonymous (unlinked at creation), so it is freed
    with the mapping and leaves nothing beside the factors.
    """
    if spill_dir is None or nnz == 0:
        return np.empty(nnz, dtype=dtype)
    with tempfile.TemporaryFile(dir=spill_dir) as f:
        return np.memmap(f, dtype=dtype, mode="w+", shape=(nnz,))


class SubspaceState:
    """What :func:`subspace_iteration` carries across a fit's block visits.

    * ``grams`` — the implicit trainer's per-side :class:`GramCache`.
    * ``p`` — every rating's prediction ``x_u·y_i`` in ``R_rows`` entry
      order, computed once by :func:`entry_predictions` at the first
      strict block and then kept current: before a block visit the
      loop subtracts the block's d-wide dots (``p`` becomes the
      complement ``p̄``), after it adds back the dots of the updated
      block.  A block visit therefore costs two ``nnz·d`` dots instead
      of the ``nnz·(k−d)`` complement rebuilt per side.  After an
      iteration's last restore ``p`` is current, and the implicit loss
      reads it instead of recomputing ``nnz·k`` dots.
    * ``perm`` — ``R_cols`` entry ``e`` is ``R_rows`` entry ``perm[e]``,
      so ``p̄[perm]`` hands the same complement to the Y half-sweep.

    Create one per fit, for one ``(R_rows, R_cols)`` pair.  When the
    factors spill to memory maps (``factors="memmap"``), the three
    length-nnz vectors are memory-mapped beside them.
    """

    def __init__(self) -> None:
        self.grams: dict[str, GramCache] = {}
        self.p: np.ndarray | None = None
        self.perm: np.ndarray | None = None
        self._cols: np.ndarray | None = None

    def _start(self, executor, R_rows, R_cols, X, Y) -> None:
        nnz = R_rows.nnz
        if R_cols.nnz != nnz:
            raise ValueError("R_cols must hold the same entries as R_rows")
        name = getattr(X, "filename", None)
        spill = Path(name).parent if name else None
        self.p = _entry_vector(nnz, np.float64, spill)
        self.perm = _entry_vector(nnz, np.int64, spill)
        self._cols = _entry_vector(nnz, np.float64, spill)
        # A stable counting sort of R_rows' column indices: R_cols lists
        # each column's entries in ascending row order, which is R_rows
        # entry order.  Streamed by entry range like the predictions.
        nxt = np.array(R_cols.row_ptr[:-1])
        # NumPy's stable sort is a radix sort on 16-bit keys.
        key = np.uint16 if nxt.size <= 1 << 16 else np.int64

        def init(lo, rows, cols):
            self.p[lo:lo + rows.size] = entry_predictions(X, rows, Y, cols)

        for lo, rows, cols in _entries(R_rows):
            _fan_out(executor, init, lo, rows, cols)
            order = np.argsort(cols.astype(key), kind="stable")
            sc = cols[order]
            rank = np.arange(sc.size) - np.searchsorted(sc, sc)
            self.perm[nxt[sc] + rank] = lo + order
            nxt += np.bincount(cols, minlength=nxt.size)

    def _apply_block(self, executor, op, R_rows, X, Y, s: int, e: int) -> None:
        """``p ← op(p, x_B·y_B)`` with ``op`` ``np.add`` or ``np.subtract``."""
        # Contiguous d-wide copies gather about twice as fast as views.
        Xb = np.ascontiguousarray(X[:, s:e])
        Yb = np.ascontiguousarray(Y[:, s:e])

        def apply(lo, rows, cols):
            seg = self.p[lo:lo + rows.size]
            op(seg, entry_predictions(Xb, rows, Yb, cols), out=seg)

        for lo, rows, cols in _entries(R_rows):
            _fan_out(executor, apply, lo, rows, cols)

    def subtract(self, executor, R_rows, R_cols, X, Y, s: int, e: int) -> None:
        """``p ← p − x_B·y_B``: ``p`` becomes block ``[s, e)``'s complement.

        The work fans out over ``executor``'s workers."""
        if self.p is None:
            with _predict_span(R_rows.nnz, X.shape[1], e - s, "init"):
                self._start(executor, R_rows, R_cols, X, Y)
        with _predict_span(R_rows.nnz, X.shape[1], e - s, "subtract"):
            self._apply_block(executor, np.subtract, R_rows, X, Y, s, e)

    def complement(self, executor, side: str, k: int, d: int) -> np.ndarray:
        """The current complement in ``side``'s entry order."""
        if side == "X":
            return self.p

        def gather(_, perm, out):
            np.take(self.p, perm, out=out)

        with _predict_span(self.p.size, k, d, "permute"):
            _fan_out(executor, gather, 0, self.perm, self._cols)
        return self._cols

    def restore(self, executor, R_rows, X, Y, s: int, e: int) -> None:
        """``p ← p̄ + x_B·y_B`` from the block's updated values."""
        with _predict_span(R_rows.nnz, X.shape[1], e - s, "restore"):
            self._apply_block(executor, np.add, R_rows, X, Y, s, e)


def _gram_complement(F: np.ndarray, G: np.ndarray, s: int, e: int) -> np.ndarray:
    """``F̄·G[comp, B]`` for every row: the implicit loss's dense coupling
    of block ``[s, e)`` to the frozen columns.  One GEMM over all rows,
    so no shard or worker split can change a row's rounding."""
    out = np.zeros((F.shape[0], e - s), dtype=np.float64)
    if s > 0:
        out += F[:, :s] @ G[:s, s:e]
    if e < F.shape[1]:
        out += F[:, e:] @ G[e:, s:e]
    return out


def _predict_span(nnz: int, k: int, d: int, op: str):
    if is_enabled():
        obs_metrics.inc("subspace.predict.nnz", nnz)
    return span("als.subspace.predict", stage="S2", nnz=nnz, k=k, block=d, op=op)


def subspace_iteration(
    executor,
    R_rows,
    R_cols,
    X: np.ndarray,
    Y: np.ndarray,
    lam: float,
    blocks: tuple[tuple[int, int], ...],
    schedule: str,
    sweep_kw: dict,
    *,
    state: SubspaceState | None = None,
    inplace: bool = False,
    iteration: int = 0,
) -> tuple[np.ndarray, np.ndarray]:
    """One training iteration as a sequence of subspace block updates.

    ``sweep_kw`` carries the trainer's assembly knobs (plus
    ``weighted=True`` for ALS-WR, or ``implicit_alpha`` for the implicit
    trainer) verbatim into :meth:`SweepExecutor.half_sweep`.  ``state``
    carries the per-rating predictions (and
    the implicit Gram caches) across iterations: pass one
    :class:`SubspaceState` per fit and feed each call the factors the
    previous one returned.  Without one, a fresh state is started from
    ``X`` and ``Y``.

    Updates run in place on working copies (or on the memmapped factors
    themselves when ``inplace``), so each block reads the freshest
    complement coordinates — Gauss–Seidel across blocks, Jacobi within
    one (see the executor's snapshot contract).
    """
    if schedule not in BLOCK_SCHEDULES:
        raise ValueError(
            f"block_schedule must be one of {BLOCK_SCHEDULES}, got {schedule!r}"
        )
    implicit = sweep_kw.get("implicit_alpha") is not None
    state = SubspaceState() if state is None else state
    grams = state.grams
    Xw = X if inplace else X.copy()
    Yw = Y if inplace else Y.copy()
    k = X.shape[1]
    d = max(e - s for s, e in blocks)
    # One full-width block is the plain sweep: no complement to keep.
    strict = d < k
    if is_enabled():
        obs_metrics.set_gauge("subspace.block_size", d)
        obs_metrics.set_gauge("subspace.blocks", len(blocks))

    def gram_for(side: str, F: np.ndarray) -> np.ndarray | None:
        if not implicit:
            return None
        cache = grams.get(side)
        if cache is None:
            cache = grams[side] = GramCache(F)
        return cache.matrix

    def fresh_gram(side: str, F: np.ndarray) -> None:
        cache = grams.get(side)
        if cache is None:
            grams[side] = GramCache(F)
        else:
            cache.refresh(F)

    def visit(side: str, s: int, e: int, subtract: bool, restore: bool) -> None:
        """Update block ``[s, e)`` of one side.  ``subtract`` turns the
        maintained predictions into the block's complement first;
        ``restore`` adds the updated block back afterwards."""
        if side == "X":
            R, F_fixed, F_upd, other = R_rows, Yw, Xw, "Y"
        else:
            R, F_fixed, F_upd, other = R_cols, Xw, Yw, "X"
        base_gram = gram_for(other, F_fixed)
        with span(
            "als.subspace.block", side=side, start=s, stop=e,
            iteration=iteration,
        ):
            complement = gram_complement = None
            if strict:
                if subtract:
                    state.subtract(executor, R_rows, R_cols, Xw, Yw, s, e)
                complement = state.complement(executor, side, k, e - s)
                if implicit:
                    gram_complement = _gram_complement(F_upd, base_gram, s, e)
            executor.half_sweep(
                R, F_fixed, lam, X_prev=F_upd, out=F_upd,
                col_block=(s, e), base_gram=base_gram,
                complement=complement, gram_complement=gram_complement,
                **sweep_kw,
            )
            if strict and restore:
                state.restore(executor, R_rows, Xw, Yw, s, e)
        if implicit:
            cache = grams.get(side)
            if cache is None:
                # First touch of this side: a fresh Gramian of the
                # just-updated factor is exact by construction.
                grams[side] = GramCache(F_upd)
            else:
                cache.update_block(F_upd, s, e)

    if schedule == "paired":
        # Between a block's two updates only the block's own columns
        # change, so the X update's complement serves the Y update too:
        # one subtract before the pair, one restore after it.
        first_y = True
        if implicit:
            # The Y Gramian must predate the X zeroing order below, like
            # the full trainer's first YᵀY (computed from the raw
            # initializer output).
            gram_for("Y", Yw)
            _zero_unoccupied(Xw, R_rows, grams.get("X"))
        for s, e in blocks:
            visit("X", s, e, subtract=True, restore=False)
            if implicit and first_y:
                _zero_unoccupied(Yw, R_cols, grams.get("Y"))
                first_y = False
            visit("Y", s, e, subtract=False, restore=True)
    else:  # "sweep"
        if implicit:
            fresh_gram("Y", Yw)
            _zero_unoccupied(Xw, R_rows, grams.get("X"))
        for s, e in blocks:
            visit("X", s, e, subtract=True, restore=True)
        if implicit:
            fresh_gram("X", Xw)
            _zero_unoccupied(Yw, R_cols, grams.get("Y"))
        for s, e in blocks:
            visit("Y", s, e, subtract=True, restore=True)
    return Xw, Yw
