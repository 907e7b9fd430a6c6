"""The multicore half-sweep executor.

ALS's half-sweep is embarrassingly parallel across rows — the paper's
devices exploit that with work-groups; a NumPy host exploits it with a
thread pool, because every heavy kernel a shard runs (batched GEMM
assembly, LAPACK factorization, triangular solves) drops the GIL.

``SweepExecutor`` shards the occupied rows of a matrix with the
nnz-balanced partitioner (:meth:`CSRMatrix.row_shards`, greedy LPT — the
same scheduling idea as the paper's OpenMP dynamic baseline), runs
``sweep_occupied`` per shard on a shared ``ThreadPoolExecutor``, and
scatters the per-shard factors into the output. Shard results depend
only on each row's own non-zeros, so the parallel sweep is bit-identical
to the serial one (asserted by tests/parallel/).

The worker count is the ``workers`` knob (:mod:`repro.knobs`; default
serial); ``"auto"`` means one worker per available core.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from time import perf_counter

import numpy as np

from repro.kernels.fastpath import sweep_occupied
from repro.knobs import Knob
from repro.obs import metrics as obs_metrics
from repro.obs.spans import is_enabled, span
from repro.sparse.csr import CSRMatrix, RowShard
from repro.sparse.shards import ShardedCSR

__all__ = [
    "SweepExecutor",
    "configure_workers",
    "resolve_workers",
    "solve_bytes_per_row",
]


def _take(v: np.ndarray | None, index) -> np.ndarray | None:
    """``v[index]``, passing ``None`` (no complement) through."""
    return None if v is None else v[index]


def solve_bytes_per_row(k: int) -> int:
    """Resident solve-path bytes one occupied row adds beyond its CSR slice.

    The batched normal equations hold ``A`` (k², float64) and ``b`` (k)
    per row, and the solved factor panel adds another k — at small k
    these dominate a row's CSR bytes (k = 32: ~8.7 KB/row vs ~600 B of
    ratings at Netflix density), so the out-of-core planner must budget
    them per shard row or the "byte budget" would be a fiction.  Only
    the sweep layer knows k, hence the hook lives here, not in
    :meth:`ShardedCSR.shards`.  An explicit row with n < k ratings
    solves its dual n×n system instead and holds that (padded to at
    most k) plus its ``(n, k)`` gather: less than this at typical short
    degrees, up to about twice it just below n = k.
    """
    return 8 * (k * k + 2 * k)


def _parse_workers(value: int | str) -> int:
    """Normalize a workers spec (``"auto"``, ``"4"``, ``4``) to a count."""
    if isinstance(value, str):
        if value.strip().lower() == "auto":
            return max(1, os.cpu_count() or 1)
        try:
            value = int(value)
        except ValueError:
            raise ValueError(
                f"workers must be 'auto' or a positive integer, got {value!r}"
            ) from None
    workers = int(value)
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    return workers


WORKERS = Knob("workers", "REPRO_WORKERS", 1, _parse_workers)
configure_workers = WORKERS.configure
resolve_workers = WORKERS.resolve


class SweepExecutor:
    """Runs half-sweeps, sharded across a reusable thread pool.

    One executor serves a whole training run: the pool is created lazily
    on the first parallel sweep and reused for every iteration (shard
    structures are cached on the matrices themselves, so per-iteration
    overhead is submit/collect only).  Use as a context manager or call
    :meth:`close` to release the pool.
    """

    def __init__(self, workers: int | str | None = None):
        self.workers = resolve_workers(workers)
        self._pool: ThreadPoolExecutor | None = None

    # -- lifecycle -----------------------------------------------------
    def close(self) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None

    def __enter__(self) -> "SweepExecutor":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()

    def _pool_for(self, nshards: int) -> ThreadPoolExecutor:
        if self._pool is None:
            self._pool = ThreadPoolExecutor(
                max_workers=self.workers, thread_name_prefix="repro-sweep"
            )
        return self._pool

    # -- generic fan-out ----------------------------------------------
    def map(self, fn, items) -> list:
        """Run ``fn`` over ``items`` on the pool, preserving order.

        The generic fan-out primitive under both the training sweep and
        the serving engine's user-block sharding: any independent
        NumPy-heavy work items (their kernels drop the GIL) can ride the
        same reusable pool.  With one worker this degrades to a plain
        loop — same code path, no pool, no threads.
        """
        items = list(items)
        if self.workers <= 1 or len(items) <= 1:
            return [fn(item) for item in items]
        pool = self._pool_for(len(items))
        futures = [pool.submit(fn, item) for item in items]
        return [fut.result() for fut in futures]

    # -- the sweep -----------------------------------------------------
    def half_sweep(
        self,
        R: CSRMatrix | ShardedCSR,
        Y: np.ndarray,
        lam: float,
        X_prev: np.ndarray | None = None,
        weighted: bool = False,
        tile_nnz: int | None = None,
        compute_dtype: object | None = None,
        implicit_alpha: float | None = None,
        base_gram: np.ndarray | None = None,
        out: np.ndarray | None = None,
        col_block: tuple[int, int] | None = None,
        complement: np.ndarray | None = None,
        gram_complement: np.ndarray | None = None,
    ) -> np.ndarray:
        """Update all rows of ``R`` (Eq. 4), sharded across the pool.

        With one worker this is exactly the serial fast path — same code,
        same result, no pool; with N workers the occupied rows are split
        into N nnz-balanced shards solved concurrently.  Either way rows
        without ratings keep their previous value (or zero).

        A :class:`ShardedCSR` ``R`` runs the blocked out-of-core sweep
        instead: row-range shards stream from disk under the byte budget
        (one prefetched ahead), each resident shard sweeps through this
        same executor (so ``workers`` shards *within* the resident
        block), and results land in the same ``(m, k)`` output.  Every
        row's system is independent and binning is grid-fixed, so the
        result is bitwise-identical to the in-RAM sweep.

        ``out`` supplies the output array (e.g. a memory-mapped factor
        matrix — each resident shard's rows spill as they are solved);
        passing ``out is X_prev`` updates in place without a copy, which
        is safe because row ``u``'s update reads only ``Y`` and row
        ``u``'s ratings, never other rows of ``X``.

        ``implicit_alpha``/``base_gram`` select the implicit-feedback
        kernel (see :func:`repro.kernels.fastpath.sweep_occupied`); both
        are forwarded verbatim to every shard, and each shard derives its
        confidence weights from its own values, so the parallel implicit
        sweep stays bitwise-identical to the serial one.

        ``col_block=(start, stop)`` restricts the update to that column
        block of the factors (iALS++ subspace descent): only columns
        ``[start, stop)`` of the output are written.  A strict block
        needs ``complement``, the frozen columns' prediction for every
        entry of ``R`` in ``R``'s entry order, and the implicit kernel
        also ``gram_complement``, one d-row per row of ``R`` (see
        :func:`~repro.kernels.fastpath.sweep_occupied`).  A
        :class:`ShardedCSR` slices both by its resident shard's entry
        and row ranges, and each executor shard by its own entries and
        rows.  Both are computed before the block from start-of-block
        values, so every row update is Jacobi within the block and the
        parallel block update stays bitwise-identical to the serial one.
        """
        if lam <= 0:
            raise ValueError("lam must be positive (λI keeps smat SPD)")
        k = Y.shape[1]
        if col_block is not None:
            start, stop = int(col_block[0]), int(col_block[1])
            if not (0 <= start < stop <= k):
                raise ValueError(
                    f"col_block [{start}, {stop}) out of range for k={k}"
                )
            col_block = (start, stop)
        if complement is not None and complement.shape != (R.nnz,):
            raise ValueError(f"complement must have shape {(R.nnz,)}")
        if gram_complement is not None and len(gram_complement) != R.nrows:
            raise ValueError(f"gram_complement must have {R.nrows} rows")
        kernel_kw = dict(
            weighted=weighted, tile_nnz=tile_nnz, compute_dtype=compute_dtype,
            implicit_alpha=implicit_alpha, base_gram=base_gram,
            col_block=col_block,
        )
        X = self._prepare_out(R.nrows, k, X_prev, out)
        if isinstance(R, ShardedCSR):
            extra = solve_bytes_per_row(k)
            spans = R.shards(extra)
            with span(
                "als.sweep.sharded",
                shards=len(spans),
                shard_bytes=R.shard_bytes,
                workers=self.workers,
                k=k,
            ):
                for sp, mat in R.iter_resident(extra_row_bytes=extra):
                    with span(
                        "als.resident_shard",
                        shard=sp.index,
                        rows=sp.nrows,
                        nnz=sp.nnz,
                    ):
                        self._sweep_into(
                            X, sp.row_start, mat, Y, lam, kernel_kw,
                            _take(complement, slice(sp.nnz_start, sp.nnz_stop)),
                            _take(gram_complement, slice(sp.row_start, sp.row_stop)),
                        )
            if is_enabled():
                obs_metrics.set_gauge("sweep.resident_shards", len(spans))
            return X
        self._sweep_into(X, 0, R, Y, lam, kernel_kw, complement, gram_complement)
        return X

    @staticmethod
    def _prepare_out(
        m: int, k: int, X_prev: np.ndarray | None, out: np.ndarray | None
    ) -> np.ndarray:
        if out is None:
            X = np.zeros((m, k), dtype=np.float64)
        else:
            if out.shape != (m, k):
                raise ValueError(f"out must have shape {(m, k)}")
            if out.dtype != np.float64:
                raise ValueError("out must be float64")
            X = out
            if X_prev is None:
                X[:] = 0.0
        if X_prev is not None and X_prev is not X:
            if X_prev.shape != (m, k):
                raise ValueError(f"X_prev must have shape {(m, k)}")
            X[:] = X_prev
        return X

    def _sweep_into(
        self,
        X: np.ndarray,
        base_row: int,
        R: CSRMatrix,
        Y: np.ndarray,
        lam: float,
        kernel_kw: dict,
        complement: np.ndarray | None = None,
        gram_complement: np.ndarray | None = None,
    ) -> None:
        """Sweep one in-RAM matrix into ``X[base_row:base_row + R.nrows]``.

        The complements (strict blocks) are aligned with ``R``'s entries
        and rows."""
        k = Y.shape[1]
        block = kernel_kw.get("col_block")

        def scatter(idx: np.ndarray, vals: np.ndarray) -> None:
            if block is None:
                X[idx] = vals
            else:
                X[idx, block[0]:block[1]] = vals

        shards = R.row_shards(self.workers) if self.workers > 1 else ()
        if len(shards) <= 1:
            rows, X_rows = sweep_occupied(
                R, Y, lam, complement=complement,
                gram_complement=gram_complement, **kernel_kw,
            )
            scatter(base_row + rows, X_rows)
            return

        enabled = is_enabled()
        with span(
            "als.sweep.parallel", workers=self.workers, shards=len(shards), k=k
        ):
            pool = self._pool_for(len(shards))
            futures = []
            for i, shard in enumerate(shards):
                kw = dict(
                    kernel_kw,
                    complement=_take(complement, shard.entries),
                    gram_complement=_take(gram_complement, shard.rows),
                )
                futures.append(
                    pool.submit(self._run_shard, i, shard, Y, lam, kw)
                )
            shard_seconds = []
            for shard, fut in zip(shards, futures):
                rows, X_rows, seconds = fut.result()
                scatter(base_row + shard.rows[rows], X_rows)
                shard_seconds.append(seconds)
        if enabled:
            planned = np.array([s.nnz for s in shards], dtype=np.float64)
            measured = np.array(shard_seconds)
            obs_metrics.set_gauge("sweep.workers", self.workers)
            obs_metrics.set_gauge("sweep.shards", len(shards))
            obs_metrics.set_gauge(
                "sweep.imbalance.planned", float(planned.max() / planned.mean())
            )
            if measured.mean() > 0:
                imbalance = float(measured.max() / measured.mean())
                # Gauge keeps the latest sweep visible on a dashboard;
                # the histogram keeps every sweep of a multi-iteration
                # run so imbalance drift is not overwritten away.
                obs_metrics.set_gauge("sweep.imbalance.measured", imbalance)
                obs_metrics.observe("sweep.imbalance.measured", imbalance)
            for s in shard_seconds:
                # Summary + quantile sketch: shard p95 vs p50 is the
                # straggler signal the nnz-balanced partitioner targets.
                obs_metrics.observe_latency("sweep.shard_seconds", s)

    @staticmethod
    def _run_shard(
        index: int, shard: RowShard, Y: np.ndarray, lam: float, kernel_kw: dict
    ) -> tuple[np.ndarray, np.ndarray, float]:
        t0 = perf_counter()
        with span(
            "als.shard",
            shard=index,
            rows=int(shard.rows.size),
            nnz=shard.nnz,
        ):
            rows, X_rows = sweep_occupied(shard.matrix, Y, lam, **kernel_kw)
        return rows, X_rows, perf_counter() - t0
