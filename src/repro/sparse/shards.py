"""Out-of-core CSR: a packed on-disk shard store and a byte-budgeted view.

The binned/tiled substrate (PRs 2-5) bounds per-sweep *scratch*, but the
full CSR plus both factor matrices still had to fit in RAM — the paper's
Table I full-scale shapes (Netflix ~100M nnz, YahooMusic R4 ~700M nnz)
were untrainable on laptop-class memory even though the kernels are
fast.  This module is the host-memory analogue of cuMF's "partial data
on device" staging: the rating matrix lives on disk in a packed
directory format, and training streams contiguous *row ranges* of it
through the existing assembly/solver pipeline, one resident shard at a
time, under a byte budget.

Directory layout (written by :mod:`repro.datasets.shardio`)::

    store/
      meta.json            m, n, nnz, dtypes, format version
      rows.indptr.bin      int64[m + 1]   user-major CSR
      rows.indices.bin     int64[nnz]
      rows.values.bin      float32[nnz]
      cols.indptr.bin      int64[n + 1]   item-major (transpose) CSR
      cols.indices.bin     int64[nnz]
      cols.values.bin      float32[nnz]

Both orientations are materialized once at build time so each half-sweep
streams its natural layout sequentially — the X sweep walks ``rows``,
the Y sweep walks ``cols`` — instead of paying a transpose per sweep.
The ``cols`` orientation stores entries within each column in ascending
row order, which is exactly the order :meth:`CSCMatrix.from_csr`
produces, so a sweep over it is *bitwise* identical to the in-RAM path.

Row-range shards (not arbitrary row subsets) keep every on-disk read a
single contiguous slice.  Degree skew is no correctness concern — the
degree-bin grid is population-independent (see
:func:`repro.sparse.csr.build_degree_bins`), so assembling any row range
reproduces the full-matrix assembly bit for bit — and within the
resident shard the :class:`~repro.parallel.executor.SweepExecutor`
re-shards by nnz balance exactly as it does in RAM.

The shard byte budget is the ``shard_bytes`` knob (:mod:`repro.knobs`;
default :data:`DEFAULT_SHARD_BYTES`).
"""

from __future__ import annotations

import json
import mmap
import os
import threading
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import numpy as np

from repro.knobs import Knob, at_least
from repro.obs import metrics as obs_metrics
from repro.obs.spans import is_enabled, span
from repro.sparse.csr import CSRMatrix, DegreeBin, build_degree_bins

__all__ = [
    "DEFAULT_SHARD_BYTES",
    "FORMAT_VERSION",
    "META_FILENAME",
    "ShardSpan",
    "ShardedCSR",
    "ShardStore",
    "configure_sharding",
    "is_shard_store",
    "orientation_filenames",
    "resolve_shard_bytes",
    "sharding_defaults",
]

#: On-disk format version; bumped when the directory layout changes.
FORMAT_VERSION = 1

META_FILENAME = "meta.json"

#: Default resident-shard byte budget (CSR bytes + per-row solver
#: scratch).  256 MB keeps one shard plus its double-buffered prefetch
#: comfortably inside laptop-class memory while leaving shards large
#: enough that per-shard overheads (binning, solve batching) amortize.
DEFAULT_SHARD_BYTES = 256 << 20

#: Smallest budget worth honoring: below ~1 MB the per-shard Python
#: overhead dwarfs the IO it schedules.  Spans may still exceed the
#: budget when a single row does (a shard always holds >= 1 row).
MIN_SHARD_BYTES = 1 << 20

INDEX_DTYPE = np.dtype(np.int64)
VALUE_DTYPES = ("float32", "float64")


SHARD_BYTES = Knob(
    "shard_bytes", "REPRO_SHARD_BYTES", DEFAULT_SHARD_BYTES,
    at_least(MIN_SHARD_BYTES),
)
configure_sharding = SHARD_BYTES.configure
resolve_shard_bytes = SHARD_BYTES.resolve


def sharding_defaults() -> dict[str, int]:
    """The currently resolved shard byte budget."""
    return {"shard_bytes": SHARD_BYTES.resolve()}


def orientation_filenames(orientation: str) -> tuple[str, str, str]:
    """``(indptr, indices, values)`` filenames for one orientation."""
    if orientation not in ("rows", "cols"):
        raise ValueError(f"orientation must be 'rows' or 'cols', got {orientation!r}")
    return (
        f"{orientation}.indptr.bin",
        f"{orientation}.indices.bin",
        f"{orientation}.values.bin",
    )


def _open_flat(path: Path, dtype: np.dtype, count: int) -> np.ndarray:
    """Memory-map a raw array file (or an empty array for zero-length).

    ``np.memmap`` refuses zero-length mappings, so empty components
    (an all-empty matrix) come back as ordinary empty arrays.
    """
    if count == 0:
        return np.empty(0, dtype=dtype)
    expected = count * dtype.itemsize
    actual = path.stat().st_size
    if actual != expected:
        raise ValueError(
            f"{path} holds {actual} bytes, expected {expected} "
            f"({count} x {dtype.name})"
        )
    return np.memmap(path, dtype=dtype, mode="r", shape=(count,))


def _release_pages(arr: np.ndarray, start: int, stop: int) -> None:
    """Best-effort ``madvise(MADV_DONTNEED)`` over ``arr[start:stop]``.

    Read-only file-backed pages that were touched (the shard-load copy)
    stay resident — and counted in this process's RSS — until memory
    pressure evicts them, which on a large-RAM host is never.  Dropping
    them immediately after the copy is what makes "peak RSS ~= one
    resident shard" true in practice, not just in accounting.
    """
    mm = getattr(arr, "_mmap", None)
    if mm is None or stop <= start:
        return
    page = mmap.PAGESIZE
    lo = (start * arr.itemsize) // page * page
    hi = min(-(-(stop * arr.itemsize) // page) * page, len(mm))
    if hi <= lo:
        return
    try:
        mm.madvise(mmap.MADV_DONTNEED, lo, hi - lo)
    except (AttributeError, OSError, ValueError):  # pragma: no cover
        pass  # platform without madvise: pages age out under pressure


@dataclass(frozen=True)
class ShardSpan:
    """One contiguous row range of a :class:`ShardedCSR`."""

    index: int  # shard ordinal (0-based)
    row_start: int  # first row (inclusive)
    row_stop: int  # last row (exclusive)
    nnz_start: int  # first stored non-zero
    nnz_stop: int  # last stored non-zero (exclusive)

    @property
    def nrows(self) -> int:
        return self.row_stop - self.row_start

    @property
    def nnz(self) -> int:
        return self.nnz_stop - self.nnz_start


class ShardedCSR:
    """One orientation of a shard store, streamed as row-range CSR shards.

    Implements the surface the sweep kernels consult on the *whole*
    matrix (``shape``/``nnz``/``row_lengths``/``degree_bins``/``matmat``)
    plus byte-budgeted resident iteration (:meth:`shards`, :meth:`load`,
    :meth:`iter_resident`).  ``indptr`` is held in RAM (8 bytes/row —
    ~15 MB even at YahooMusic's 1.9M users); ``indices``/``values`` stay
    on disk behind ``np.memmap`` and are only materialized one shard at
    a time.  :meth:`load` copies the mapped slices into ordinary arrays
    (a :class:`CSRMatrix` must own plain RAM) and then drops the mapped
    pages, so residency really is bounded by the shard budget.
    """

    def __init__(
        self,
        directory: str | os.PathLike,
        orientation: str,
        shape: tuple[int, int],
        nnz: int,
        value_dtype: str = "float32",
        shard_bytes: int | None = None,
    ) -> None:
        if value_dtype not in VALUE_DTYPES:
            raise ValueError(f"value_dtype must be one of {VALUE_DTYPES}")
        self.directory = Path(directory)
        self.orientation = orientation
        self.shape = (int(shape[0]), int(shape[1]))
        self._nnz = int(nnz)
        self.value_dtype = np.dtype(value_dtype)
        self.shard_bytes = resolve_shard_bytes(shard_bytes)

        indptr_name, indices_name, values_name = orientation_filenames(orientation)
        indptr = _open_flat(
            self.directory / indptr_name, INDEX_DTYPE, self.shape[0] + 1
        )
        # indptr is consulted constantly (spans, lengths, loss streaming):
        # pull it into RAM once.
        self.row_ptr = np.array(indptr, dtype=np.int64)
        del indptr
        if self.row_ptr[0] != 0 or self.row_ptr[-1] != self._nnz:
            raise ValueError(
                f"{self.directory / indptr_name}: indptr must run 0..nnz"
            )
        if np.any(np.diff(self.row_ptr) < 0):
            raise ValueError(f"{self.directory / indptr_name}: indptr decreases")
        self._indices = _open_flat(
            self.directory / indices_name, INDEX_DTYPE, self._nnz
        )
        self._values = _open_flat(
            self.directory / values_name, self.value_dtype, self._nnz
        )
        self._row_lengths: np.ndarray | None = None
        self._degree_bins: dict[float, tuple[DegreeBin, ...]] = {}
        self._span_cache: dict[int, tuple[ShardSpan, ...]] = {}
        self._min_value: float | None = None

    # ------------------------------------------------------------------
    # the CSRMatrix surface kernels consult on the whole matrix
    # ------------------------------------------------------------------
    @property
    def nnz(self) -> int:
        return self._nnz

    @property
    def nrows(self) -> int:
        return self.shape[0]

    @property
    def ncols(self) -> int:
        return self.shape[1]

    @property
    def col_idx(self) -> np.ndarray:
        """The memory-mapped column-index stream.

        Fancy indexing on the map copies only the touched pages, which
        is what lets a :class:`ShardedCSR` stand in for the training
        matrix in seen-item exclusion (``_seen_pairs`` gathers a handful
        of user rows) without residency.
        """
        return self._indices

    def row_lengths(self) -> np.ndarray:
        if self._row_lengths is None:
            lengths = np.diff(self.row_ptr)
            lengths.setflags(write=False)
            self._row_lengths = lengths
        return self._row_lengths

    def degree_bins(self, growth: float = 1.25) -> tuple[DegreeBin, ...]:
        """Global degree bins on the same fixed geometric grid as in RAM.

        ``starts`` index the *on-disk* nnz stream; resident shards bin
        themselves locally, so this exists for planners/stats, and to
        honor the grid invariant: a row's padded width is identical
        whether computed here, on a resident shard, or on the in-RAM
        matrix.
        """
        key = float(growth)
        cached = self._degree_bins.get(key)
        if cached is None:
            cached = build_degree_bins(self.row_ptr, self.row_lengths(), growth)
            self._degree_bins[key] = cached
        return cached

    def min_value(self) -> float:
        """Streaming min over stored values (implicit trainer's guard)."""
        if self._min_value is None:
            lo = np.inf
            for a, b in self._nnz_chunks():
                chunk = np.asarray(self._values[a:b])
                if chunk.size:
                    lo = min(lo, float(chunk.min()))
                _release_pages(self._values, a, b)
            self._min_value = float(lo) if np.isfinite(lo) else 0.0
        return self._min_value

    def matmat(self, B: np.ndarray, values: np.ndarray | None = None) -> np.ndarray:
        """Streaming ``R @ B``, one resident shard at a time.

        ``values`` (aligned with the on-disk value stream) substitutes
        per-non-zero coefficients, mirroring :meth:`CSRMatrix.matmat`.
        """
        B = np.asarray(B, dtype=np.float64)
        if B.ndim != 2 or B.shape[0] != self.ncols:
            raise ValueError(f"dense operand must have {self.ncols} rows")
        if values is not None:
            values = np.asarray(values, dtype=np.float64)
            if values.shape != (self.nnz,):
                raise ValueError(f"values must have shape ({self.nnz},)")
        out = np.zeros((self.nrows, B.shape[1]), dtype=np.float64)
        for sp, mat in self.iter_resident(prefetch=False):
            sub_values = None
            if values is not None:
                sub_values = values[sp.nnz_start : sp.nnz_stop]
            out[sp.row_start : sp.row_stop] = mat.matmat(B, values=sub_values)
        return out

    # ------------------------------------------------------------------
    # shard planning / loading
    # ------------------------------------------------------------------
    def storage_bytes_per_nnz(self) -> int:
        return INDEX_DTYPE.itemsize + self.value_dtype.itemsize

    def in_ram_bytes(self, extra_row_bytes: int = 0) -> int:
        """What the whole matrix would cost resident (CSR + per-row extra)."""
        return int(
            self.nnz * self.storage_bytes_per_nnz()
            + self.nrows * (INDEX_DTYPE.itemsize + extra_row_bytes)
        )

    def shards(self, extra_row_bytes: int = 0) -> tuple[ShardSpan, ...]:
        """Row-range spans whose resident cost fits the byte budget.

        A span's cost is its CSR bytes (values + indices + indptr) plus
        ``extra_row_bytes`` per row — the caller's per-row solve scratch
        (the executor passes ``8 * (k² + 2k)`` for the batched normal
        equations ``A``/``b`` and the factor panel), which at small k
        already dominates the CSR slice and would otherwise make the
        "budget" a fiction.  Single rows that alone exceed the budget
        still get a (one-row) span: correctness never depends on the
        budget being honorable.
        """
        extra_row_bytes = int(extra_row_bytes)
        if extra_row_bytes < 0:
            raise ValueError("extra_row_bytes must be >= 0")
        cached = self._span_cache.get(extra_row_bytes)
        if cached is not None:
            return cached
        m = self.nrows
        per_nnz = self.storage_bytes_per_nnz()
        per_row = INDEX_DTYPE.itemsize + extra_row_bytes
        # Cumulative resident cost of rows [0, i): cost(a, b) = cum[b] - cum[a].
        cum = self.row_ptr * per_nnz + np.arange(m + 1, dtype=np.int64) * per_row
        spans: list[ShardSpan] = []
        start = 0
        while start < m:
            stop = int(np.searchsorted(cum, cum[start] + self.shard_bytes, "right")) - 1
            stop = min(max(stop, start + 1), m)
            spans.append(
                ShardSpan(
                    index=len(spans),
                    row_start=start,
                    row_stop=stop,
                    nnz_start=int(self.row_ptr[start]),
                    nnz_stop=int(self.row_ptr[stop]),
                )
            )
            start = stop
        result = tuple(spans)
        self._span_cache[extra_row_bytes] = result
        return result

    def load(self, sp: ShardSpan) -> CSRMatrix:
        """Materialize one span as an in-RAM :class:`CSRMatrix`.

        The copy out of the memmap is the IO (first touch faults the
        pages in); afterwards the mapped pages are released so process
        residency tracks the *current* shard, not the store prefix
        already streamed past.
        """
        t0 = perf_counter()
        resident = (
            sp.nnz * self.storage_bytes_per_nnz()
            + (sp.nrows + 1) * INDEX_DTYPE.itemsize
        )
        with span(
            "als.shard.io",
            orientation=self.orientation,
            shard=sp.index,
            rows=sp.nrows,
            nnz=sp.nnz,
            bytes=resident,
        ):
            indices = np.array(self._indices[sp.nnz_start : sp.nnz_stop])
            values = np.array(self._values[sp.nnz_start : sp.nnz_stop])
            row_ptr = self.row_ptr[sp.row_start : sp.row_stop + 1] - self.row_ptr[
                sp.row_start
            ]
            mat = CSRMatrix((sp.nrows, self.ncols), values, indices, row_ptr)
        _release_pages(self._indices, sp.nnz_start, sp.nnz_stop)
        _release_pages(self._values, sp.nnz_start, sp.nnz_stop)
        if is_enabled():
            obs_metrics.observe_latency("shard.io_seconds", perf_counter() - t0)
            obs_metrics.set_gauge("shard.bytes_resident", float(resident))
            obs_metrics.inc("shard.loads")
            obs_metrics.inc("shard.bytes_read", float(resident))
        return mat

    def iter_resident(self, extra_row_bytes: int = 0, prefetch: bool = True):
        """Yield ``(span, CSRMatrix)`` one resident shard at a time.

        With ``prefetch=True`` a single background thread loads shard
        ``i + 1`` while the caller computes on shard ``i`` — double
        buffering that overlaps shard IO with compute, at a residency
        cost of at most one extra shard.  NumPy's copy loop releases the
        GIL on the page-faulting reads, so the overlap is real even
        single-process.
        """
        spans = self.shards(extra_row_bytes)
        if not prefetch or len(spans) <= 1:
            for sp in spans:
                yield sp, self.load(sp)
            return
        # Hand-rolled double buffer (not a ThreadPoolExecutor: one
        # worker, one slot, and a generator-close must not leak threads).
        result: list = [None]
        error: list = [None]

        def _fetch(sp: ShardSpan) -> threading.Thread:
            def run() -> None:
                try:
                    result[0] = self.load(sp)
                except BaseException as exc:  # propagate into the consumer
                    error[0] = exc

            t = threading.Thread(target=run, name="repro-shard-prefetch", daemon=True)
            t.start()
            return t

        thread = _fetch(spans[0])
        try:
            for i, sp in enumerate(spans):
                thread.join()
                if error[0] is not None:
                    raise error[0]
                mat, result[0] = result[0], None
                if i + 1 < len(spans):
                    thread = _fetch(spans[i + 1])
                yield sp, mat
        finally:
            thread.join()

    def to_csr(self) -> CSRMatrix:
        """The whole orientation as one in-RAM :class:`CSRMatrix`."""
        indices = np.array(self._indices)
        values = np.array(self._values)
        mat = CSRMatrix((self.nrows, self.ncols), values, indices, self.row_ptr)
        self.release_pages()
        return mat

    def release_pages(self) -> None:
        """Drop any resident mapped pages (RSS accounting hygiene)."""
        _release_pages(self._indices, 0, self._nnz)
        _release_pages(self._values, 0, self._nnz)

    def _nnz_chunks(self, chunk: int = 1 << 22):
        for a in range(0, self._nnz, chunk):
            yield a, min(a + chunk, self._nnz)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ShardedCSR({self.orientation!r}, shape={self.shape}, "
            f"nnz={self.nnz}, shard_bytes={self.shard_bytes})"
        )


class ShardStore:
    """A packed two-orientation shard directory, opened for training.

    ``store.rows`` is the user-major orientation (the X half-sweep's
    ``R``), ``store.cols`` the item-major transpose (the Y half-sweep's
    ``Rᵀ``) — the same pair :func:`repro.core.als.ratings_views` plus
    :meth:`CSCMatrix.from_csr` build in RAM, with identical within-row
    entry order, so training on the store is bitwise-equal to training
    on the in-RAM matrices (float64, serial).
    """

    def __init__(self, directory: str | os.PathLike, meta: dict, rows: ShardedCSR, cols: ShardedCSR) -> None:
        self.directory = Path(directory)
        self.meta = meta
        self.rows = rows
        self.cols = cols

    @classmethod
    def open(
        cls, directory: str | os.PathLike, shard_bytes: int | None = None
    ) -> "ShardStore":
        directory = Path(directory)
        meta_path = directory / META_FILENAME
        if not meta_path.is_file():
            raise FileNotFoundError(
                f"{directory} is not a shard store (missing {META_FILENAME})"
            )
        meta = json.loads(meta_path.read_text())
        version = meta.get("format_version")
        if version != FORMAT_VERSION:
            raise ValueError(
                f"{directory}: shard store format {version!r}, "
                f"this build reads {FORMAT_VERSION}"
            )
        m, n = int(meta["m"]), int(meta["n"])
        nnz = int(meta["nnz"])
        value_dtype = meta.get("value_dtype", "float32")
        shard_bytes = resolve_shard_bytes(shard_bytes)
        rows = ShardedCSR(
            directory, "rows", (m, n), nnz, value_dtype, shard_bytes
        )
        cols = ShardedCSR(
            directory, "cols", (n, m), nnz, value_dtype, shard_bytes
        )
        return cls(directory, meta, rows, cols)

    @property
    def shape(self) -> tuple[int, int]:
        return self.rows.shape

    @property
    def nnz(self) -> int:
        return self.rows.nnz

    @property
    def shard_bytes(self) -> int:
        return self.rows.shard_bytes

    def to_csr(self, orientation: str = "rows") -> CSRMatrix:
        """One orientation fully materialized in RAM (tests, benchmarks)."""
        if orientation == "rows":
            return self.rows.to_csr()
        if orientation == "cols":
            return self.cols.to_csr()
        raise ValueError(f"orientation must be 'rows' or 'cols', got {orientation!r}")

    def release_pages(self) -> None:
        self.rows.release_pages()
        self.cols.release_pages()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ShardStore({str(self.directory)!r}, shape={self.shape}, "
            f"nnz={self.nnz})"
        )


def is_shard_store(path: str | os.PathLike) -> bool:
    """True when ``path`` is a directory holding a shard store."""
    return Path(path).is_dir() and (Path(path) / META_FILENAME).is_file()
