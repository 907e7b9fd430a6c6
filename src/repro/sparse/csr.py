"""Compressed sparse row storage (paper §III-A, Fig. 2).

The three arrays follow the paper's naming: ``value`` holds the non-zero
ratings row-major, ``col_idx`` the column index of each non-zero, and
``row_ptr`` the index of each row's first element (length ``m + 1``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.sparse.coo import COOMatrix

__all__ = [
    "BinLanes",
    "CSRMatrix",
    "DegreeBin",
    "RowShard",
    "build_degree_bins",
    "build_lane_plan",
    "splice_rows",
]


@dataclass(frozen=True)
class RowShard:
    """One worker's slice of a half-sweep: a row subset as its own CSR.

    ``rows`` maps the shard-local row index back to the parent matrix
    (``matrix`` row ``i`` is parent row ``rows[i]``); every shard row is
    occupied, so a shard's sweep result scatters straight into
    ``X[rows]``.  ``entries`` does the same for the stored non-zeros, so
    a per-entry vector of the parent (the subspace sweep's complement
    predictions) slices straight to the shard with ``v[entries]``.
    """

    rows: np.ndarray  # (B,) parent row indices, ascending
    matrix: "CSRMatrix"  # the shard's own CSR view (B rows)
    entries: np.ndarray  # (nnz,) parent entry index of each shard entry

    @property
    def nnz(self) -> int:
        return self.matrix.nnz


@dataclass(frozen=True)
class DegreeBin:
    """One group of rows with (near-)equal non-zero counts.

    The Python analogue of the paper's thread batching: rows in a bin all
    gather the same padded width, so a whole bin reduces with one batched
    GEMM instead of per-row loops.  ``lengths`` is ascending and every
    length satisfies ``width / growth <= length <= width``, bounding the
    padding waste of a masked gather by the bin ``growth`` factor.

    ``width`` comes from a fixed geometric grid keyed only on ``growth``,
    so it is a pure function of a row's own degree — never of which other
    rows happen to share the matrix.  That is what makes assembly over
    any row subset (an executor shard, the occupied submatrix) bit-
    identical to assembly over the full matrix.
    """

    rows: np.ndarray  # (B,) row indices, ascending by degree
    starts: np.ndarray  # (B,) row_ptr[rows] — first nnz of each row
    lengths: np.ndarray  # (B,) nnz count per row, ascending
    width: int  # the grid bin's upper degree edge (padded gather width)

    @property
    def nnz(self) -> int:
        return int(self.lengths.sum())

    @property
    def is_uniform(self) -> bool:
        """True when no padding is needed (all rows share the width)."""
        return bool(self.lengths.size) and int(self.lengths[0]) == self.width


@dataclass(frozen=True)
class BinLanes:
    """One degree bin's padded gather lanes, built once per matrix.

    Lane ``(r, j)`` is the ``j``-th stored entry of the bin's row ``r``:
    ``entries`` holds its entry index and ``cols`` its column.  A lane
    past its row's end holds the sentinels ``nnz`` and ``ncols``, which
    index one trailing zero appended to every per-entry vector and to
    the gathered basis, so a padded lane adds nothing to any reduction.
    Both arrays are ``(rows, width)`` and read-only; they are int32 when
    the sentinels and the lane count fit (8 bytes per lane), int64
    otherwise.
    """

    bin: DegreeBin
    entries: np.ndarray  # (rows, width) entry index, sentinel nnz
    cols: np.ndarray  # (rows, width) column index, sentinel ncols

    @property
    def nbytes(self) -> int:
        return self.entries.nbytes + self.cols.nbytes


def build_lane_plan(
    bins: tuple[DegreeBin, ...], col_idx: np.ndarray, ncols: int
) -> tuple[BinLanes, ...]:
    """The :class:`BinLanes` of ``bins`` over a matrix's ``col_idx``.

    Every lane of every bin is computed in one vectorized pass, so a
    one-shot matrix (a fold-in or a rating update) pays a fixed handful
    of array operations for its plan rather than a handful per bin.  The
    bins' lanes are views of one read-only block: a cache that lives as
    long as its matrix is one allocation, not two per bin.
    """
    nnz = col_idx.size
    counts = np.array([b.rows.size for b in bins], dtype=np.int64)
    widths = np.array([b.width for b in bins], dtype=np.int64)
    edges = np.zeros(len(bins) + 1, dtype=np.int64)
    np.cumsum(counts * widths, out=edges[1:])
    # A lane's entry index reaches at most nnz + width before the
    # sentinel replaces it (the widest bin is the last), and lane
    # offsets run to the lane count.
    top = max(nnz + (bins[-1].width if bins else 0), ncols, int(edges[-1]))
    dtype = np.int32 if top <= np.iinfo(np.int32).max else np.int64
    block = np.empty((2, int(edges[-1])), dtype=dtype)
    if bins:
        # Rows in bin order; row r's lanes are its start plus offsets
        # 0..width-1, and those at or past its length are padding.
        row_width = np.repeat(widths, counts)
        first = (np.cumsum(row_width) - row_width).astype(dtype)
        offs = np.arange(edges[-1], dtype=dtype) - np.repeat(first, row_width)
        starts = np.concatenate([b.starts for b in bins]).astype(dtype)
        lengths = np.concatenate([b.lengths for b in bins]).astype(dtype)
        entries, cols = block
        np.add(np.repeat(starts, row_width), offs, out=entries)
        # mode="clip" reads a real column for the padded lanes, which
        # the sentinel then overwrites.
        cols[...] = np.take(col_idx, entries, mode="clip")
        pad = offs >= np.repeat(lengths, row_width)
        entries[pad] = nnz
        cols[pad] = ncols
    block.setflags(write=False)
    return tuple(
        BinLanes(
            bin=b,
            entries=block[0, lo:hi].reshape(b.rows.size, b.width),
            cols=block[1, lo:hi].reshape(b.rows.size, b.width),
        )
        for b, lo, hi in zip(bins, edges[:-1], edges[1:])
    )


def build_degree_bins(
    row_ptr: np.ndarray, lengths: np.ndarray, growth: float
) -> tuple[DegreeBin, ...]:
    """Degree bins for any CSR-shaped ``(row_ptr, lengths)`` structure.

    Shared by :meth:`CSRMatrix.degree_bins` and the out-of-core
    :class:`~repro.sparse.shards.ShardedCSR` view (whose ``row_ptr``
    indexes the on-disk arrays): both bin on the same fixed geometric
    grid, so a row's padded width never depends on which rows happen to
    share the (sub)matrix.
    """
    if growth < 1.0:
        raise ValueError("growth must be >= 1")
    occupied = np.nonzero(lengths > 0)[0]
    order = np.argsort(lengths[occupied], kind="stable")
    rows = occupied[order]
    degs = lengths[occupied][order]
    bins: list[DegreeBin] = []
    i = 0
    while i < rows.size:
        _, hi = _grid_bin_edges(int(degs[i]), growth)
        j = int(np.searchsorted(degs, hi, side="right"))
        bin_rows = rows[i:j]
        bin_lengths = degs[i:j]
        starts = np.asarray(row_ptr)[bin_rows]
        for arr in (bin_rows, bin_lengths, starts):
            arr.setflags(write=False)
        bins.append(
            DegreeBin(
                rows=bin_rows,
                starts=starts,
                lengths=bin_lengths,
                width=hi,
            )
        )
        i = j
    return tuple(bins)


def splice_rows(
    base: np.ndarray,
    base_ptr: np.ndarray,
    rows: np.ndarray,
    repl: np.ndarray,
    repl_ptr: np.ndarray,
) -> np.ndarray:
    """``base`` with the row segments of ``rows`` replaced.

    ``base`` is a per-entry array laid out by ``base_ptr`` (a CSR
    ``row_ptr``); segment ``base_ptr[r]:base_ptr[r+1]`` of row
    ``rows[i]`` becomes ``repl[repl_ptr[i]:repl_ptr[i+1]]``.  ``rows``
    must ascend without repeats.  The other segments are copied through
    as they are: one Python step per replaced row and one concatenation,
    whatever the length of ``base``.
    """
    starts = base_ptr[rows].tolist()
    ends = base_ptr[np.asarray(rows) + 1].tolist()
    rp = repl_ptr.tolist()
    pieces = []
    lo = 0
    for i, (start, end) in enumerate(zip(starts, ends)):
        pieces.append(base[lo:start])
        pieces.append(repl[rp[i]:rp[i + 1]])
        lo = end
    pieces.append(base[lo:])
    return np.concatenate(pieces)


def _grid_bin_edges(degree: int, growth: float) -> tuple[int, int]:
    """The ``[lo, hi]`` degree range of the grid bin containing ``degree``.

    The grid is anchored at degree 1 and depends only on ``growth``:
    degrees below ``1/(growth-1)`` get singleton bins (a geometric step
    would advance by less than one), then edges grow multiplicatively
    (``hi = int(lo * growth)``).  Population-independent by construction.
    """
    if growth <= 1.0 or degree * growth < degree + 1:
        return degree, degree
    lo = 1
    while int(lo * growth) <= lo:  # singleton prefix, <= 1/(growth-1) steps
        lo += 1
    while True:
        hi = int(lo * growth)
        if degree <= hi:
            return lo, hi
        lo = hi + 1


class CSRMatrix:
    """An immutable CSR matrix over float32 values.

    This is the structure Algorithm 2 iterates: ``row_ptr[u]:row_ptr[u+1]``
    delimits row ``u``'s non-zeros, whose column indices select the rows of
    the factor matrix ``Y`` that participate in updating ``x_u``.
    """

    __slots__ = (
        "shape",
        "value",
        "col_idx",
        "row_ptr",
        "_row_lengths",
        "_expanded_rows",
        "_degree_bins",
        "_lane_plans",
        "_occupied_sub",
        "_row_shards",
        "__weakref__",
    )

    def __init__(
        self,
        shape: tuple[int, int],
        value: np.ndarray,
        col_idx: np.ndarray,
        row_ptr: np.ndarray,
    ) -> None:
        m, n = int(shape[0]), int(shape[1])
        value = np.ascontiguousarray(value, dtype=np.float32)
        col_idx = np.ascontiguousarray(col_idx, dtype=np.int64)
        row_ptr = np.ascontiguousarray(row_ptr, dtype=np.int64)
        if value.ndim != 1 or col_idx.ndim != 1 or row_ptr.ndim != 1:
            raise ValueError("CSR arrays must be 1-D")
        if value.size != col_idx.size:
            raise ValueError("value and col_idx must have the same length")
        if row_ptr.size != m + 1:
            raise ValueError(f"row_ptr must have length m+1={m + 1}, got {row_ptr.size}")
        if row_ptr[0] != 0 or row_ptr[-1] != value.size:
            raise ValueError("row_ptr must start at 0 and end at nnz")
        if np.any(np.diff(row_ptr) < 0):
            raise ValueError("row_ptr must be non-decreasing")
        if col_idx.size and (col_idx.min() < 0 or col_idx.max() >= n):
            raise ValueError("col_idx out of range")
        self._adopt((m, n), value, col_idx, row_ptr)

    def _adopt(
        self,
        shape: tuple[int, int],
        value: np.ndarray,
        col_idx: np.ndarray,
        row_ptr: np.ndarray,
    ) -> None:
        self.shape = shape
        self.value = value
        self.col_idx = col_idx
        self.row_ptr = row_ptr
        # Derived-structure caches.  The matrix is immutable (the three
        # arrays are never reassigned and the caches are handed out
        # read-only), so nothing here can go stale — "invalidation" is
        # the read-only flag that forbids the mutation that would need it.
        self._row_lengths: np.ndarray | None = None
        self._expanded_rows: np.ndarray | None = None
        self._degree_bins: dict[float, tuple[DegreeBin, ...]] = {}
        self._lane_plans: dict[float, tuple[BinLanes, ...]] = {}
        # (rows, None) when every row is occupied: caching ``self`` there
        # would be a reference cycle that keeps the matrix, its lane
        # plans and its shards alive until a full garbage collection.
        self._occupied_sub: tuple[np.ndarray, "CSRMatrix | None"] | None = None
        self._row_shards: dict[int, tuple[RowShard, ...]] = {}

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    @classmethod
    def from_coo(cls, coo: COOMatrix) -> "CSRMatrix":
        # deduplicate() returns its entries in ascending row·n + col key
        # order, which is CSR's row-major (row, col) order already.
        coo = coo.deduplicate()
        m, _ = coo.shape
        counts = np.bincount(coo.row, minlength=m)
        row_ptr = np.zeros(m + 1, dtype=np.int64)
        np.cumsum(counts, out=row_ptr[1:])
        return cls(coo.shape, coo.value, coo.col, row_ptr)

    @classmethod
    def from_dense(cls, dense: np.ndarray) -> "CSRMatrix":
        return cls.from_coo(COOMatrix.from_dense(dense))

    @classmethod
    def _trusted(
        cls,
        shape: tuple[int, int],
        value: np.ndarray,
        col_idx: np.ndarray,
        row_ptr: np.ndarray,
    ) -> "CSRMatrix":
        """A CSR over arrays assembled from valid CSRs: no O(nnz) checks."""
        csr = cls.__new__(cls)
        csr._adopt(shape, value, col_idx, row_ptr)
        return csr

    # ------------------------------------------------------------------
    # writes: each returns a new matrix and leaves this one as it is
    # ------------------------------------------------------------------
    def append_rows(self, new: "CSRMatrix") -> "CSRMatrix":
        """``new``'s rows stacked under this matrix's.

        CSR is row-major, so this is three concatenations: no sort, no
        per-entry work and no re-check of entries both matrices already
        hold valid.
        """
        if new.ncols != self.ncols:
            raise ValueError(f"column mismatch: {self.ncols} vs {new.ncols}")
        return CSRMatrix._trusted(
            (self.nrows + new.nrows, self.ncols),
            np.concatenate([self.value, new.value]),
            np.concatenate([self.col_idx, new.col_idx]),
            np.concatenate([self.row_ptr, self.nnz + new.row_ptr[1:]]),
        )

    def merged_rows(self, updates: COOMatrix) -> tuple[np.ndarray, "CSRMatrix"]:
        """``(rows, sub)``: the rows ``updates`` touch, ascending, and
        their contents once the updates are merged in.

        Row ``i`` of ``sub`` is row ``rows[i]`` of :meth:`from_coo` over
        this matrix's entries followed by ``updates``: a coordinate in
        both takes the update's value, and among repeats inside
        ``updates`` the last wins.  Only the touched rows' entries are
        deduplicated.  :meth:`replace_rows` splices ``sub`` in.
        """
        if updates.shape[0] > self.nrows or updates.shape[1] > self.ncols:
            raise ValueError(
                f"updates shape {updates.shape} exceeds the matrix {self.shape}"
            )
        rows = np.unique(updates.row)
        old = self.take_rows(rows)
        sub = CSRMatrix.from_coo(COOMatrix(
            (rows.size, self.ncols),
            np.concatenate([old.expanded_rows(), np.searchsorted(rows, updates.row)]),
            np.concatenate([old.col_idx, updates.col]),
            np.concatenate([old.value, updates.value]),
        ))
        return rows, sub

    def replace_rows(self, rows: np.ndarray, sub: "CSRMatrix") -> "CSRMatrix":
        """This matrix with row ``rows[i]`` replaced by row ``i`` of ``sub``.

        ``rows`` ascends without repeats.  The other rows are copied
        through by :func:`splice_rows` — one Python step per replaced
        row and one copy of the arrays, no sort and no re-check — so
        this matrix must already be canonical (columns ascending and
        unrepeated within each row, as every :meth:`from_coo` result
        is) for the result to be.  With :meth:`merged_rows` this is
        :meth:`from_coo` over the entries and the updates, at the cost
        of the rows they touch.
        """
        rows = np.asarray(rows, dtype=np.int64)
        if sub.nrows != rows.size or sub.ncols != self.ncols:
            raise ValueError(
                f"{rows.size} rows of {self.ncols} columns expected, got {sub.shape}"
            )
        if rows.size and (
            rows[0] < 0 or rows[-1] >= self.nrows or np.any(rows[1:] <= rows[:-1])
        ):
            raise ValueError("rows must ascend without repeats within the matrix")
        lengths = self.row_lengths().copy()
        lengths[rows] = sub.row_lengths()
        row_ptr = np.zeros(self.nrows + 1, dtype=np.int64)
        np.cumsum(lengths, out=row_ptr[1:])
        return CSRMatrix._trusted(
            self.shape,
            splice_rows(self.value, self.row_ptr, rows, sub.value, sub.row_ptr),
            splice_rows(self.col_idx, self.row_ptr, rows, sub.col_idx, sub.row_ptr),
            row_ptr,
        )

    # ------------------------------------------------------------------
    # properties
    # ------------------------------------------------------------------
    @property
    def nnz(self) -> int:
        return int(self.value.size)

    @property
    def nrows(self) -> int:
        return self.shape[0]

    @property
    def ncols(self) -> int:
        return self.shape[1]

    def row_lengths(self) -> np.ndarray:
        """nnz per row — the ``omegaSize`` sequence of Algorithm 2.

        Computed once and cached (read-only): every half-sweep consults
        it for the occupancy guard and the assembly walks it for binning,
        so rebuilding per call would re-walk the structure each sweep.
        """
        if self._row_lengths is None:
            lengths = np.diff(self.row_ptr)
            lengths.setflags(write=False)
            self._row_lengths = lengths
        return self._row_lengths

    # ------------------------------------------------------------------
    # element access
    # ------------------------------------------------------------------
    def row_slice(self, u: int) -> tuple[np.ndarray, np.ndarray]:
        """Return ``(col_idx, value)`` views for row ``u``."""
        if not 0 <= u < self.nrows:
            raise IndexError(f"row {u} out of range for {self.nrows} rows")
        lo, hi = self.row_ptr[u], self.row_ptr[u + 1]
        return self.col_idx[lo:hi], self.value[lo:hi]

    def count_nonzeros(self, u: int) -> int:
        """``CountNonZeros(R, u)`` from Algorithm 2."""
        return int(self.row_ptr[u + 1] - self.row_ptr[u])

    def to_dense(self) -> np.ndarray:
        out = np.zeros(self.shape, dtype=np.float32)
        rows = np.repeat(np.arange(self.nrows), self.row_lengths())
        out[rows, self.col_idx] = self.value
        return out

    def to_coo(self) -> COOMatrix:
        rows = np.repeat(np.arange(self.nrows, dtype=np.int64), self.row_lengths())
        return COOMatrix(self.shape, rows, self.col_idx.copy(), self.value.copy())

    def expanded_rows(self) -> np.ndarray:
        """Row index of every stored non-zero (length nnz).

        Cached (read-only): the scatter assembly and the segment-summed
        products all key on it, and at MovieLens scale the repeat is an
        O(nnz) allocation per half-sweep worth skipping.
        """
        if self._expanded_rows is None:
            rows = np.repeat(np.arange(self.nrows, dtype=np.int64), self.row_lengths())
            rows.setflags(write=False)
            self._expanded_rows = rows
        return self._expanded_rows

    def degree_bins(self, growth: float = 1.25) -> tuple[DegreeBin, ...]:
        """Group occupied rows by non-zero count (cached per ``growth``).

        Rows are sorted by degree and split along a fixed geometric grid
        whose max/min degree ratio stays below ``growth``; each bin can
        then be gathered as one dense ``(rows, width, k)`` block with at
        most ``growth - 1`` padding waste.  ``growth = 1`` gives
        exact-degree bins.  This is the host-side counterpart of the
        paper's thread batching: equal work per lane, no divergence,
        bounded bin count (geometric in the max degree).

        Because the grid (and hence every row's padded width) depends
        only on ``growth``, binning any row subset yields the same
        per-row widths as binning the full matrix — the invariant the
        parallel sweep executor relies on for bitwise determinism.
        """
        if growth < 1.0:
            raise ValueError("growth must be >= 1")
        key = float(growth)
        cached = self._degree_bins.get(key)
        if cached is not None:
            return cached
        result = build_degree_bins(self.row_ptr, self.row_lengths(), growth)
        self._degree_bins[key] = result
        return result

    def lane_plan(self, growth: float = 1.25) -> tuple[BinLanes, ...]:
        """The padded gather lanes of every degree bin (cached per ``growth``).

        One :class:`BinLanes` per bin of :meth:`degree_bins`, in the same
        order.  ``R`` never changes, so the binned assembly reads each
        bin's entry and column indices from here on every sweep instead
        of rebuilding them per tile.  Executor shards and resident
        out-of-core shards are matrices of their own and get their own
        plan; every row keeps its grid width, so the lanes of a row are
        the same in any of them.
        """
        key = float(growth)
        cached = self._lane_plans.get(key)
        if cached is None:
            cached = build_lane_plan(
                self.degree_bins(growth), self.col_idx, self.ncols
            )
            self._lane_plans[key] = cached
        return cached

    # ------------------------------------------------------------------
    # row subsets (the sweep executor's sharding substrate)
    # ------------------------------------------------------------------
    def take_rows(self, rows: np.ndarray) -> "CSRMatrix":
        """A new CSR holding the given rows (in the given order).

        Column space is preserved, so the subset participates in the same
        normal equations as the parent; each selected row's non-zeros keep
        their storage order, which is what makes per-shard assembly
        reproduce the full-matrix assembly bit for bit.
        """
        return self._take_rows(rows)[0]

    def _take_rows(self, rows: np.ndarray) -> tuple["CSRMatrix", np.ndarray]:
        """:meth:`take_rows` plus the parent entry index of every entry."""
        rows = np.asarray(rows, dtype=np.int64)
        if rows.ndim != 1:
            raise ValueError("rows must be 1-D")
        if rows.size and (rows.min() < 0 or rows.max() >= self.nrows):
            raise IndexError("row index out of range")
        lengths = self.row_lengths()[rows]
        row_ptr = np.zeros(rows.size + 1, dtype=np.int64)
        np.cumsum(lengths, out=row_ptr[1:])
        total = int(row_ptr[-1])
        # Gather source positions: each row's contiguous slice, laid out
        # back to back — starts repeated per-entry plus the within-row
        # offset recovers every source index without a Python loop.
        starts = np.repeat(self.row_ptr[rows], lengths)
        offs = np.arange(total, dtype=np.int64) - np.repeat(row_ptr[:-1], lengths)
        src = starts + offs
        sub = CSRMatrix(
            (rows.size, self.ncols), self.value[src], self.col_idx[src], row_ptr
        )
        return sub, src

    def occupied_submatrix(self) -> tuple[np.ndarray, "CSRMatrix"]:
        """``(rows, sub)`` with only the occupied rows of this matrix.

        Cached: the half-sweep consults it every iteration to skip
        assembling normal equations for empty rows (Algorithm 2's
        ``omegaSize > 0`` guard, applied *before* S1 rather than only
        before S3).  When every row is occupied the matrix itself is
        returned, so the common dense-rows case costs one cached check.
        Empty rows hold no entries, so ``sub`` stores exactly this
        matrix's entries in the same order: a per-entry vector of the
        parent is already aligned with ``sub``.
        """
        if self._occupied_sub is None:
            lengths = self.row_lengths()
            rows = np.nonzero(lengths > 0)[0]
            sub = None if rows.size == self.nrows else self.take_rows(rows)
            rows.setflags(write=False)
            self._occupied_sub = (rows, sub)
        rows, sub = self._occupied_sub
        return rows, self if sub is None else sub

    def row_shards(self, nparts: int) -> tuple[RowShard, ...]:
        """Occupied rows split into ``nparts`` nnz-balanced CSR shards.

        Uses the greedy LPT / snake partitioner
        (:func:`repro.sparse.partition.partition_rows_balanced`) over the
        occupied rows' non-zero counts, then materializes each part as
        its own CSR via :meth:`take_rows`.  Cached per ``nparts``: a
        training run re-sweeps the same matrix every iteration, so the
        executor pays the partition + gather once.  Empty parts (more
        workers than occupied rows) are dropped.
        """
        nparts = int(nparts)
        if nparts <= 0:
            raise ValueError("nparts must be positive")
        cached = self._row_shards.get(nparts)
        if cached is not None:
            return cached
        from repro.sparse.partition import partition_rows_balanced

        occ_rows, _ = self.occupied_submatrix()
        lengths = self.row_lengths()[occ_rows]
        part = partition_rows_balanced(lengths, min(nparts, max(1, occ_rows.size)))
        shards: list[RowShard] = []
        for p in range(part.nparts):
            local = part.rows_of(p)
            if local.size == 0:
                continue
            rows = occ_rows[local]  # ascending: rows_of returns sorted indices
            rows.setflags(write=False)
            matrix, entries = self._take_rows(rows)
            entries.setflags(write=False)
            shards.append(RowShard(rows=rows, matrix=matrix, entries=entries))
        result = tuple(shards)
        self._row_shards[nparts] = result
        return result

    # ------------------------------------------------------------------
    # arithmetic
    # ------------------------------------------------------------------
    def matvec(self, x: np.ndarray) -> np.ndarray:
        """Sparse matrix–vector product ``R @ x``."""
        x = np.asarray(x, dtype=np.float64)
        if x.shape != (self.ncols,):
            raise ValueError(f"vector of length {self.ncols} expected")
        prods = self.value.astype(np.float64) * x[self.col_idx]
        # bincount is NumPy's fast segment-sum: a single C pass over the
        # non-zeros, where np.add.at pays per-element dispatch.
        return np.bincount(self.expanded_rows(), weights=prods, minlength=self.nrows)

    def matmat(self, B: np.ndarray, values: np.ndarray | None = None) -> np.ndarray:
        """Sparse matrix–dense matrix product ``R @ B``.

        One bincount segment-sum per output column: peak scratch is two
        length-nnz vectors regardless of ``B``'s width, versus the
        ``(nnz, width)`` gather the previous ``np.add.at`` path built.

        ``values`` substitutes a per-non-zero coefficient array (aligned
        with ``self.value``) for the stored values, e.g. the implicit
        RHS coefficients ``1 + α·r``.  The binned assembly's fused RHS
        is tested against this product.
        """
        B = np.asarray(B, dtype=np.float64)
        if B.ndim != 2 or B.shape[0] != self.ncols:
            raise ValueError(f"dense operand must have {self.ncols} rows")
        rows = self.expanded_rows()
        if values is None:
            w = self.value.astype(np.float64)
        else:
            w = np.asarray(values, dtype=np.float64)
            if w.shape != (self.nnz,):
                raise ValueError(f"values must have shape ({self.nnz},)")
        out = np.empty((self.nrows, B.shape[1]), dtype=np.float64)
        for j in range(B.shape[1]):
            out[:, j] = np.bincount(
                rows, weights=w * B[self.col_idx, j], minlength=self.nrows
            )
        return out

    def transpose_to_csr(self) -> "CSRMatrix":
        """Return the transpose, itself in CSR form (= this matrix in CSC)."""
        return CSRMatrix.from_coo(self.to_coo().transpose())

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CSRMatrix):
            return NotImplemented
        return (
            self.shape == other.shape
            and np.array_equal(self.row_ptr, other.row_ptr)
            and np.array_equal(self.col_idx, other.col_idx)
            and np.array_equal(self.value, other.value)
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"CSRMatrix(shape={self.shape}, nnz={self.nnz})"
