"""Coordinate-format sparse matrix.

COO is the interchange format: dataset loaders and generators produce COO
triplets ``<userID, itemID, rating>`` (the paper's preprocessing format,
§IV-B) and the solvers convert them to CSR/CSC once, up front.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["COOMatrix"]


@dataclass(frozen=True)
class COOMatrix:
    """An (m × n) sparse matrix as parallel ``(row, col, value)`` arrays.

    Invariants enforced at construction:

    * the three arrays share one length (``nnz``),
    * indices are in-range non-negative integers,
    * values are finite float32.

    Duplicate ``(row, col)`` pairs are allowed at construction and resolved
    by :meth:`deduplicate` (last write wins, matching how rating files are
    typically reconciled).
    """

    shape: tuple[int, int]
    row: np.ndarray
    col: np.ndarray
    value: np.ndarray

    def __post_init__(self) -> None:
        m, n = self.shape
        if m < 0 or n < 0:
            raise ValueError(f"shape must be non-negative, got {self.shape}")
        row = np.ascontiguousarray(self.row, dtype=np.int64)
        col = np.ascontiguousarray(self.col, dtype=np.int64)
        value = np.ascontiguousarray(self.value, dtype=np.float32)
        if not (row.ndim == col.ndim == value.ndim == 1):
            raise ValueError("row, col and value must be 1-D arrays")
        if not (row.size == col.size == value.size):
            raise ValueError(
                f"length mismatch: row={row.size} col={col.size} value={value.size}"
            )
        if row.size:
            if row.min(initial=0) < 0 or (m and row.max(initial=0) >= m):
                raise ValueError("row index out of range")
            if col.min(initial=0) < 0 or (n and col.max(initial=0) >= n):
                raise ValueError("col index out of range")
            if not np.isfinite(value).all():
                raise ValueError("values must be finite")
        # dataclass is frozen; route normalized arrays through object.__setattr__
        object.__setattr__(self, "row", row)
        object.__setattr__(self, "col", col)
        object.__setattr__(self, "value", value)

    # ------------------------------------------------------------------
    # construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def from_dense(cls, dense: np.ndarray) -> "COOMatrix":
        """Build a COO matrix from a dense array, treating zeros as missing."""
        dense = np.asarray(dense)
        if dense.ndim != 2:
            raise ValueError("dense input must be 2-D")
        row, col = np.nonzero(dense)
        return cls(dense.shape, row, col, dense[row, col].astype(np.float32))

    @classmethod
    def empty(cls, shape: tuple[int, int]) -> "COOMatrix":
        z = np.empty(0, dtype=np.int64)
        return cls(shape, z, z, np.empty(0, dtype=np.float32))

    # ------------------------------------------------------------------
    # properties
    # ------------------------------------------------------------------
    @property
    def nnz(self) -> int:
        return int(self.value.size)

    @property
    def density(self) -> float:
        m, n = self.shape
        cells = m * n
        return self.nnz / cells if cells else 0.0

    # ------------------------------------------------------------------
    # transformations
    # ------------------------------------------------------------------
    def deduplicate(self) -> "COOMatrix":
        """Resolve duplicate coordinates, keeping the last occurrence.

        The result lists its entries in row-major ``(row, col)`` order
        (:meth:`CSRMatrix.from_coo` relies on this and sorts nothing).
        """
        if self.nnz == 0:
            return self
        keys = self.row * self.shape[1] + self.col
        # stable sort keeps original order within equal keys; taking the last
        # entry of each run implements last-write-wins.
        order = np.argsort(keys, kind="stable")
        sorted_keys = keys[order]
        is_last = np.empty(sorted_keys.size, dtype=bool)
        is_last[:-1] = sorted_keys[:-1] != sorted_keys[1:]
        is_last[-1] = True
        keep = order[is_last]
        return COOMatrix(self.shape, self.row[keep], self.col[keep], self.value[keep])

    def transpose(self) -> "COOMatrix":
        return COOMatrix((self.shape[1], self.shape[0]), self.col, self.row, self.value)

    def to_dense(self) -> np.ndarray:
        out = np.zeros(self.shape, dtype=np.float32)
        out[self.row, self.col] = self.value
        return out

    def sorted_by_row(self) -> "COOMatrix":
        """Return a copy ordered row-major (row, then column)."""
        order = np.lexsort((self.col, self.row))
        return COOMatrix(self.shape, self.row[order], self.col[order], self.value[order])

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, COOMatrix):
            return NotImplemented
        a = self.sorted_by_row()
        b = other.sorted_by_row()
        return (
            a.shape == b.shape
            and np.array_equal(a.row, b.row)
            and np.array_equal(a.col, b.col)
            and np.array_equal(a.value, b.value)
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"COOMatrix(shape={self.shape}, nnz={self.nnz})"
