"""Compressed sparse row adjacency structures.

The paper organizes every subgraph chunk in CSR/CSC (§6, "Computation
engine"). :class:`CSRAdjacency` is the shared building block: a row-indexed
list of column ids. A graph keeps one: its
**in-CSR** (rows = destinations, columns = in-neighbor sources), the view
forward aggregation consumes.

Rows are always sorted by column id within a row; this makes the arrays
canonical — one edge set has one ``(indptr, indices)`` — and
binary-search membership cheap.
"""

from __future__ import annotations

import numpy as np

from repro.errors import GraphFormatError

__all__ = ["CSRAdjacency", "edges_to_csr"]


class CSRAdjacency:
    """Immutable CSR structure with validation.

    Parameters
    ----------
    indptr:  (num_rows + 1,) int64, monotonically non-decreasing offsets.
    indices: (nnz,) int64 column ids, each < num_cols.
    num_cols: column-id domain size.
    """

    __slots__ = ("indptr", "indices", "num_cols")

    def __init__(self, indptr: np.ndarray, indices: np.ndarray,
                 num_cols: int):
        self.indptr = np.ascontiguousarray(indptr, dtype=np.int64)
        self.indices = np.ascontiguousarray(indices, dtype=np.int64)
        self.num_cols = int(num_cols)
        self._validate()

    def _validate(self) -> None:
        if self.indptr.ndim != 1 or len(self.indptr) < 1:
            raise GraphFormatError("indptr must be a 1-D array of length >= 1")
        if self.indptr[0] != 0:
            raise GraphFormatError("indptr must start at 0")
        if np.any(np.diff(self.indptr) < 0):
            raise GraphFormatError("indptr must be non-decreasing")
        if self.indptr[-1] != len(self.indices):
            raise GraphFormatError(
                f"indptr[-1]={self.indptr[-1]} does not match nnz={len(self.indices)}"
            )
        if len(self.indices) and (
            self.indices.min() < 0 or self.indices.max() >= self.num_cols
        ):
            raise GraphFormatError(
                f"column ids must be in [0, {self.num_cols}), got "
                f"[{self.indices.min()}, {self.indices.max()}]"
            )

    # ------------------------------------------------------------------
    @property
    def num_rows(self) -> int:
        return len(self.indptr) - 1

    @property
    def nnz(self) -> int:
        return len(self.indices)

    def row(self, i: int) -> np.ndarray:
        """Column ids of row ``i``."""
        return self.indices[self.indptr[i]:self.indptr[i + 1]]

    def degrees(self) -> np.ndarray:
        """Per-row nonzero counts."""
        return np.diff(self.indptr)

    def __repr__(self) -> str:
        return (
            f"CSRAdjacency(rows={self.num_rows}, cols={self.num_cols}, "
            f"nnz={self.nnz})"
        )


def edges_to_csr(rows: np.ndarray, cols: np.ndarray, num_rows: int,
                 num_cols: int) -> CSRAdjacency:
    """Build a CSR from parallel (row, col) edge arrays.

    Edges are sorted by (row, col) and duplicate (row, col) pairs merged
    into one edge.
    """
    rows = np.asarray(rows, dtype=np.int64)
    cols = np.asarray(cols, dtype=np.int64)
    if rows.shape != cols.shape:
        raise GraphFormatError("rows and cols must have identical shapes")
    if len(rows):
        if rows.min() < 0 or rows.max() >= num_rows:
            raise GraphFormatError(f"row ids out of range [0, {num_rows})")
        if cols.min() < 0 or cols.max() >= num_cols:
            raise GraphFormatError(f"col ids out of range [0, {num_cols})")

    order = np.lexsort((cols, rows))
    rows, cols = rows[order], cols[order]
    if len(rows):
        keep = np.concatenate(([True], (np.diff(rows) != 0) | (np.diff(cols) != 0)))
        rows, cols = rows[keep], cols[keep]

    counts = np.bincount(rows, minlength=num_rows)
    indptr = np.concatenate(([0], np.cumsum(counts))).astype(np.int64)
    return CSRAdjacency(indptr, cols, num_cols)
