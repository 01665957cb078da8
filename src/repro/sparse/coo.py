"""Coordinate (triplet) sparse format.

COO is the assembly format: generators and file readers emit (row, col, val)
triplets, possibly with duplicates, which
:func:`repro.sparse.convert.coo_to_csc` sums while compressing by column.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np
from numpy.typing import ArrayLike

from repro.util.validation import (
    as_float_array,
    as_index_array,
    check_index_array,
)
from repro.util.errors import ShapeError


class COOMatrix:
    """Sparse matrix in coordinate format.

    Parameters
    ----------
    shape
        ``(nrows, ncols)``.
    row, col
        Integer arrays of equal length with the coordinates of each entry.
    data
        Float array of values, same length as ``row``.

    Duplicate coordinates are allowed and represent summed contributions
    (finite-element assembly semantics).
    """

    __slots__ = ("shape", "row", "col", "data")

    def __init__(
        self,
        shape: Sequence[int],
        row: ArrayLike,
        col: ArrayLike,
        data: ArrayLike,
    ) -> None:
        if len(shape) != 2 or shape[0] < 0 or shape[1] < 0:
            raise ShapeError(f"invalid shape {shape}")
        self.shape = (int(shape[0]), int(shape[1]))
        self.row = as_index_array(row, "row")
        self.col = as_index_array(col, "col")
        self.data = as_float_array(data, "data")
        if not (self.row.shape == self.col.shape == self.data.shape):
            raise ShapeError(
                "row, col, data must have identical 1-D shapes; got "
                f"{self.row.shape}, {self.col.shape}, {self.data.shape}"
            )
        if self.row.ndim != 1:
            raise ShapeError("row, col, data must be 1-D")
        check_index_array(self.row, self.shape[0], "row")
        check_index_array(self.col, self.shape[1], "col")

    @property
    def nnz(self) -> int:
        """Number of stored entries (duplicates counted separately)."""
        return int(self.data.size)

    @classmethod
    def empty(cls, shape: Sequence[int]) -> "COOMatrix":
        """An all-zero matrix of the given shape."""
        z = np.empty(0, dtype=np.int64)
        return cls(shape, z, z, np.empty(0))

    @classmethod
    def from_dense(cls, dense: ArrayLike) -> "COOMatrix":
        """Build from a dense array, keeping exact nonzeros."""
        d = np.asarray(dense, dtype=np.float64)
        if d.ndim != 2:
            raise ShapeError("dense input must be 2-D")
        r, c = np.nonzero(d)
        return cls(d.shape, r, c, d[r, c])

    def to_dense(self) -> np.ndarray:
        """Materialize as a dense array (duplicates summed)."""
        out = np.zeros(self.shape)
        np.add.at(out, (self.row, self.col), self.data)
        return out

    def sum_duplicates(self) -> "COOMatrix":
        """Return a new COOMatrix with duplicate coordinates summed and
        entries sorted by (row, col)."""
        if self.nnz == 0:
            return COOMatrix.empty(self.shape)
        key = self.row * self.shape[1] + self.col
        order = np.argsort(key, kind="stable")
        key_sorted = key[order]
        uniq_mask = np.empty(key_sorted.size, dtype=bool)
        uniq_mask[0] = True
        np.not_equal(key_sorted[1:], key_sorted[:-1], out=uniq_mask[1:])
        group_ids = np.cumsum(uniq_mask) - 1
        data = np.zeros(int(group_ids[-1]) + 1)
        np.add.at(data, group_ids, self.data[order])
        first = order[uniq_mask]
        return COOMatrix(self.shape, self.row[first], self.col[first], data)

    def __repr__(self) -> str:
        return f"COOMatrix(shape={self.shape}, nnz={self.nnz})"
