"""Compressed sparse row format.

CSR is the traversal format: the adjacency-graph machinery in
:mod:`repro.graph` walks row slices, and matrix–vector products for the
iterative-refinement path use it.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np
from numpy.typing import ArrayLike

from repro.util.errors import ShapeError
from repro.util.validation import (
    as_float_array,
    as_index_array,
    check_index_array,
    runtime_checks_enabled,
)


class CSRMatrix:
    """Sparse matrix in compressed sparse row format.

    Invariants (validated at construction):

    * ``indptr`` has length ``nrows + 1``, starts at 0, is non-decreasing;
    * ``indices[indptr[i]:indptr[i+1]]`` are the column indices of row ``i``,
      strictly increasing within each row;
    * ``data`` parallels ``indices``.
    """

    __slots__ = ("shape", "indptr", "indices", "data")

    def __init__(
        self,
        shape: Sequence[int],
        indptr: ArrayLike,
        indices: ArrayLike,
        data: ArrayLike,
        *,
        _skip_check: bool = False,
    ) -> None:
        self.shape = (int(shape[0]), int(shape[1]))
        self.indptr = as_index_array(indptr, "indptr")
        self.indices = as_index_array(indices, "indices")
        self.data = as_float_array(data, "data")
        # _skip_check is for trusted internal constructions; under
        # REPRO_CHECK=1 the debug sanitizer re-validates those too.
        if not _skip_check or runtime_checks_enabled():
            self._validate()

    def _validate(self) -> None:
        n_rows, n_cols = self.shape
        if self.indptr.shape != (n_rows + 1,):
            raise ShapeError(
                f"indptr must have shape ({n_rows + 1},); got {self.indptr.shape}"
            )
        if self.indptr[0] != 0:
            raise ShapeError("indptr[0] must be 0")
        if np.any(np.diff(self.indptr) < 0):
            raise ShapeError("indptr must be non-decreasing")
        if self.indptr[-1] != self.indices.size:
            raise ShapeError("indptr[-1] must equal len(indices)")
        if self.indices.size != self.data.size:
            raise ShapeError("indices and data must have equal length")
        check_index_array(self.indices, n_cols, "indices")
        # strictly increasing columns within each row
        for i in range(n_rows):
            s, e = self.indptr[i], self.indptr[i + 1]
            if e - s > 1 and np.any(np.diff(self.indices[s:e]) <= 0):
                raise ShapeError(f"row {i} has unsorted or duplicate column indices")

    @property
    def nnz(self) -> int:
        return int(self.indices.size)

    def row(self, i: int) -> tuple[np.ndarray, np.ndarray]:
        """Views of (column indices, values) of row *i*."""
        s, e = self.indptr[i], self.indptr[i + 1]
        return self.indices[s:e], self.data[s:e]

    def to_dense(self) -> np.ndarray:
        out = np.zeros(self.shape)
        for i in range(self.shape[0]):
            cols, vals = self.row(i)
            out[i, cols] = vals
        return out

    @classmethod
    def from_dense(cls, dense: ArrayLike) -> "CSRMatrix":
        from repro.sparse.coo import COOMatrix
        from repro.sparse.convert import coo_to_csr

        return coo_to_csr(COOMatrix.from_dense(dense))

    def copy(self) -> "CSRMatrix":
        return CSRMatrix(
            self.shape,
            self.indptr.copy(),
            self.indices.copy(),
            self.data.copy(),
            _skip_check=True,
        )

    def __repr__(self) -> str:
        return f"CSRMatrix(shape={self.shape}, nnz={self.nnz})"
