"""Compressed sparse column format.

CSC is the library's one compressed format: symbolic analysis and the
multifrontal numeric phase walk columns of the lower triangle of A, and a
row-wise walk reads the CSC of Aᵀ (:func:`repro.sparse.convert.transpose`).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np
from numpy.typing import ArrayLike

from repro.util.validation import (
    as_float_array,
    as_index_array,
    check_compressed,
    runtime_checks_enabled,
)


class CSCMatrix:
    """Sparse matrix in compressed sparse column format.

    Invariants (validated at construction by
    :func:`repro.util.validation.check_compressed`):

    * ``indptr`` has length ``ncols + 1``, starts at 0, is non-decreasing
      and ends at ``len(indices)``;
    * ``indices[indptr[j]:indptr[j+1]]`` are the strictly increasing row
      indices of column ``j``, each in ``[0, nrows)``;
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
        # REPRO_CHECK=1 those are validated too.
        if not _skip_check or runtime_checks_enabled():
            self._validate()

    def _validate(self) -> None:
        check_compressed(self.shape, self.indptr, self.indices, self.data)

    @property
    def nnz(self) -> int:
        return int(self.indices.size)

    def col(self, j: int) -> tuple[np.ndarray, np.ndarray]:
        """Views of (row indices, values) of column *j*."""
        s, e = self.indptr[j], self.indptr[j + 1]
        return self.indices[s:e], self.data[s:e]

    def col_degrees(self) -> np.ndarray:
        """Number of stored entries per column."""
        return np.diff(self.indptr)

    def to_dense(self) -> np.ndarray:
        out = np.zeros(self.shape)
        for j in range(self.shape[1]):
            rows, vals = self.col(j)
            out[rows, j] = vals
        return out

    @classmethod
    def from_dense(cls, dense: ArrayLike) -> "CSCMatrix":
        from repro.sparse.coo import COOMatrix
        from repro.sparse.convert import coo_to_csc

        return coo_to_csc(COOMatrix.from_dense(dense))

    def copy(self) -> "CSCMatrix":
        return CSCMatrix(
            self.shape,
            self.indptr.copy(),
            self.indices.copy(),
            self.data.copy(),
            _skip_check=True,
        )

    def diagonal(self) -> np.ndarray:
        """Extract the main diagonal (zeros where no entry is stored)."""
        n = min(self.shape)
        d = np.zeros(n)
        for j in range(n):
            rows, vals = self.col(j)
            pos = np.searchsorted(rows, j)
            if pos < rows.size and rows[pos] == j:
                d[j] = vals[pos]
        return d

    def __repr__(self) -> str:
        return f"CSCMatrix(shape={self.shape}, nnz={self.nnz})"
