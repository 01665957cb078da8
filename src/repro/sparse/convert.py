"""Conversions between sparse formats.

All conversions are stable counting-sort passes (no comparison sorts on the
hot path) and produce canonical output: sorted indices, duplicates summed.
"""

from __future__ import annotations

import numpy as np

from repro.sparse.coo import COOMatrix
from repro.sparse.csr import CSRMatrix
from repro.sparse.csc import CSCMatrix


def coo_to_csr(coo: COOMatrix) -> CSRMatrix:
    """Convert COO to canonical CSR (duplicates summed, sorted columns)."""
    m = coo.sum_duplicates()  # sorted by (row, col) with unique coordinates
    n_rows = m.shape[0]
    counts = np.bincount(m.row, minlength=n_rows)
    indptr = np.zeros(n_rows + 1, dtype=np.int64)
    np.cumsum(counts, out=indptr[1:])
    return CSRMatrix(m.shape, indptr, m.col, m.data, _skip_check=True)


def coo_to_csc(coo: COOMatrix) -> CSCMatrix:
    """Convert COO to canonical CSC (duplicates summed, sorted rows)."""
    return csr_to_csc(coo_to_csr(coo))


def csc_to_coo(csc: CSCMatrix) -> COOMatrix:
    cols = np.repeat(
        np.arange(csc.shape[1], dtype=np.int64), np.diff(csc.indptr)
    )
    return COOMatrix(csc.shape, csc.indices, cols, csc.data)


def csr_to_csc(csr: CSRMatrix) -> CSCMatrix:
    """Transpose-copy CSR into CSC of the *same* matrix (counting sort)."""
    n_rows, n_cols = csr.shape
    nnz = csr.nnz
    col_counts = np.bincount(csr.indices, minlength=n_cols)
    indptr = np.zeros(n_cols + 1, dtype=np.int64)
    np.cumsum(col_counts, out=indptr[1:])
    indices = np.empty(nnz, dtype=np.int64)
    data = np.empty(nnz)
    next_slot = indptr[:-1].copy()
    row_of = np.repeat(np.arange(n_rows, dtype=np.int64), np.diff(csr.indptr))
    # Stable scatter: iterate entries in CSR order, which is sorted by
    # (row, col); within each destination column the rows therefore land in
    # increasing order.
    order = np.argsort(csr.indices, kind="stable")
    pos = indptr[:-1][csr.indices[order]] + _rank_within_group(csr.indices[order])
    indices[pos] = row_of[order]
    data[pos] = csr.data[order]
    del next_slot
    return CSCMatrix(csr.shape, indptr, indices, data, _skip_check=True)


def csc_to_csr(csc: CSCMatrix) -> CSRMatrix:
    """Transpose-copy CSC into CSR of the *same* matrix."""
    n_rows, n_cols = csc.shape
    nnz = csc.nnz
    row_counts = np.bincount(csc.indices, minlength=n_rows)
    indptr = np.zeros(n_rows + 1, dtype=np.int64)
    np.cumsum(row_counts, out=indptr[1:])
    indices = np.empty(nnz, dtype=np.int64)
    data = np.empty(nnz)
    col_of = np.repeat(np.arange(n_cols, dtype=np.int64), np.diff(csc.indptr))
    order = np.argsort(csc.indices, kind="stable")
    pos = indptr[:-1][csc.indices[order]] + _rank_within_group(csc.indices[order])
    indices[pos] = col_of[order]
    data[pos] = csc.data[order]
    return CSRMatrix(csc.shape, indptr, indices, data, _skip_check=True)


def _rank_within_group(sorted_keys: np.ndarray) -> np.ndarray:
    """For a sorted key array, the 0-based rank of each element within its
    run of equal keys. Vectorized: rank[i] = i - first_index_of_run(i)."""
    n = sorted_keys.size
    if n == 0:
        return np.empty(0, dtype=np.int64)
    idx = np.arange(n, dtype=np.int64)
    run_start = np.empty(n, dtype=np.int64)
    new_run = np.empty(n, dtype=bool)
    new_run[0] = True
    np.not_equal(sorted_keys[1:], sorted_keys[:-1], out=new_run[1:])
    run_start[new_run] = idx[new_run]
    # forward-fill run starts
    np.maximum.accumulate(np.where(new_run, idx, 0), out=run_start)
    return idx - run_start
