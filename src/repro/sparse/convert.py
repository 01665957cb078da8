"""Conversions between COO and CSC, and the CSC transpose.

Each conversion is one stable sort and produces canonical output: rows
sorted within each column, duplicates summed. A row-wise walk of a matrix
reads the CSC of its transpose, whose arrays are the matrix's CSR layout.
"""

from __future__ import annotations

import numpy as np

from repro.sparse.coo import COOMatrix
from repro.sparse.csc import CSCMatrix


def coo_to_csc(coo: COOMatrix) -> CSCMatrix:
    """Convert COO to canonical CSC: rows sorted within each column, and
    each coordinate's duplicates summed in input order from ``0.0``."""
    n_rows, n_cols = coo.shape
    key = coo.col * n_rows + coo.row
    order = np.argsort(key, kind="stable")
    key = key[order]
    first = np.empty(key.size, dtype=bool)
    first[:1] = True
    np.not_equal(key[1:], key[:-1], out=first[1:])
    data = np.bincount(np.cumsum(first) - 1, weights=coo.data[order])
    unique = order[first]
    indptr = np.zeros(n_cols + 1, dtype=np.int64)
    np.cumsum(np.bincount(coo.col[unique], minlength=n_cols), out=indptr[1:])
    return CSCMatrix(coo.shape, indptr, coo.row[unique], data, _skip_check=True)


def csc_to_coo(csc: CSCMatrix) -> COOMatrix:
    cols = np.repeat(
        np.arange(csc.shape[1], dtype=np.int64), np.diff(csc.indptr)
    )
    return COOMatrix(csc.shape, csc.indices, cols, csc.data)


def transpose(a: CSCMatrix) -> CSCMatrix:
    """CSC of ``Aᵀ`` (counting sort of the entries by row)."""
    n_rows, n_cols = a.shape
    cols = np.repeat(np.arange(n_cols, dtype=np.int64), np.diff(a.indptr))
    # Stable, so the entries of each row keep their increasing columns.
    order = np.argsort(a.indices, kind="stable")
    indptr = np.zeros(n_rows + 1, dtype=np.int64)
    np.cumsum(np.bincount(a.indices, minlength=n_rows), out=indptr[1:])
    return CSCMatrix((n_cols, n_rows), indptr, cols[order], a.data[order], _skip_check=True)
