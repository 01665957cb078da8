"""From-scratch sparse matrix kernel.

Formats
-------
:class:`COOMatrix`   triplet format — assembly and I/O (duplicates allowed).
:class:`CSCMatrix`   compressed sparse column — the one compressed format.

All factorization code in :mod:`repro.symbolic` / :mod:`repro.mf` consumes a
:class:`CSCMatrix` holding the *lower triangle* (diagonal included) of a
symmetric matrix; :func:`repro.sparse.ops.tril` produces that form. A
row-wise walk reads the CSC of the transpose
(:func:`repro.sparse.convert.transpose`), whose arrays are the CSR layout.

scipy is deliberately not used here — it appears only in the test suite as an
independent oracle.
"""

from repro.sparse.coo import COOMatrix
from repro.sparse.csc import CSCMatrix
from repro.sparse.convert import coo_to_csc, csc_to_coo, transpose
from repro.sparse.ops import (
    matvec_csc,
    tril,
    full_symmetric_from_lower,
    is_structurally_symmetric,
    sym_matvec_lower,
    sym_matvec_lower_many,
)
from repro.sparse.permute import permute_symmetric_lower
from repro.sparse.io_mm import read_matrix_market, write_matrix_market

__all__ = [
    "COOMatrix",
    "CSCMatrix",
    "coo_to_csc",
    "csc_to_coo",
    "transpose",
    "matvec_csc",
    "tril",
    "full_symmetric_from_lower",
    "is_structurally_symmetric",
    "sym_matvec_lower",
    "sym_matvec_lower_many",
    "permute_symmetric_lower",
    "read_matrix_market",
    "write_matrix_market",
]
