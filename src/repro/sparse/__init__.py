"""From-scratch sparse matrix kernel.

Formats
-------
:class:`COOMatrix`   triplet format — assembly and I/O.
:class:`CSRMatrix`   compressed sparse row — graph traversal, matvec.
:class:`CSCMatrix`   compressed sparse column — factorization input.

All factorization code in :mod:`repro.symbolic` / :mod:`repro.mf` consumes a
:class:`CSCMatrix` holding the *lower triangle* (diagonal included) of a
symmetric matrix; :func:`repro.sparse.ops.symmetrize` and
:func:`repro.sparse.ops.tril` produce that form.

scipy is deliberately not used here — it appears only in the test suite as an
independent oracle.
"""

from repro.sparse.coo import COOMatrix
from repro.sparse.csr import CSRMatrix
from repro.sparse.csc import CSCMatrix
from repro.sparse.convert import (
    coo_to_csr,
    coo_to_csc,
    csr_to_csc,
    csc_to_csr,
    csc_to_coo,
)
from repro.sparse.ops import (
    matvec_csr,
    matvec_csc,
    tril,
    triu,
    symmetrize,
    full_symmetric_from_lower,
    is_structurally_symmetric,
    sym_matvec_lower,
    sym_matvec_lower_many,
)
from repro.sparse.permute import permute_symmetric_lower
from repro.sparse.io_mm import read_matrix_market, write_matrix_market

__all__ = [
    "COOMatrix",
    "CSRMatrix",
    "CSCMatrix",
    "coo_to_csr",
    "coo_to_csc",
    "csr_to_csc",
    "csc_to_csr",
    "csc_to_coo",
    "matvec_csr",
    "matvec_csc",
    "tril",
    "triu",
    "symmetrize",
    "full_symmetric_from_lower",
    "is_structurally_symmetric",
    "sym_matvec_lower",
    "sym_matvec_lower_many",
    "permute_symmetric_lower",
    "read_matrix_market",
    "write_matrix_market",
]
