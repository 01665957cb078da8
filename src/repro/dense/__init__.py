"""Dense kernels consumed by the multifrontal method.

Everything the frontal matrices need: Cholesky and LDLᵀ, triangular
solves, symmetric rank-k updates, and the *partial* factorization that
eliminates a front's pivot block and forms its Schur complement.

Kernels are written over numpy primitives (vectorized inner loops, in-place
updates) per the HPC-Python idioms: the O(n³) work lands in LAPACK/BLAS
calls (``np.linalg.cholesky``, ``@``), the O(n) control flow stays in Python.
"""

from repro.dense.chol import cholesky_in_place, cholesky
from repro.dense.ldlt import ldlt_in_place, ldlt
from repro.dense.trsm import (
    solve_lower_inplace,
    solve_lower_transpose_outer_inplace,
    solve_unit_lower_inplace,
    solve_unit_lower_transpose_outer_inplace,
)
from repro.dense.syrk import syrk_lower_update
from repro.dense.partial_factor import partial_cholesky, partial_ldlt

__all__ = [
    "cholesky_in_place",
    "cholesky",
    "ldlt_in_place",
    "ldlt",
    "solve_lower_inplace",
    "solve_lower_transpose_outer_inplace",
    "solve_unit_lower_inplace",
    "solve_unit_lower_transpose_outer_inplace",
    "syrk_lower_update",
    "partial_cholesky",
    "partial_ldlt",
]
