"""Unsymmetric multifrontal LU factorization (static pivoting): the analysis.

The solver family this paper belongs to also ships an LU path. This is the
*static-pivoting* multifrontal variant (the approach distributed LU solvers
use to avoid the communication of dynamic row pivoting): the matrix is
ordered and analyzed on the symmetrized pattern ``A + Aᵀ``, fronts carry
both an L panel (below the diagonal) and a U panel (right of the
diagonal), diagonal pivots are taken in order — optionally perturbed when
tiny — and iterative refinement recovers accuracy.

LU is a front-kernel choice of the one front loop, not a pipeline of its
own: after :func:`lu_analyze`, ``multifrontal_factor(sym, method="lu")``
factors, :func:`repro.mf.solve_phase.solve` solves and
:func:`repro.mf.refine.iterative_refinement_many` refines, exactly as for
Cholesky and LDLᵀ. The front door is ``SparseSolver(a, method="lu")``,
whose ``analyze()`` orders the graph of ``A + Aᵀ`` and calls
:func:`lu_analyze`.

Stable as-is for (row) diagonally dominant matrices (e.g. upwind
convection–diffusion); for general matrices, enable ``pivot_perturbation``
and refinement, the same contract SuperLU_DIST documents.
"""

from __future__ import annotations

import numpy as np

from repro.sparse.coo import COOMatrix
from repro.sparse.csc import CSCMatrix
from repro.sparse.convert import coo_to_csc, csc_to_coo
from repro.sparse.ops import csc_matvec_plan, tril
from repro.symbolic.analyze import AnalyzeOptions, SymbolicFactor, analyze
from repro.symbolic.front_plan import with_full_table
from repro.util.errors import ShapeError
from repro.util.validation import check_permutation, runtime_checks_enabled


def lu_analyze(
    a_full: CSCMatrix, perm: np.ndarray, options: AnalyzeOptions | None = None
) -> SymbolicFactor:
    """Symbolic analysis for LU: run the symmetric analysis on the pattern
    of ``A + Aᵀ`` and carry the permuted full matrix alongside.

    ``sym.permuted_full`` is that matrix and ``sym.front_plan`` carries its
    assembly table. ``sym.permuted_lower`` holds the symmetrized pattern's
    lower triangle (structure only — numeric values in it are not used by
    the LU kernel).
    """
    n = a_full.shape[0]
    if a_full.shape[0] != a_full.shape[1]:
        raise ShapeError("LU requires a square matrix")
    p = check_permutation(perm, n)
    # Symmetrized pattern with structural (absolute) values, so that no
    # numeric cancellation can drop pattern entries.
    coo = csc_to_coo(a_full)
    pattern = coo_to_csc(
        COOMatrix(
            a_full.shape,
            np.concatenate([coo.row, coo.col]),
            np.concatenate([coo.col, coo.row]),
            np.concatenate([np.abs(coo.data) + 1.0, np.abs(coo.data) + 1.0]),
        )
    )
    sym = analyze(tril(pattern), p, options)
    # Permute the actual matrix by the final ordering: B[i,j] = A[perm[i], perm[j]].
    inv = np.empty(n, dtype=np.int64)
    inv[sym.perm] = np.arange(n, dtype=np.int64)
    permuted_full = coo_to_csc(
        COOMatrix(a_full.shape, inv[coo.row], inv[coo.col], coo.data)
    )
    sym.front_plan = with_full_table(
        sym.front_plan, sym.partition, sym.permuted_lower, permuted_full
    )
    sym.permuted_full = permuted_full
    sym.matvec_plan = csc_matvec_plan(a_full)
    if runtime_checks_enabled():
        from repro.check.sanitize import check_full_table

        check_full_table(sym)
    return sym
