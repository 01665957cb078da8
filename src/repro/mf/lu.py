"""Unsymmetric multifrontal LU factorization (static pivoting).

The solver family this paper belongs to also ships an LU path. This module
implements the *static-pivoting* multifrontal variant (the approach
distributed LU solvers use to avoid the communication of dynamic row
pivoting): the matrix is ordered and analyzed on the symmetrized pattern
``A + Aᵀ``, fronts carry both an L panel (below the diagonal) and a U panel
(right of the diagonal), diagonal pivots are taken in order — optionally
perturbed when tiny — and iterative refinement recovers accuracy.

Stable as-is for (row) diagonally dominant matrices (e.g. upwind
convection–diffusion); for general matrices, enable ``pivot_perturbation``
and refinement, the same contract SuperLU_DIST documents.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from repro.dense.trsm import solve_unit_lower_inplace
from repro.mf.accounting import FactorStats
from repro.mf.extend_add import extend_add
from repro.sparse.coo import COOMatrix
from repro.sparse.csc import CSCMatrix
from repro.sparse.convert import coo_to_csc, csc_to_coo, csc_to_csr
from repro.sparse.permute import permute_vector, unpermute_vector
from repro.symbolic.analyze import (
    AnalyzeOptions,
    SymbolicFactor,
    analyze,
    dense_partial_factor_flops,
)
from repro.symbolic.front_plan import locate_rows
from repro.util.errors import ShapeError, SingularMatrixError
from repro.util.validation import as_float_array, check_permutation


@dataclass
class LUFactor:
    """Supernodal LU factor.

    Per supernode s (front order m, width w):

    * ``lu11[s]`` — w×w packed LU of the pivot block (unit-lower L,
      U on and above the diagonal);
    * ``l21[s]``  — (m-w)×w panel of L;
    * ``u12[s]``  — w×(m-w) panel of U.
    """

    sym: SymbolicFactor
    #: permuted full matrix in CSC (columns) — kept for refinement matvec
    permuted_full: CSCMatrix
    lu11: list[np.ndarray]
    l21: list[np.ndarray]
    u12: list[np.ndarray]
    stats: FactorStats = field(default_factory=FactorStats)
    perturbed_columns: tuple[int, ...] = ()

    @property
    def n(self) -> int:
        return self.sym.n

    def to_dense_lu(self) -> tuple[np.ndarray, np.ndarray]:
        """Materialize (L, U) dense (tests/diagnostics)."""
        n = self.n
        l = np.eye(n)
        u = np.zeros((n, n))
        for s in range(self.sym.n_supernodes):
            rows = self.sym.sn_rows[s]
            w = self.sym.supernode_width(s)
            c0 = int(self.sym.partition.sn_start[s])
            cols = np.arange(c0, c0 + w)
            blk = self.lu11[s]
            l[np.ix_(cols, cols)] = np.tril(blk, -1) + np.eye(w)
            u[np.ix_(cols, cols)] = np.triu(blk)
            if rows.size > w:
                l[np.ix_(rows[w:], cols)] = self.l21[s]
                u[np.ix_(cols, rows[w:])] = self.u12[s]
        return l, u


def lu_analyze(
    a_full: CSCMatrix, perm: np.ndarray, options: AnalyzeOptions | None = None
) -> tuple[SymbolicFactor, CSCMatrix]:
    """Symbolic analysis for LU: run the symmetric analysis on the pattern
    of ``A + Aᵀ`` and carry the permuted full matrix alongside.

    Returns ``(sym, permuted_full)``; ``sym.permuted_lower`` holds the
    symmetrized pattern's lower triangle (structure only — numeric values
    in it are not used by the LU engine).
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
    from repro.sparse.ops import tril

    sym = analyze(tril(pattern), p, options)
    # Permute the actual matrix by the final ordering: B[i,j] = A[perm[i], perm[j]].
    inv = np.empty(n, dtype=np.int64)
    inv[sym.perm] = np.arange(n, dtype=np.int64)
    coo = csc_to_coo(a_full)
    permuted_full = coo_to_csc(
        COOMatrix(a_full.shape, inv[coo.row], inv[coo.col], coo.data)
    )
    return sym, permuted_full


def front_local_indices(front_rows: np.ndarray, global_rows: np.ndarray) -> np.ndarray:
    """Positions of *global_rows* inside the sorted *front_rows*.

    Every global row must be present; raises otherwise (that would be a
    symbolic-analysis bug, not a user error — but fail loudly either way).
    """
    pos = locate_rows(front_rows, global_rows)
    if pos is None:
        missing = np.setdiff1d(global_rows, front_rows)
        raise ShapeError(f"rows {missing[:5]} not present in front structure")
    return pos


def _assemble_lu_front(
    a_cols: CSCMatrix,
    a_rows,  # CSR of the permuted matrix
    rows: np.ndarray,
    c0: int,
    w: int,
) -> np.ndarray:
    """Full m×m front with A's pivot columns and pivot rows scattered in."""
    m = rows.size
    front = np.zeros((m, m))
    for k in range(w):
        j = c0 + k
        r_idx, r_vals = a_cols.col(j)
        keep = r_idx >= j
        local = front_local_indices(rows, r_idx[keep])
        front[local, k] = r_vals[keep]
        cols_idx, c_vals = a_rows.row(j)
        keep = cols_idx > j
        local = front_local_indices(rows, cols_idx[keep])
        front[k, local] = c_vals[keep]
    return front


def _partial_lu(
    front: np.ndarray,
    w: int,
    perturb_abs: float | None,
    col_offset: int,
    perturbed: list[int],
) -> None:
    """Eliminate the first w pivots of the full front in place (no row
    exchanges; optional static perturbation)."""
    m = front.shape[0]
    for j in range(w):
        piv = front[j, j]
        if not math.isfinite(piv):
            raise SingularMatrixError(
                f"non-finite pivot at column {col_offset + j}", column=col_offset + j
            )
        tol = perturb_abs if perturb_abs is not None else 0.0
        if abs(piv) <= max(tol, 1e-300):
            if perturb_abs is None:
                raise SingularMatrixError(
                    f"zero pivot {piv:.6g} at column {col_offset + j}",
                    column=col_offset + j,
                )
            piv = (1.0 if piv >= 0 else -1.0) * perturb_abs
            front[j, j] = piv
            perturbed.append(col_offset + j)
        if j + 1 < m:
            front[j + 1:, j] /= piv
            front[j + 1:, j + 1:] -= np.outer(front[j + 1:, j], front[j, j + 1:])


def multifrontal_lu(
    sym: SymbolicFactor,
    permuted_full: CSCMatrix,
    pivot_perturbation: float | None = None,
) -> LUFactor:
    """Numeric LU factorization over the symmetric analysis *sym*."""
    a_rows = csc_to_csr(permuted_full)
    nsn = sym.n_supernodes
    lu11: list[np.ndarray] = [None] * nsn  # type: ignore[list-item]
    l21: list[np.ndarray] = [None] * nsn  # type: ignore[list-item]
    u12: list[np.ndarray] = [None] * nsn  # type: ignore[list-item]
    stats = FactorStats()
    perturbed: list[int] = []
    perturb_abs = None
    if pivot_perturbation is not None:
        scale = float(np.max(np.abs(permuted_full.data), initial=0.0))
        perturb_abs = pivot_perturbation * max(scale, 1.0)

    rel = sym.front_plan.rel
    updates: dict[int, np.ndarray] = {}
    for s in range(nsn):
        rows = sym.sn_rows[s]
        w = sym.supernode_width(s)
        c0 = int(sym.partition.sn_start[s])
        front = _assemble_lu_front(permuted_full, a_rows, rows, c0, w)
        for c in sym.sn_children[s]:
            extend_add(front, updates.pop(c), rel[c], lower=False)
        m = rows.size
        _partial_lu(front, w, perturb_abs, c0, perturbed)
        lu11[s] = front[:w, :w].copy()
        l21[s] = front[w:, :w].copy()
        u12[s] = front[:w, w:].copy()
        # LU does twice the work of Cholesky on the same structure.
        stats.observe_front(m, w, 2 * dense_partial_factor_flops(m, w))
        stats.factor_entries += w * w + 2 * (m - w) * w
        if m > w:
            updates[s] = front[w:, w:].copy()
    if updates:
        raise AssertionError(f"unconsumed LU updates: {sorted(updates)}")
    return LUFactor(
        sym=sym,
        permuted_full=permuted_full,
        lu11=lu11,
        l21=l21,
        u12=u12,
        stats=stats,
        perturbed_columns=tuple(perturbed),
    )


def lu_solve(factor: LUFactor, b: np.ndarray) -> np.ndarray:
    """Solve ``A x = b`` with the computed LU factor (original ordering)."""
    b = as_float_array(b, "b")
    n = factor.n
    if b.shape != (n,):
        raise ShapeError(f"b must have shape ({n},); got {b.shape}")
    sym = factor.sym
    y = permute_vector(b, sym.perm)
    # Forward: L y = b (unit lower), supernodes ascending.
    for s in range(sym.n_supernodes):
        rows = sym.sn_rows[s]
        w = sym.supernode_width(s)
        blk = factor.lu11[s]
        piv = y[rows[:w]].copy()
        solve_unit_lower_inplace(blk, piv)
        y[rows[:w]] = piv
        if rows.size > w:
            y[rows[w:]] -= factor.l21[s] @ piv
    # Backward: U x = y, supernodes descending.
    for s in range(sym.n_supernodes - 1, -1, -1):
        rows = sym.sn_rows[s]
        w = sym.supernode_width(s)
        blk = factor.lu11[s]
        piv = y[rows[:w]].copy()
        if rows.size > w:
            piv -= factor.u12[s] @ y[rows[w:]]
        for j in range(w - 1, -1, -1):
            if j + 1 < w:
                piv[j] -= blk[j, j + 1:] @ piv[j + 1:]
            piv[j] /= blk[j, j]
        y[rows[:w]] = piv
    return unpermute_vector(y, sym.perm)
