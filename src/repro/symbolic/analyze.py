"""The analyze phase: from (matrix, fill-ordering) to a complete
:class:`SymbolicFactor`.

This is the object every numeric engine in the library consumes — the
sequential multifrontal engine, the simulated-parallel engine, and the
baseline solvers — so they all factor the *same* permuted problem and their
results are directly comparable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from repro.sparse.csc import CSCMatrix
from repro.sparse.ops import MatvecPlan, sym_matvec_plan
from repro.sparse.permute import permute_symmetric_lower
from repro.symbolic.etree import etree
from repro.symbolic.front_plan import FrontPlan, build_front_plan
from repro.symbolic.postorder import postorder, relabel_parent, is_postordered
from repro.symbolic.symbolic_chol import symbolic_cholesky
from repro.symbolic.colcounts import (
    factor_flops_from_counts,
    solve_flops_from_counts,
)
from repro.symbolic.supernodes import (
    SupernodePartition,
    fundamental_supernodes,
    amalgamate,
    supernode_parents,
    supernode_rows,
)
from repro.util.errors import InvariantError, ShapeError
from repro.util.validation import check_permutation, runtime_checks_enabled


@dataclass(frozen=True)
class AnalyzeOptions:
    """Knobs of the analyze phase."""

    #: perform relaxed supernode amalgamation
    amalgamate: bool = True
    #: cumulative budget: a merged supernode may store at most this
    #: fraction of explicit zeros over its structural entries
    max_extra_fill_ratio: float = 0.25
    #: a supernode this narrow is always a merge candidate; a wider one is
    #: a candidate when the merge adds at most 1 % of the merged node's
    #: entries as explicit zeros
    small_width: int = 8

    def __post_init__(self) -> None:
        # A negative or NaN ratio would silently turn off every merge, even
        # the exact ones.
        if not (math.isfinite(self.max_extra_fill_ratio) and self.max_extra_fill_ratio >= 0):
            raise ShapeError(
                "max_extra_fill_ratio must be finite and non-negative; "
                f"got {self.max_extra_fill_ratio}"
            )
        if self.small_width < 0:
            raise ShapeError(f"small_width must be non-negative; got {self.small_width}")


@dataclass
class SymbolicFactor:
    """Everything the numeric phases need, computed once per pattern.

    All index arrays live in the *final* permuted space (fill ordering
    composed with postorder). ``perm`` maps back: ``perm[k]`` is the
    original index eliminated at step k.
    """

    n: int
    #: total permutation (fill ordering ∘ postorder), original index per step
    perm: np.ndarray
    #: permuted lower triangle of A (the matrix the numeric phase factors)
    permuted_lower: CSCMatrix
    #: per stored entry of ``permuted_lower``, the position in the analysed
    #: lower triangle's ``data`` it came from (``int32``; see :meth:`update_values`)
    value_gather: np.ndarray
    #: column elimination tree (postordered: parent > child)
    parent: np.ndarray
    #: supernode partition of the columns
    partition: SupernodePartition
    #: per-supernode sorted row structure; first `width` entries = own columns
    sn_rows: list[np.ndarray]
    #: assembly-tree parent per supernode (-1 = root)
    sn_parent: np.ndarray
    #: per-column factor counts (diagonal included)
    col_counts: np.ndarray
    #: structural nnz(L) (no amalgamation zeros)
    nnz_factor: int
    #: stored entries in supernodal blocks (>= nnz_factor after amalgamation)
    nnz_stored: int
    #: factor operation count (see colcounts module for the convention)
    factor_flops: int
    #: one forward+backward solve operation count
    solve_flops: int
    #: compiled index tables of the front loop (assembly, extend-add)
    front_plan: FrontPlan
    #: the residual matvec's plan, compiled from the analysed matrix in its
    #: original ordering: the lower triangle, or the full matrix of an LU
    #: analysis (:mod:`repro.sparse.ops`)
    matvec_plan: MatvecPlan | None = None
    #: LU analyses only (:func:`repro.mf.lu.lu_analyze`): the permuted full
    #: matrix the LU front loop factors; ``permuted_lower`` then holds the
    #: symmetrized pattern's structure only
    permuted_full: CSCMatrix | None = None
    sn_children: list[list[int]] = field(init=False)

    def __post_init__(self) -> None:
        nsn = self.partition.n_supernodes
        self.sn_children = [[] for _ in range(nsn)]
        for s in range(nsn):
            p = int(self.sn_parent[s])
            if p >= 0:
                self.sn_children[p].append(s)

    @property
    def n_supernodes(self) -> int:
        return self.partition.n_supernodes

    def supernode_width(self, s: int) -> int:
        return self.partition.width(s)

    def front_size(self, s: int) -> int:
        """Order of the frontal matrix of supernode s."""
        return int(self.sn_rows[s].size)

    def update_size(self, s: int) -> int:
        """Order of the Schur-complement (update) matrix of supernode s."""
        return self.front_size(s) - self.supernode_width(s)

    def supernode_flops(self, s: int) -> int:
        """Partial-factorization flops of front s (dense convention:
        eliminating k pivots from an m×m symmetric front)."""
        m = self.front_size(s)
        k = self.supernode_width(s)
        return dense_partial_factor_flops(m, k)

    def roots(self) -> list[int]:
        return [s for s in range(self.n_supernodes) if self.sn_parent[s] < 0]

    def update_values(self, lower_data: np.ndarray) -> None:
        """Install new values of the analysed lower triangle: *lower_data*
        is the ``data`` of a matrix with exactly the analysed pattern. The
        permuted matrix keeps its structure (and everything compiled from
        it); each of its entries is refilled from where the analysis found
        it."""
        old = self.permuted_lower
        self.permuted_lower = CSCMatrix(
            old.shape, old.indptr, old.indices, lower_data[self.value_gather], _skip_check=True
        )


def dense_partial_factor_flops(m: int, k: int) -> int:
    """Flops to eliminate k pivots from a symmetric m×m front:
    Σ_{i=0}^{k-1} [ (m-i-1) divisions + (m-i-1)(m-i) madd-pairs ],
    counting a madd pair as 2 flops."""
    total = 0
    for i in range(k):
        r = m - i - 1
        total += r + r * (r + 1)
    return total


def analyze(
    lower: CSCMatrix,
    perm: np.ndarray,
    options: AnalyzeOptions | None = None,
) -> SymbolicFactor:
    """Run the full analyze phase.

    Parameters
    ----------
    lower
        Lower triangle (diagonal included) of the symmetric matrix.
    perm
        Fill-reducing permutation from :mod:`repro.ordering`
        (``perm[k]`` = original index eliminated k-th).
    """
    opts = options or AnalyzeOptions()
    n = lower.shape[0]
    if lower.shape[0] != lower.shape[1]:
        raise ShapeError("analyze requires a square lower triangle")
    p = check_permutation(perm, n)

    # 1) permute by the fill ordering, 2) postorder the etree, 3) compose.
    a1 = permute_symmetric_lower(lower, p)
    parent1 = etree(a1)
    post = postorder(parent1)
    total_perm = p[post]
    # Permute entry positions rather than values: the result records where
    # each stored entry of the permuted matrix came from.
    positions = CSCMatrix(
        lower.shape, lower.indptr, lower.indices, np.arange(lower.nnz), _skip_check=True
    )
    a2 = permute_symmetric_lower(positions, total_perm)
    value_gather = a2.data.astype(np.int32)
    a2.data = lower.data[value_gather]
    del a1, positions  # the intermediate permuted copies end here
    parent = relabel_parent(parent1, post)
    if not is_postordered(parent):
        raise InvariantError("postordered elimination tree has a parent below its child")

    patterns, col_counts, nnz_factor = symbolic_cholesky(a2, parent)

    part = fundamental_supernodes(parent, col_counts)
    if opts.amalgamate:
        part, sn_rows = amalgamate(
            part,
            parent,
            patterns,
            max_extra_fill_ratio=opts.max_extra_fill_ratio,
            small_width=opts.small_width,
        )
    else:
        sn_rows = supernode_rows(part, patterns)
    del patterns  # the column patterns (nnz(L) entries) end here
    sn_parent = supernode_parents(part, parent)

    # Compiling the front plan is also the assembly-tree soundness check:
    # it raises unless each child's update rows are contained in its
    # parent's front rows (the invariant extend-add relies on).
    front_plan = build_front_plan(a2, part, sn_rows, sn_parent)

    from repro.symbolic.supernodes import trapezoid_entries

    nnz_stored = sum(
        trapezoid_entries(r.size, part.width(s)) for s, r in enumerate(sn_rows)
    )
    sym = SymbolicFactor(
        n=n,
        perm=total_perm,
        permuted_lower=a2,
        value_gather=value_gather,
        parent=parent,
        partition=part,
        sn_rows=sn_rows,
        sn_parent=sn_parent,
        col_counts=col_counts,
        nnz_factor=nnz_factor,
        nnz_stored=int(nnz_stored),
        factor_flops=factor_flops_from_counts(col_counts),
        solve_flops=solve_flops_from_counts(col_counts),
        front_plan=front_plan,
        matvec_plan=sym_matvec_plan(lower),
    )
    if runtime_checks_enabled():
        from repro.check.sanitize import check_symbolic

        check_symbolic(sym)
    return sym
