"""Multifrontal numeric factorization: one per-front step, two callers.

For each supernode the step assembles the front from A
(:func:`assemble_from_a`), extend-adds the children's updates, and
partially factors it (:func:`eliminate_front`), which yields the factor
panel and the Schur complement for the parent. Cholesky, LDLᵀ and
static-pivoting LU are three kernels of this one step; an LU front is the
full square instead of its lower triangle.

The step has two callers. :func:`multifrontal_factor`'s extend-add reads
the children's update slots, and it runs the step in postorder on the
calling thread (supernodes are numbered postorder by construction), or
over the assembly-tree task graph on a :class:`~repro.exec.pool.TaskPool`
of worker threads. The heavy per-front work happens inside numpy kernels
that release the GIL, so independent subtrees factor concurrently. The
simulator's sequential fronts (:mod:`repro.parallel.factor_par`) call the
same two halves with the rank program's extend-add between them, so a
front a simulated rank factors alone holds the host's bits (the
unspecified strict upper triangle of a symmetric pivot block aside).

Bitwise contract
----------------
The factor is bitwise identical for either schedule and any worker
count, because

* every front runs the same step, so its floating-point sequence is the
  same;
* extend-add is postorder-partitioned, not locked: a step publishes its
  update into its own slot, and only the parent's step consumes the
  slots, in ascending child order — the sequential order. No front is
  ever written by two threads;
* perturbed pivot columns are collected per supernode and merged in
  ascending supernode order, and the statistics are rolled up once in
  that order. The update-stack statistics are computed from the
  structure in postorder (:func:`repro.mf.accounting.stack_accounting`),
  whatever order the fronts actually ran in.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from repro.dense.chol import LAPACK_MIN_PIVOTS, SOLVE_BLOCK
from repro.dense.partial_factor import partial_cholesky, partial_ldlt, partial_lu
from repro.dense.trsm import lower_inverses
from repro.mf.accounting import FactorStats, stack_accounting
from repro.mf.extend_add import extend_add
from repro.mf.frontal import assemble_front, assemble_full_front
from repro.obs.spans import Span, SpanRecorder, current_recorder, span
from repro.symbolic.analyze import SymbolicFactor, dense_partial_factor_flops
from repro.util.errors import InvariantError, ShapeError
from repro.util.validation import VALUE_DTYPE, work_dtype

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.exec.pool import PoolStats, TaskPool


@dataclass
class NumericFactor:
    """The computed factor.

    ``blocks[s]`` is the m×w panel [L11; L21] of supernode s (for LDLᵀ,
    unit-lower L11 with D on its diagonal and L21 already D-scaled; for LU,
    unit-lower L11 with U11 on and above its diagonal). ``diag`` holds the
    LDLᵀ pivots and ``u12`` the LU panels right of the pivot block (None
    otherwise).
    """

    sym: SymbolicFactor
    method: str
    blocks: list[np.ndarray]
    diag: np.ndarray | None
    stats: FactorStats = field(default_factory=FactorStats)
    #: permuted-order columns whose LDLᵀ pivots were statically perturbed
    perturbed_columns: tuple[int, ...] = ()
    #: pool telemetry when this factor ran on a :class:`TaskPool`; None for
    #: the postorder schedule
    exec_stats: PoolStats | None = None
    #: working precision the fronts were factored in (``"fp64"``/``"fp32"``);
    #: fp32 factors need iterative refinement to deliver fp64 solutions
    precision: str = "fp64"
    #: LU only: per supernode the w×(m-w) panel U12 of U
    u12: list[np.ndarray] | None = None
    #: per supernode the inverses of the
    #: :data:`~repro.dense.chol.SOLVE_BLOCK`-wide diagonal blocks of its
    #: (unit, for LDLᵀ) L11, on which the triangular sweeps run one gemv
    #: per block; None for LU and for pivot blocks narrower than
    #: :data:`~repro.dense.chol.LAPACK_MIN_PIVOTS`, which the column
    #: kernels solve. Formed from ``blocks`` when the factor is built
    #: (:func:`diagonal_inverses`). They hold Σ b² entries over the blocks
    #: of order b, on top of ``stats.factor_entries``, which counts L
    #: only: 117 k entries (+10.5 % of ``nnz_stored``) on cube 20³, 56 k
    #: (+14 %) on cube 16³, 36 k (+29 %) on plate 64².
    diag_inverses: list[list[np.ndarray] | None] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self.diag_inverses = diagonal_inverses(self.blocks, self.method)

    @property
    def n(self) -> int:
        return self.sym.n

    @property
    def dtype(self) -> np.dtype:
        """Working dtype of the stored factor panels."""
        return work_dtype(self.precision)

    def to_dense_l(self) -> np.ndarray:
        """Materialize L as a dense lower-triangular matrix (tests and
        diagnostics only). For LDLᵀ and LU this is the unit-lower L."""
        n = self.sym.n
        l = np.zeros((n, n))
        for s in range(self.sym.n_supernodes):
            rows = self.sym.sn_rows[s]
            w = self.sym.supernode_width(s)
            c0 = int(self.sym.partition.sn_start[s])
            block = self.blocks[s]
            for k in range(w):
                col = c0 + k
                vals = block[k:, k].copy()
                l[rows[k:], col] = vals
            if self.method != "cholesky":
                l[np.arange(c0, c0 + w), np.arange(c0, c0 + w)] = 1.0
        return l

    def to_dense_lu(self) -> tuple[np.ndarray, np.ndarray]:
        """LU factors only: materialize (unit-lower L, U) dense (tests and
        diagnostics only)."""
        if self.method != "lu":
            raise ShapeError(f"to_dense_lu needs an LU factor, not {self.method!r}")
        u = np.zeros((self.n, self.n))
        for s in range(self.sym.n_supernodes):
            rows = self.sym.sn_rows[s]
            w = self.sym.supernode_width(s)
            c0 = int(self.sym.partition.sn_start[s])
            u[c0: c0 + w, rows] = np.hstack((np.triu(self.blocks[s][:w]), self.u12[s]))
        return self.to_dense_l(), u


def pivot_threshold(
    sym: SymbolicFactor, method: str, pivot_perturbation: float | None
) -> float | None:
    """Check that *method* (and *pivot_perturbation*, if any) can factor
    *sym*; returns the absolute static-pivoting threshold, None to raise on
    zero pivots. Scales by ``max |A_ii|`` for LDLᵀ, ``max |A_ij|`` for LU."""
    if method not in ("cholesky", "ldlt", "lu"):
        raise ShapeError(f"unknown factorization method {method!r}")
    if pivot_perturbation is not None and method == "cholesky":
        raise ShapeError("pivot_perturbation applies to method='ldlt' or 'lu' only")
    lu = method == "lu"
    if lu and sym.permuted_full is None:
        raise ShapeError("method='lu' needs an LU analysis (repro.mf.lu.lu_analyze)")
    if pivot_perturbation is None:
        return None
    scale_of = sym.permuted_full.data if lu else sym.permuted_lower.diagonal()
    scale = float(np.max(np.abs(scale_of), initial=0.0))
    return pivot_perturbation * max(scale, 1.0)


def partial_factor(
    front: np.ndarray,
    w: int,
    method: str,
    perturb: float | None = None,
    col_offset: int = 0,
    perturbed: list[int] | None = None,
) -> tuple[np.ndarray | None, int]:
    """Eliminate the first *w* pivots of *front* in place with *method*'s
    dense kernel — the one dispatch of every front loop (the host step
    and the simulator's sequential fronts and distributed pivot blocks).

    Returns ``(d, flops)``: the LDLᵀ pivots (None for the other methods)
    and the flop count; LU does twice the work of Cholesky on the same
    structure.
    """
    flops = dense_partial_factor_flops(front.shape[0], w)
    if method == "cholesky":
        partial_cholesky(front, w, col_offset=col_offset)
        return None, flops
    if method == "lu":
        partial_lu(front, w, perturb=perturb, col_offset=col_offset, perturbed=perturbed)
        return None, 2 * flops
    d = partial_ldlt(front, w, perturb=perturb, col_offset=col_offset, perturbed=perturbed)
    return d, flops


def diagonal_inverses(
    blocks: list[np.ndarray], method: str
) -> list[list[np.ndarray] | None]:
    """Per factor panel of *blocks* the inverses of the
    :data:`SOLVE_BLOCK`-wide diagonal blocks of its pivot block (unit-lower
    for LDLᵀ): None for LU and below :data:`LAPACK_MIN_PIVOTS` columns.

    All blocks are inverted together by :func:`~repro.dense.trsm.lower_inverses`,
    each padded with the identity to the next power of two (at most
    :data:`SOLVE_BLOCK`): one call per padded order, so a factor pays about
    4 + 8 + 16 + 32 Python steps for its inverses, not Σ w over its fronts.
    The padding rows and columns never reach a block's own entries, and
    the substitution is elementwise, so each inverse has the bits it would
    have alone: the simulator, which inverts a different set of blocks
    (every rank's sequential fronts) in one call, holds the host's
    inverses.
    """
    out: list[list[np.ndarray] | None] = [None] * len(blocks)
    if method == "lu":
        return out
    #: padded order -> (supernode, first column, order) of its blocks
    by_order: dict[int, list[tuple[int, int, int]]] = {}
    for s, block in enumerate(blocks):
        w = block.shape[1]
        if w >= LAPACK_MIN_PIVOTS:
            out[s] = [None] * -(-w // SOLVE_BLOCK)
            for c0 in range(0, w, SOLVE_BLOCK):
                b = min(SOLVE_BLOCK, w - c0)
                p = min(SOLVE_BLOCK, 1 << (b - 1).bit_length())
                by_order.setdefault(p, []).append((s, c0, b))
    for p, members in by_order.items():
        # chunks of at most 2^16 entries bound the transient stack
        step = max(1, (1 << 16) // (p * p))
        for lo in range(0, len(members), step):
            chunk = members[lo:lo + step]
            stack = np.zeros((len(chunk), p, p), dtype=blocks[chunk[0][0]].dtype)
            stack[:, range(p), range(p)] = 1.0
            for i, (s, c0, b) in enumerate(chunk):
                stack[i, :b, :b] = blocks[s][c0:c0 + b, c0:c0 + b]
            inv = lower_inverses(stack, unit=method == "ldlt")
            for i, (s, c0, b) in enumerate(chunk):
                out[s][c0 // SOLVE_BLOCK] = inv[i, :b, :b].copy()
    return out


def assemble_from_a(
    sym: SymbolicFactor, s: int, method: str, dtype: np.dtype = VALUE_DTYPE
) -> np.ndarray:
    """The front of supernode *s* holding its entries of A and nothing
    else: the first half of the front step, before the extend-add. An LU
    front is the full m×m square, a symmetric one its lower triangle.
    *dtype* is the front's working dtype (fp32 for mixed-precision fronts):
    A's entries are rounded once here, and every later operation on the
    front runs in it."""
    if method == "lu":
        return assemble_full_front(sym.front_plan, s, sym.permuted_full.data, dtype=dtype)
    return assemble_front(sym, s, dtype=dtype)


def eliminate_front(
    sym: SymbolicFactor,
    s: int,
    front: np.ndarray,
    method: str,
    perturb_abs: float | None,
    perturbed: list[int],
    rec: SpanRecorder | None = None,
) -> tuple[np.ndarray, np.ndarray | None, np.ndarray | None, np.ndarray | None, int]:
    """Partially factor the fully assembled *front* of supernode *s*: the
    second half of the front step, after the extend-add.

    *perturbed* is the sink list for statically perturbed LDLᵀ / LU pivot
    columns. With a span recorder *rec*, the dense partial factorization
    runs in an ``mf.front`` span with attributes ``supernode``, ``m``,
    ``width`` and ``flops``.

    Returns ``(block, d, u12, update, front_flops)``: the m×w factor panel
    copy, the LDLᵀ pivots and the LU panel U12 (each None for the other
    methods), the Schur update (None when the front has no update rows;
    the strict upper triangle of a symmetric one is unspecified), and the
    dense partial-factorization flop count.
    """
    plan = sym.front_plan
    w = plan.width[s]
    m = plan.order[s]
    if rec is None:
        d, front_flops = partial_factor(front, w, method, perturb_abs, plan.start[s], perturbed)
    else:
        with Span(rec, "mf.front", {"supernode": s, "m": m, "width": w}) as sp:
            d, front_flops = partial_factor(front, w, method, perturb_abs, plan.start[s], perturbed)
        sp.attrs["flops"] = front_flops
    u12 = front[:w, w:].copy() if method == "lu" else None
    block = front[:, :w].copy()
    update = front[w:, w:].copy() if m > w else None
    return block, d, u12, update, front_flops


def multifrontal_factor(
    sym: SymbolicFactor,
    method: str = "cholesky",
    pivot_perturbation: float | None = None,
    precision: str = "fp64",
    pool: TaskPool | None = None,
) -> NumericFactor:
    """Numeric factorization of the matrix held in *sym*.

    Parameters
    ----------
    method
        ``"cholesky"`` (SPD), ``"ldlt"`` (symmetric strongly regular) or
        ``"lu"`` (unsymmetric, static pivoting; *sym* must come from
        :func:`repro.mf.lu.lu_analyze`).
    pivot_perturbation
        LDLᵀ and LU only: static-pivoting threshold relative to the matrix
        scale (``max |A_ii|`` for LDLᵀ, ``max |A_ij|`` for LU). ``None`` =
        raise on zero pivots; a positive value replaces tiny pivots and
        records their columns for the caller to trigger iterative
        refinement.
    precision
        ``"fp64"`` (default) or ``"fp32"``. fp32 halves factor storage and
        bandwidth; pair it with fp64 iterative refinement
        (:func:`repro.mf.refine.iterative_refinement_many`) to recover
        fp64-level accuracy on well-conditioned systems.
    pool
        ``None`` runs the fronts in postorder on the calling thread; a
        :class:`~repro.exec.pool.TaskPool` runs them over the assembly-tree
        task graph on its workers (bitwise the same factor; see the module
        docstring) and leaves its telemetry in ``exec_stats``.
    """
    perturb_abs = pivot_threshold(sym, method, pivot_perturbation)
    lu = method == "lu"
    plan = sym.front_plan
    plan.check_current(sym.permuted_lower)
    stats = stack_accounting(sym)
    wdtype = work_dtype(precision)
    nsn = sym.n_supernodes
    blocks: list[np.ndarray] = [None] * nsn  # type: ignore[list-item]
    diag = np.empty(sym.n, dtype=wdtype) if method == "ldlt" else None
    u12: list[np.ndarray] = [None] * nsn  # type: ignore[list-item]
    flops = [0] * nsn
    #: supernode -> its perturbed pivot columns (fronts that had any)
    perturbed: dict[int, list[int]] = {}
    #: per-supernode update slots: written once by the supernode's step,
    #: consumed (and cleared) once by its parent's step
    updates: list[np.ndarray | None] = [None] * nsn
    # Per-front spans only when a recorder is installed: read once, so the
    # disabled path makes no per-front call.
    rec = current_recorder()

    def step(s: int) -> None:
        """The front step of supernode *s*: its front from A, the
        children's updates added in ascending child order (each slot
        cleared once added, so the update dies), the elimination."""
        front = assemble_from_a(sym, s, method, wdtype)
        for c in sym.sn_children[s]:
            extend_add(front, updates[c], plan.rel[c], lower=not lu)
            updates[c] = None
        cols: list[int] = []
        blocks[s], d, u12[s], update, flops[s] = eliminate_front(
            sym, s, front, method, perturb_abs, cols, rec
        )
        if cols:
            perturbed[s] = cols
        if d is not None:
            c0 = plan.start[s]
            diag[c0: c0 + plan.width[s]] = d
        if update is not None:
            updates[s] = update

    with span(
        "mf.factor", method=method, n=sym.n, supernodes=nsn, precision=precision
    ) as sp:
        if pool is None:
            exec_stats = None
            for s in range(nsn):
                step(s)
        else:
            from repro.exec.tasks import factor_task_graph

            exec_stats = pool.run(factor_task_graph(sym), step)
            sp.set(workers=pool.workers, queue_depth_peak=exec_stats.max_queue_depth)

    leftover = [s for s in range(nsn) if updates[s] is not None]
    if leftover:
        raise InvariantError(f"unconsumed update matrices for supernodes {leftover[:5]}")
    for s in range(nsn):
        m = plan.order[s]
        w = plan.width[s]
        stats.observe_front(m, w, flops[s])
        stats.factor_entries += (2 * m - w) * w if lu else m * w - w * (w - 1) // 2
    return NumericFactor(
        sym=sym,
        method=method,
        blocks=blocks,
        diag=diag,
        stats=stats,
        perturbed_columns=tuple(c for s in sorted(perturbed) for c in perturbed[s]),
        exec_stats=exec_stats,
        precision=precision,
        u12=u12 if lu else None,
    )
