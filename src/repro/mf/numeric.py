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

from collections.abc import Sequence
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
from repro.symbolic.front_plan import FrontClasses
from repro.util.errors import InvariantError, ShapeError
from repro.util.validation import VALUE_DTYPE, work_dtype

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.exec.pool import PoolStats, TaskPool


class ClassSlots(Sequence):
    """Per supernode, its slot in its front class's stack, as a view made
    on access: a factor holds one object per class, none per supernode.

    An entry of *stacks* is one class's stack, the list of its stacks of
    diagonal-block inverses (a slot is then the list of their views), or
    None (no slot)."""

    def __init__(self, stacks: list, classes: FrontClasses) -> None:
        self.stacks, self.of, self.slot = stacks, classes.of, classes.slot

    def __len__(self) -> int:
        return int(self.of.size)

    def __getitem__(self, s):
        if isinstance(s, slice):
            return [self[i] for i in range(*s.indices(len(self)))]
        stack, i = self.stacks[self.of[s]], self.slot[s]
        if stack is None:
            return None
        return [x[i] for x in stack] if isinstance(stack, list) else stack[i]


@dataclass
class NumericFactor:
    """The computed factor.

    ``blocks[s]`` is the m×w panel [L11; L21] of supernode s (for LDLᵀ,
    unit-lower L11 with D on its diagonal and L21 already D-scaled; for LU,
    unit-lower L11 with U11 on and above its diagonal). ``diag`` holds the
    LDLᵀ pivots and ``u12`` the LU panels right of the pivot block (None
    otherwise).

    The panels are stored class by class (``sym.front_plan.classes``):
    ``block_stacks[c]`` holds the panels of class c's members as one
    ``(k, m, w)`` array, and ``blocks[s]`` is a view of its member's slot
    (:class:`ClassSlots`), so the class sweeps of
    :mod:`repro.mf.solve_phase` run on the stacks without copying L.
    ``u12`` views ``u12_stacks`` and ``diag_inverses`` views
    ``inverse_stacks`` the same way. A factor built from a list of
    separate panels copies them into stacks on construction.
    """

    sym: SymbolicFactor
    method: str
    blocks: Sequence[np.ndarray]
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
    u12: Sequence[np.ndarray] | None = None
    #: per front class: its members' panels, ``(k, m, w)``
    block_stacks: list[np.ndarray] | None = field(default=None, repr=False)
    #: LU only: per front class its members' U12 panels, ``(k, w, m − w)``
    u12_stacks: list[np.ndarray] | None = field(default=None, repr=False)
    #: per front class the inverses of the
    #: :data:`~repro.dense.chol.SOLVE_BLOCK`-wide diagonal blocks of its
    #: members' (unit, for LDLᵀ) L11, one ``(k, b, b)`` stack per block, on
    #: which the triangular sweeps run one gemv per block; None for LU and
    #: for pivot blocks narrower than
    #: :data:`~repro.dense.chol.LAPACK_MIN_PIVOTS`, which the column
    #: kernels solve. Formed from the panels when the factor is built
    #: (:func:`diagonal_inverses`). They hold Σ b² entries over the blocks
    #: of order b, on top of ``stats.factor_entries``, which counts L
    #: only: 117 k entries (+10.5 % of ``nnz_stored``) on cube 20³, 56 k
    #: (+14 %) on cube 16³, 36 k (+29 %) on plate 64².
    inverse_stacks: list[list[np.ndarray] | None] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        classes = self.sym.front_plan.classes
        if self.block_stacks is None:
            self.block_stacks = class_stacks(classes, self.blocks)
        self.blocks = ClassSlots(self.block_stacks, classes)
        if self.u12_stacks is None and self.u12 is not None:
            self.u12_stacks = class_stacks(classes, self.u12)
        if self.u12_stacks is not None:
            self.u12 = ClassSlots(self.u12_stacks, classes)
        self.inverse_stacks = diagonal_inverses(self.block_stacks, self.method)

    @property
    def diag_inverses(self) -> ClassSlots:
        """Per supernode the views of its slots in ``inverse_stacks``: a
        list with one inverse per diagonal block, or None."""
        return ClassSlots(self.inverse_stacks, self.sym.front_plan.classes)

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


def class_stacks(classes: FrontClasses, panels: Sequence[np.ndarray]) -> list[np.ndarray]:
    """*panels* (one per supernode) copied into one stack per front class."""
    ptr, members = classes.ptr.tolist(), classes.members.tolist()
    return [np.stack([panels[s] for s in members[lo:hi]]) for lo, hi in zip(ptr[:-1], ptr[1:])]


def diagonal_inverses(
    panels: list[np.ndarray], method: str
) -> list[list[np.ndarray] | None]:
    """Per factor panel — an m×w panel or a stack ``(k, m, w)`` of them —
    the inverses of the :data:`SOLVE_BLOCK`-wide diagonal blocks of its
    pivot block (unit-lower for LDLᵀ), one array per block, ``(b, b)`` or
    ``(k, b, b)``: None for LU and below :data:`LAPACK_MIN_PIVOTS` columns.

    All blocks are inverted together by :func:`~repro.dense.trsm.lower_inverses`,
    each padded with the identity to the next power of two (at most
    :data:`SOLVE_BLOCK`): one call per padded order, so a factor pays about
    4 + 8 + 16 + 32 Python steps for its inverses, not Σ w over its fronts.
    The padding rows and columns never reach a block's own entries, and
    the substitution is elementwise, so each inverse has the bits it would
    have alone: the simulator, which inverts a different set of blocks
    (every rank's sequential fronts, one panel each) in one call, holds
    the host's inverses.
    """
    out: list[list[np.ndarray] | None] = [None] * len(panels)
    if method == "lu":
        return out
    #: padded order -> (panel, first column, order) of its blocks
    by_order: dict[int, list[tuple[int, int, int]]] = {}
    for e, panel in enumerate(panels):
        w = panel.shape[-1]
        if w >= LAPACK_MIN_PIVOTS:
            out[e] = [None] * -(-w // SOLVE_BLOCK)
            for c0 in range(0, w, SOLVE_BLOCK):
                b = min(SOLVE_BLOCK, w - c0)
                p = min(SOLVE_BLOCK, 1 << (b - 1).bit_length())
                by_order.setdefault(p, []).append((e, c0, b))
    #: inverses per panel: 1, or the stack's k
    count = [panel.shape[0] if panel.ndim == 3 else 1 for panel in panels]
    for p, blocks in by_order.items():
        # chunks of about 2^16 entries bound the transient stack
        cap, lo, size = max(1, (1 << 16) // (p * p)), 0, 0
        for hi, (e, _, _) in enumerate(blocks, 1):
            size += count[e]
            if size >= cap or hi == len(blocks):
                _invert(panels, out, count, blocks[lo:hi], size, p, method == "ldlt")
                lo, size = hi, 0
    return out


def _invert(panels, out, count, blocks, size, p, unit) -> None:
    """Invert the diagonal *blocks* ``(panel, first column, order)`` of
    *panels* in one identity-padded ``(size, p, p)`` stack, into their
    slots of *out*."""
    stack = np.zeros((size, p, p), dtype=panels[blocks[0][0]].dtype)
    stack[:, range(p), range(p)] = 1.0
    at = 0
    for e, c0, b in blocks:
        stack[at:at + count[e], :b, :b] = panels[e][..., c0:c0 + b, c0:c0 + b]
        at += count[e]
    inv = lower_inverses(stack, unit=unit)
    at = 0
    for e, c0, b in blocks:
        dest = inv[at:at + count[e], :b, :b].reshape(panels[e].shape[:-2] + (b, b))
        out[e][c0 // SOLVE_BLOCK] = dest.copy()
        at += count[e]


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

    Returns ``(block, d, u12, update, front_flops)``: the m×w factor panel,
    the LDLᵀ pivots and the LU panel U12 (each None for the other
    methods), the Schur update (None when the front has no update rows;
    the strict upper triangle of a symmetric one is unspecified), and the
    dense partial-factorization flop count. The panel and U12 are views
    of *front*, which the caller copies where it keeps them; the update
    is a copy.
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
    u12 = front[:w, w:] if method == "lu" else None
    block = front[:, :w]
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
    # Each panel is copied straight into its slot of its class's stack. A
    # stack is allocated when its first member is done (all of them up
    # front for the pool, whose steps must not race to allocate one), so
    # the factor grows as the fronts it reuses the memory of are freed.
    classes = plan.classes
    block_stacks: list[np.ndarray | None] = [None] * len(classes)
    u12_stacks: list[np.ndarray | None] | None = [None] * len(classes) if lu else None
    size = np.diff(classes.ptr).tolist()
    class_of, class_slot = classes.of.tolist(), classes.slot.tolist()
    diag = np.empty(sym.n, dtype=wdtype) if method == "ldlt" else None
    flops = [0] * nsn

    def stack(stacks: list[np.ndarray | None], c: int, shape: tuple[int, int]) -> np.ndarray:
        """Class *c*'s stack of panels of *shape*, allocated at first use."""
        if stacks[c] is None:
            stacks[c] = np.empty((size[c],) + shape, dtype=wdtype)
        return stacks[c]

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
        block, d, u12_panel, update, flops[s] = eliminate_front(
            sym, s, front, method, perturb_abs, cols, rec
        )
        c, i = class_of[s], class_slot[s]
        if block_stacks[c] is None and size[c] == 1 and block.flags.c_contiguous:
            # a lone root's panel is its whole front: the front is kept
            block_stacks[c] = block[None]
        else:
            stack(block_stacks, c, block.shape)[i] = block
        if u12_stacks is not None:
            stack(u12_stacks, c, u12_panel.shape)[i] = u12_panel
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

            for c, (m, w) in enumerate(zip(classes.order.tolist(), classes.width.tolist())):
                stack(block_stacks, c, (m, w))
                if u12_stacks is not None:
                    stack(u12_stacks, c, (w, m - w))
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
        blocks=ClassSlots(block_stacks, classes),
        diag=diag,
        stats=stats,
        perturbed_columns=tuple(c for s in sorted(perturbed) for c in perturbed[s]),
        exec_stats=exec_stats,
        precision=precision,
        block_stacks=block_stacks,
        u12_stacks=u12_stacks,
    )
