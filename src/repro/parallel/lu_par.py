"""Distributed multifrontal LU (static pivoting) on the simulated machine.

The unsymmetric sibling of :mod:`repro.parallel.factor_par`. Fronts are
*full* matrices distributed 2D block-cyclic over the same
subtree-to-subcube plan (built on the symmetrized pattern, so the symmetric
plan machinery — groups, grids, extend-add runs — carries over directly;
only the lower-triangle restrictions drop away).

Per pivot block column k the communication is actually *simpler* than the
symmetric case: the diagonal LU block broadcasts along both its grid row
and column; L panels (below) broadcast along their grid rows, U panels
(right) along their grid columns; every trailing block (a, b) then updates
locally with ``A_ab -= L_ak U_kb``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.dense.chol import _trsm_right_lower_transpose
from repro.dense.partial_factor import partial_lu
from repro.dense.trsm import solve_unit_lower_inplace
from repro.mf.frontal import assemble_full_front
from repro.parallel.dist_front import (
    Blocks,
    LocalFront,
    receive_updates,
    send_update,
    seq_blocks,
)
from repro.parallel.factor_par import gemm_flops, trsm_flops
from repro.parallel.plan import FactorPlan, PlanOptions
from repro.parallel.schedule import ScatterMap
from repro.simmpi.comm import Comm
from repro.simmpi.ops import Compute, Recv, Send
from repro.symbolic.analyze import SymbolicFactor, dense_partial_factor_flops


@dataclass
class RankLUData:
    """One rank's LU factor pieces after the distributed factorization."""

    rank: int
    #: seq supernode -> (lu11, l21, u12)
    seq_panels: dict[int, tuple[np.ndarray, np.ndarray, np.ndarray]] = field(
        default_factory=dict
    )
    #: dist supernode -> {row_block: full-width row array}
    #: pivot row blocks carry all m columns; update row blocks carry the
    #: leading w (L) columns only.
    dist_rows: dict[int, dict[int, np.ndarray]] = field(default_factory=dict)
    factor_entries: int = 0
    flops: float = 0.0
    perturbed: list[int] = field(default_factory=list)


def ea_pairs_full(plan: FactorPlan, c: int) -> set[tuple[int, int]]:
    """(sender, dest) pairs of the *full* (both-triangle) extend-add."""
    return plan.ea_pairs(c, triangle="full")


# ---------------------------------------------------------------------------
# the LU factor program
# ---------------------------------------------------------------------------


def make_lu_factor_program(
    plan: FactorPlan,
    permuted_full,
    pivot_perturbation: float | None = None,
):
    """Rank program for the distributed LU factorization.

    *permuted_full* is the matrix of the LU analysis ``plan.sym``: both
    step kinds assemble its entries through the analysis's LU table
    (:attr:`repro.symbolic.front_plan.FrontPlan.full_pos`).
    """
    a_data = permuted_full.data
    perturb_abs = None
    if pivot_perturbation is not None:
        scale = float(np.max(np.abs(a_data), initial=0.0))
        perturb_abs = pivot_perturbation * max(scale, 1.0)

    # supernode -> scatter map of its entries; compiled once, shared by the
    # group's ranks.
    scatter: dict[int, ScatterMap] = {}

    def program(comm: Comm):
        me = comm.world_rank
        data = RankLUData(rank=me)
        updates: dict[int, Blocks] = {}
        for s in plan.supernodes_for_rank(me):
            if plan.dist[s].is_seq:
                yield from _seq_lu_step(plan, s, me, data, updates, a_data, perturb_abs)
            else:
                if s not in scatter:
                    scatter[s] = _lu_scatter_map(plan, s)
                yield from _dist_lu_step(
                    plan, s, me, data, updates, scatter[s], a_data, perturb_abs
                )
        return data

    return program


def _seq_lu_step(plan, s, me, data, updates, a_data, perturb_abs):
    d = plan.dist[s]
    m, w = d.m, d.width
    front = assemble_full_front(plan.sym.front_plan, s, a_data)
    yield from receive_updates(plan, s, me, seq_blocks(front), updates, "full")
    partial_lu(front, w, perturb_abs, d.c0, data.perturbed)
    flops = 2 * dense_partial_factor_flops(m, w)
    yield Compute(flops=flops, front_order=m, mem_bytes=8.0 * m * m)
    data.flops += flops
    data.seq_panels[s] = (
        front[:w, :w].copy(),
        front[w:, :w].copy(),
        front[:w, w:].copy(),
    )
    data.factor_entries += w * w + 2 * (m - w) * w
    if m > w:
        updates[s] = seq_blocks(front[w:, w:].copy())
        yield from send_update(plan, s, me, updates[s], "full")


def _dist_lu_step(plan, s, me, data, updates, scatter, a_data, perturb_abs):
    d = plan.dist[s]
    grid = d.grid
    nb = plan.opts.nb
    myr, myc = grid.coords(me)
    row_comm = Comm(me, grid.row_members(myr), ctx=("lsn", s, "row", myr))
    col_comm = Comm(me, grid.col_members(myc), ctx=("lsn", s, "col", myc))

    lf = LocalFront(d, me, lower_only=False)
    n_assembled = lf.scatter(scatter, a_data)
    yield Compute(mem_bytes=16.0 * n_assembled)

    yield from receive_updates(plan, s, me, lf.blocks, updates, "full")

    nblocks = d.nblocks
    for k in range(d.npb):
        kb = int(d.starts[k + 1] - d.starts[k])
        diag_owner = grid.owner(k, k)
        payload = None
        if me == diag_owner:
            blk = lf.block(k, k)
            partial_lu(blk, kb, perturb_abs, d.c0 + int(d.starts[k]), data.perturbed)
            f = 2 * dense_partial_factor_flops(kb, kb)
            yield Compute(flops=f, front_order=kb)
            data.flops += f
            payload = blk
        # Diagonal LU block to its column (for L panels) and row (for U).
        lukk = None
        if myc == k % grid.gc:
            lukk = yield from col_comm.bcast(payload, root=k % grid.gr)
        if myr == k % grid.gr:
            lukk = yield from row_comm.bcast(
                payload if me == diag_owner else (lukk if myc == k % grid.gc else None),
                root=k % grid.gc,
            )

        # L panels: blocks (i, k), i > k — right-solve with U_kk.
        pf = 0
        if myc == k % grid.gc:
            for bi in range(k + 1, nblocks):
                if lf.owns(bi, k):
                    # B <- B U_kk^{-1}, U_kk the upper triangle of the block
                    _trsm_right_lower_transpose(lukk.T, lf.block(bi, k))
                    pf += trsm_flops(lf.block(bi, k).shape[0], kb)
        # U panels: blocks (k, j), j > k — left-solve with unit L_kk.
        if myr == k % grid.gr:
            for bj in range(k + 1, nblocks):
                if lf.owns(k, bj):
                    solve_unit_lower_inplace(lukk, lf.block(k, bj))
                    pf += trsm_flops(lf.block(k, bj).shape[1], kb)
        if pf:
            yield Compute(flops=pf, front_order=nb)
            data.flops += pf

        # Panel broadcasts: L_ik along grid row i, U_kj along grid col j.
        row_l: dict[int, np.ndarray] = {}
        col_u: dict[int, np.ndarray] = {}
        for bi in range(k + 1, nblocks):
            if myr == bi % grid.gr:
                pay = lf.block(bi, k) if myc == k % grid.gc else None
                row_l[bi] = yield from row_comm.bcast(pay, root=k % grid.gc)
        for bj in range(k + 1, nblocks):
            if myc == bj % grid.gc:
                pay = lf.block(k, bj) if myr == k % grid.gr else None
                col_u[bj] = yield from col_comm.bcast(pay, root=k % grid.gr)

        # Trailing update on all owned blocks (a, b), a > k, b > k.
        uf = 0
        for (a, b), blk in lf.blocks.items():
            if a <= k or b <= k:
                continue
            blk -= row_l[a] @ col_u[b]
            uf += gemm_flops(blk.shape[0], blk.shape[1], kb)
        if uf:
            yield Compute(flops=uf, front_order=nb)
            data.flops += uf

    yield from _lu_solve_redistribution(plan, s, me, lf, data)
    if d.m > d.width:
        updates[s] = lf.update_blocks()
        yield from send_update(plan, s, me, updates[s], "full")


def _lu_scatter_map(plan, s) -> ScatterMap:
    """Scatter map of distributed supernode *s*: the entries of its pivot
    rows and columns, read off the LU analysis's assembly table."""
    fp = plan.sym.front_plan
    lo, hi = fp.full_ptr[s], fp.full_ptr[s + 1]
    row, col = np.divmod(fp.full_pos[lo:hi], fp.order[s])
    return ScatterMap(plan.dist[s], fp.full_src[lo:hi], row, col)


def _lu_solve_redistribution(plan, s, me, lf: LocalFront, data):
    """Gather per-row data onto row owners: pivot rows full-width, update
    rows L-width."""
    d = plan.dist[s]
    grid = d.grid
    outgoing: dict[int, dict[int, list]] = {}
    for (bi, bj), blk in lf.blocks.items():
        keep = bj < d.npb or bi < d.npb
        if not keep:
            continue
        if bi >= d.npb and bj >= d.npb:
            continue
        dest = d.row_owner(bi)
        outgoing.setdefault(dest, {}).setdefault(bi, []).append((bj, blk))
    for dest in sorted(outgoing):
        if dest == me:
            continue
        payload = outgoing[dest]
        nbytes = sum(b.nbytes for pieces in payload.values() for _, b in pieces)
        yield Send(dest, ("lredist", s), payload, nbytes=nbytes + 64)

    my_rows = [bi for bi in range(d.nblocks) if d.row_owner(bi) == me]
    assembled: dict[int, np.ndarray] = {}
    expected: set[int] = set()
    for bi in my_rows:
        r0, r1 = d.block_range(bi)
        width = d.m if bi < d.npb else d.width
        assembled[bi] = np.zeros((r1 - r0, width))
        bj_range = range(d.nblocks) if bi < d.npb else range(d.npb)
        for bj in bj_range:
            owner = grid.owner(bi, bj)
            if owner != me:
                expected.add(owner)
    local = outgoing.get(me, {})

    def place(bi, bj, blk):
        if bi >= d.npb and bj >= d.npb:
            return
        c0, c1 = d.block_range(bj)
        assembled[bi][:, c0:c1] = blk

    for bi, pieces in local.items():
        for bj, blk in pieces:
            place(bi, bj, blk)
    for sender in sorted(expected):
        payload = yield Recv(sender, ("lredist", s))
        for bi, pieces in payload.items():
            for bj, blk in pieces:
                place(bi, bj, blk)
    if assembled:
        data.dist_rows[s] = assembled
        data.factor_entries += sum(a.size for a in assembled.values())


# ---------------------------------------------------------------------------
# drivers
# ---------------------------------------------------------------------------


@dataclass
class ParallelLUResult:
    """Outcome of one simulated distributed LU factorization."""

    plan: FactorPlan
    sim: object
    datas: list[RankLUData]
    machine: object
    permuted_full: object

    @property
    def makespan(self) -> float:
        return self.sim.makespan

    @property
    def total_flops(self) -> float:
        return sum(d.flops for d in self.datas)

    def to_dense_lu(self) -> tuple[np.ndarray, np.ndarray]:
        """Reassemble dense (L, U) from the rank pieces (tests)."""
        sym = self.plan.sym
        n = sym.n
        l = np.eye(n)
        u = np.zeros((n, n))
        for data in self.datas:
            for s, (lu11, l21, u12) in data.seq_panels.items():
                rows = sym.sn_rows[s]
                w = sym.supernode_width(s)
                c0 = int(sym.partition.sn_start[s])
                cols = np.arange(c0, c0 + w)
                l[np.ix_(cols, cols)] = np.tril(lu11, -1) + np.eye(w)
                u[np.ix_(cols, cols)] = np.triu(lu11)
                if rows.size > w:
                    l[np.ix_(rows[w:], cols)] = l21
                    u[np.ix_(cols, rows[w:])] = u12
            for s, segs in data.dist_rows.items():
                d = self.plan.dist[s]
                rows = sym.sn_rows[s]
                c0 = int(sym.partition.sn_start[s])
                w = d.width
                for bi, arr in segs.items():
                    r0, r1 = d.block_range(bi)
                    for li, r in enumerate(range(r0, r1)):
                        gr_ = rows[r]
                        if bi < d.npb:
                            # full factor row: L strictly left, U from diag.
                            l[gr_, c0: c0 + r] = arr[li, :r]
                            u[gr_, rows] = 0.0
                            u[gr_, rows[r:]] = arr[li, r:]
                        else:
                            l[gr_, c0: c0 + w] = arr[li, :w]
        return l, u


def simulate_lu_factorization(
    sym: SymbolicFactor,
    permuted_full,
    n_ranks: int,
    machine,
    options: PlanOptions | None = None,
    pivot_perturbation: float | None = None,
) -> ParallelLUResult:
    """Run the distributed LU factorization on the simulated machine."""
    from repro.simmpi.scheduler import Simulator

    plan = FactorPlan(sym, n_ranks, options)
    program = make_lu_factor_program(
        plan, permuted_full, pivot_perturbation=pivot_perturbation
    )
    sim = Simulator(machine, n_ranks).run(program)
    return ParallelLUResult(
        plan=plan,
        sim=sim,
        datas=list(sim.returns),
        machine=machine,
        permuted_full=permuted_full,
    )


def simulate_lu_solve(result: ParallelLUResult, b: np.ndarray):
    """Distributed LU solve for one RHS (original ordering)."""
    from repro.parallel.lu_solve_par import make_lu_solve_program
    from repro.simmpi.scheduler import Simulator
    from repro.sparse.permute import permute_vector, unpermute_vector
    from repro.util.errors import ShapeError
    from repro.util.validation import as_float_array

    b = as_float_array(b, "b")
    sym = result.plan.sym
    if b.shape[0] != sym.n or b.ndim > 2:
        raise ShapeError(
            f"b must have shape ({sym.n},) or ({sym.n}, k); got {b.shape}"
        )
    bp = permute_vector(b, sym.perm)
    program = make_lu_solve_program(result.plan, result.datas, bp)
    sim = Simulator(result.machine, result.plan.n_ranks).run(program)
    xp = np.zeros(b.shape)
    seen = np.zeros(sym.n, dtype=bool)
    for pieces, _ in sim.returns:
        for rows, vals in pieces:
            xp[rows] = vals
            seen[rows] = True
    if not seen.all():
        raise ShapeError(
            f"LU solve left {int((~seen).sum())} rows unsolved"
        )
    return sim, unpermute_vector(xp, sym.perm)
