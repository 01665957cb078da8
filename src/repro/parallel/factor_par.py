"""The distributed numeric factorization rank program.

Each rank walks the supernodes it participates in, in ascending (postorder)
order:

* **sequential supernodes** (group of one): the host's front step of
  :mod:`repro.mf.numeric` — assemble from A, extend-add the local and
  remote child contributions, eliminate — charged as one compute region,
  so such a front holds the host factor's bits (the unspecified strict
  upper triangle of a symmetric pivot block aside);
* **distributed supernodes**: 2D block-cyclic blocked right-looking partial
  factorization with pipelined panel broadcasts along grid rows/columns
  (ScaLAPACK-style; 1D degenerates to the MUMPS-like fan-out), then the
  solve-ready redistribution of the panel to row owners.

After a supernode is factored, the ranks holding pieces of its update
matrix immediately pack and send them toward the owners of the parent's
blocks (parallel extend-add); local shares short-circuit the network.

Cholesky, LDLᵀ and static-pivoting LU are kernels of this one program. An
LU front is the full square, assembled through the analysis's LU table;
its distributed step also solves and broadcasts U panels and keeps whole
pivot rows for the solve.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.dense.chol import _trsm_right_lower_transpose
from repro.dense.partial_factor import _trsm_right_unit_lower_transpose
from repro.dense.trsm import solve_unit_lower_inplace
from repro.mf.numeric import assemble_from_a, eliminate_front, partial_factor
from repro.parallel.dist_front import (
    Blocks,
    LocalFront,
    receive_updates,
    send_update,
    seq_blocks,
)
from repro.parallel.plan import FactorPlan
from repro.simmpi.comm import Comm
from repro.simmpi.ops import Compute, Recv, Send


def trsm_flops(rows: int, k: int) -> int:
    """Triangular panel solve flop count (consistent with the dense
    convention: k divisions + 2 madds per remaining element per row)."""
    return rows * k * (k + 1)


def gemm_flops(m: int, n: int, k: int) -> int:
    return 2 * m * n * k


@dataclass
class RankFactorData:
    """Everything one rank keeps after the factorization (its slice of the
    factor plus bookkeeping the driver aggregates)."""

    rank: int
    #: seq supernode -> m×w panel
    seq_panels: dict[int, np.ndarray] = field(default_factory=dict)
    #: seq supernode -> LDLᵀ pivots
    seq_diag: dict[int, np.ndarray] = field(default_factory=dict)
    #: seq supernode -> LU's w×(m-w) panel U12
    seq_u12: dict[int, np.ndarray] = field(default_factory=dict)
    #: seq supernode -> the inverses of its L11's diagonal blocks, bitwise
    #: the host factor's ``diag_inverses[s]`` (None where the host keeps
    #: none); formed by :func:`repro.parallel.driver.simulate_factorization`
    #: once the simulation has run
    seq_inverses: dict[int, list[np.ndarray] | None] = field(default_factory=dict)
    #: dist supernode -> {row_block: rows array}, w wide — except LU's
    #: pivot row blocks, which hold their whole m-wide factor row
    dist_row_panels: dict[int, dict[int, np.ndarray]] = field(default_factory=dict)
    #: dist supernode -> LDLᵀ pivots of the pivot rows this rank owns
    dist_diag: dict[int, dict[int, np.ndarray]] = field(default_factory=dict)
    #: stored factor entries on this rank
    factor_entries: int = 0
    #: peak transient entries (front blocks + pending updates)
    peak_entries: int = 0
    #: flops charged
    flops: float = 0.0
    #: permuted columns whose LDLᵀ / LU pivots were statically perturbed
    perturbed: list[int] = field(default_factory=list)


def make_factor_program(
    plan: FactorPlan, method: str = "cholesky", perturb_abs: float | None = None
):
    """Build the rank program (a generator function for the simulator).

    *perturb_abs* is LDLᵀ / LU's absolute static-pivoting threshold (see
    :func:`repro.mf.numeric.pivot_threshold`); None raises on zero pivots.
    """

    def program(comm: Comm):
        me = comm.world_rank
        data = RankFactorData(rank=me)
        # Child update holdings of this rank, consumed by parents:
        updates: dict[int, Blocks] = {}
        live_entries = 0

        for s in plan.supernodes_for_rank(me):
            step = _seq_step if plan.dist[s].is_seq else _dist_step
            live_entries += yield from step(plan, s, me, method, perturb_abs, data, updates)
            data.peak_entries = max(data.peak_entries, live_entries)
        return data

    return program


# ---------------------------------------------------------------------------
# sequential supernode step
# ---------------------------------------------------------------------------


def _seq_step(plan, s, me, method, perturb_abs, data, updates):
    """The host's front step (:func:`repro.mf.numeric.assemble_from_a`,
    then :func:`repro.mf.numeric.eliminate_front`) around the rank
    program's extend-add, charged as one compute region."""
    d = plan.dist[s]
    m = d.m
    w = d.width
    lu = method == "lu"
    triangle = "full" if lu else "lower"
    front = assemble_from_a(plan.sym, s, method)
    live_delta = m * m

    freed = yield from receive_updates(plan, s, me, seq_blocks(front), updates, triangle)
    live_delta -= freed

    panel, dvals, u12, update, flops = eliminate_front(
        plan.sym, s, front, method, perturb_abs, data.perturbed
    )
    if dvals is not None:
        data.seq_diag[s] = dvals
    # memory traffic: the whole square for LU, the touched lower part else
    mem = m * m if lu else m * w + m * m - (m - w) ** 2
    yield Compute(flops=flops, front_order=m, mem_bytes=8.0 * mem)
    data.flops += flops

    data.seq_panels[s] = panel.copy()
    data.factor_entries += panel.size
    if u12 is not None:
        data.seq_u12[s] = u12.copy()
        data.factor_entries += u12.size
    if update is not None:
        updates[s] = seq_blocks(update)
        live_delta += update.size
        yield from send_update(plan, s, me, updates[s], triangle)
    live_delta -= m * m  # front released (panel accounted in factor entries)
    return live_delta


# ---------------------------------------------------------------------------
# distributed supernode step
# ---------------------------------------------------------------------------


def _dist_step(plan, s, me, method, perturb_abs, data, updates):
    d = plan.dist[s]
    grid = d.grid
    nb = plan.opts.nb
    lu = method == "lu"
    triangle = "full" if lu else "lower"
    myr, myc = grid.coords(me)
    sub = Comm(me, d.group, ctx=("sn", s))
    row_comm = Comm(me, grid.row_members(myr), ctx=("sn", s, "row", myr))
    col_comm = Comm(me, grid.col_members(myc), ctx=("sn", s, "col", myc))

    lf = LocalFront(d, me, lower_only=not lu)
    live_delta = lf.entries
    # The matrix is assumed pre-distributed: each rank holds the entries of
    # the blocks it owns (re-distribution of A is not part of the timed
    # factorization), so assembly is charged as local memory traffic.
    a = plan.sym.permuted_full if lu else plan.sym.permuted_lower
    n_assembled = lf.scatter(plan.scatter(s, triangle), a.data)
    yield Compute(mem_bytes=16.0 * n_assembled)

    freed = yield from receive_updates(plan, s, me, lf.blocks, updates, triangle)
    live_delta -= freed

    # Blocked right-looking partial factorization over pivot block-columns.
    nblocks = d.nblocks
    for k in range(d.npb):
        kb = int(d.starts[k + 1] - d.starts[k])
        kr, kc = k % grid.gr, k % grid.gc
        diag_owner = grid.owner(k, k)
        diag_payload = None
        lkk = diag_d = None
        if me == diag_owner:
            blk = lf.block(k, k)
            c0 = d.c0 + int(d.starts[k])
            diag_d, f = partial_factor(blk, kb, method, perturb_abs, c0, data.perturbed)
            yield Compute(flops=f, front_order=kb)
            data.flops += f
            diag_payload = blk if lu else (blk, diag_d)
        # Diagonal factor broadcast down its grid column (L panel owners);
        # LU's also along its grid row (U panel owners).
        if myc == kc:
            lkk = yield from col_comm.bcast(diag_payload, root=kr)
            if not lu:
                lkk, diag_d = lkk
        if lu and myr == kr:
            lkk = yield from row_comm.bcast(lkk, root=kc)
        # LDLᵀ pivots reach everyone (needed in the trailing update).
        if method == "ldlt":
            diag_d = yield from sub.bcast(diag_d, root=d.group.index(diag_owner))

        # Panel solves on my blocks (i, k), i > k — for LU right-solves with
        # U_kk, the upper triangle of lkk — then LU's U blocks (k, j), j > k,
        # left-solved with unit-lower L_kk.
        panel_flops = 0
        if myc == kc:
            for bi in range(k + 1, nblocks):
                if not lf.owns(bi, k):
                    continue
                pblk = lf.block(bi, k)
                if method == "ldlt":
                    _trsm_right_unit_lower_transpose(lkk, pblk)
                    pblk /= diag_d[None, :]
                else:
                    _trsm_right_lower_transpose(lkk.T if lu else lkk, pblk)
                panel_flops += trsm_flops(pblk.shape[0], kb)
        if lu and myr == kr:
            for bj in range(k + 1, nblocks):
                if lf.owns(k, bj):
                    solve_unit_lower_inplace(lkk, lf.block(k, bj))
                    panel_flops += trsm_flops(lf.block(k, bj).shape[1], kb)
        if panel_flops:
            yield Compute(flops=panel_flops, front_order=nb)
            data.flops += panel_flops

        # Panel broadcasts: L_ik along grid row i, then the right operand
        # along grid column j — Lᵀ from the freshly informed diagonal-row
        # rank (the ScaLAPACK pipeline), or LU's U_kj after all L panels.
        row_l: dict[int, np.ndarray] = {}
        col_r: dict[int, np.ndarray] = {}
        for bi in range(k + 1, nblocks):
            if myr == bi % grid.gr:
                payload = lf.block(bi, k) if myc == kc else None
                row_l[bi] = yield from row_comm.bcast(payload, root=kc)
            if not lu and myc == bi % grid.gc:
                payload = row_l.get(bi) if myr == bi % grid.gr else None
                got = yield from col_comm.bcast(payload, root=bi % grid.gr)
                col_r[bi] = got.T
        if lu:
            for bj in range(k + 1, nblocks):
                if myc == bj % grid.gc:
                    payload = lf.block(k, bj) if myr == kr else None
                    col_r[bj] = yield from col_comm.bcast(payload, root=kr)

        # Trailing update on my blocks (a, b), a > k, b > k.
        upd_flops = 0
        for (a, b), blk in lf.blocks.items():
            if a <= k or b <= k:
                continue
            la = row_l[a]
            if method == "ldlt":
                la = la * diag_d[None, :]
            blk -= la @ col_r[b]
            upd_flops += gemm_flops(blk.shape[0], blk.shape[1], kb)
        if upd_flops:
            yield Compute(flops=upd_flops, front_order=nb)
            data.flops += upd_flops

    # Solve-ready redistribution: gather panel row-blocks to row owners.
    yield from _solve_redistribution(plan, s, me, lf, data, method)

    # Keep the trailing blocks as this rank's share of s's update, send
    # remote shares toward the parent; the panel blocks were copied out by
    # the redistribution.
    held = lf.update_blocks()
    live_delta -= lf.entries - sum(b.size for b in held.values())
    if d.m > d.width:
        updates[s] = held
        yield from send_update(plan, s, me, held, triangle)
    return live_delta


def _solve_redistribution(plan, s, me, lf: LocalFront, data, method):
    """Gather the factored panel's row-blocks onto their solve owners:
    every row block its L columns, LU's pivot row blocks their U columns
    too."""
    d = plan.dist[s]
    grid = d.grid
    lu = method == "lu"

    def kept(bi: int) -> int:
        """Block columns of row block *bi* the solve keeps."""
        if lu:
            return d.nblocks if bi < d.npb else d.npb
        return min(bi + 1, d.npb)

    # Outgoing: my panel blocks grouped by destination row owner.
    outgoing: dict[int, dict[int, list]] = {}
    for (bi, bj), blk in lf.blocks.items():
        if bj >= kept(bi):
            continue
        dest = d.row_owner(bi)
        outgoing.setdefault(dest, {}).setdefault(bi, []).append((bj, blk))
    for dest in sorted(outgoing):
        if dest == me:
            continue
        payload = outgoing[dest]
        nbytes = sum(
            blk.nbytes for blocks in payload.values() for _, blk in blocks
        )
        yield Send(dest, ("sredist", s), payload, nbytes=nbytes + 64)

    # Incoming: assemble full rows for the row blocks I own.
    my_rows = [bi for bi in range(d.nblocks) if d.row_owner(bi) == me]
    assembled: dict[int, np.ndarray] = {}
    expected: set[int] = set()
    for bi in my_rows:
        r0, r1 = d.block_range(bi)
        width = d.m if lu and bi < d.npb else d.width
        assembled[bi] = np.zeros((r1 - r0, width))
        for bj in range(kept(bi)):
            owner = grid.owner(bi, bj)
            if owner != me:
                expected.add(owner)
    # Fill from local blocks.
    local = outgoing.get(me, {})
    for bi, pieces in local.items():
        for bj, blk in pieces:
            c0, c1 = d.block_range(bj)
            assembled[bi][:, c0:c1] = blk
    # Receive the rest (one message per sender).
    for sender in sorted(expected):
        payload = yield Recv(sender, ("sredist", s))
        for bi, pieces in payload.items():
            for bj, blk in pieces:
                c0, c1 = d.block_range(bj)
                assembled[bi][:, c0:c1] = blk

    if assembled:
        data.dist_row_panels[s] = assembled
        data.factor_entries += sum(a.size for a in assembled.values())
        if method == "ldlt":
            diag_map = data.dist_diag.setdefault(s, {})
            for bi in my_rows:
                if bi < d.npb:
                    r0, _ = d.block_range(bi)
                    rows_arr = assembled[bi]
                    # Diagonal entries of the pivot block hold D.
                    local_idx = np.arange(rows_arr.shape[0])
                    diag_map[bi] = rows_arr[local_idx, r0 + local_idx]
