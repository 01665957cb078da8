"""The distributed numeric factorization rank program.

Each rank walks the supernodes it participates in, in ascending (postorder)
order:

* **sequential supernodes** (group of one): assemble, extend-add local and
  remote child contributions, dense partial factorization — charged as one
  compute region;
* **distributed supernodes**: 2D block-cyclic blocked right-looking partial
  factorization with pipelined panel broadcasts along grid rows/columns
  (ScaLAPACK-style; 1D degenerates to the MUMPS-like fan-out), then the
  solve-ready redistribution of the panel to row owners.

After a supernode is factored, the ranks holding pieces of its update
matrix immediately pack and send them toward the owners of the parent's
blocks (parallel extend-add); local shares short-circuit the network.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.dense.chol import cholesky_in_place, _trsm_right_lower_transpose
from repro.dense.ldlt import ldlt_in_place
from repro.dense.partial_factor import partial_cholesky, partial_ldlt, _trsm_right_unit_lower_transpose
from repro.mf.frontal import assemble_front
from repro.obs.profile import active_profile
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
from repro.symbolic.analyze import dense_partial_factor_flops


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
    #: dist supernode -> {row_block: (w-wide rows array)}
    dist_row_panels: dict[int, dict[int, np.ndarray]] = field(default_factory=dict)
    #: dist supernode -> LDLᵀ pivots of the pivot rows this rank owns
    dist_diag: dict[int, dict[int, np.ndarray]] = field(default_factory=dict)
    #: stored factor entries on this rank
    factor_entries: int = 0
    #: peak transient entries (front blocks + pending updates)
    peak_entries: int = 0
    #: flops charged
    flops: float = 0.0


def make_factor_program(plan: FactorPlan, method: str = "cholesky"):
    """Build the rank program (a generator function for the simulator)."""

    def program(comm: Comm):
        me = comm.world_rank
        data = RankFactorData(rank=me)
        # Child update holdings of this rank, consumed by parents:
        updates: dict[int, Blocks] = {}
        live_entries = 0

        def bump_peak() -> None:
            data.peak_entries = max(data.peak_entries, live_entries)

        for s in plan.supernodes_for_rank(me):
            d = plan.dist[s]
            step = _seq_step if d.is_seq else _dist_step
            live_delta = yield from step(plan, s, me, method, data, updates)
            live_entries += live_delta
            bump_peak()
        return data

    return program


# ---------------------------------------------------------------------------
# sequential supernode step
# ---------------------------------------------------------------------------


def _seq_step(plan, s, me, method, data, updates):
    d = plan.dist[s]
    m = d.m
    w = d.width
    front = assemble_front(plan.sym, s)
    live_delta = m * m

    freed = yield from receive_updates(plan, s, me, seq_blocks(front), updates, "lower")
    live_delta -= freed

    flops = dense_partial_factor_flops(m, w)
    if method == "cholesky":
        partial_cholesky(front, w, col_offset=d.c0)
    else:
        dvals = partial_ldlt(front, w, col_offset=d.c0)
        data.seq_diag[s] = dvals
    yield Compute(
        flops=flops, front_order=m, mem_bytes=8.0 * (m * w + m * m - (m - w) ** 2)
    )
    data.flops += flops
    prof = active_profile()
    if prof is not None:
        prof.add_sim_flops(s, flops)

    panel = front[:, :w].copy()
    data.seq_panels[s] = panel
    data.factor_entries += panel.size
    if m > w:
        updates[s] = seq_blocks(front[w:, w:].copy())
        live_delta += (m - w) ** 2
        yield from send_update(plan, s, me, updates[s], "lower")
    live_delta -= m * m  # front released (panel accounted in factor entries)
    return live_delta


# ---------------------------------------------------------------------------
# distributed supernode step
# ---------------------------------------------------------------------------


def _dist_step(plan, s, me, method, data, updates):
    d = plan.dist[s]
    grid = d.grid
    nb = plan.opts.nb
    myr, myc = grid.coords(me)
    sub = Comm(me, d.group, ctx=("sn", s))
    row_comm = Comm(me, grid.row_members(myr), ctx=("sn", s, "row", myr))
    col_comm = Comm(me, grid.col_members(myc), ctx=("sn", s, "col", myc))

    lf = LocalFront(d, me)
    live_delta = lf.entries
    step_flops = 0.0
    # The matrix is assumed pre-distributed: each rank holds the entries of
    # the blocks it owns (re-distribution of A is not part of the timed
    # factorization), so assembly is charged as local memory traffic.
    n_assembled = lf.scatter(plan.scatter(s), plan.sym.permuted_lower.data)
    yield Compute(mem_bytes=16.0 * n_assembled)

    freed = yield from receive_updates(plan, s, me, lf.blocks, updates, "lower")
    live_delta -= freed

    # Blocked right-looking partial factorization over pivot block-columns.
    nblocks = d.nblocks
    for k in range(d.npb):
        kb = int(d.starts[k + 1] - d.starts[k])
        diag_owner = grid.owner(k, k)
        diag_payload = None
        diag_d = None
        if me == diag_owner:
            blk = lf.block(k, k)
            c0 = d.c0 + int(d.starts[k])
            if method == "cholesky":
                cholesky_in_place(blk, col_offset=c0)
            else:
                diag_d = ldlt_in_place(blk, col_offset=c0)
            f = dense_partial_factor_flops(kb, kb)
            yield Compute(flops=f, front_order=kb)
            data.flops += f
            step_flops += f
            diag_payload = (blk, diag_d)
        # Diagonal factor broadcast down its grid column (panel owners).
        if myc == k % grid.gc:
            got = yield from col_comm.bcast(diag_payload, root=k % grid.gr)
            lkk, diag_d = got
        else:
            lkk = None
        # LDLᵀ pivots reach everyone (needed in the trailing update).
        if method == "ldlt":
            diag_d = yield from sub.bcast(
                diag_d, root=d.group.index(diag_owner)
            )
            if me == diag_owner:
                data.dist_diag.setdefault(s, {})

        # Panel solves on my blocks (i, k), i > k.
        panel_flops = 0
        if myc == k % grid.gc:
            for bi in range(k + 1, nblocks):
                if not lf.owns(bi, k):
                    continue
                pblk = lf.block(bi, k)
                if method == "cholesky":
                    _trsm_right_lower_transpose(lkk, pblk)
                else:
                    _trsm_right_unit_lower_transpose(lkk, pblk)
                    pblk /= diag_d[None, :]
                panel_flops += trsm_flops(pblk.shape[0], kb)
        if panel_flops:
            yield Compute(flops=panel_flops, front_order=nb)
            data.flops += panel_flops
            step_flops += panel_flops

        # Panel broadcasts: row-wise (left operand), then column-wise
        # (transposed right operand) from the freshly informed diagonal-row
        # rank — the ScaLAPACK pipeline.
        row_l: dict[int, np.ndarray] = {}
        col_l: dict[int, np.ndarray] = {}
        for bi in range(k + 1, nblocks):
            if myr == bi % grid.gr:
                payload = lf.block(bi, k) if myc == k % grid.gc else None
                row_l[bi] = yield from row_comm.bcast(payload, root=k % grid.gc)
            if myc == bi % grid.gc:
                payload = row_l.get(bi) if myr == bi % grid.gr else None
                col_l[bi] = yield from col_comm.bcast(payload, root=bi % grid.gr)

        # Trailing update on my blocks (a, b) with b > k.
        upd_flops = 0
        for (a, b), blk in lf.blocks.items():
            if b <= k:
                continue
            la = row_l.get(a)
            lb = col_l.get(b)
            if la is None or lb is None:
                # Defensive: ownership implies membership in both bcasts.
                raise AssertionError(
                    f"rank {me} missing panel blocks for update ({a},{b})"
                )
            if method == "cholesky":
                blk -= la @ lb.T
            else:
                blk -= (la * diag_d[None, :]) @ lb.T
            upd_flops += gemm_flops(blk.shape[0], blk.shape[1], kb)
        if upd_flops:
            yield Compute(flops=upd_flops, front_order=nb)
            data.flops += upd_flops
            step_flops += upd_flops

    # Solve-ready redistribution: gather panel row-blocks to row owners.
    yield from _solve_redistribution(plan, s, me, lf, data, method)

    # Keep the trailing blocks as this rank's share of s's update, send
    # remote shares toward the parent.
    has_update = d.m > d.width
    if has_update:
        updates[s] = lf.update_blocks()
        yield from send_update(plan, s, me, updates[s], "lower")
        # Pivot-panel blocks were copied out by the redistribution; drop
        # them from the live count.
        live_delta -= sum(
            b.size for (bi, bj), b in lf.blocks.items() if bj < d.npb
        )
    else:
        live_delta -= lf.entries
    prof = active_profile()
    if prof is not None:
        prof.add_sim_flops(s, step_flops)
    return live_delta


def _solve_redistribution(plan, s, me, lf: LocalFront, data, method):
    """Gather the factored panel's row-blocks onto their solve owners."""
    d = plan.dist[s]
    grid = d.grid
    # Outgoing: my panel blocks grouped by destination row owner.
    outgoing: dict[int, dict[int, list]] = {}
    for (bi, bj), blk in lf.blocks.items():
        if bj >= d.npb:
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
    expected: dict[int, set] = {}
    for bi in my_rows:
        r0, r1 = d.block_range(bi)
        assembled[bi] = np.zeros((r1 - r0, d.width))
        for bj in range(min(bi + 1, d.npb)):
            owner = grid.owner(bi, bj)
            if owner != me:
                expected.setdefault(owner, set()).add(bi)
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
