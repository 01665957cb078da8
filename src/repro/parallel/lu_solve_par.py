"""Distributed triangular solves for the LU factor (blocked multi-RHS).

Forward sweep with unit-lower L (fan-in of rhs update vectors up the
assembly tree), backward sweep with upper U (fan-out of solution values).
Row ownership follows the solve-ready layout of
:mod:`repro.parallel.lu_par`: pivot row blocks hold their full factor row
(L left of the diagonal block, packed LU on it, U right of it), update row
blocks hold their L panel rows.
"""

from __future__ import annotations

import numpy as np

from repro.dense.trsm import solve_lower_transpose_inplace, solve_unit_lower_inplace
from repro.parallel.lu_par import RankLUData
from repro.parallel.plan import FactorPlan
from repro.parallel.schedule import SEQ
from repro.parallel.solve_par import (
    Segments,
    front_segments,
    recv_down,
    recv_up,
    send_down,
    send_up,
)
from repro.simmpi.comm import Comm
from repro.simmpi.ops import Compute


def make_lu_solve_program(
    plan: FactorPlan, datas: list[RankLUData], bp: np.ndarray
):
    """Rank program solving ``A x = b`` with the distributed LU factor.

    *bp* may be ``(n,)`` or ``(n, k)`` — the sweeps run blocked over k
    right-hand sides.
    """

    tail = bp.shape[1:]

    def program(comm: Comm):
        me = comm.world_rank
        data = datas[me]
        sym = plan.sym
        my_sns = plan.supernodes_for_rank(me)

        #: forward-solved pivot vectors, per supernode
        fwd_piv: dict[int, np.ndarray] = {}
        #: forward update-row segments, read by the parents' fan-in
        u: dict[int, Segments] = {}
        #: solution segments of whole fronts, read by the children's fan-out
        x: dict[int, Segments] = {}
        #: owned solution pieces: (global rows, values)
        pieces: list[tuple[np.ndarray, np.ndarray]] = []

        # ------------------------------------------------------- forward --

        for s in my_sns:
            d = plan.dist[s]
            rows = sym.sn_rows[s]
            if d.is_seq:
                m, w = rows.size, d.width
                f = np.zeros((m,) + tail)
                f[:w] = bp[rows[:w]]
                yield from recv_up(plan, s, me, {SEQ: f}, u, "lsu")
                lu11, l21, _u12 = data.seq_panels[s]
                piv = f[:w]
                solve_unit_lower_inplace(lu11, piv)
                fwd_piv[s] = piv
                yield Compute(flops=float(w * w + 2 * (m - w) * w), front_order=max(w, 8))
                if m > w:
                    u[s] = {SEQ: f[w:] - l21 @ piv}
                    yield from send_up(plan, s, me, u[s], "lsu")
            else:
                g = len(d.group)
                sub = Comm(me, d.group, ctx=("lslv", s))
                rows_data = data.dist_rows.get(s, {})
                my_blocks = [bi for bi in range(d.nblocks) if d.row_owner(bi) == me]
                f: Segments = {}
                for bi in my_blocks:
                    r0, r1 = d.block_range(bi)
                    seg = np.zeros((r1 - r0,) + tail)
                    if bi < d.npb:
                        seg += bp[rows[r0:r1]]
                    f[bi] = seg
                yield from recv_up(plan, s, me, f, u, "lsu")
                x_full = np.zeros((d.width,) + tail)
                fl = 0.0
                for k in range(d.npb):
                    r0, r1 = d.block_range(k)
                    owner = d.row_owner(k)
                    if owner == me:
                        arr = rows_data[k]
                        seg = f[k]
                        if r0:
                            seg = seg - arr[:, :r0] @ x_full[:r0]
                        diag = arr[:, r0:r1]
                        solve_unit_lower_inplace(diag, seg)
                        fl += (r1 - r0) * (r0 + r1)
                        payload = seg
                    else:
                        payload = None
                    seg = yield from sub.bcast(payload, root=k % g)
                    x_full[r0:r1] = seg
                    if owner == me:
                        f[k] = seg
                if d.npb:
                    yield Compute(flops=fl, front_order=plan.opts.nb)
                fwd_piv[s] = x_full
                for bi in my_blocks:
                    if bi >= d.npb:
                        f[bi] = f[bi] - rows_data[bi] @ x_full
                if d.m > d.width:
                    u[s] = f
                    yield from send_up(plan, s, me, f, "lsu")

        # ------------------------------------------------------ backward --

        for s in reversed(my_sns):
            d = plan.dist[s]
            rows = sym.sn_rows[s]
            if d.is_seq:
                m, w = rows.size, d.width
                lu11, _l21, u12 = data.seq_panels[s]
                xu = np.zeros((m - w,) + tail)
                yield from recv_down(plan, s, me, {SEQ: xu}, x, "lsd")
                rhs = fwd_piv[s].copy()
                if m > w:
                    rhs -= u12 @ xu
                # rhs <- U11^{-1} rhs, U11 the upper triangle of lu11
                solve_lower_transpose_inplace(lu11.T, rhs)
                pieces.append((rows[:w], rhs))
                x[s] = {SEQ: np.concatenate((rhs, xu))}
                yield Compute(flops=float(w * w + 2 * (m - w) * w), front_order=max(w, 8))
                yield from send_down(plan, s, me, x[s], "lsd")
            else:
                g = len(d.group)
                sub = Comm(me, d.group, ctx=("lslvb", s))
                rows_data = data.dist_rows.get(s, {})
                my_blocks = [bi for bi in range(d.nblocks) if d.row_owner(bi) == me]
                mu = d.m - d.width
                xseg: Segments = {}
                for bi in my_blocks:
                    if bi >= d.npb:
                        r0, r1 = d.block_range(bi)
                        xseg[bi] = np.zeros((r1 - r0,) + tail)
                yield from recv_down(plan, s, me, xseg, x, "lsd")
                # Assemble the full update-row solution for the U12 products.
                xu_full = np.zeros((mu,) + tail)
                for bi, seg in xseg.items():
                    r0, _ = d.block_range(bi)
                    xu_full[r0 - d.width: r0 - d.width + seg.shape[0]] = seg
                if g > 1 and mu:
                    xu_full = yield from sub.allreduce(xu_full)
                yvec = fwd_piv[s]
                x_full = np.zeros((d.width,) + tail)
                fl = 0.0
                for k in range(d.npb - 1, -1, -1):
                    r0, r1 = d.block_range(k)
                    owner = d.row_owner(k)
                    if owner == me:
                        arr = rows_data[k]
                        rhs = yvec[r0:r1].copy()
                        if r1 < d.width:
                            rhs -= arr[:, r1: d.width] @ x_full[r1:]
                        if mu:
                            rhs -= arr[:, d.width:] @ xu_full
                        solve_lower_transpose_inplace(arr[:, r0:r1].T, rhs)
                        fl += (r1 - r0) * (d.m - r0)
                        payload = rhs
                    else:
                        payload = None
                    seg = yield from sub.bcast(payload, root=k % g)
                    x_full[r0:r1] = seg
                    if owner == me:
                        pieces.append((rows[r0:r1], seg))
                if d.npb:
                    yield Compute(flops=fl, front_order=plan.opts.nb)
                x[s] = front_segments(d, x_full, xseg)
                yield from send_down(plan, s, me, x[s], "lsd")

        return pieces, 0.0

    return program
