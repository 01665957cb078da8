"""Distributed supernodal triangular solves.

The solve mirrors the multifrontal structure: right-hand-side "update
vectors" flow up the assembly tree during the forward sweep (fan-in) and
solution values flow back down during the backward sweep (fan-out).

A sequential supernode runs the host's per-front kernels
(:func:`repro.mf.solve_phase.forward_kernel` / ``backward_kernel``).
Distributed supernodes operate on the solve-ready row-block layout produced
at factorization time: row block ``bi`` of a front lives on
``group[bi % g]``. Pivot solves proceed block-by-block with the computed
segment broadcast to the group; update rows are then purely local products,
each the host's stacked gemv (:func:`repro.mf.solve_phase.gemv_columns`).

So each column of a k-column solve is bitwise the solve of that column
alone, at every rank count: the gemvs, the triangular kernels and the
fan-in sums are all per column. The fan-in sums children's updates before
subtracting them, unlike the host sweep, so ``x`` is not the host's bits.

The solve performs ~2 flops per factor entry — far lower arithmetic
intensity than factorization — so its simulated scaling rolls off earlier,
which is exactly the behaviour the paper family reports (bench T5).
"""

from __future__ import annotations

import numpy as np

from repro.mf.solve_phase import backward_kernel, forward_kernel, gemv_columns
from repro.parallel.factor_par import RankFactorData
from repro.parallel.plan import FactorPlan, SupernodeDist
from repro.parallel.schedule import SEQ
from repro.simmpi.comm import Comm
from repro.simmpi.ops import Compute, Recv, Send


# ---------------------------------------------------------------------------
# executors of the compiled solve routes
# ---------------------------------------------------------------------------
#
# A rank's share of a supernode's rhs/solution vector is a dict of row
# segments keyed by row block — ``{SEQ: whole vector}`` for a sequential
# supernode — so the same four functions serve every child/parent mix.

Segments = dict[int, np.ndarray]


def send_up(plan: FactorPlan, s: int, me: int, u: Segments, tag: str):
    """Forward fan-in: send this rank's update-row segments of *s* to the
    parent's row owners (local shares are read by :func:`recv_up`)."""
    if plan.sym.sn_parent[s] < 0:
        return
    sched = plan.schedule(s)
    routes = sched.solve
    cb, rows = sched.child_side
    for _, dest, lo, hi, _ in routes.sending(me):
        if dest != me:
            vals = [u[cb[r]][rows[r]] for r in routes.items[lo:hi].tolist()]
            yield Send(dest, (tag, sched.parent, s), vals, nbytes=_nbytes(vals))


def recv_up(plan: FactorPlan, s: int, me: int, f: Segments, held: dict[int, Segments], tag: str):
    """Accumulate the children's rhs contributions into *f* (this rank's
    row segments of front *s*): local share first, then senders ascending."""
    for c in plan.sym.sn_children[s]:
        sched = plan.schedule(c)
        routes = sched.solve
        pb, rows = sched.parent_side
        for sender, _, lo, hi, _ in routes.receiving(me):
            runs = routes.items[lo:hi].tolist()
            if sender == me:
                cb, crows = sched.child_side
                vals = [held[c][cb[r]][crows[r]] for r in runs]
            else:
                vals = yield Recv(sender, (tag, s, c))
            for r, v in zip(runs, vals):
                f[pb[r]][rows[r]] += v


def send_down(plan: FactorPlan, s: int, me: int, x: Segments, tag: str):
    """Backward fan-out: send the solution values this rank owns in front
    *s* to the row owners of each child's update rows."""
    for c in plan.sym.sn_children[s]:
        sched = plan.schedule(c)
        routes = sched.solve
        pb, rows = sched.parent_side
        for child_owner, _, lo, hi, _ in routes.receiving(me):
            if child_owner != me:
                vals = [x[pb[r]][rows[r]] for r in routes.items[lo:hi].tolist()]
                yield Send(child_owner, (tag, s, c), vals, nbytes=_nbytes(vals))


def recv_down(plan: FactorPlan, s: int, me: int, xu: Segments, held: dict[int, Segments], tag: str):
    """Fill *xu* (this rank's update-row segments of *s*) with the parent's
    solution values, parent-side owners ascending (plain stores into
    disjoint rows, so where the local share falls in that order is moot)."""
    if plan.sym.sn_parent[s] < 0:
        return
    sched = plan.schedule(s)
    routes = sched.solve
    cb, rows = sched.child_side
    for _, parent_owner, lo, hi, _ in routes.sending(me):
        runs = routes.items[lo:hi].tolist()
        if parent_owner == me:
            pb, prows = sched.parent_side
            vals = [held[sched.parent][pb[r]][prows[r]] for r in runs]
        else:
            vals = yield Recv(parent_owner, (tag, sched.parent, s))
        for r, v in zip(runs, vals):
            xu[cb[r]][rows[r]] = v


def front_segments(d: SupernodeDist, x_piv: np.ndarray, xseg: Segments) -> Segments:
    """Solution segments of a distributed front by row block: views of the
    pivot vector (every group member has all of it) plus this rank's
    update-row segments."""
    return {bi: x_piv[slice(*d.block_range(bi))] for bi in range(d.npb)} | xseg


def _nbytes(vals: list[np.ndarray]) -> int:
    """Wire size of rhs segments: 8B values + 4B row indices, per entry."""
    return 12 * sum(v.size for v in vals) + 64


# ---------------------------------------------------------------------------
# the solve rank program
# ---------------------------------------------------------------------------


def make_solve_program(plan: FactorPlan, datas: list[RankFactorData], bp: np.ndarray, method: str):
    """Build the solve rank program.

    Parameters
    ----------
    datas
        Per-rank factor data from the factorization simulation (each rank
        reads only its own entry).
    bp
        Right-hand side in *permuted* order; assumed pre-distributed (each
        rank reads only the entries of rows it owns).
    """

    tail = bp.shape[1:]  # () for one RHS, (k,) for k right-hand sides
    sym = plan.sym
    nb = plan.opts.nb
    lu = method == "lu"

    def program(comm: Comm):
        me = comm.world_rank
        data = datas[me]
        my_sns = plan.supernodes_for_rank(me)
        #: forward-solved pivot vectors, per supernode
        y: dict[int, np.ndarray] = {}
        #: forward update-row segments, read by the parents' fan-in
        u: dict[int, Segments] = {}
        #: solution segments of whole fronts, read by the children's fan-out
        x: dict[int, Segments] = {}
        #: owned solution pieces: (global rows, values)
        pieces: list[tuple[np.ndarray, np.ndarray]] = []
        flops = 0.0
        for s in my_sns:
            fwd = _fwd_seq if plan.dist[s].is_seq else _fwd_dist
            flops += yield from fwd(s, me, data, y, u)
        for s in reversed(my_sns):
            bwd = _bwd_seq if plan.dist[s].is_seq else _bwd_dist_lu if lu else _bwd_dist
            flops += yield from bwd(s, me, data, y, x, pieces)
        return pieces, flops

    def _fwd_seq(s, me, data, y, u):
        d = plan.dist[s]
        rows = sym.sn_rows[s]
        m, w = rows.size, d.width
        f = np.zeros((m,) + tail)
        f[:w] = bp[rows[:w]]
        yield from recv_up(plan, s, me, {SEQ: f}, u, "su")
        upd = forward_kernel(data.seq_panels[s], method, f[:w], data.seq_inverses.get(s))
        y[s] = f[:w]
        fl = float(w * w + 2 * (m - w) * w)
        yield Compute(flops=fl, front_order=max(w, 8))
        if upd is not None:
            u[s] = {SEQ: f[w:] - upd}
            yield from send_up(plan, s, me, u[s], "su")
        return fl

    def _fwd_dist(s, me, data, y, u):
        d = plan.dist[s]
        rows = sym.sn_rows[s]
        g = len(d.group)
        sub = Comm(me, d.group, ctx=("slv", s))
        panels = data.dist_row_panels.get(s, {})
        my_blocks = [bi for bi in range(d.nblocks) if d.row_owner(bi) == me]
        f: Segments = {}
        for bi in my_blocks:
            r0, r1 = d.block_range(bi)
            seg = np.zeros((r1 - r0,) + tail)
            if bi < d.npb:
                seg += bp[rows[r0:r1]]
            f[bi] = seg
        yield from recv_up(plan, s, me, f, u, "su")

        # Pivot block substitution with segment broadcasts.
        x_piv_full = np.zeros((d.width,) + tail)
        fl = 0.0
        for k in range(d.npb):
            r0, r1 = d.block_range(k)
            if d.row_owner(k) == me:
                rowsk = panels[k]  # (r1-r0, w)
                seg = f[k]
                if k > 0:
                    seg = seg - gemv_columns(rowsk[:, :r0], x_piv_full[:r0])
                # a pivot block is the panel of a front with no update rows
                forward_kernel(rowsk[:, r0:r1], method, seg)
                fl += (r1 - r0) * (r0 + r1)
                payload = seg
            else:
                payload = None
            x_piv_full[r0:r1] = yield from sub.bcast(payload, root=k % g)
        if d.npb:
            yield Compute(flops=fl, front_order=nb)
        y[s] = x_piv_full  # full forward-solved pivot vector
        # Update rows: local dgemv per owned block.
        ufl = 0.0
        for bi in my_blocks:
            if bi < d.npb:
                continue
            f[bi] = f[bi] - gemv_columns(panels[bi], x_piv_full)
            ufl += 2.0 * panels[bi].shape[0] * d.width
        if ufl:
            yield Compute(flops=ufl, front_order=nb)
        if d.m > d.width:
            u[s] = f
            yield from send_up(plan, s, me, f, "su")
        return fl + ufl

    def _bwd_seq(s, me, data, y, x, pieces):
        d = plan.dist[s]
        rows = sym.sn_rows[s]
        m, w = rows.size, d.width
        rhs = y[s].copy()
        if method == "ldlt":
            rhs /= data.seq_diag[s].reshape((-1,) + (1,) * len(tail))
        xu = np.zeros((m - w,) + tail)
        yield from recv_down(plan, s, me, {SEQ: xu}, x, "sd")
        fl = float(w * w + 2 * (m - w) * w)
        backward_kernel(
            data.seq_panels[s], data.seq_u12.get(s), method, rhs, xu, data.seq_inverses.get(s)
        )
        pieces.append((rows[:w], rhs))
        x[s] = {SEQ: np.concatenate((rhs, xu))}
        yield Compute(flops=fl, front_order=max(w, 8))
        # Fan x values out to the children.
        yield from send_down(plan, s, me, x[s], "sd")
        return fl

    def _bwd_dist(s, me, data, y, x, pieces):
        d = plan.dist[s]
        rows = sym.sn_rows[s]
        g = len(d.group)
        sub = Comm(me, d.group, ctx=("slvb", s))
        panels = data.dist_row_panels.get(s, {})
        my_blocks = [bi for bi in range(d.nblocks) if d.row_owner(bi) == me]

        # 1. Receive x for my update row blocks from the parent.
        xseg: Segments = {}
        for bi in my_blocks:
            if bi >= d.npb:
                r0, r1 = d.block_range(bi)
                xseg[bi] = np.zeros((r1 - r0,) + tail)
        yield from recv_down(plan, s, me, xseg, x, "sd")

        # 2. Update-row corrections z = L21ᵀ x_update, group-summed.
        z = np.zeros((d.width,) + tail)
        fl = 0.0
        for bi in xseg:
            z += gemv_columns(panels[bi].T, xseg[bi])
            fl += 2.0 * panels[bi].shape[0] * d.width
        if g > 1:
            z = yield from sub.allreduce(z)
        if fl:
            yield Compute(flops=fl, front_order=nb)

        # 3. Pivot backward substitution, descending blocks, with direct
        # correction sends o_j -> o_k (k < j).
        x_piv_full = np.zeros((d.width,) + tail)
        corrections: dict[int, np.ndarray] = {}
        yvec = y[s]
        diag_map = data.dist_diag.get(s, {})
        for k in range(d.npb - 1, -1, -1):
            if d.row_owner(k) != me:
                continue
            r0, r1 = d.block_range(k)
            rhs = yvec[r0:r1].copy()
            if method == "ldlt":
                rhs /= diag_map[k].reshape((-1,) + (1,) * len(tail))
            rhs -= z[r0:r1]
            if k in corrections:
                rhs -= corrections.pop(k)
            # Receive corrections from later pivot-block owners.
            for j in range(d.npb - 1, k, -1):
                if d.row_owner(j) != me:
                    vals = yield Recv(d.row_owner(j), ("bcorr", s, j, k))
                    rhs -= vals
            rowsk = panels[k]
            backward_kernel(rowsk[:, r0:r1], None, method, rhs, None)
            x_piv_full[r0:r1] = rhs
            pieces.append((rows[r0:r1], rhs))
            # Send corrections to earlier pivot owners.
            for kk in range(k):
                rr0, rr1 = d.block_range(kk)
                contrib = gemv_columns(rowsk[:, rr0:rr1].T, rhs)
                tgt = d.row_owner(kk)
                if tgt == me:
                    if kk in corrections:
                        corrections[kk] += contrib
                    else:
                        corrections[kk] = contrib
                else:
                    yield Send(tgt, ("bcorr", s, k, kk), contrib)
            if k:
                yield Compute(flops=2.0 * (r1 - r0) * r0, front_order=nb)
        # Owners hold their pivot segments; an allreduce of the (sparse)
        # full vector — w is small — lets every member serve the children.
        if g > 1:
            x_piv_full = yield from sub.allreduce(x_piv_full)
        x[s] = front_segments(d, x_piv_full, xseg)
        yield from send_down(plan, s, me, x[s], "sd")
        return fl

    def _bwd_dist_lu(s, me, data, y, x, pieces):
        # U's pivot rows are whole on their row owners: allreduce the
        # update-row solution once, then substitute block by block
        # (descending) with segment broadcasts.
        d = plan.dist[s]
        rows = sym.sn_rows[s]
        g = len(d.group)
        sub = Comm(me, d.group, ctx=("slvb", s))
        panels = data.dist_row_panels.get(s, {})
        my_blocks = [bi for bi in range(d.nblocks) if d.row_owner(bi) == me]
        mu = d.m - d.width
        xseg: Segments = {}
        for bi in my_blocks:
            if bi >= d.npb:
                r0, r1 = d.block_range(bi)
                xseg[bi] = np.zeros((r1 - r0,) + tail)
        yield from recv_down(plan, s, me, xseg, x, "sd")
        xu_full = np.zeros((mu,) + tail)
        for bi, seg in xseg.items():
            r0, _ = d.block_range(bi)
            xu_full[r0 - d.width: r0 - d.width + seg.shape[0]] = seg
        if g > 1 and mu:
            xu_full = yield from sub.allreduce(xu_full)
        x_piv_full = np.zeros((d.width,) + tail)
        fl = 0.0
        for k in range(d.npb - 1, -1, -1):
            r0, r1 = d.block_range(k)
            payload = None
            if d.row_owner(k) == me:
                rowsk = panels[k]
                payload = y[s][r0:r1].copy()
                if r1 < d.width:
                    payload -= gemv_columns(rowsk[:, r1: d.width], x_piv_full[r1:])
                if mu:
                    payload -= gemv_columns(rowsk[:, d.width:], xu_full)
                backward_kernel(rowsk[:, r0:r1], None, method, payload, None)
                fl += (r1 - r0) * (d.m - r0)
            x_piv_full[r0:r1] = seg = yield from sub.bcast(payload, root=k % g)
            if d.row_owner(k) == me:
                pieces.append((rows[r0:r1], seg))
        if d.npb:
            yield Compute(flops=fl, front_order=nb)
        x[s] = front_segments(d, x_piv_full, xseg)
        yield from send_down(plan, s, me, x[s], "sd")
        return fl

    return program
