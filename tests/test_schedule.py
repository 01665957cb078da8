"""Property tests of the compiled communication schedule.

The brute-force definitions the rank programs used to re-derive on every
call are kept here as the reference: the compiled tables must name the same
(sender, dest) pairs, move every update entry exactly once to the place the
per-entry definition puts it, and scatter every matrix entry exactly once.
"""

import functools

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.core import ParallelConfig, SparseSolver
from repro.gen import (
    convection_diffusion2d,
    grid2d_9pt,
    grid2d_laplacian,
    grid3d_laplacian,
)
from repro.graph import AdjacencyGraph
from repro.machine import GENERIC_CLUSTER
from repro.ordering import nested_dissection_order
from repro.parallel import FactorPlan, PlanOptions
from repro.sparse.ops import matvec_csc, tril
from repro.symbolic import analyze

MESHES = {
    "grid2d_6": lambda: grid2d_laplacian(6),
    "grid2d_9pt_7": lambda: grid2d_9pt(7),
    "grid3d_4": lambda: grid3d_laplacian(4),
    "grid3d_5": lambda: grid3d_laplacian(5),
}


@functools.lru_cache(maxsize=None)
def sym_for(mesh):
    lower = MESHES[mesh]()
    return analyze(lower, nested_dissection_order(AdjacencyGraph.from_symmetric_lower(lower)))


plans = st.builds(
    lambda mesh, p, policy, nb: FactorPlan(
        sym_for(mesh), p, PlanOptions(nb=nb, policy=policy, static_small_front=12)
    ),
    st.sampled_from(sorted(MESHES)),
    st.sampled_from([1, 2, 3, 4, 6, 8, 16]),
    st.sampled_from(["2d", "1d", "static"]),
    st.sampled_from([2, 3, 8, 48]),
)


def children(plan):
    return [c for c in range(plan.sym.n_supernodes) if plan.sym.sn_parent[c] >= 0]


# -- the brute-force reference ------------------------------------------------


def ref_runs(plan, c):
    sym = plan.sym
    dc, dp = plan.dist[c], plan.dist[int(sym.sn_parent[c])]
    wc = sym.supernode_width(c)
    mu = sym.front_size(c) - wc
    pa = np.searchsorted(sym.sn_rows[int(sym.sn_parent[c])], sym.sn_rows[c][wc:])
    cb = [-1 if dc.is_seq else int(dc.block_of(wc + i)) for i in range(mu)]
    pb = [-1 if dp.is_seq else int(dp.block_of(pa[i])) for i in range(mu)]
    runs, i = [], 0
    while i < mu:
        j = i + 1
        while j < mu and cb[j] == cb[i] and pb[j] == pb[i]:
            j += 1
        runs.append((i, j, cb[i], pb[i]))
        i = j
    return runs


def block_owner(d, bi, bj):
    return d.group[0] if d.is_seq else d.grid.owner(bi, bj)


def ref_ea_pairs(plan, c, full):
    dc, dp = plan.dist[c], plan.dist[int(plan.sym.sn_parent[c])]
    runs = ref_runs(plan, c)
    return {
        (block_owner(dc, cba, cbb), block_owner(dp, pba, pbb))
        for a, (_, _, cba, pba) in enumerate(runs)
        for (_, _, cbb, pbb) in (runs if full else runs[: a + 1])
    }


def ref_solve_pairs(plan, c):
    dc, dp = plan.dist[c], plan.dist[int(plan.sym.sn_parent[c])]
    return {
        (
            dc.group[0] if dc.is_seq else dc.row_owner(cb),
            dp.group[0] if dp.is_seq else dp.row_owner(pb),
        )
        for _, _, cb, pb in ref_runs(plan, c)
    }


# -- properties ---------------------------------------------------------------


@settings(max_examples=40, deadline=None)
@given(plans)
def test_pair_sets_match_brute_force(plan):
    for c in children(plan):
        sched = plan.schedule(c)
        assert [tuple(r) for r in sched.runs.tolist()] == ref_runs(plan, c)
        assert sched.ea("lower").pairs() == ref_ea_pairs(plan, c, full=False)
        assert sched.ea("full").pairs() == ref_ea_pairs(plan, c, full=True)
        assert sched.solve.pairs() == ref_solve_pairs(plan, c)


def front_rows(d, block, sel):
    """Front-local rows of *sel* inside *block* of supernode dist *d*."""
    local = np.arange(sel.start, sel.stop) if isinstance(sel, slice) else np.asarray(sel)
    return local if d.is_seq else local + int(d.starts[block])


@settings(max_examples=40, deadline=None)
@given(plans, st.sampled_from(["lower", "full"]))
def test_rectangles_tile_the_update_exactly_once(plan, triangle):
    sym = plan.sym
    for c in children(plan):
        sched = plan.schedule(c)
        dc, dp = plan.dist[c], plan.dist[sched.parent]
        wc = dc.width
        mu = dc.m - wc
        pa = sym.front_plan.rel[c]
        (cb, crows), (pb, prows) = sched.child_side, sched.parent_side
        covered = np.zeros((mu, mu), dtype=int)
        routes = sched.ea(triangle)
        seen_groups = set()
        for sender, dest, lo, hi, count in routes.groups.tolist():
            assert (sender, dest) not in seen_groups
            seen_groups.add((sender, dest))
            n_entries = 0
            for a, b in routes.items[lo:hi].tolist():
                assert sender == block_owner(dc, cb[a], cb[b])
                assert dest == block_owner(dp, pb[a], pb[b])
                # Child side: update-local rows/cols the rectangle reads.
                ia = front_rows(dc, cb[a], crows[a]) - (0 if dc.is_seq else wc)
                ib = front_rows(dc, cb[b], crows[b]) - (0 if dc.is_seq else wc)
                # Parent side: the front positions it lands on are exactly
                # the parent positions of those rows.
                np.testing.assert_array_equal(front_rows(dp, pb[a], prows[a]), pa[ia])
                np.testing.assert_array_equal(front_rows(dp, pb[b], prows[b]), pa[ib])
                piece = np.ones((ia.size, ib.size), dtype=int)
                if triangle == "lower" and a == b:
                    piece = np.tril(piece)
                covered[np.ix_(ia, ib)] += piece
                n_entries += int(piece.sum())
            assert n_entries == count
        want = np.ones((mu, mu), dtype=int)
        np.testing.assert_array_equal(covered, np.tril(want) if triangle == "lower" else want)
        # Solve routes: every update row moves exactly once.
        rows_moved = np.zeros(mu, dtype=int)
        for sender, dest, lo, hi, count in sched.solve.groups.tolist():
            runs = sched.runs[sched.solve.items[lo:hi]].tolist()
            assert count == sum(i1 - i0 for i0, i1, _, _ in runs)
            for i0, i1, _, _ in runs:
                rows_moved[i0:i1] += 1
        assert (rows_moved == 1).all()
        assert sym.sn_rows[sched.parent][pa].tolist() == sym.sn_rows[c][wc:].tolist()


@settings(max_examples=40, deadline=None)
@given(plans)
def test_scatter_map_covers_every_lower_entry_once(plan):
    sym = plan.sym
    a = sym.permuted_lower
    for s in plan.mapping.dist_supernodes:
        d = plan.dist[s]
        smap = plan.scatter(s)
        lo, hi = int(a.indptr[d.c0]), int(a.indptr[d.c0 + d.width])
        assert sorted(smap.src.tolist()) == list(range(lo, hi))
        col_of = np.repeat(np.arange(a.shape[1]), np.diff(a.indptr))
        owned = 0
        for rank in d.group:
            for bi, bj, g0, g1 in smap.owned_by(rank):
                assert rank == d.grid.owner(bi, bj)
                src = smap.src[g0:g1]
                rows = sym.sn_rows[s][smap.row[g0:g1] + int(d.starts[bi])]
                cols = d.c0 + smap.col[g0:g1] + int(d.starts[bj])
                np.testing.assert_array_equal(rows, a.indices[src])
                np.testing.assert_array_equal(cols, col_of[src])
                owned += g1 - g0
        assert owned == hi - lo


def test_empty_scatter_side_of_a_triangular_matrix():
    """A lower-triangular unsymmetric matrix has no entries right of the
    diagonal: the U-side scatter map of every distributed front is empty."""
    a = tril(convection_diffusion2d(8, wind=(1.0, -0.4), peclet=1.5))
    solver = SparseSolver(a, method="lu")
    config = ParallelConfig(n_ranks=4, machine=GENERIC_CLUSTER, nb=4)
    report = solver.simulate(config, b=np.ones(a.shape[0]), verify=True)
    res, x = report.factor_result, report.solve_result.x
    assert res.plan.mapping.dist_supernodes
    assert np.max(np.abs(matvec_csc(a, x) - 1.0)) < 1e-12
