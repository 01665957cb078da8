"""Tests for the subtree-to-subcube mapping, grids, and plans."""

import numpy as np
import pytest

from repro.gen import grid3d_laplacian
from repro.graph import AdjacencyGraph
from repro.ordering import nested_dissection_order
from repro.parallel import (
    map_supernodes_to_ranks,
    ProcessGrid,
    grid_dims,
    block_starts,
    FactorPlan,
    PlanOptions,
)
from repro.parallel.mapping import subtree_flops
from repro.symbolic import analyze
from repro.util.errors import ShapeError


def analyzed(lower, ordering=nested_dissection_order):
    g = AdjacencyGraph.from_symmetric_lower(lower)
    return analyze(lower, ordering(g))


@pytest.fixture(scope="module")
def sym3d():
    return analyzed(grid3d_laplacian(6))


class TestGridDims:
    @pytest.mark.parametrize("g,expected", [(1, (1, 1)), (4, (2, 2)), (8, (2, 4)), (16, (4, 4)), (6, (2, 3)), (7, (1, 7))])
    def test_near_square(self, g, expected):
        assert grid_dims(g) == expected

    def test_invalid(self):
        with pytest.raises(ShapeError):
            grid_dims(0)


class TestBlockStarts:
    def test_pivot_aligned(self):
        s = block_starts(100, 35, 16)
        assert 35 in s.tolist()
        assert s[0] == 0 and s[-1] == 100

    def test_sizes_bounded(self):
        s = block_starts(97, 40, 16)
        assert np.all(np.diff(s) <= 16)
        assert np.all(np.diff(s) >= 1)

    def test_no_update_region(self):
        s = block_starts(32, 32, 16)
        assert s.tolist() == [0, 16, 32]

    def test_invalid(self):
        with pytest.raises(ShapeError):
            block_starts(10, 12, 4)
        with pytest.raises(ShapeError):
            block_starts(10, 5, 0)


class TestProcessGrid:
    def test_owner_cycles(self):
        g = ProcessGrid((0, 1, 2, 3), 2, 2)
        assert g.owner(0, 0) == 0
        assert g.owner(0, 1) == 1
        assert g.owner(1, 0) == 2
        assert g.owner(2, 2) == 0  # wraps

    def test_coords_roundtrip(self):
        g = ProcessGrid((5, 6, 7, 8, 9, 10), 2, 3)
        for r in g.ranks:
            i, j = g.coords(r)
            assert g.at(i, j) == r

    def test_row_col_members(self):
        g = ProcessGrid((0, 1, 2, 3), 2, 2)
        assert g.row_members(0) == (0, 1)
        assert g.col_members(1) == (1, 3)

    def test_one_d(self):
        g = ProcessGrid.one_d((4, 5, 6))
        assert (g.gr, g.gc) == (3, 1)
        assert g.owner(0, 0) == 4
        assert g.owner(1, 7) == 5

    def test_owned_blocks_partition(self):
        g = ProcessGrid((0, 1, 2, 3), 2, 2)
        nb = 5
        seen = set()
        for r in g.ranks:
            for bi, bj in g.owned_blocks(r, nb):
                assert bi >= bj
                assert (bi, bj) not in seen
                seen.add((bi, bj))
        assert len(seen) == nb * (nb + 1) // 2

    def test_mismatched_dims(self):
        with pytest.raises(ShapeError):
            ProcessGrid((0, 1, 2), 2, 2)


class TestMapping:
    @pytest.mark.parametrize("p", [1, 2, 4, 8, 16])
    def test_all_assigned(self, sym3d, p):
        m = map_supernodes_to_ranks(sym3d, p)
        assert len(m.sn_ranks) == sym3d.n_supernodes
        for group in m.sn_ranks:
            assert len(group) >= 1
            assert all(0 <= r < p for r in group)

    def test_p1_all_sequential(self, sym3d):
        m = map_supernodes_to_ranks(sym3d, 1)
        assert all(g == (0,) for g in m.sn_ranks)
        assert m.dist_supernodes == []

    def test_groups_shrink_down_tree(self, sym3d):
        m = map_supernodes_to_ranks(sym3d, 8)
        for s in range(sym3d.n_supernodes):
            p = int(sym3d.sn_parent[s])
            if p >= 0 and not m.is_seq(p):
                # Child group is contained in a distributed parent's group.
                assert set(m.sn_ranks[s]) <= set(m.sn_ranks[p])

    def test_root_gets_everyone_on_big_tree(self, sym3d):
        m = map_supernodes_to_ranks(sym3d, 4)
        roots = sym3d.roots()
        total = set()
        for r in roots:
            total |= set(m.sn_ranks[r])
        assert total == {0, 1, 2, 3}

    def test_all_ranks_get_seq_work(self, sym3d):
        m = map_supernodes_to_ranks(sym3d, 8)
        work = m.rank_seq_work()
        assert np.all(work > 0)

    def test_seq_load_balance(self):
        sym = analyzed(grid3d_laplacian(7))
        m = map_supernodes_to_ranks(sym, 4)
        work = m.rank_seq_work()
        assert work.max() <= 4.0 * max(work.min(), 1.0)

    def test_supernodes_for_rank_sorted_and_complete(self, sym3d):
        m = map_supernodes_to_ranks(sym3d, 4)
        covered = set()
        for r in range(4):
            sns = m.supernodes_for_rank(r)
            assert sns == sorted(sns)
            covered |= set(sns)
        assert covered == set(range(sym3d.n_supernodes))

    def test_invalid_p(self, sym3d):
        with pytest.raises(ShapeError):
            map_supernodes_to_ranks(sym3d, 0)

    def test_subtree_flops_monotone(self, sym3d):
        w = subtree_flops(sym3d)
        for s in range(sym3d.n_supernodes):
            p = int(sym3d.sn_parent[s])
            if p >= 0:
                assert w[p] > w[s]

    def test_more_ranks_more_distributed(self, sym3d):
        m2 = map_supernodes_to_ranks(sym3d, 2)
        m16 = map_supernodes_to_ranks(sym3d, 16)
        assert len(m16.dist_supernodes) >= len(m2.dist_supernodes)


class TestPlan:
    @pytest.mark.parametrize("policy", ["2d", "1d", "static"])
    def test_policies_build(self, sym3d, policy):
        plan = FactorPlan(sym3d, 4, PlanOptions(nb=16, policy=policy))
        assert plan.opts.policy == policy
        assert len(plan.dist) == sym3d.n_supernodes

    def test_1d_grids_are_columns(self, sym3d):
        plan = FactorPlan(sym3d, 4, PlanOptions(nb=16, policy="1d"))
        for s in plan.mapping.dist_supernodes:
            grid = plan.dist[s].grid
            assert grid.gc == 1

    def test_2d_grids_near_square(self, sym3d):
        plan = FactorPlan(sym3d, 16, PlanOptions(nb=16, policy="2d"))
        for s in plan.mapping.dist_supernodes:
            grid = plan.dist[s].grid
            assert grid.gr <= grid.gc

    def test_ea_pairs_cover_senders_and_dests(self, sym3d):
        plan = FactorPlan(sym3d, 8, PlanOptions(nb=16))
        checked = 0
        for c in range(sym3d.n_supernodes):
            if sym3d.sn_parent[c] < 0:
                continue
            routes = plan.schedule(c).ea("lower")
            pairs = routes.pairs()
            assert pairs, f"child {c} has no transfer pairs"
            for sender, dest in pairs:
                assert dest in [g[1] for g in routes.sending(sender)]
                assert sender in [g[0] for g in routes.receiving(dest)]
            checked += 1
        assert checked > 0

    def test_ea_runs_cover_update(self, sym3d):
        plan = FactorPlan(sym3d, 8, PlanOptions(nb=16))
        for c in range(sym3d.n_supernodes):
            if sym3d.sn_parent[c] < 0:
                continue
            mu = sym3d.front_size(c) - sym3d.supernode_width(c)
            runs = plan.schedule(c).runs
            assert runs[0][0] == 0
            assert runs[-1][1] == mu
            for (a0, a1, _, _), (b0, _, _, _) in zip(runs, runs[1:]):
                assert a1 == b0

    def test_bad_policy(self, sym3d):
        with pytest.raises(ShapeError):
            PlanOptions(policy="3d")

    def test_update_holders_subset_of_group(self, sym3d):
        plan = FactorPlan(sym3d, 8, PlanOptions(nb=16))
        for c in range(sym3d.n_supernodes):
            if sym3d.sn_parent[c] < 0:
                continue
            senders = {sender for sender, _ in plan.schedule(c).ea("lower").pairs()}
            assert senders <= set(plan.mapping.sn_ranks[c])
