"""Tests for repro.graph: structure, traversal, bisection, separators."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.gen import grid2d_laplacian, grid3d_laplacian, random_spd_sparse
from repro.graph import (
    AdjacencyGraph,
    bfs_levels,
    connected_components,
    pseudo_peripheral_vertex,
    bisect,
    vertex_separator_from_bisection,
)
from repro.graph.bisection import cut_size
from repro.graph.separators import is_separator
from repro.util.errors import OrderingError, ShapeError


def path_graph(n):
    a = np.arange(n - 1)
    return AdjacencyGraph.from_edges(n, a, a + 1)


def grid_graph(nx, ny=None):
    return AdjacencyGraph.from_symmetric_lower(grid2d_laplacian(nx, ny))


class TestStructure:
    def test_from_edges_basic(self):
        g = AdjacencyGraph.from_edges(3, [0, 1], [1, 2])
        assert g.n == 3
        assert g.n_edges == 2
        assert g.neighbors(1).tolist() == [0, 2]

    def test_self_loops_removed(self):
        g = AdjacencyGraph.from_edges(3, [0, 1, 2], [1, 1, 2])
        assert g.n_edges == 1

    def test_duplicate_edges_collapsed(self):
        g = AdjacencyGraph.from_edges(2, [0, 1, 0], [1, 0, 1])
        assert g.n_edges == 1
        assert g.degree(0) == 1

    def test_from_symmetric_lower(self):
        g = AdjacencyGraph.from_symmetric_lower(grid2d_laplacian(3))
        assert g.n == 9
        assert g.n_edges == 12  # 3x2x2 grid edges

    def test_degrees(self):
        g = grid_graph(3)
        degs = g.degrees()
        assert degs.min() == 2  # corners
        assert degs.max() == 4  # center

    def test_validation_catches_asymmetry(self):
        with pytest.raises(ShapeError):
            AdjacencyGraph(2, [0, 1, 1], [1])

    def test_validation_catches_self_loop(self):
        with pytest.raises(ShapeError):
            AdjacencyGraph(1, [0, 1], [0])

    def test_validation_catches_unsorted_neighbours(self):
        with pytest.raises(ShapeError, match="vertex 0 has unsorted"):
            AdjacencyGraph(3, [0, 2, 3, 4], [2, 1, 0, 0])

    def test_subgraph(self):
        g = path_graph(5)
        sub, vmap = g.subgraph([1, 2, 3])
        assert sub.n == 3
        assert sub.n_edges == 2
        assert vmap.tolist() == [1, 2, 3]

    def test_subgraph_drops_external_edges(self):
        g = path_graph(5)
        sub, _ = g.subgraph([0, 4])
        assert sub.n_edges == 0

    def test_empty_graph(self):
        g = AdjacencyGraph.from_edges(4, [], [])
        assert g.n_edges == 0
        assert g.degree(0) == 0


class TestTraversal:
    def test_bfs_path(self):
        g = path_graph(5)
        np.testing.assert_array_equal(bfs_levels(g, 0), [0, 1, 2, 3, 4])
        np.testing.assert_array_equal(bfs_levels(g, 2), [2, 1, 0, 1, 2])

    def test_bfs_unreachable(self):
        g = AdjacencyGraph.from_edges(4, [0], [1])
        levels = bfs_levels(g, 0)
        assert levels[2] == -1 and levels[3] == -1

    def test_components_single(self):
        g = grid_graph(3)
        assert np.unique(connected_components(g)).size == 1

    def test_components_multiple(self):
        g = AdjacencyGraph.from_edges(6, [0, 2, 4], [1, 3, 5])
        comp = connected_components(g)
        assert np.unique(comp).size == 3
        assert comp[0] == comp[1]
        assert comp[2] == comp[3]
        assert comp[0] != comp[2]

    def test_components_isolated_vertices(self):
        g = AdjacencyGraph.from_edges(3, [], [])
        assert np.unique(connected_components(g)).size == 3

    def test_pseudo_peripheral_on_path(self):
        g = path_graph(9)
        v = pseudo_peripheral_vertex(g, 4)
        assert v in (0, 8)

    def test_pseudo_peripheral_on_grid(self):
        g = grid_graph(5)
        v = pseudo_peripheral_vertex(g, 12)  # center
        levels = bfs_levels(g, v)
        # corner-to-corner eccentricity of 5x5 grid is 8
        assert levels.max() == 8

    def test_pseudo_peripheral_singleton(self):
        g = AdjacencyGraph.from_edges(1, [], [])
        assert pseudo_peripheral_vertex(g, 0) == 0

    @pytest.mark.parametrize("n", [0, 1, 5])
    @pytest.mark.parametrize("offset", [-1, 0, 3], ids=["minus1", "n", "n+3"])
    @pytest.mark.parametrize("call", ["bfs_levels", "pseudo_peripheral_vertex", "bisect"])
    def test_start_outside_the_graph_is_typed(self, n, offset, call):
        g = path_graph(n)
        start = -1 if offset == -1 else n + offset
        fn = {
            "bfs_levels": lambda: bfs_levels(g, start),
            "pseudo_peripheral_vertex": lambda: pseudo_peripheral_vertex(g, start),
            "bisect": lambda: bisect(g, start=start),
        }[call]
        with pytest.raises(OrderingError, match="start vertex"):
            fn()


class TestBisection:
    @pytest.mark.parametrize("nx,ny", [(4, 4), (6, 5), (8, 8)])
    def test_balance(self, nx, ny):
        g = grid_graph(nx, ny)
        side = bisect(g)
        n1 = int(side.sum())
        assert min(n1, g.n - n1) >= int(0.45 * g.n) - 1

    def test_grid_cut_near_optimal(self):
        # 8x8 grid: optimal bisection cut is 8; allow 2x slack.
        g = grid_graph(8)
        side = bisect(g)
        assert cut_size(g, side) <= 16

    def test_refinement_improves_or_keeps(self):
        g = grid_graph(7)
        rough = bisect(g, refine_passes=0)
        refined = bisect(g, refine_passes=4)
        assert cut_size(g, refined) <= cut_size(g, rough)

    def test_empty_and_single(self):
        assert bisect(AdjacencyGraph.from_edges(0, [], [])).size == 0
        assert bisect(AdjacencyGraph.from_edges(1, [], [])).tolist() == [False]

    def test_two_vertices(self):
        g = path_graph(2)
        side = bisect(g)
        assert side.sum() == 1

    def test_invalid_balance(self):
        with pytest.raises(OrderingError):
            bisect(grid_graph(3), balance=0.5)

    def test_disconnected(self):
        g = AdjacencyGraph.from_edges(8, [0, 1, 4, 5], [1, 2, 5, 6])
        side = bisect(g)
        n1 = int(side.sum())
        assert 2 <= n1 <= 6

    @settings(max_examples=20, deadline=None)
    @given(st.integers(2, 40), st.integers(0, 10_000))
    def test_property_balance_random_graphs(self, n, seed):
        lower = random_spd_sparse(n, avg_degree=3, seed=seed)
        g = AdjacencyGraph.from_symmetric_lower(lower)
        side = bisect(g)
        n1 = int(side.sum())
        max_part = max(int(np.floor(0.55 * n)), n // 2 + n % 2)
        assert max(n1, n - n1) <= max_part


class TestSeparators:
    @pytest.mark.parametrize("nx", [4, 6, 9])
    def test_separator_is_valid(self, nx):
        g = grid_graph(nx)
        side = bisect(g)
        p0, p1, sep = vertex_separator_from_bisection(g, side)
        # Partition covers everything exactly once.
        all_v = np.sort(np.concatenate([p0, p1, sep]))
        np.testing.assert_array_equal(all_v, np.arange(g.n))
        assert is_separator(g, p0, p1)

    def test_separator_small_on_grid(self):
        g = grid_graph(10)
        side = bisect(g)
        _, _, sep = vertex_separator_from_bisection(g, side)
        # grid separator should be O(nx); allow 2.5x
        assert sep.size <= 25

    def test_no_cut_no_separator(self):
        g = AdjacencyGraph.from_edges(4, [0, 2], [1, 3])
        side = np.array([False, False, True, True])
        p0, p1, sep = vertex_separator_from_bisection(g, side)
        assert sep.size == 0
        assert is_separator(g, p0, p1)

    def test_3d_separator_valid(self):
        g = AdjacencyGraph.from_symmetric_lower(grid3d_laplacian(5))
        side = bisect(g)
        p0, p1, sep = vertex_separator_from_bisection(g, side)
        assert is_separator(g, p0, p1)
        assert sep.size <= 50  # ~25 optimal for 5x5x5

    @settings(max_examples=20, deadline=None)
    @given(st.integers(2, 35), st.integers(0, 10_000))
    def test_property_separator_random(self, n, seed):
        lower = random_spd_sparse(n, avg_degree=3, seed=seed)
        g = AdjacencyGraph.from_symmetric_lower(lower)
        side = bisect(g)
        p0, p1, sep = vertex_separator_from_bisection(g, side)
        all_v = np.sort(np.concatenate([p0, p1, sep]))
        np.testing.assert_array_equal(all_v, np.arange(n))
        assert is_separator(g, p0, p1)
