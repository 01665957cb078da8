"""Tests for repro.ordering: validity, quality, and relative ranking."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.gen import (
    elasticity3d,
    grid2d_9pt,
    grid2d_laplacian,
    grid3d_laplacian,
    random_spd_sparse,
)
from repro.graph import AdjacencyGraph
from repro.ordering import (
    natural_order,
    reverse_order,
    random_order,
    rcm_order,
    amd_order,
    nested_dissection_order,
    NDOptions,
    ordering_quality,
    get_ordering,
    ORDERINGS,
)
from repro.ordering.compression import compressed_order
import repro.ordering.nested_dissection
from repro.util.errors import OrderingError


def graph_of(lower):
    return AdjacencyGraph.from_symmetric_lower(lower)


def assert_valid_perm(perm, n):
    assert perm.shape == (n,)
    assert np.array_equal(np.sort(perm), np.arange(n))


ALL_ORDERINGS = [
    natural_order,
    reverse_order,
    random_order,
    rcm_order,
    amd_order,
    nested_dissection_order,
]


class TestPermValidity:
    @pytest.mark.parametrize("fn", ALL_ORDERINGS)
    def test_grid2d(self, fn):
        g = graph_of(grid2d_laplacian(5))
        assert_valid_perm(fn(g), g.n)

    @pytest.mark.parametrize("fn", ALL_ORDERINGS)
    def test_disconnected(self, fn):
        g = AdjacencyGraph.from_edges(7, [0, 2, 4], [1, 3, 5])
        assert_valid_perm(fn(g), 7)

    @pytest.mark.parametrize("fn", ALL_ORDERINGS)
    def test_no_edges(self, fn):
        g = AdjacencyGraph.from_edges(5, [], [])
        assert_valid_perm(fn(g), 5)

    @pytest.mark.parametrize("fn", ALL_ORDERINGS)
    def test_single_vertex(self, fn):
        g = AdjacencyGraph.from_edges(1, [], [])
        assert_valid_perm(fn(g), 1)

    @pytest.mark.parametrize("fn", [amd_order, nested_dissection_order, rcm_order])
    @settings(max_examples=15, deadline=None)
    @given(st.integers(2, 40), st.integers(0, 5000))
    def test_property_random_graphs(self, fn, n, seed):
        g = graph_of(random_spd_sparse(n, avg_degree=3, seed=seed))
        assert_valid_perm(fn(g), n)


class TestRCM:
    def test_reduces_bandwidth_vs_random(self):
        lower = grid2d_laplacian(8)
        g = graph_of(lower)
        rcm = rcm_order(g)
        rnd = random_order(g, seed=3)

        def bandwidth(perm):
            inv = np.empty(g.n, dtype=np.int64)
            inv[perm] = np.arange(g.n)
            bw = 0
            for u in range(g.n):
                for v in g.neighbors(u):
                    bw = max(bw, abs(int(inv[u]) - int(inv[v])))
            return bw

        assert bandwidth(rcm) < bandwidth(rnd)

    def test_path_graph_is_optimal(self):
        g = AdjacencyGraph.from_edges(6, np.arange(5), np.arange(1, 6))
        perm = rcm_order(g)
        # A path ordered by RCM is a contiguous walk: neighbours adjacent.
        inv = np.empty(6, dtype=np.int64)
        inv[perm] = np.arange(6)
        for u in range(5):
            assert abs(int(inv[u]) - int(inv[u + 1])) == 1


class TestAMD:
    def test_star_eliminates_leaves_first(self):
        # Star graph: center 0, leaves 1..5. MD eliminates leaves first;
        # once one leaf remains the center ties it at degree 1, so the
        # center may only appear in the last two positions.
        g = AdjacencyGraph.from_edges(6, [0] * 5, [1, 2, 3, 4, 5])
        perm = amd_order(g)
        assert 0 in perm[-2:]
        assert set(perm[:4].tolist()) <= {1, 2, 3, 4, 5}

    def test_quality_beats_natural_on_grid(self):
        lower = grid2d_laplacian(8)
        g = graph_of(lower)
        q_amd = ordering_quality(lower, amd_order(g))
        q_nat = ordering_quality(lower, natural_order(g))
        assert q_amd.factor_flops < q_nat.factor_flops

    def test_quality_close_to_scipy_free_reference(self):
        """AMD fill on a 2D grid should be far below banded (natural) fill."""
        lower = grid2d_laplacian(10)
        g = graph_of(lower)
        q_amd = ordering_quality(lower, amd_order(g))
        q_nat = ordering_quality(lower, natural_order(g))
        assert q_amd.nnz_factor < 0.8 * q_nat.nnz_factor

    def test_no_aggressive_absorption_still_valid(self):
        g = graph_of(grid2d_laplacian(6))
        assert_valid_perm(amd_order(g, aggressive=False), g.n)

    def test_tree_graph_no_fill(self):
        # Elimination of a tree in MD order produces zero fill.
        edges_a = [0, 0, 1, 1, 2, 2]
        edges_b = [1, 2, 3, 4, 5, 6]
        g = AdjacencyGraph.from_edges(7, edges_a, edges_b)
        lower = _unit_lower_from_graph(g)
        q = ordering_quality(lower, amd_order(g))
        assert q.nnz_factor == lower.nnz


def _unit_lower_from_graph(g):
    from repro.sparse import COOMatrix, coo_to_csc

    deg = np.diff(g.xadj)
    src = np.repeat(np.arange(g.n, dtype=np.int64), deg)
    keep = src > g.adjncy
    rows = np.concatenate([np.arange(g.n, dtype=np.int64), src[keep]])
    cols = np.concatenate([np.arange(g.n, dtype=np.int64), g.adjncy[keep]])
    vals = np.concatenate([np.full(g.n, 10.0), np.full(int(keep.sum()), -1.0)])
    return coo_to_csc(COOMatrix((g.n, g.n), rows, cols, vals))


class TestNestedDissection:
    def test_beats_natural_on_3d(self):
        lower = grid3d_laplacian(6)
        g = graph_of(lower)
        q_nd = ordering_quality(lower, nested_dissection_order(g))
        q_nat = ordering_quality(lower, natural_order(g))
        assert q_nd.factor_flops < q_nat.factor_flops

    def test_shorter_etree_than_amd_on_grid(self):
        """ND's balanced separators give shallower elimination trees — the
        property parallel factorization needs."""
        lower = grid2d_laplacian(12)
        g = graph_of(lower)
        q_nd = ordering_quality(lower, nested_dissection_order(g))
        q_amd = ordering_quality(lower, amd_order(g))
        assert q_nd.etree_height <= q_amd.etree_height * 1.5

    def test_leaf_size_option(self):
        g = graph_of(grid2d_laplacian(7))
        perm = nested_dissection_order(g, NDOptions(leaf_size=8))
        assert_valid_perm(perm, g.n)

    def test_max_depth_option(self):
        g = graph_of(grid2d_laplacian(7))
        perm = nested_dissection_order(g, NDOptions(max_depth=1))
        assert_valid_perm(perm, g.n)

    @pytest.mark.parametrize(
        "bad",
        [
            {"balance": 2.0},
            {"balance": 0.5},
            {"balance": float("nan")},
            {"leaf_size": 0},
            {"refine_passes": -1},
            {"max_depth": -1},
        ],
    )
    def test_bad_options_rejected_on_any_graph(self, bad):
        # grid2d_9pt(5) has 25 vertices, no more than the default leaf size,
        # so the bisector (which checks balance itself) never runs.
        g = graph_of(grid2d_9pt(5))
        with pytest.raises(OrderingError):
            nested_dissection_order(g, NDOptions(**bad))

    def test_incomplete_leaf_order_is_typed_error(self, monkeypatch):
        # a leaf ordering that drops a vertex
        monkeypatch.setattr(
            repro.ordering.nested_dissection, "amd_order", lambda g: np.arange(g.n)[1:]
        )
        with pytest.raises(OrderingError):
            nested_dissection_order(graph_of(grid2d_laplacian(7)))

    def test_incomplete_compressed_order_is_typed_error(self):
        g = graph_of(elasticity3d(2))
        with pytest.raises(OrderingError):
            compressed_order(g, lambda c: np.arange(c.n)[1:])

    def test_separator_goes_last(self):
        """The top-level separator must occupy the tail of the permutation."""
        from repro.graph.bisection import bisect
        from repro.graph.separators import vertex_separator_from_bisection

        g = graph_of(grid2d_laplacian(8))
        perm = nested_dissection_order(g)
        side = bisect(g)
        _, _, sep = vertex_separator_from_bisection(g, side)
        tail = set(perm[-sep.size:].tolist())
        # Same bisection is deterministic, so the separator should be the tail.
        assert tail == set(sep.tolist())


class TestQualityMetrics:
    def test_dense_matrix_full_fill(self):
        from repro.sparse import CSCMatrix

        n = 5
        d = np.ones((n, n)) + np.eye(n) * n
        lower = CSCMatrix.from_dense(np.tril(d))
        q = ordering_quality(lower, np.arange(n))
        assert q.nnz_factor == n * (n + 1) // 2
        assert q.fill_ratio == 1.0

    def test_diagonal_matrix_no_fill(self):
        from repro.sparse import CSCMatrix

        lower = CSCMatrix.from_dense(np.eye(4) * 2)
        q = ordering_quality(lower, np.arange(4))
        assert q.nnz_factor == 4
        assert q.factor_flops == 0
        assert q.etree_height == 1

    def test_fill_matches_scipy_oracle(self):
        """nnz(L) for natural order must match a dense Cholesky's nnz."""
        import scipy.linalg

        from repro.sparse.ops import full_symmetric_from_lower

        lower = grid2d_laplacian(5)
        q = ordering_quality(lower, np.arange(25))
        full = full_symmetric_from_lower(lower).to_dense()
        chol = scipy.linalg.cholesky(full, lower=True)
        chol[np.abs(chol) < 1e-12] = 0.0
        # Structural count >= numeric count (exact cancellation aside).
        assert q.nnz_factor >= np.count_nonzero(chol)
        # For a grid Laplacian no lucky cancellation occurs.
        assert q.nnz_factor == np.count_nonzero(chol)


class TestRegistry:
    def test_all_names_resolve(self):
        for name in ORDERINGS:
            fn = get_ordering(name)
            g = graph_of(grid2d_laplacian(4))
            assert_valid_perm(fn(g), g.n)

    def test_unknown_name(self):
        with pytest.raises(OrderingError):
            get_ordering("metis")
