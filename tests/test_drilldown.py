"""Drill-down tests for small under-covered surfaces."""

import numpy as np
import pytest

from repro.gen import grid2d_laplacian
from repro.graph import AdjacencyGraph
from repro.ordering import nested_dissection_order
from repro.parallel import FactorPlan, PlanOptions
from repro.simmpi.ledger import MessageLedger
from repro.simmpi.trace import Trace, TraceEvent
from repro.sparse import CSCMatrix
from repro.symbolic import analyze


class TestLedgerUnit:
    def test_record_and_totals(self):
        led = MessageLedger(3)
        led.record_send(0, 1, 100, 2)
        led.record_recv(1, 100)
        led.record_send(1, 2, 50, 1)
        led.record_recv(2, 50)
        assert led.n_messages == 2
        assert led.total_bytes == 150
        assert led.hop_bytes == 250
        assert led.sent_by_rank == [1, 1, 0]
        assert led.recv_by_rank == [0, 1, 1]


class TestTraceUnit:
    def test_zero_duration_dropped(self):
        t = Trace()
        t.add(0, "compute", 1.0, 1.0)
        assert t.events == []

    def test_span_and_totals(self):
        t = Trace()
        t.add(0, "compute", 0.0, 2.0, 100)
        t.add(1, "wait", 1.0, 3.0)
        assert t.span() == 3.0
        assert t.total("compute") == 2.0
        assert t.total("wait") == 2.0

    def test_event_duration(self):
        e = TraceEvent(0, "send", 0.5, 1.25, 8)
        assert e.duration == 0.75


class TestPlanInternals:
    @pytest.fixture(scope="class")
    def plan(self):
        lower = grid2d_laplacian(6)
        g = AdjacencyGraph.from_symmetric_lower(lower)
        sym = analyze(lower, nested_dissection_order(g))
        return FactorPlan(sym, 4, PlanOptions(nb=8))

    def test_ea_runs_cached(self, plan):
        children = [
            c
            for c in range(plan.sym.n_supernodes)
            if plan.sym.sn_parent[c] >= 0
        ]
        c = children[0]
        assert plan.schedule(c).runs is plan.schedule(c).runs

    def test_block_of_boundaries(self, plan):
        for s in plan.mapping.dist_supernodes:
            d = plan.dist[s]
            assert int(d.block_of(np.asarray([0]))[0]) == 0
            last = d.m - 1
            assert int(d.block_of(np.asarray([last]))[0]) == d.nblocks - 1

    def test_row_owner_in_group(self, plan):
        for s in plan.mapping.dist_supernodes:
            d = plan.dist[s]
            for bi in range(d.nblocks):
                assert d.row_owner(bi) in d.group

    def test_parent_positions_error_for_root(self, plan):
        from repro.util.errors import ShapeError

        roots = plan.sym.roots()
        with pytest.raises(ShapeError):
            plan.schedule(roots[-1])


class TestSparseEdges:
    def test_diagonal_rectangular(self):
        m = CSCMatrix.from_dense(np.array([[1.0, 0.0, 2.0], [0.0, 3.0, 0.0]]))
        np.testing.assert_array_equal(m.diagonal(), [1.0, 3.0])

    def test_graph_subgraph_empty_selection(self):
        g = AdjacencyGraph.from_edges(4, [0, 1], [1, 2])
        sub, vmap = g.subgraph([])
        assert sub.n == 0
        assert vmap.size == 0
