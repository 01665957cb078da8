"""Cross-module integration tests: the full pipeline over the paper suite,
random end-to-end configurations, tree statistics."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core import ParallelConfig, SparseSolver
from repro.gen import get_paper_matrix, paper_suite, random_spd_sparse
from repro.graph import AdjacencyGraph
from repro.machine import BLUEGENE_P, GENERIC_CLUSTER, POWER5_CLUSTER
from repro.ordering import amd_order, nested_dissection_order
from repro.parallel import PlanOptions, simulate_factorization, simulate_solve
from repro.sparse.ops import sym_matvec_lower
from repro.symbolic import analyze
from repro.symbolic.tree_stats import tree_stats
from repro.util.rng import make_rng


class TestPaperSuiteEndToEnd:
    @pytest.mark.parametrize("name", [m.name for m in paper_suite()])
    def test_every_suite_matrix_solves(self, name):
        lower = get_paper_matrix(name).build()
        solver = SparseSolver(lower, ordering="nd")
        b = make_rng(11).standard_normal(lower.shape[0])
        res = solver.solve(b)
        assert res.residual < 1e-10, f"{name}: residual {res.residual}"

    @pytest.mark.parametrize("name", ["cube-s", "elast-s", "plate-m"])
    def test_suite_parallel_verified(self, name):
        lower = get_paper_matrix(name).build()
        solver = SparseSolver(lower, ordering="nd")
        b = np.ones(lower.shape[0])
        rep = solver.simulate(
            ParallelConfig(n_ranks=4, machine=BLUEGENE_P, nb=16),
            b=b,
            verify=True,
        )
        x = rep.solve_result.x
        r = np.max(np.abs(b - sym_matvec_lower(solver.lower, x)))
        assert r < 1e-9


class TestRandomizedPipeline:
    @settings(max_examples=10, deadline=None)
    @given(
        st.integers(20, 60),
        st.integers(0, 10_000),
        st.sampled_from([1, 2, 3, 5, 8]),
        st.sampled_from(["2d", "1d", "static"]),
        st.sampled_from([4, 16, 48]),
        st.sampled_from(["cholesky", "ldlt"]),
    )
    def test_property_full_pipeline(self, n, seed, p, policy, nb, method):
        lower = random_spd_sparse(n, avg_degree=4, seed=seed)
        g = AdjacencyGraph.from_symmetric_lower(lower)
        sym = analyze(lower, nested_dissection_order(g))
        res = simulate_factorization(
            sym, p, GENERIC_CLUSTER, PlanOptions(nb=nb, policy=policy), method=method
        )
        b = np.random.default_rng(seed + 1).standard_normal(n)
        sol = simulate_solve(res, b)
        r = np.max(np.abs(b - sym_matvec_lower(lower, sol.x)))
        assert r <= 1e-8 * max(1.0, np.max(np.abs(b)))
        # Ledger conservation on every run.
        led = res.sim.ledger
        assert sum(led.bytes_sent_by_rank) == sum(led.bytes_recv_by_rank)

    @settings(max_examples=6, deadline=None)
    @given(st.integers(0, 1000), st.sampled_from([2, 4, 6]))
    def test_property_machines_agree_numerically(self, seed, p):
        """Machine models change time, never numbers."""
        lower = random_spd_sparse(40, avg_degree=4, seed=seed)
        g = AdjacencyGraph.from_symmetric_lower(lower)
        sym = analyze(lower, amd_order(g))
        a = simulate_factorization(sym, p, BLUEGENE_P, PlanOptions(nb=8))
        b = simulate_factorization(sym, p, POWER5_CLUSTER, PlanOptions(nb=8))
        np.testing.assert_array_equal(a.to_dense_l(), b.to_dense_l())
        assert a.makespan != b.makespan  # but the clocks differ


class TestTreeStats:
    def test_chain_has_no_concurrency(self):
        # Tridiagonal: the etree is a chain -> concurrency 1.
        import numpy as np

        from repro.sparse import CSCMatrix

        n = 12
        d = np.eye(n) * 4 + np.diag(-np.ones(n - 1), -1) + np.diag(-np.ones(n - 1), 1)
        lower = CSCMatrix.from_dense(np.tril(d))
        sym = analyze(lower, np.arange(n))
        stats = tree_stats(sym)
        assert stats.avg_concurrency == pytest.approx(1.0)
        assert stats.n_leaves == 1

    def test_nd_tree_exposes_concurrency(self):
        lower = get_paper_matrix("cube-m").build()
        g = AdjacencyGraph.from_symmetric_lower(lower)
        sym = analyze(lower, nested_dissection_order(g))
        stats = tree_stats(sym)
        assert stats.avg_concurrency > 1.5
        assert stats.n_leaves > 4
        assert sum(stats.work_by_depth) == pytest.approx(stats.total_flops)

    def test_critical_path_bounds(self):
        lower = get_paper_matrix("cube-s").build()
        g = AdjacencyGraph.from_symmetric_lower(lower)
        sym = analyze(lower, nested_dissection_order(g))
        stats = tree_stats(sym)
        assert 0 < stats.critical_path_flops <= stats.total_flops
        # Root's own work is on the critical path.
        root_work = max(sym.supernode_flops(s) for s in sym.roots())
        assert stats.critical_path_flops >= root_work

    def test_nd_beats_natural_on_concurrency(self):
        lower = get_paper_matrix("cube-s").build()
        g = AdjacencyGraph.from_symmetric_lower(lower)
        s_nd = tree_stats(analyze(lower, nested_dissection_order(g)))
        s_nat = tree_stats(analyze(lower, np.arange(lower.shape[0])))
        assert s_nd.avg_concurrency >= s_nat.avg_concurrency
