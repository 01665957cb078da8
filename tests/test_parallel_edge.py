"""Edge-case tests for the parallel engine: degenerate trees, tiny
matrices, more ranks than work."""

import numpy as np
import pytest

from repro.gen import grid2d_laplacian
from repro.graph import AdjacencyGraph
from repro.machine import GENERIC_CLUSTER
from repro.mf import multifrontal_factor
from repro.ordering import nested_dissection_order
from repro.parallel import PlanOptions, simulate_factorization, simulate_solve
from repro.sparse import CSCMatrix
from repro.sparse.ops import sym_matvec_lower
from repro.symbolic import analyze
from repro.util.rng import make_rng


def analyzed_dense(n):
    """Fully dense SPD matrix: one supernode, no tree parallelism."""
    rng = make_rng(0)
    m = rng.standard_normal((n, n))
    a = m @ m.T + n * np.eye(n)
    lower = CSCMatrix.from_dense(np.tril(a))
    return lower, analyze(lower, np.arange(n))


def analyzed_diagonal(n):
    """Diagonal matrix: n singleton supernodes, no fronts to distribute."""
    lower = CSCMatrix.from_dense(np.diag(np.arange(1.0, n + 1)))
    return lower, analyze(lower, np.arange(n))


class TestDegenerateStructures:
    @pytest.mark.parametrize("p", [2, 4, 6])
    def test_dense_matrix_single_front(self, p):
        lower, sym = analyzed_dense(24)
        seq = multifrontal_factor(sym)
        res = simulate_factorization(sym, p, GENERIC_CLUSTER, PlanOptions(nb=4))
        np.testing.assert_allclose(
            res.to_dense_l(), seq.to_dense_l(), rtol=1e-8, atol=1e-8
        )
        b = make_rng(1).standard_normal(24)
        sol = simulate_solve(res, b)
        r = np.max(np.abs(b - sym_matvec_lower(lower, sol.x)))
        assert r < 1e-8

    @pytest.mark.parametrize("p", [1, 3])
    def test_diagonal_matrix(self, p):
        lower, sym = analyzed_diagonal(10)
        res = simulate_factorization(sym, p, GENERIC_CLUSTER, PlanOptions(nb=4))
        b = np.arange(1.0, 11.0)
        sol = simulate_solve(res, b)
        np.testing.assert_allclose(sol.x, np.ones(10), rtol=1e-12)

    def test_1x1_matrix_p2(self):
        lower = CSCMatrix.from_dense(np.array([[9.0]]))
        sym = analyze(lower, np.arange(1))
        res = simulate_factorization(sym, 2, GENERIC_CLUSTER, PlanOptions(nb=4))
        sol = simulate_solve(res, np.array([18.0]))
        np.testing.assert_allclose(sol.x, [2.0])

    def test_more_ranks_than_supernodes(self):
        lower = grid2d_laplacian(3)  # 9 unknowns
        g = AdjacencyGraph.from_symmetric_lower(lower)
        sym = analyze(lower, nested_dissection_order(g))
        p = 16
        res = simulate_factorization(sym, p, GENERIC_CLUSTER, PlanOptions(nb=4))
        b = np.ones(9)
        sol = simulate_solve(res, b)
        r = np.max(np.abs(b - sym_matvec_lower(lower, sol.x)))
        assert r < 1e-10

    def test_tridiagonal_chain_tree(self):
        n = 20
        d = np.eye(n) * 4 + np.diag(-np.ones(n - 1), -1) + np.diag(-np.ones(n - 1), 1)
        lower = CSCMatrix.from_dense(np.tril(d))
        sym = analyze(lower, np.arange(n))
        res = simulate_factorization(sym, 4, GENERIC_CLUSTER, PlanOptions(nb=4))
        seq = multifrontal_factor(sym)
        np.testing.assert_allclose(
            res.to_dense_l(), seq.to_dense_l(), rtol=1e-10, atol=1e-12
        )


class TestDistributionEdges:
    def test_nb_larger_than_any_front(self):
        lower = grid2d_laplacian(5)
        g = AdjacencyGraph.from_symmetric_lower(lower)
        sym = analyze(lower, nested_dissection_order(g))
        res = simulate_factorization(
            sym, 4, GENERIC_CLUSTER, PlanOptions(nb=10_000)
        )
        seq = multifrontal_factor(sym)
        np.testing.assert_allclose(
            res.to_dense_l(), seq.to_dense_l(), rtol=1e-10, atol=1e-10
        )

    def test_nb_one(self):
        lower, sym = analyzed_dense(8)
        res = simulate_factorization(sym, 3, GENERIC_CLUSTER, PlanOptions(nb=1))
        seq = multifrontal_factor(sym)
        np.testing.assert_allclose(
            res.to_dense_l(), seq.to_dense_l(), rtol=1e-8, atol=1e-8
        )

    def test_1d_policy_group_of_two(self):
        lower, sym = analyzed_dense(12)
        res = simulate_factorization(
            sym, 2, GENERIC_CLUSTER, PlanOptions(nb=4, policy="1d")
        )
        seq = multifrontal_factor(sym)
        np.testing.assert_allclose(
            res.to_dense_l(), seq.to_dense_l(), rtol=1e-8, atol=1e-8
        )

    def test_odd_rank_counts(self):
        lower = grid2d_laplacian(6)
        g = AdjacencyGraph.from_symmetric_lower(lower)
        sym = analyze(lower, nested_dissection_order(g))
        seq = multifrontal_factor(sym)
        for p in (3, 5, 7):
            res = simulate_factorization(sym, p, GENERIC_CLUSTER, PlanOptions(nb=8))
            np.testing.assert_allclose(
                res.to_dense_l(), seq.to_dense_l(), rtol=1e-9, atol=1e-9
            )


class TestBadArguments:
    @pytest.mark.parametrize("threads", [0, -2])
    def test_threads_per_rank_below_one_rejected_up_front(self, threads):
        from repro.core import ParallelConfig, SparseSolver
        from repro.util.errors import SimulationError

        lower, sym = analyzed_dense(8)
        with pytest.raises(SimulationError, match="threads_per_rank"):
            simulate_factorization(sym, 4, GENERIC_CLUSTER, threads_per_rank=threads)
        solver = SparseSolver(grid2d_laplacian(4))
        solver.analyze()
        with pytest.raises(SimulationError, match="threads_per_rank"):
            solver.simulate(ParallelConfig(n_ranks=4, threads_per_rank=threads))
