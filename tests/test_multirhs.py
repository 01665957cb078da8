"""Tests for the blocked multi-RHS distributed solve."""

import numpy as np
import pytest

from repro.gen import grid2d_laplacian, grid3d_laplacian
from repro.graph import AdjacencyGraph
from repro.machine import GENERIC_CLUSTER
from repro.ordering import nested_dissection_order
from repro.parallel import PlanOptions, simulate_factorization, simulate_solve
from repro.sparse.ops import sym_matvec_lower
from repro.symbolic import analyze
from repro.util.errors import ShapeError
from repro.util.rng import make_rng


def analyzed(lower):
    g = AdjacencyGraph.from_symmetric_lower(lower)
    return analyze(lower, nested_dissection_order(g))


@pytest.fixture(scope="module")
def factored():
    lower = grid3d_laplacian(4)
    sym = analyzed(lower)
    res = simulate_factorization(sym, 4, GENERIC_CLUSTER, PlanOptions(nb=8))
    return lower, res


class TestMultiRHS:
    @pytest.mark.parametrize("k", [1, 2, 5])
    def test_block_residuals(self, factored, k):
        lower, res = factored
        n = lower.shape[0]
        b = make_rng(k).standard_normal((n, k))
        sol = simulate_solve(res, b)
        assert sol.x.shape == (n, k)
        for j in range(k):
            r = np.max(np.abs(b[:, j] - sym_matvec_lower(lower, sol.x[:, j])))
            assert r < 1e-10

    def test_block_matches_column_solves(self, factored):
        lower, res = factored
        n = lower.shape[0]
        b = make_rng(9).standard_normal((n, 3))
        block = simulate_solve(res, b).x
        for j in range(3):
            single = simulate_solve(res, b[:, j]).x
            assert block[:, j].tobytes() == single.tobytes()

    def test_block_amortizes_time(self, factored):
        lower, res = factored
        n = lower.shape[0]
        b = make_rng(10).standard_normal((n, 8))
        t_block = simulate_solve(res, b).makespan
        t_single = simulate_solve(res, b[:, 0]).makespan
        # Eight RHS in one sweep must cost far less than eight sweeps.
        assert t_block < 4 * t_single

    def test_ldlt_multirhs(self):
        lower = grid2d_laplacian(6)
        sym = analyzed(lower)
        res = simulate_factorization(
            sym, 4, GENERIC_CLUSTER, PlanOptions(nb=8), method="ldlt"
        )
        b = make_rng(11).standard_normal((36, 2))
        sol = simulate_solve(res, b)
        for j in range(2):
            r = np.max(np.abs(b[:, j] - sym_matvec_lower(lower, sol.x[:, j])))
            assert r < 1e-10

    def test_p1_multirhs(self):
        lower = grid2d_laplacian(5)
        sym = analyzed(lower)
        res = simulate_factorization(sym, 1, GENERIC_CLUSTER, PlanOptions(nb=8))
        b = make_rng(12).standard_normal((25, 4))
        sol = simulate_solve(res, b)
        assert sol.x.shape == (25, 4)

    def test_bad_shapes_rejected(self, factored):
        _, res = factored
        with pytest.raises(ShapeError):
            simulate_solve(res, np.ones(5))
        with pytest.raises(ShapeError):
            simulate_solve(res, np.ones((64, 2, 2)))
