"""Bitwise-identity tests for the blocked multi-RHS solve path.

The contract (module docstring of :mod:`repro.mf.solve_phase`): every
column of a blocked solve — and of blocked iterative refinement — is
bitwise identical to running that column through the single-RHS path.
These tests pin the contract for both symmetric factorization methods,
several panel widths, the refinement loop, the symmetric and general
matvecs, and the :class:`~repro.core.solver.SparseSolver` entry point
(LU included).
"""

import numpy as np
import pytest

from repro.core.solver import SparseSolver
from repro.gen import (
    convection_diffusion2d,
    grid2d_laplacian,
    grid3d_laplacian,
    random_spd_sparse,
)
from repro.graph import AdjacencyGraph
from repro.mf import (
    iterative_refinement_many,
    multifrontal_factor,
)
from repro.mf.solve_phase import solve, solve_many
from repro.ordering import amd_order
from repro.sparse.ops import matvec_csc, sym_matvec_lower, sym_matvec_lower_many
from repro.symbolic import analyze
from repro.util.errors import ShapeError
from repro.util.rng import make_rng

KS = [1, 3, 16]

MATRICES = {
    "grid2d_6": lambda: grid2d_laplacian(6),
    "grid3d_4": lambda: grid3d_laplacian(4),
    "random_50": lambda: random_spd_sparse(50, avg_degree=6, seed=2),
}


#: unsymmetric inputs of the LU rows
LU_MATRICES = {
    "convdiff_9": lambda: convection_diffusion2d(9, wind=(1.0, -0.4), peclet=1.5),
    "convdiff_12": lambda: convection_diffusion2d(12, peclet=0.7),
}


def analyzed(lower):
    g = AdjacencyGraph.from_symmetric_lower(lower)
    return analyze(lower, amd_order(g))


@pytest.fixture(scope="module", params=sorted(MATRICES))
def lower(request):
    return MATRICES[request.param]()


class TestSolveManyBitwise:
    @pytest.mark.parametrize("method", ["cholesky", "ldlt"])
    @pytest.mark.parametrize("k", KS)
    def test_matches_per_column_solve(self, lower, method, k):
        factor = multifrontal_factor(analyzed(lower), method=method)
        n = lower.shape[0]
        b = make_rng(100 + k).standard_normal((n, k))
        x = solve_many(factor, b)
        assert x.shape == (n, k)
        for j in range(k):
            np.testing.assert_array_equal(x[:, j], solve(factor, b[:, j]))

    def test_one_dimensional_rhs_passthrough(self, lower):
        factor = multifrontal_factor(analyzed(lower))
        b = make_rng(7).standard_normal(lower.shape[0])
        np.testing.assert_array_equal(solve_many(factor, b), solve(factor, b))

    def test_width_invariance(self, lower):
        """A column's bits do not depend on which panel carries it."""
        factor = multifrontal_factor(analyzed(lower))
        n = lower.shape[0]
        b = make_rng(8).standard_normal((n, 16))
        wide = solve_many(factor, b)
        narrow = solve_many(factor, b[:, :3])
        np.testing.assert_array_equal(wide[:, :3], narrow)

    def test_bad_shapes_rejected(self, lower):
        factor = multifrontal_factor(analyzed(lower))
        n = lower.shape[0]
        with pytest.raises(ShapeError):
            solve_many(factor, np.ones((n + 1, 2)))
        with pytest.raises(ShapeError):
            solve_many(factor, np.ones((n, 2, 2)))


class TestRefinementBitwise:
    @pytest.mark.parametrize("method", ["cholesky", "ldlt"])
    @pytest.mark.parametrize("k", KS)
    def test_matches_per_column_refinement(self, lower, method, k):
        factor = multifrontal_factor(analyzed(lower), method=method)
        n = lower.shape[0]
        b = make_rng(200 + k).standard_normal((n, k))
        res = iterative_refinement_many(factor, lower, b)
        for j in range(k):
            single = iterative_refinement_many(factor, lower, b[:, j])
            np.testing.assert_array_equal(res.x[:, j], single.x[:, 0])
            assert res.residual_history[j] == single.residual_history[0]
            assert res.iterations[j] == single.iterations[0]
            assert res.converged[j] == single.converged[0]

    def test_zero_column_converges_immediately(self, lower):
        factor = multifrontal_factor(analyzed(lower))
        n = lower.shape[0]
        b = make_rng(5).standard_normal((n, 3))
        b[:, 1] = 0.0
        res = iterative_refinement_many(factor, lower, b)
        assert np.all(res.x[:, 1] == 0.0)
        assert res.residual_history[1] == (0.0,)
        assert bool(res.converged[1])
        # The zero column must not perturb its neighbors.
        lone = iterative_refinement_many(factor, lower, b[:, [0, 2]])
        np.testing.assert_array_equal(res.x[:, [0, 2]], lone.x)


class TestSymMatvecMany:
    @pytest.mark.parametrize("k", KS)
    def test_matches_per_column_matvec(self, lower, k):
        n = lower.shape[0]
        x = make_rng(300 + k).standard_normal((n, k))
        y = sym_matvec_lower_many(lower, x)
        assert y.shape == (n, k)
        for j in range(k):
            np.testing.assert_array_equal(y[:, j], sym_matvec_lower(lower, x[:, j]))

    def test_one_dimensional_passthrough(self, lower):
        x = make_rng(4).standard_normal(lower.shape[0])
        np.testing.assert_array_equal(
            sym_matvec_lower_many(lower, x), sym_matvec_lower(lower, x)
        )


class TestSolverBlocked:
    @pytest.mark.parametrize("refine", [False, True])
    def test_panel_matches_column_solves(self, lower, refine):
        solver = SparseSolver(lower)
        solver.factor()
        n = lower.shape[0]
        b = make_rng(11).standard_normal((n, 5))
        res = solver.solve(b, refine=refine)
        assert res.x.shape == (n, 5)
        for j in range(5):
            single = solver.solve(b[:, j], refine=refine)
            np.testing.assert_array_equal(res.x[:, j], single.x)

    def test_vector_rhs_keeps_shape(self, lower):
        solver = SparseSolver(lower)
        solver.factor()
        b = make_rng(12).standard_normal(lower.shape[0])
        assert solver.solve(b).x.shape == (lower.shape[0],)

    @pytest.mark.parametrize("refine", [False, True])
    def test_panel_diagnostics_are_worst_over_columns(self, lower, refine):
        solver = SparseSolver(lower)
        solver.factor()
        n = lower.shape[0]
        b = make_rng(13).standard_normal((n, 4))
        res = solver.solve(b, refine=refine)
        assert res.residual < 1e-10
        singles = [solver.solve(b[:, j], refine=refine) for j in range(4)]
        assert res.residual == max(s.residual for s in singles)
        assert res.refinement_iterations == max(
            s.refinement_iterations for s in singles
        )


@pytest.fixture(scope="module", params=sorted(LU_MATRICES))
def lu_solver(request):
    solver = SparseSolver(LU_MATRICES[request.param](), method="lu")
    solver.factor()
    return solver


class TestLUBlocked:
    """The same width contract through ``SparseSolver(method="lu")``: its
    refinement runs the general matvec on the whole matrix."""

    @pytest.mark.parametrize("k", KS)
    def test_matvec_csc_matches_per_column(self, lu_solver, k):
        a = lu_solver.lower
        x = make_rng(400 + k).standard_normal((a.shape[0], k))
        y = matvec_csc(a, x)
        assert y.shape == (a.shape[0], k)
        for j in range(k):
            np.testing.assert_array_equal(y[:, j], matvec_csc(a, x[:, j]))

    # tol=0.0 is unreachable, so every column refines until the budget or
    # the divergence guard stops it
    @pytest.mark.parametrize("refine,tol", [(False, 1e-12), (True, 1e-12), (True, 0.0)])
    def test_panel_matches_column_solves(self, lu_solver, refine, tol):
        n = lu_solver.lower.shape[0]
        b = make_rng(14).standard_normal((n, 4))
        res = lu_solver.solve(b, refine=refine, tol=tol)
        singles = [lu_solver.solve(b[:, j], refine=refine, tol=tol) for j in range(4)]
        for j, single in enumerate(singles):
            np.testing.assert_array_equal(res.x[:, j], single.x)
        assert res.residual == max(s.residual for s in singles)
        assert res.refinement_iterations == max(
            s.refinement_iterations for s in singles
        )
