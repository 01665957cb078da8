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
from repro.dense.trsm import (
    solve_lower_inplace,
    solve_lower_transpose_outer_inplace,
    solve_unit_lower_inplace,
    solve_unit_lower_transpose_outer_inplace,
)
from repro.mf.solve_phase import gemv_columns, solve, solve_many
from repro.ordering import amd_order
from repro.sparse import CSCMatrix
from repro.sparse.ops import matvec_csc, sym_matvec_lower, sym_matvec_lower_many
from repro.sparse.permute import permute_vector, unpermute_vector
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


# -- the class sweeps against a per-front sweep ------------------------------


def per_front_solve(factor, b):
    """The sweeps one front at a time in supernode order, each update
    subtracted as soon as it is formed: the order the class sweeps must
    reproduce. Products are :func:`gemv_columns` on one front's operands,
    pivot blocks without inverses the column kernels on one triangle."""
    sym, plan = factor.sym, factor.sym.front_plan
    lu = factor.method == "lu"
    y = permute_vector(b, sym.perm).astype(factor.dtype)
    for s in range(sym.n_supernodes):
        rows, w = sym.sn_rows[s], plan.width[s]
        block, inverses = factor.blocks[s], factor.diag_inverses[s]
        piv = y[rows[:w]]
        if inverses is not None:
            c0 = 0
            for inv in inverses:
                c1 = c0 + inv.shape[0]
                piv[c0:c1] = gemv_columns(inv, piv[c0:c1])
                if c1 < w:
                    piv[c1:] -= gemv_columns(block[c1:w, c0:c1], piv[c0:c1])
                c0 = c1
        elif factor.method == "cholesky":
            solve_lower_inplace(block[:w], piv)
        else:
            solve_unit_lower_inplace(block[:w], piv)
        y[rows[:w]] = piv
        if rows.size > w:
            y[rows[w:]] -= gemv_columns(block[w:], piv)
    if factor.method == "ldlt":
        y /= factor.diag if y.ndim == 1 else factor.diag[:, None]
    for s in range(sym.n_supernodes - 1, -1, -1):
        rows, w = sym.sn_rows[s], plan.width[s]
        block, inverses = factor.blocks[s], factor.diag_inverses[s]
        piv = y[rows[:w]]
        if rows.size > w:
            piv -= gemv_columns(factor.u12[s] if lu else block[w:].T, y[rows[w:]])
        if inverses is not None:
            bounds = np.cumsum([0] + [inv.shape[0] for inv in inverses])
            for c0, c1, inv in reversed(list(zip(bounds[:-1], bounds[1:], inverses))):
                if c1 < w:
                    piv[c0:c1] -= gemv_columns(block[c1:w, c0:c1].T, piv[c1:])
                piv[c0:c1] = gemv_columns(inv.T, piv[c0:c1])
        elif factor.method == "ldlt":
            solve_unit_lower_transpose_outer_inplace(block[:w], piv)
        else:
            solve_lower_transpose_outer_inplace(block[:w].T if lu else block[:w], piv)
        y[rows[:w]] = piv
    return unpermute_vector(y.astype(np.float64), sym.perm)


def block_diagonal(*lowers):
    """The lower triangles *lowers* as one disconnected pattern."""
    dense = np.zeros((sum(a.shape[0] for a in lowers),) * 2)
    at = 0
    for a in lowers:
        k = a.shape[0]
        dense[at:at + k, at:at + k] = a.to_dense()
        at += k
    return CSCMatrix.from_dense(dense)


#: name -> (matrix, method, pivot_perturbation)
SWEEP_CASES = {
    # nested dissection of a plate: dozens of equal leaves share a class
    "plate16-cholesky": (lambda: grid2d_laplacian(16), "cholesky", None),
    "cube6-ldlt-perturbed": (lambda: grid3d_laplacian(6), "ldlt", 0.9),
    # three roots at three heights, one of them a lone 1x1 front
    "disconnected-cholesky": (
        lambda: block_diagonal(
            grid3d_laplacian(4), grid2d_laplacian(3), CSCMatrix.from_dense(np.eye(1) * 2)
        ),
        "cholesky",
        None,
    ),
    "n1-ldlt": (lambda: CSCMatrix.from_dense(np.eye(1) * 3), "ldlt", None),
    "convdiff10-lu": (lambda: convection_diffusion2d(10, peclet=1.5), "lu", None),
    "convdiff8-lu-perturbed": (lambda: convection_diffusion2d(8), "lu", 0.9),
}


@pytest.fixture(scope="module")
def sweep_solvers():
    return {}


def sweep_factor(cache, name, precision):
    if (name, precision) not in cache:
        build, method, pp = SWEEP_CASES[name]
        solver = SparseSolver(build(), method=method, pivot_perturbation=pp)
        solver.factor(precision=precision)
        cache[name, precision] = solver.numeric
    return cache[name, precision]


class TestClassSweeps:
    """The class sweeps (one step per (height, m, w) class, updates pulled
    round by round) against :func:`per_front_solve`, bit for bit."""

    @pytest.mark.parametrize("precision", ["fp64", "fp32"])
    @pytest.mark.parametrize("k", [1, 2, 16])
    @pytest.mark.parametrize("name", sorted(SWEEP_CASES))
    def test_matches_the_per_front_sweep(self, sweep_solvers, name, k, precision):
        factor = sweep_factor(sweep_solvers, name, precision)
        n = factor.n
        b = make_rng(500 + k).standard_normal(n if k == 1 else (n, k))
        got = solve_many(factor, b)
        assert got.tobytes() == per_front_solve(factor, b).tobytes()

    def test_the_cases_cover_the_class_shapes(self, sweep_solvers):
        def factor(name):
            return sweep_factor(sweep_solvers, name, "fp64")

        plate = factor("plate16-cholesky").sym.front_plan.classes
        assert np.diff(plate.ptr).max() >= 8
        assert np.diff(plate.class_rounds).max() >= 2
        sym = factor("disconnected-cholesky").sym
        cl = sym.front_plan.classes
        roots = cl.of[np.flatnonzero(sym.sn_parent < 0)]
        assert np.array_equal(cl.order[roots], cl.width[roots])
        assert len(set(cl.height[roots].tolist())) == 3
        assert factor("cube6-ldlt-perturbed").perturbed_columns
        assert factor("convdiff8-lu-perturbed").perturbed_columns
        assert factor("n1-ldlt").sym.front_plan.classes.order.tolist() == [1]
