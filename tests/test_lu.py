"""Tests for the unsymmetric multifrontal LU path."""

import numpy as np
import pytest
import scipy.linalg

from repro.core import SparseSolver
from repro.gen import convection_diffusion2d, grid2d_laplacian
from repro.sparse import CSCMatrix
from repro.sparse.ops import full_symmetric_from_lower
from repro.util.errors import ShapeError, SingularMatrixError
from repro.util.rng import make_rng


def random_dd_unsym(n, seed, density=0.2):
    """Random row-diagonally-dominant unsymmetric matrix (dense built)."""
    rng = make_rng(seed)
    a = rng.standard_normal((n, n))
    mask = rng.random((n, n)) < density
    np.fill_diagonal(mask, False)
    a = a * mask
    d = np.abs(a).sum(axis=1) + 1.0
    np.fill_diagonal(a, d)
    return a


class TestConvectionGenerator:
    def test_structurally_symmetric_numerically_not(self):
        a = convection_diffusion2d(5, peclet=1.0)
        dense = a.to_dense()
        assert not np.allclose(dense, dense.T)
        assert np.all((dense != 0) == (dense != 0).T)

    def test_zero_peclet_is_laplacian(self):
        a = convection_diffusion2d(4, peclet=0.0)
        lap = full_symmetric_from_lower(grid2d_laplacian(4)).to_dense()
        np.testing.assert_allclose(a.to_dense(), lap)

    def test_row_diagonal_dominance(self):
        dense = convection_diffusion2d(6, wind=(2.0, -1.0), peclet=2.0).to_dense()
        off = np.abs(dense).sum(axis=1) - np.abs(np.diag(dense))
        assert np.all(np.diag(dense) >= off - 1e-12)

    def test_validation(self):
        with pytest.raises(ShapeError):
            convection_diffusion2d(0)
        with pytest.raises(ShapeError):
            convection_diffusion2d(3, peclet=-1)


class TestLUFactorization:
    def test_reconstruction_against_dense(self):
        a = convection_diffusion2d(5, peclet=1.0)
        solver = SparseSolver(a, method="lu")
        factor = solver.factor()
        l, u = factor.to_dense_lu()
        perm = factor.sym.perm
        dense = a.to_dense()[np.ix_(perm, perm)]
        np.testing.assert_allclose(l @ u, dense, rtol=1e-9, atol=1e-9)

    def test_unit_lower_and_upper(self):
        a = convection_diffusion2d(4, peclet=0.7)
        solver = SparseSolver(a, method="lu")
        l, u = solver.factor().to_dense_lu()
        np.testing.assert_allclose(np.diag(l), 1.0)
        assert np.allclose(np.triu(l, 1), 0)
        assert np.allclose(np.tril(u, -1), 0)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_random_dd_matrices(self, seed):
        dense = random_dd_unsym(25, seed)
        a = CSCMatrix.from_dense(dense)
        solver = SparseSolver(a, method="lu")
        factor = solver.factor()
        l, u = factor.to_dense_lu()
        perm = factor.sym.perm
        np.testing.assert_allclose(
            l @ u, dense[np.ix_(perm, perm)], rtol=1e-8, atol=1e-8
        )

    def test_zero_pivot_raises(self):
        dense = np.array([[0.0, 1.0], [1.0, 1.0]])
        solver = SparseSolver(CSCMatrix.from_dense(dense), method="lu", ordering=np.arange(2))
        with pytest.raises(SingularMatrixError):
            solver.factor()

    def test_static_perturbation_recovers(self):
        dense = np.array(
            [[1e-14, 1.0, 0.0], [1.0, 3.0, 0.5], [0.0, 0.5, 2.0]]
        )
        a = CSCMatrix.from_dense(dense)
        solver = SparseSolver(
            a, method="lu", ordering=np.arange(3), pivot_perturbation=1e-8
        )
        solver.factor()
        assert len(solver.numeric.perturbed_columns) == 1
        x_true = np.array([1.0, -2.0, 0.5])
        b = dense @ x_true
        res = solver.solve(b, tol=1e-12)
        np.testing.assert_allclose(res.x, x_true, rtol=1e-6)

    def test_flops_double_cholesky(self):
        a = convection_diffusion2d(5, peclet=0.3)
        solver = SparseSolver(a, method="lu")
        factor = solver.factor()
        assert factor.stats.flops > 0
        assert factor.stats.n_fronts == factor.sym.n_supernodes


class TestLUSolve:
    @pytest.mark.parametrize("nx", [3, 5, 8])
    def test_solve_matches_numpy(self, nx):
        a = convection_diffusion2d(nx, wind=(1.0, -0.5), peclet=1.5)
        dense = a.to_dense()
        b = make_rng(4).standard_normal(nx * nx)
        solver = SparseSolver(a, method="lu")
        res = solver.solve(b)
        np.testing.assert_allclose(res.x, np.linalg.solve(dense, b), rtol=1e-8)
        assert res.residual <= 1e-12

    def test_refinement_counts(self):
        a = convection_diffusion2d(5)
        b = np.ones(25)
        res = SparseSolver(a, method="lu").solve(b)
        assert res.refinement_iterations >= 0

    def test_no_refine(self):
        a = convection_diffusion2d(4)
        res = SparseSolver(a, method="lu").solve(np.ones(16), refine=False)
        assert res.refinement_iterations == 0
        assert res.residual < 1e-10

    def test_zero_rhs(self):
        a = convection_diffusion2d(3)
        res = SparseSolver(a, method="lu").solve(np.zeros(9))
        np.testing.assert_array_equal(res.x, np.zeros(9))

    def test_solve_wrong_shape(self):
        solver = SparseSolver(convection_diffusion2d(3), method="lu")
        with pytest.raises(ShapeError):
            solver.solve(np.ones(5))

    def test_explicit_ordering(self):
        a = convection_diffusion2d(4)
        solver = SparseSolver(a, method="lu", ordering=np.arange(16))
        res = solver.solve(np.ones(16))
        assert res.residual <= 1e-12

    @pytest.mark.parametrize("ordering", ["nd", "amd", "natural"])
    def test_ordering_names(self, ordering):
        a = convection_diffusion2d(4, peclet=0.8)
        res = SparseSolver(a, method="lu", ordering=ordering).solve(np.ones(16))
        assert res.residual <= 1e-12

    def test_scipy_lu_cross_check(self):
        """Our no-pivot LU on a DD matrix must solve as accurately as
        scipy's pivoted LU."""
        dense = random_dd_unsym(30, seed=7)
        b = make_rng(8).standard_normal(30)
        ours = SparseSolver(CSCMatrix.from_dense(dense), method="lu").solve(b)
        lu, piv = scipy.linalg.lu_factor(dense)
        x_ref = scipy.linalg.lu_solve((lu, piv), b)
        np.testing.assert_allclose(ours.x, x_ref, rtol=1e-8)

    @pytest.mark.parametrize("refine", [True, False])
    @pytest.mark.parametrize("method", ["cholesky", "ldlt", "lu"])
    def test_overflowing_rhs_degrades_to_best_iterate(self, method, refine):
        """A right-hand side whose solve overflows is frozen by the
        divergence guard on every method, refined or not: the zero
        best-so-far iterate, whose backward error is 1.0."""
        a = convection_diffusion2d(4) if method == "lu" else grid2d_laplacian(4)
        solver = SparseSolver(a, method=method)
        with np.errstate(over="ignore", invalid="ignore"):
            res = solver.solve(np.full(16, 1e308), refine=refine)
        np.testing.assert_array_equal(res.x, np.zeros(16))
        assert res.residual == 1.0
        assert res.refinement_iterations == 0

    @pytest.mark.parametrize(
        "call",
        [
            lambda s, a: s.update_values(a),
            lambda s, a: s.refactor(a),
            lambda s, a: s.schur_complement([0, 1]),
            lambda s, a: s.condition_estimate(),
        ],
        ids=["update_values", "refactor", "schur_complement", "condition_estimate"],
    )
    def test_symmetric_only_paths_raise(self, call):
        a = convection_diffusion2d(4)
        solver = SparseSolver(a, method="lu")
        solver.factor()
        with pytest.raises(ShapeError, match="method='lu'"):
            call(solver, a)

    def test_rectangular_rejected(self):
        with pytest.raises(ShapeError):
            SparseSolver(CSCMatrix.from_dense(np.ones((2, 3))), method="lu")
