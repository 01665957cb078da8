"""Tests for the sequential multifrontal engine: factorization correctness
against dense oracles, solves, refinement, accounting."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.gen import (
    grid2d_laplacian,
    grid3d_laplacian,
    grid2d_9pt,
    elasticity3d,
    random_spd_sparse,
)
from repro.graph import AdjacencyGraph
from repro.mf import (
    multifrontal_factor,
    factor_solve,
    iterative_refinement_many,
    assemble_front,
    extend_add,
)
from repro.mf.solve_phase import solve_many
from repro.ordering import amd_order, nested_dissection_order, natural_order
from repro.sparse import CSCMatrix
from repro.sparse.ops import full_symmetric_from_lower, sym_matvec_lower
from repro.symbolic import analyze, AnalyzeOptions
from repro.symbolic.front_plan import build_front_plan
from repro.util.errors import InvariantError, NotPositiveDefiniteError, ShapeError
from repro.util.rng import make_rng


def analyzed(lower, ordering=amd_order, **opts):
    g = AdjacencyGraph.from_symmetric_lower(lower)
    return analyze(lower, ordering(g), AnalyzeOptions(**opts) if opts else None)


def reconstruct(factor):
    """Dense PAP^T from the computed factor."""
    l = factor.to_dense_l()
    if factor.method == "ldlt":
        return l @ np.diag(factor.diag) @ l.T
    return l @ l.T


def permuted_dense(lower, perm):
    full = full_symmetric_from_lower(lower).to_dense()
    return full[np.ix_(perm, perm)]


MATRICES = {
    "grid2d_5": lambda: grid2d_laplacian(5),
    "grid2d_9pt_6": lambda: grid2d_9pt(6),
    "grid3d_4": lambda: grid3d_laplacian(4),
    "elast_2": lambda: elasticity3d(2, seed=0),
    "random_40": lambda: random_spd_sparse(40, avg_degree=5, seed=9),
}


class TestFactorizationCorrectness:
    @pytest.mark.parametrize("name", sorted(MATRICES))
    @pytest.mark.parametrize("method", ["cholesky", "ldlt"])
    def test_reconstruction(self, name, method):
        lower = MATRICES[name]()
        sym = analyzed(lower)
        factor = multifrontal_factor(sym, method=method)
        np.testing.assert_allclose(
            reconstruct(factor),
            permuted_dense(lower, sym.perm),
            rtol=1e-9,
            atol=1e-9,
        )

    @pytest.mark.parametrize("ordering", [natural_order, amd_order, nested_dissection_order])
    def test_ordering_independent_result(self, ordering):
        lower = grid2d_laplacian(6)
        sym = analyzed(lower, ordering)
        factor = multifrontal_factor(sym)
        np.testing.assert_allclose(
            reconstruct(factor), permuted_dense(lower, sym.perm), rtol=1e-9, atol=1e-9
        )

    def test_matches_scipy_cholesky(self):
        lower = grid3d_laplacian(3)
        sym = analyzed(lower, natural_order)
        # natural ordering + postorder: compare against dense cholesky of
        # the permuted matrix.
        factor = multifrontal_factor(sym)
        dense = permuted_dense(lower, sym.perm)
        np.testing.assert_allclose(
            factor.to_dense_l(), np.linalg.cholesky(dense), rtol=1e-9, atol=1e-9
        )

    def test_amalgamation_does_not_change_values(self):
        lower = grid3d_laplacian(4)
        g = AdjacencyGraph.from_symmetric_lower(lower)
        perm = nested_dissection_order(g)
        f_plain = multifrontal_factor(analyze(lower, perm, AnalyzeOptions(amalgamate=False)))
        f_merged = multifrontal_factor(analyze(lower, perm, AnalyzeOptions(amalgamate=True)))
        np.testing.assert_allclose(
            reconstruct(f_plain), reconstruct(f_merged), rtol=1e-9, atol=1e-9
        )

    def test_not_pd_detected(self):
        d = np.eye(4)
        d[2, 2] = -1.0
        lower = CSCMatrix.from_dense(np.tril(d))
        sym = analyzed(lower, natural_order)
        with pytest.raises(NotPositiveDefiniteError):
            multifrontal_factor(sym, method="cholesky")

    def test_ldlt_handles_negative_pivot(self):
        d = np.diag([2.0, -3.0, 4.0])
        d[1, 0] = d[0, 1] = 0.5
        lower = CSCMatrix.from_dense(np.tril(d))
        sym = analyzed(lower, natural_order)
        factor = multifrontal_factor(sym, method="ldlt")
        assert (factor.diag < 0).any()
        np.testing.assert_allclose(
            reconstruct(factor), permuted_dense(lower, sym.perm), rtol=1e-10, atol=1e-12
        )

    def test_unknown_method(self):
        sym = analyzed(grid2d_laplacian(3))
        with pytest.raises(ShapeError):
            multifrontal_factor(sym, method="lu")

    def test_1x1_matrix(self):
        lower = CSCMatrix.from_dense(np.array([[4.0]]))
        sym = analyzed(lower, natural_order)
        factor = multifrontal_factor(sym)
        np.testing.assert_allclose(factor.to_dense_l(), [[2.0]])

    @settings(max_examples=20, deadline=None)
    @given(st.integers(2, 35), st.integers(0, 5000))
    def test_property_random_spd(self, n, seed):
        lower = random_spd_sparse(n, avg_degree=4, seed=seed)
        sym = analyzed(lower)
        factor = multifrontal_factor(sym)
        np.testing.assert_allclose(
            reconstruct(factor), permuted_dense(lower, sym.perm), rtol=1e-8, atol=1e-8
        )


class TestSolve:
    @pytest.mark.parametrize("name", sorted(MATRICES))
    @pytest.mark.parametrize("method", ["cholesky", "ldlt"])
    def test_solve_residual(self, name, method):
        lower = MATRICES[name]()
        n = lower.shape[0]
        rng = make_rng(4)
        b = rng.standard_normal(n)
        sym = analyzed(lower)
        factor = multifrontal_factor(sym, method=method)
        x = factor_solve(factor, b)
        r = b - sym_matvec_lower(lower, x)
        assert np.max(np.abs(r)) <= 1e-8 * max(1.0, np.max(np.abs(b)))

    def test_solve_matches_dense_oracle(self):
        lower = grid2d_laplacian(5)
        full = full_symmetric_from_lower(lower).to_dense()
        rng = make_rng(1)
        b = rng.standard_normal(25)
        factor = multifrontal_factor(analyzed(lower))
        np.testing.assert_allclose(
            factor_solve(factor, b), np.linalg.solve(full, b), rtol=1e-8, atol=1e-10
        )

    def test_solve_many(self):
        lower = grid2d_laplacian(4)
        full = full_symmetric_from_lower(lower).to_dense()
        rng = make_rng(2)
        b = rng.standard_normal((16, 3))
        factor = multifrontal_factor(analyzed(lower))
        np.testing.assert_allclose(
            solve_many(factor, b), np.linalg.solve(full, b), rtol=1e-8, atol=1e-10
        )

    def test_solve_wrong_shape(self):
        factor = multifrontal_factor(analyzed(grid2d_laplacian(3)))
        with pytest.raises(ShapeError):
            factor_solve(factor, np.ones(5))

    def test_solve_zero_rhs(self):
        factor = multifrontal_factor(analyzed(grid2d_laplacian(3)))
        np.testing.assert_array_equal(factor_solve(factor, np.zeros(9)), np.zeros(9))

    @settings(max_examples=15, deadline=None)
    @given(st.integers(2, 30), st.integers(0, 5000))
    def test_property_solve_random(self, n, seed):
        lower = random_spd_sparse(n, avg_degree=4, seed=seed)
        rng = np.random.default_rng(seed + 1)
        b = rng.standard_normal(n)
        factor = multifrontal_factor(analyzed(lower))
        x = factor_solve(factor, b)
        r = b - sym_matvec_lower(lower, x)
        assert np.max(np.abs(r)) <= 1e-7 * max(1.0, np.max(np.abs(b)))


class TestRefinement:
    def test_refinement_converges(self):
        lower = grid3d_laplacian(3)
        rng = make_rng(3)
        b = rng.standard_normal(27)
        factor = multifrontal_factor(analyzed(lower))
        res = iterative_refinement_many(factor, lower, b, tol=1e-13)
        assert res.converged[0]
        assert res.residual_history[0][-1] <= 1e-13

    def test_refinement_improves_residual(self):
        lower = random_spd_sparse(50, avg_degree=6, seed=11)
        rng = make_rng(5)
        b = rng.standard_normal(50)
        factor = multifrontal_factor(analyzed(lower))
        res = iterative_refinement_many(factor, lower, b, max_iter=3, tol=0.0)
        history = res.residual_history[0]
        assert history[-1] <= history[0] * 10

    def test_zero_rhs_shortcut(self):
        lower = grid2d_laplacian(3)
        factor = multifrontal_factor(analyzed(lower))
        res = iterative_refinement_many(factor, lower, np.zeros(9))
        assert res.converged[0]
        np.testing.assert_array_equal(res.x[:, 0], np.zeros(9))


class TestAccounting:
    def test_flops_match_symbolic_prediction(self):
        lower = grid3d_laplacian(4)
        sym = analyzed(lower, nested_dissection_order)
        factor = multifrontal_factor(sym)
        predicted = sum(sym.supernode_flops(s) for s in range(sym.n_supernodes))
        assert factor.stats.flops == predicted

    def test_front_count_equals_supernodes(self):
        lower = grid2d_laplacian(6)
        sym = analyzed(lower)
        factor = multifrontal_factor(sym)
        assert factor.stats.n_fronts == sym.n_supernodes

    def test_peak_stack_positive_for_trees(self):
        lower = grid3d_laplacian(4)
        factor = multifrontal_factor(analyzed(lower, nested_dissection_order))
        assert factor.stats.peak_stack_entries > 0

    def test_factor_entries_match_symbolic(self):
        lower = grid2d_laplacian(5)
        sym = analyzed(lower)
        factor = multifrontal_factor(sym)
        assert factor.stats.factor_entries == sym.nnz_stored


class TestFrontPrimitives:
    def test_assemble_front_scatters_columns(self):
        lower = grid2d_laplacian(3)
        sym = analyzed(lower, natural_order)
        s = 0
        rows = sym.sn_rows[s]
        w = sym.supernode_width(s)
        c0 = int(sym.partition.sn_start[s])
        front = assemble_front(sym, s)
        dense = permuted_dense(lower, sym.perm)
        for k in range(w):
            np.testing.assert_allclose(front[:, k], dense[rows, c0 + k] * (rows >= c0 + k))
        assert not front[:, w:].any()

    def test_extend_add_positions(self):
        # update rows 5 and 9 of a parent whose rows are [2, 5, 7, 9]
        parent = np.zeros((4, 4))
        update = np.array([[1.0, 0.0], [3.0, 4.0]])
        extend_add(parent, update, np.array([1, 3], dtype=np.int32))
        assert parent[1, 1] == 1.0
        assert parent[3, 1] == 3.0
        assert parent[3, 3] == 4.0
        assert np.count_nonzero(np.tril(parent)) == 3

    def test_extend_add_missing_row_raises(self):
        """A child update row its parent lacks is caught when the analysis
        compiles the front plan, not on every extend-add."""
        sym = analyzed(grid2d_laplacian(4), nested_dissection_order)
        c = 0
        p = int(sym.sn_parent[c])
        stray = int(np.setdiff1d(np.arange(sym.n), sym.sn_rows[p])[-1])
        assert stray >= sym.partition.sn_start[c + 1]  # lands among c's update rows
        broken = list(sym.sn_rows)
        broken[c] = np.union1d(broken[c], [stray])
        with pytest.raises(InvariantError, match=rf"supernode {c} update rows \[{stray}\]"):
            build_front_plan(sym.permuted_lower, sym.partition, broken, sym.sn_parent)

    def test_extend_add_size_mismatch(self):
        with pytest.raises(ValueError):
            extend_add(np.zeros((2, 2)), np.ones((2, 2)), np.array([0]))
