"""Tests for the extended solver features: Schur complements, condition
estimation, refactorization, the analytic performance model and tracing."""

import numpy as np
import pytest

from repro.core import SparseSolver
from repro.gen import grid2d_laplacian, grid3d_laplacian, random_spd_sparse
from repro.graph import AdjacencyGraph
from repro.machine import BLUEGENE_P, GENERIC_CLUSTER
from repro.mf import condest, multifrontal_factor, schur_complement
from repro.mf.condest import inverse_onenorm_estimate
from repro.mf.schur import split_symmetric_lower
from repro.analysis import predict_factor_time, predict_scaling
from repro.ordering import nested_dissection_order
from repro.parallel import FactorPlan, PlanOptions, simulate_factorization
from repro.parallel.factor_par import make_factor_program
from repro.simmpi import Simulator
from repro.sparse import CSCMatrix
from repro.sparse.ops import full_symmetric_from_lower, sym_norm_inf_lower
from repro.sparse.permute import permute_symmetric_lower
from repro.symbolic import analyze
from repro.util.errors import ReproError, ShapeError
from repro.util.rng import make_rng


def analyzed(lower):
    g = AdjacencyGraph.from_symmetric_lower(lower)
    return analyze(lower, nested_dissection_order(g))


class TestSchurComplement:
    def test_matches_dense_oracle(self):
        lower = grid2d_laplacian(6)
        full = full_symmetric_from_lower(lower).to_dense()
        schur_set = np.array([3, 10, 20, 35])
        s = schur_complement(lower, schur_set)
        interior = np.setdiff1d(np.arange(36), schur_set)
        a_bb = full[np.ix_(schur_set, schur_set)]
        a_bi = full[np.ix_(schur_set, interior)]
        a_ii = full[np.ix_(interior, interior)]
        expected = a_bb - a_bi @ np.linalg.solve(a_ii, a_bi.T)
        np.testing.assert_allclose(s, expected, rtol=1e-9, atol=1e-9)

    def test_symmetric_and_spd(self):
        lower = grid3d_laplacian(4)
        s = schur_complement(lower, np.arange(5))
        np.testing.assert_allclose(s, s.T)
        assert np.linalg.eigvalsh(s).min() > 0  # Schur of SPD is SPD

    def test_via_solver_api(self):
        lower = grid2d_laplacian(5)
        solver = SparseSolver(lower)
        s = solver.schur_complement([0, 24])
        assert s.shape == (2, 2)

    def test_split_blocks(self):
        lower = grid2d_laplacian(3)
        full = full_symmetric_from_lower(lower).to_dense()
        b = np.array([0, 4])
        a_ii, a_bi, a_bb = split_symmetric_lower(lower, b)
        i = np.setdiff1d(np.arange(9), b)
        np.testing.assert_allclose(
            full_symmetric_from_lower(a_ii).to_dense(), full[np.ix_(i, i)]
        )
        np.testing.assert_allclose(a_bi, full[np.ix_(b, i)])
        np.testing.assert_allclose(a_bb, full[np.ix_(b, b)])

    def test_validation(self):
        lower = grid2d_laplacian(3)
        with pytest.raises(ShapeError):
            split_symmetric_lower(lower, np.array([], dtype=np.int64))
        with pytest.raises(ShapeError):
            split_symmetric_lower(lower, np.arange(9))
        with pytest.raises(ShapeError):
            split_symmetric_lower(lower, np.array([0, 0]))
        with pytest.raises(ShapeError):
            split_symmetric_lower(lower, np.array([99]))


class TestCondest:
    def test_onenorm_exact(self):
        lower = grid2d_laplacian(4)
        full = full_symmetric_from_lower(lower).to_dense()
        # condest's ‖A‖₁ factor: ‖A‖∞ of the lower triangle, by symmetry
        assert sym_norm_inf_lower(lower) == pytest.approx(
            np.abs(full).sum(axis=0).max()
        )

    def test_identity(self):
        lower = CSCMatrix.from_dense(np.eye(5))
        sym = analyzed(lower)
        factor = multifrontal_factor(sym)
        assert condest(lower, factor) == pytest.approx(1.0, rel=0.01)

    def test_within_factor_of_true_cond(self):
        lower = grid2d_laplacian(8)
        full = full_symmetric_from_lower(lower).to_dense()
        true_cond = np.linalg.cond(full, 1)
        factor = multifrontal_factor(analyzed(lower))
        est = condest(lower, factor)
        # Hager's estimate is a lower bound within a modest factor.
        assert true_cond / 10 <= est <= true_cond * 1.01

    def test_ill_conditioned_detected(self):
        d = np.diag([1.0, 1.0, 1e-8])
        lower = CSCMatrix.from_dense(np.tril(d))
        factor = multifrontal_factor(analyzed(lower))
        assert condest(lower, factor) > 1e6

    def test_inverse_estimate_positive(self):
        lower = random_spd_sparse(30, seed=2)
        factor = multifrontal_factor(analyzed(lower))
        assert inverse_onenorm_estimate(factor) > 0

    def test_solver_api(self):
        solver = SparseSolver(grid2d_laplacian(5))
        assert solver.condition_estimate() > 1.0


class TestRefactor:
    def test_new_values_same_pattern(self):
        lower = grid2d_laplacian(5)
        solver = SparseSolver(lower)
        b = make_rng(1).standard_normal(25)
        x1 = solver.solve(b).x
        # Scale the matrix by 2: solution halves.
        lower2 = CSCMatrix(
            lower.shape, lower.indptr, lower.indices, lower.data * 2.0
        )
        solver.refactor(lower2)
        x2 = solver.solve(b).x
        np.testing.assert_allclose(x2, x1 / 2, rtol=1e-10)

    def test_requires_analyze_first(self):
        solver = SparseSolver(grid2d_laplacian(3))
        with pytest.raises(ReproError):
            solver.refactor(grid2d_laplacian(3))

    def test_rejects_different_pattern(self):
        solver = SparseSolver(grid2d_laplacian(4))
        solver.analyze()
        with pytest.raises(ShapeError):
            solver.refactor(grid3d_laplacian(2))  # different shape
        with pytest.raises(ShapeError):
            solver.refactor(random_spd_sparse(16, seed=1))  # same n, diff pattern

    def test_refactor_reuses_symbolic(self):
        solver = SparseSolver(grid2d_laplacian(4))
        solver.factor()
        sym_before = solver.sym
        solver.refactor(solver.lower.copy())
        assert solver.sym is sym_before

    @pytest.mark.parametrize("as_full", [False, True], ids=["lower", "full"])
    @pytest.mark.parametrize("ordering", ["nd", "amd"])
    def test_update_values_permutes_like_the_analysis(self, ordering, as_full):
        """New values reach ``permuted_lower`` through the gather recorded
        at analysis; a fresh permutation of them gives the same matrix."""
        lower = random_spd_sparse(40, avg_degree=5, seed=4)
        solver = SparseSolver(lower, ordering=ordering)
        solver.analyze()
        new = CSCMatrix(
            lower.shape, lower.indptr, lower.indices,
            lower.data * make_rng(2).uniform(0.5, 2.0, lower.nnz),
        )
        solver.update_values(full_symmetric_from_lower(new) if as_full else new)
        want = permute_symmetric_lower(new, solver.sym.perm)
        got = solver.sym.permuted_lower
        np.testing.assert_array_equal(got.indptr, want.indptr)
        np.testing.assert_array_equal(got.indices, want.indices)
        assert got.data.tobytes() == want.data.tobytes()


class TestAnalyticModel:
    @pytest.fixture(scope="class")
    def sym(self):
        return analyzed(grid3d_laplacian(6))

    @pytest.mark.parametrize("p", [1, 4, 16])
    def test_within_factor_of_des(self, sym, p):
        des = simulate_factorization(
            sym, p, BLUEGENE_P, PlanOptions(nb=32)
        ).makespan
        mod = predict_factor_time(sym, p, BLUEGENE_P, PlanOptions(nb=32))
        assert mod / 3 <= des <= mod * 3

    def test_p1_matches_des_closely(self, sym):
        des = simulate_factorization(
            sym, 1, BLUEGENE_P, PlanOptions(nb=32)
        ).makespan
        mod = predict_factor_time(sym, 1, BLUEGENE_P, PlanOptions(nb=32))
        assert mod == pytest.approx(des, rel=0.35)

    def test_predict_scaling_series(self, sym):
        pts = predict_scaling(sym, [1, 4, 16, 256], BLUEGENE_P, PlanOptions(nb=32))
        assert [p for p, _ in pts] == [1, 4, 16, 256]
        assert all(t > 0 for _, t in pts)

    def test_large_p_cheap(self, sym):
        import time

        t0 = time.perf_counter()
        predict_factor_time(sym, 4096, BLUEGENE_P, PlanOptions(nb=32))
        assert time.perf_counter() - t0 < 5.0


class TestTracing:
    @pytest.fixture(scope="class")
    def traced(self):
        sym = analyzed(grid3d_laplacian(4))
        plan = FactorPlan(sym, 4, PlanOptions(nb=16))
        program = make_factor_program(plan)
        return Simulator(GENERIC_CLUSTER, 4, trace=True).run(program)

    def test_trace_present_and_consistent(self, traced):
        trace = traced.trace
        assert trace is not None
        assert trace.events
        # Trace totals agree with the stats the scheduler kept.
        assert trace.total("compute") == pytest.approx(
            sum(s.compute_time for s in traced.rank_stats), rel=1e-9
        )
        assert trace.total("send") == pytest.approx(
            sum(s.send_time for s in traced.rank_stats), rel=1e-9
        )

    def test_trace_span_matches_makespan(self, traced):
        assert traced.trace.span() <= traced.makespan + 1e-12

    def test_no_trace_by_default(self):
        sym = analyzed(grid2d_laplacian(4))
        plan = FactorPlan(sym, 2, PlanOptions(nb=16))
        res = Simulator(GENERIC_CLUSTER, 2).run(make_factor_program(plan))
        assert res.trace is None

