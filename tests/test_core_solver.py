"""Tests for the public SparseSolver API, baselines, and analysis layers."""

import numpy as np
import pytest

import repro
from repro.analysis import (
    load_imbalance,
    render_scaling_table,
    render_series,
    scaling_series,
)
from repro.baselines import (
    BASELINES,
    get_baseline,
    simulate_baseline,
)
from repro.core import AnalyzeInfo, ParallelConfig, SparseSolver
from repro.gen import grid3d_laplacian
from repro.machine import BLUEGENE_P, GENERIC_CLUSTER
from repro.parallel import PlanOptions, simulate_factorization
from repro.sparse import CSCMatrix
from repro.sparse.ops import full_symmetric_from_lower, sym_matvec_lower
from repro.util.errors import ReproError, ShapeError
from repro.util.rng import make_rng


@pytest.fixture(scope="module")
def small():
    return grid3d_laplacian(4)


class TestTopLevelPackage:
    def test_lazy_exports(self):
        assert repro.SparseSolver is SparseSolver
        assert repro.__version__
        with pytest.raises(AttributeError):
            repro.nonexistent


class TestSparseSolverPhases:
    def test_analyze_info(self, small):
        solver = SparseSolver(small)
        info = solver.analyze()
        assert isinstance(info, AnalyzeInfo)
        assert info.n == 64
        assert info.nnz_factor >= info.nnz_a
        assert info.fill_ratio >= 1.0
        assert info.n_supernodes >= 1
        assert solver.info is info

    def test_info_before_analyze_raises(self, small):
        with pytest.raises(ReproError):
            SparseSolver(small).info

    def test_full_pipeline_residual(self, small):
        solver = SparseSolver(small)
        b = make_rng(1).standard_normal(64)
        res = solver.solve(b)
        assert res.residual <= 1e-12

    def test_solve_without_refine(self, small):
        solver = SparseSolver(small)
        b = make_rng(2).standard_normal(64)
        res = solver.solve(b, refine=False)
        assert res.refinement_iterations == 0
        assert res.residual <= 1e-10
        # The unrefined residual is the normwise backward error, as the
        # refined one is (r through the same matvec, so the same bits).
        dense = full_symmetric_from_lower(small).to_dense()
        r = b - sym_matvec_lower(small, res.x)
        anorm = np.abs(dense).sum(axis=1).max()
        berr = np.abs(r).max() / (anorm * np.abs(res.x).max() + np.abs(b).max())
        assert res.residual == pytest.approx(berr, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("refine", [True, False])
    def test_rejects_empty_rhs_panel(self, small, refine):
        solver = SparseSolver(small)
        with pytest.raises(ShapeError):
            solver.solve(np.ones((64, 0)), refine=refine)

    def test_complex_input_rejected_at_every_entry_point(self, small):
        # A float cast keeps the real part alone: each call would return the
        # solution of another system with only a ComplexWarning.
        from repro.service import SolverService

        b = np.ones(64) * (1 + 2j)
        solver = SparseSolver(small)
        with pytest.raises(ShapeError, match="complex"):
            solver.solve(b)
        with pytest.raises(ShapeError, match="complex"):
            solver.solve(np.stack([b, b], axis=1), refine=False)
        with pytest.raises(ShapeError, match="complex"):
            solver.refactor(CSCMatrix(small.shape, small.indptr, small.indices, small.data + 1j))
        with pytest.raises(ShapeError, match="complex"):
            SolverService().submit(small, np.ones(64) * 1j)
        with pytest.raises(ShapeError, match="cannot be converted"):
            solver.solve(np.array(["x"] * 64))

    def test_accepts_full_symmetric_matrix(self, small):
        full = full_symmetric_from_lower(small)
        solver = SparseSolver(full)
        b = make_rng(3).standard_normal(64)
        assert solver.solve(b).residual <= 1e-12

    def test_rejects_asymmetric_full(self):
        d = np.array([[2.0, 1.0], [0.5, 3.0]])
        with pytest.raises(ShapeError):
            SparseSolver(CSCMatrix.from_dense(d))

    def test_rejects_rectangular(self):
        with pytest.raises(ShapeError):
            SparseSolver(CSCMatrix.from_dense(np.ones((2, 3))))

    def test_rejects_bad_method(self, small):
        with pytest.raises(ShapeError):
            SparseSolver(small, method="qr")

    def test_ldlt_method(self, small):
        solver = SparseSolver(small, method="ldlt")
        b = make_rng(4).standard_normal(64)
        assert solver.solve(b).residual <= 1e-12

    def test_explicit_permutation(self, small):
        solver = SparseSolver(small, ordering=np.arange(64))
        b = make_rng(5).standard_normal(64)
        assert solver.solve(b).residual <= 1e-12

    @pytest.mark.parametrize("ordering", ["nd", "amd", "rcm", "natural"])
    def test_ordering_names(self, small, ordering):
        solver = SparseSolver(small, ordering=ordering)
        b = make_rng(6).standard_normal(64)
        assert solver.solve(b).residual <= 1e-12


class TestSimulate:
    def test_basic_report(self, small):
        solver = SparseSolver(small)
        cfg = ParallelConfig(n_ranks=4, machine=GENERIC_CLUSTER, nb=8)
        rep = solver.simulate(cfg)
        assert rep.factor_time > 0
        assert rep.factor_gflops > 0
        assert rep.solve_time is None

    def test_with_solve_and_verify(self, small):
        solver = SparseSolver(small)
        b = make_rng(7).standard_normal(64)
        cfg = ParallelConfig(n_ranks=4, machine=GENERIC_CLUSTER, nb=8)
        rep = solver.simulate(cfg, b=b, verify=True)
        assert rep.solve_time is not None
        x = rep.solve_result.x
        r = np.max(np.abs(b - sym_matvec_lower(solver.lower, x)))
        assert r <= 1e-10

    def test_policy_flows_through(self, small):
        solver = SparseSolver(small)
        rep = solver.simulate(ParallelConfig(n_ranks=4, nb=8, policy="1d"))
        assert rep.factor_result.plan.opts.policy == "1d"

    def test_threads_flow_through(self, small):
        solver = SparseSolver(small)
        rep = solver.simulate(
            ParallelConfig(n_ranks=2, machine=BLUEGENE_P, nb=8, threads_per_rank=4)
        )
        assert rep.factor_result.threads_per_rank == 4


class TestBaselines:
    def test_registry(self):
        assert set(BASELINES) == {"wsmp-like", "mumps-like", "superlu-like"}
        assert get_baseline("wsmp-like").policy == "2d"
        with pytest.raises(ShapeError):
            get_baseline("pastix")

    def test_all_baselines_run_and_agree_numerically(self, small):
        solver = SparseSolver(small)
        solver.analyze()
        solver.factor()
        ref = solver.numeric.to_dense_l()
        for name in BASELINES:
            res = simulate_baseline(name, solver.sym, 4, GENERIC_CLUSTER, nb=8)
            np.testing.assert_allclose(
                res.to_dense_l(), ref, rtol=1e-9, atol=1e-9
            )



class TestAnalysis:
    @pytest.fixture(scope="class")
    def sym(self):
        solver = SparseSolver(grid3d_laplacian(5))
        solver.analyze()
        return solver.sym

    def test_scaling_series_shapes(self, sym):
        pts = scaling_series(sym, [1, 2, 4], GENERIC_CLUSTER, PlanOptions(nb=16))
        assert [pt.n_ranks for pt in pts] == [1, 2, 4]
        assert pts[0].speedup == pytest.approx(1.0)
        assert pts[0].efficiency == pytest.approx(1.0)
        assert all(pt.time > 0 for pt in pts)

    def test_efficiency_decreasing(self, sym):
        pts = scaling_series(sym, [1, 4, 16], GENERIC_CLUSTER, PlanOptions(nb=16))
        assert pts[2].efficiency <= pts[0].efficiency + 1e-9

    def test_load_imbalance_at_least_one(self, sym):
        res = simulate_factorization(sym, 4, GENERIC_CLUSTER, PlanOptions(nb=16))
        assert load_imbalance(res) >= 1.0

    def test_render_scaling_table(self, sym):
        pts = scaling_series(sym, [1, 2], GENERIC_CLUSTER, PlanOptions(nb=16))
        text = render_scaling_table(pts, title="T")
        assert "ranks" in text and "Gflop/s" in text
        assert len(text.splitlines()) == 5

    def test_render_series(self):
        text = render_series("p", [1, 2], {"t": [0.5, 0.3]}, title="F")
        assert text.splitlines()[0] == "F"
        assert "0.5" in text
