"""Tests for the distributed (simulated-parallel) LU path."""

import numpy as np
import pytest

from repro.core import ParallelConfig, SparseSolver
from repro.gen import convection_diffusion2d, grid2d_laplacian
from repro.graph import AdjacencyGraph
from repro.machine import BLUEGENE_P, GENERIC_CLUSTER
from repro.obs.spans import recording
from repro.ordering import nested_dissection_order
from repro.parallel import (
    ParallelFactorResult,
    PlanOptions,
    simulate_factorization,
    simulate_solve,
)
from repro.sparse import CSCMatrix
from repro.sparse.ops import matvec_csc
from repro.symbolic import analyze
from repro.util.errors import ReproError, ShapeError
from repro.util.rng import make_rng


@pytest.fixture(scope="module")
def problem():
    a = convection_diffusion2d(8, wind=(1.0, -0.4), peclet=1.5)
    seq = SparseSolver(a, method="lu")
    seq.factor()
    return a, seq


class TestDistributedLUFactor:
    @pytest.mark.parametrize("p", [1, 2, 3, 4, 8])
    def test_matches_sequential(self, problem, p):
        a, seq = problem
        res = simulate_factorization(
            seq.sym, p, GENERIC_CLUSTER, PlanOptions(nb=8), method="lu"
        )
        l_ref, u_ref = seq.numeric.to_dense_lu()
        l, u = res.to_dense_lu()
        np.testing.assert_allclose(l, l_ref, rtol=1e-9, atol=1e-9)
        np.testing.assert_allclose(u, u_ref, rtol=1e-9, atol=1e-9)

    @pytest.mark.parametrize("policy", ["2d", "1d"])
    def test_policies(self, problem, policy):
        a, seq = problem
        res = simulate_factorization(
            seq.sym,
            4,
            GENERIC_CLUSTER,
            PlanOptions(nb=8, policy=policy),
            method="lu",
        )
        l_ref, u_ref = seq.numeric.to_dense_lu()
        l, u = res.to_dense_lu()
        np.testing.assert_allclose(l, l_ref, rtol=1e-9, atol=1e-9)
        np.testing.assert_allclose(u, u_ref, rtol=1e-9, atol=1e-9)

    def test_flops_about_double_symmetric(self, problem):
        """LU on the symmetrized structure counts ~2x the Cholesky flops."""
        a, seq = problem
        res = simulate_factorization(
            seq.sym, 2, GENERIC_CLUSTER, PlanOptions(nb=8), method="lu"
        )
        sym_flops = sum(
            seq.sym.supernode_flops(s) for s in range(seq.sym.n_supernodes)
        )
        assert res.total_flops == pytest.approx(2 * sym_flops, rel=0.35)

    def test_ea_pairs_full_superset_of_triangular(self, problem):
        from repro.parallel import FactorPlan

        _, seq = problem
        plan = FactorPlan(seq.sym, 4, PlanOptions(nb=8))
        for c in range(seq.sym.n_supernodes):
            if seq.sym.sn_parent[c] < 0:
                continue
            sched = plan.schedule(c)
            assert sched.ea("lower").pairs() <= sched.ea("full").pairs()


class TestSharedDriver:
    def test_lu_needs_lu_analysis(self):
        a = grid2d_laplacian(6)
        sym = analyze(a, nested_dissection_order(AdjacencyGraph.from_symmetric_lower(a)))
        with pytest.raises(ShapeError, match="LU analysis"):
            simulate_factorization(sym, 2, GENERIC_CLUSTER, method="lu")

    def test_cholesky_rejects_pivot_perturbation(self, problem):
        _, seq = problem
        with pytest.raises(ShapeError, match="pivot_perturbation"):
            simulate_factorization(
                seq.sym, 2, GENERIC_CLUSTER, method="cholesky", pivot_perturbation=1e-8
            )

    def test_one_plan_span_per_simulated_lu(self, problem):
        """LU plans are built by the one plan builder, once per rank count
        and options, so the recording sees every build and no rebuild."""
        a, _ = problem
        solver = SparseSolver(a, method="lu")
        solver.analyze()
        config = ParallelConfig(n_ranks=4, machine=GENERIC_CLUSTER, nb=8)
        with recording() as rec:
            solver.simulate(config, b=np.ones(a.shape[0]))
            solver.simulate(config)
            solver.simulate(ParallelConfig(n_ranks=2, machine=GENERIC_CLUSTER, nb=8))
        assert [s.name for s in rec.spans].count("parallel.plan") == 2

    @pytest.mark.parametrize("p", [1, 4])
    def test_lu_reports_peak_entries(self, problem, p):
        """LU's transient memory goes through the shared accounting: every
        rank's peak covers its stored factor plus at least one front."""
        _, seq = problem
        res = simulate_factorization(
            seq.sym, p, GENERIC_CLUSTER, PlanOptions(nb=8), method="lu"
        )
        peak = res.peak_entries_by_rank()
        stored = res.factor_entries_by_rank()
        assert peak.shape == (p,)
        assert np.all(peak > stored)
        assert stored.sum() == seq.numeric.stats.factor_entries


class TestDistributedLUSolve:
    @pytest.mark.parametrize("p", [1, 2, 4, 6])
    def test_residual(self, problem, p):
        a, seq = problem
        res = simulate_factorization(
            seq.sym, p, GENERIC_CLUSTER, PlanOptions(nb=8), method="lu"
        )
        b = make_rng(p).standard_normal(a.shape[0])
        x = simulate_solve(res, b).x
        r = np.max(np.abs(b - matvec_csc(a, x)))
        assert r < 1e-10 * max(1.0, np.max(np.abs(b)))

    def test_matches_numpy(self, problem):
        a, seq = problem
        res = simulate_factorization(
            seq.sym, 4, GENERIC_CLUSTER, PlanOptions(nb=8), method="lu"
        )
        b = make_rng(3).standard_normal(a.shape[0])
        x = simulate_solve(res, b).x
        np.testing.assert_allclose(
            x, np.linalg.solve(a.to_dense(), b), rtol=1e-8
        )

    def test_bad_rhs_shape(self, problem):
        a, seq = problem
        res = simulate_factorization(
            seq.sym, 2, GENERIC_CLUSTER, PlanOptions(nb=8), method="lu"
        )
        with pytest.raises(ShapeError):
            simulate_solve(res, np.ones(3))


class TestLUSolverSimulateAPI:
    def test_simulate_with_verify_and_solve(self, problem):
        a, _ = problem
        solver = SparseSolver(a, method="lu")
        b = np.ones(a.shape[0])
        cfg = ParallelConfig(n_ranks=4, machine=BLUEGENE_P, nb=8)
        report = solver.simulate(cfg, b=b, verify=True)
        res, x = report.factor_result, report.solve_result.x
        r = np.max(np.abs(b - matvec_csc(a, x)))
        assert r < 1e-9
        assert res.makespan > 0

    def test_simulate_detects_corruption(self, problem, monkeypatch):
        a, _ = problem
        solver = SparseSolver(a, method="lu")
        solver.factor()
        real = ParallelFactorResult.to_dense_lu

        def corrupted(self):
            l, u = real(self)
            u[0, 0] += 1.0
            return l, u

        monkeypatch.setattr(ParallelFactorResult, "to_dense_lu", corrupted)
        with pytest.raises(ReproError, match="mismatch"):
            solver.simulate(
                ParallelConfig(n_ranks=2, machine=GENERIC_CLUSTER, nb=8),
                verify=True,
            )

    def test_simulate_honours_threads_per_rank(self):
        """The config's SMP threads reach the simulated LU, as they do the
        symmetric simulate."""
        solver = SparseSolver(convection_diffusion2d(16), method="lu")
        one = solver.simulate(ParallelConfig(n_ranks=4, machine=BLUEGENE_P)).factor_result
        four = solver.simulate(
            ParallelConfig(n_ranks=4, machine=BLUEGENE_P, threads_per_rank=4)
        ).factor_result
        assert (one.threads_per_rank, four.threads_per_rank) == (1, 4)
        assert four.makespan < one.makespan

    def test_scaling_smoke(self):
        """LU strong scaling on the BG/P model shows speedup on a bigger
        mesh, like the symmetric path."""
        a = convection_diffusion2d(16, peclet=1.0)
        solver = SparseSolver(a, method="lu")
        solver.analyze()
        t1 = simulate_factorization(
            solver.sym, 1, BLUEGENE_P, PlanOptions(nb=16), method="lu"
        ).makespan
        t8 = simulate_factorization(
            solver.sym, 8, BLUEGENE_P, PlanOptions(nb=16), method="lu"
        ).makespan
        assert t8 < t1


class TestLUStaticPolicy:
    def test_static_policy_matches(self, problem):
        """Static-grid mapping exercises cross-rank extend-add between
        sequential supernodes (children scattered over ranks)."""
        a, seq = problem
        res = simulate_factorization(
            seq.sym,
            4,
            GENERIC_CLUSTER,
            PlanOptions(nb=8, policy="static"),
            method="lu",
        )
        l_ref, u_ref = seq.numeric.to_dense_lu()
        l, u = res.to_dense_lu()
        np.testing.assert_allclose(l, l_ref, rtol=1e-9, atol=1e-9)
        np.testing.assert_allclose(u, u_ref, rtol=1e-9, atol=1e-9)
        b = make_rng(5).standard_normal(a.shape[0])
        x = simulate_solve(res, b).x
        r = np.max(np.abs(b - matvec_csc(a, x)))
        assert r < 1e-10


class TestLUPropertyPipeline:
    @pytest.mark.parametrize("seed,p", [(0, 2), (1, 3), (2, 5), (3, 8)])
    def test_random_dd_end_to_end(self, seed, p):
        rng = make_rng(seed)
        n = 30
        dense = rng.standard_normal((n, n))
        mask = rng.random((n, n)) < 0.15
        np.fill_diagonal(mask, False)
        dense = dense * mask
        np.fill_diagonal(dense, np.abs(dense).sum(axis=1) + 1.0)
        a = CSCMatrix.from_dense(dense)
        solver = SparseSolver(a, method="lu")
        solver.analyze()
        res = simulate_factorization(
            solver.sym, p, GENERIC_CLUSTER, PlanOptions(nb=4), method="lu"
        )
        b = rng.standard_normal(n)
        x = simulate_solve(res, b).x
        np.testing.assert_allclose(x, np.linalg.solve(dense, b), rtol=1e-7, atol=1e-9)


class TestLUMultiRHS:
    @pytest.mark.parametrize("k", [2, 4])
    def test_block_residuals(self, problem, k):
        a, seq = problem
        res = simulate_factorization(
            seq.sym, 4, GENERIC_CLUSTER, PlanOptions(nb=8), method="lu"
        )
        n = a.shape[0]
        b = make_rng(20 + k).standard_normal((n, k))
        x = simulate_solve(res, b).x
        assert x.shape == (n, k)
        for j in range(k):
            r = np.max(np.abs(b[:, j] - matvec_csc(a, x[:, j])))
            assert r < 1e-10

    def test_block_matches_single(self, problem):
        a, seq = problem
        res = simulate_factorization(
            seq.sym, 3, GENERIC_CLUSTER, PlanOptions(nb=8), method="lu"
        )
        b = make_rng(30).standard_normal((a.shape[0], 3))
        xb = simulate_solve(res, b).x
        for j in range(3):
            xj = simulate_solve(res, b[:, j]).x
            assert xb[:, j].tobytes() == xj.tobytes()

    def test_block_amortizes(self, problem):
        a, seq = problem
        res = simulate_factorization(
            seq.sym, 4, GENERIC_CLUSTER, PlanOptions(nb=8), method="lu"
        )
        b = make_rng(31).standard_normal((a.shape[0], 8))
        s_block = simulate_solve(res, b)
        s_single = simulate_solve(res, b[:, 0])
        assert s_block.makespan < 4 * s_single.makespan
