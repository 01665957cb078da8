"""Refactorization + blocked multi-RHS under the *parallel* driver.

The single-RHS sequential refactor path was already covered; these tests
exercise the serving-layer workflow at the driver level: one analysis, many
numeric factorizations on the simulated machine, blocked (n, k) solves,
and structural-plan reuse across refactorizations."""

import numpy as np
import pytest

from repro.core import ParallelConfig, SparseSolver
from repro.gen import grid2d_laplacian, grid3d_laplacian
from repro.machine import GENERIC_CLUSTER
from repro.parallel import (
    FactorPlan,
    PlanOptions,
    simulate_factorization,
    simulate_solve,
)
from repro.sparse.csc import CSCMatrix
from repro.sparse.ops import full_symmetric_from_lower, sym_matvec_lower
from repro.util.errors import ReproError, ShapeError
from repro.util.rng import make_rng

pytestmark = pytest.mark.service


def scaled(lower, factor):
    return CSCMatrix(
        lower.shape, lower.indptr, lower.indices, lower.data * factor,
        _skip_check=True,
    )


def max_residual(lower, b, x):
    r = np.abs(b - np.column_stack(
        [sym_matvec_lower(lower, x[:, j]) for j in range(x.shape[1])]
    ))
    return float(np.max(r))


class TestParallelRefactorMultiRHS:
    @pytest.fixture(scope="class")
    def solver(self):
        s = SparseSolver(grid3d_laplacian(4))
        s.analyze()
        return s

    def test_refactor_then_parallel_multirhs(self, solver):
        """One analysis, two numeric value sets, blocked solves for both."""
        lower = solver.lower
        n = lower.shape[0]
        b = make_rng(21).standard_normal((n, 3))

        res1 = simulate_factorization(
            solver.sym, 4, GENERIC_CLUSTER, PlanOptions(nb=8)
        )
        x1 = simulate_solve(res1, b).x

        solver.update_values(scaled(lower, 2.0))
        res2 = simulate_factorization(
            solver.sym, 4, GENERIC_CLUSTER, PlanOptions(nb=8)
        )
        x2 = simulate_solve(res2, b).x

        assert max_residual(solver.lower, b, x2) < 1e-9
        # A x = b and (2A) y = b  =>  y = x / 2.
        np.testing.assert_allclose(x2, x1 / 2.0, rtol=1e-9)
        solver.update_values(lower)  # restore for other tests

    def test_plan_reuse_across_refactorizations(self, solver):
        """The structural plan survives numeric refactorization bit-for-bit."""
        plan = FactorPlan(solver.sym, 4, PlanOptions(nb=8))
        b = make_rng(22).standard_normal((solver.lower.shape[0], 2))

        fresh = simulate_factorization(
            solver.sym, 4, GENERIC_CLUSTER, PlanOptions(nb=8)
        )
        reused = simulate_factorization(
            solver.sym, 4, GENERIC_CLUSTER, PlanOptions(nb=8), plan=plan
        )
        assert reused.plan is plan
        np.testing.assert_array_equal(
            fresh.to_dense_l(), reused.to_dense_l()
        )

        solver.update_values(scaled(solver.lower, 3.0))
        refit = simulate_factorization(
            solver.sym, 4, GENERIC_CLUSTER, PlanOptions(nb=8), plan=plan
        )
        x = simulate_solve(refit, b).x
        assert max_residual(solver.lower, b, x) < 1e-9
        solver.update_values(scaled(solver.lower, 1.0 / 3.0))

    def test_mismatched_plan_rejected(self, solver):
        other = SparseSolver(grid2d_laplacian(4))
        other.analyze()
        plan = FactorPlan(other.sym, 4, PlanOptions(nb=8))
        with pytest.raises(ShapeError):
            simulate_factorization(
                solver.sym, 4, GENERIC_CLUSTER, PlanOptions(nb=8), plan=plan
            )
        plan_wrong_p = FactorPlan(solver.sym, 2, PlanOptions(nb=8))
        with pytest.raises(ShapeError):
            simulate_factorization(
                solver.sym, 4, GENERIC_CLUSTER, PlanOptions(nb=8),
                plan=plan_wrong_p,
            )

    def test_plan_with_other_options_rejected(self, solver):
        """A prebuilt plan is not silently run at its own options when the
        caller asks for others; ``options=None`` takes the plan's."""
        plan = FactorPlan(solver.sym, 4, PlanOptions(nb=48))
        with pytest.raises(ShapeError, match="options"):
            simulate_factorization(
                solver.sym, 4, GENERIC_CLUSTER, PlanOptions(nb=8), plan=plan
            )
        with pytest.raises(ShapeError, match="options"):
            simulate_factorization(
                solver.sym, 4, GENERIC_CLUSTER, PlanOptions(nb=48, policy="1d"), plan=plan
            )
        same = simulate_factorization(
            solver.sym, 4, GENERIC_CLUSTER, PlanOptions(nb=48), plan=plan
        )
        assert same.plan is plan
        assert simulate_factorization(solver.sym, 4, GENERIC_CLUSTER, plan=plan).plan is plan

    def test_full_symmetric_refactor_parallel_ldlt(self):
        """Full-symmetric refactor input + LDLT on the parallel engine."""
        lower = grid2d_laplacian(6)
        solver = SparseSolver(lower, method="ldlt")
        solver.analyze()
        solver.update_values(full_symmetric_from_lower(scaled(lower, 1.5)))
        res = simulate_factorization(
            solver.sym, 4, GENERIC_CLUSTER, PlanOptions(nb=8), method="ldlt"
        )
        b = make_rng(23).standard_normal((36, 2))
        x = simulate_solve(res, b).x
        assert max_residual(solver.lower, b, x) < 1e-9


class TestSolverPlanCache:
    """`SparseSolver.simulate` builds one plan per `(n_ranks, PlanOptions)`
    and reuses it — schedule included — across numeric value updates."""

    CONFIG = ParallelConfig(n_ranks=4, machine=GENERIC_CLUSTER, nb=8)

    def test_cached_plan_factors_the_new_values(self):
        lower = grid3d_laplacian(4)
        solver = SparseSolver(lower)
        b = make_rng(24).standard_normal(lower.shape[0])
        first = solver.simulate(self.CONFIG, b=b)
        plan = first.factor_result.plan
        assert list(solver.plans) == [(4, PlanOptions(nb=8))]

        solver.update_values(scaled(lower, 4.0))
        # verify=True compares against a fresh host factor of the new values.
        second = solver.simulate(self.CONFIG, b=b, verify=True)
        assert second.factor_result.plan is plan
        # Scaling by a power of four is exact in every operation.
        np.testing.assert_array_equal(
            second.solve_result.x, first.solve_result.x / 4.0
        )
        np.testing.assert_array_equal(
            second.factor_result.to_dense_l(),
            first.factor_result.to_dense_l() * 2.0,
        )
        # Structure did not change, so neither did the simulated machine.
        assert (second.factor_time, second.n_messages, second.total_bytes) == (
            first.factor_time, first.n_messages, first.total_bytes,
        )

    def test_key_is_every_plan_option_and_analyze_drops_plans(self):
        solver = SparseSolver(grid2d_laplacian(6))
        solver.simulate(self.CONFIG)
        solver.simulate(ParallelConfig(n_ranks=4, machine=GENERIC_CLUSTER, nb=4))
        solver.simulate(ParallelConfig(n_ranks=2, machine=GENERIC_CLUSTER, nb=8))
        assert len(solver.plans) == 3
        custom = solver.parallel_plan(4, PlanOptions(nb=8, min_dist_width=3))
        assert custom is not solver.plans[4, PlanOptions(nb=8)]
        assert custom is solver.parallel_plan(4, PlanOptions(nb=8, min_dist_width=3))
        solver.analyze()
        assert solver.plans == {}


class TestSimulateVerify:
    """`SparseSolver.simulate(verify=True)` runs the distributed LDLᵀ with the
    solver's own settings and checks every part of it against the host."""

    @pytest.mark.parametrize("p", [1, 2])
    def test_pivot_perturbation_reaches_the_simulator(self, p):
        a = np.array([[0.0, 1.0, 0.0], [1.0, 2.0, 0.5], [0.0, 0.5, 3.0]])
        solver = SparseSolver(
            CSCMatrix.from_dense(np.tril(a)),
            method="ldlt",
            ordering=np.arange(3),
            pivot_perturbation=1e-8,
        )
        solver.factor()
        assert solver.numeric.perturbed_columns  # column 0 has a zero pivot
        report = solver.simulate(ParallelConfig(n_ranks=p), verify=True)
        np.testing.assert_array_equal(
            report.factor_result.assemble_diag(), solver.numeric.diag
        )

    def test_verify_checks_the_pivots(self, monkeypatch):
        import repro.core.solver as solver_module

        simulate = solver_module.simulate_factorization

        def tampered(*args, **kwargs):
            res = simulate(*args, **kwargs)
            data = next(d for d in res.datas if d.seq_diag)
            dv = next(iter(data.seq_diag.values()))
            dv[0] *= 2.0
            return res

        solver = SparseSolver(grid2d_laplacian(6), method="ldlt")
        config = ParallelConfig(n_ranks=2, machine=GENERIC_CLUSTER, nb=8)
        solver.simulate(config, verify=True)
        monkeypatch.setattr(solver_module, "simulate_factorization", tampered)
        with pytest.raises(ReproError, match="pivots D"):
            solver.simulate(config, verify=True)
