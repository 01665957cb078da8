"""Failure-injection tests: the system must fail loudly and informatively,
not silently corrupt results."""

import numpy as np
import pytest

from repro.core import ParallelConfig, SparseSolver
from repro.dense.chol import LAPACK_MIN_PIVOTS
from repro.exec import multifrontal_factor_threads
from repro.gen import grid2d_laplacian, grid3d_laplacian
from repro.graph import AdjacencyGraph
from repro.machine import GENERIC_CLUSTER
from repro.mf.numeric import multifrontal_factor
from repro.ordering import nested_dissection_order
from repro.parallel import PlanOptions, simulate_factorization
from repro.sparse import CSCMatrix
from repro.symbolic import analyze
from repro.util.errors import (
    NotPositiveDefiniteError,
    ReproError,
    ShapeError,
    SimulationError,
    SingularMatrixError,
)


def indefinite_grid(nx):
    """A grid Laplacian poisoned with one large negative diagonal entry."""
    lower = grid2d_laplacian(nx)
    data = lower.data.copy()
    n = lower.shape[0]
    # locate the diagonal entry of the middle column
    j = n // 2
    s, e = lower.indptr[j], lower.indptr[j + 1]
    for k in range(s, e):
        if lower.indices[k] == j:
            data[k] = -100.0
    return CSCMatrix(lower.shape, lower.indptr, lower.indices, data)


class TestNumericFailures:
    def test_sequential_not_pd_error(self):
        solver = SparseSolver(indefinite_grid(5))
        with pytest.raises(NotPositiveDefiniteError):
            solver.factor()

    def test_parallel_not_pd_surfaces_as_simulation_error(self):
        """A pivot failure inside a simulated rank must surface with rank
        context, wrapping the numeric error."""
        lower = indefinite_grid(6)
        g = AdjacencyGraph.from_symmetric_lower(lower)
        sym = analyze(lower, nested_dissection_order(g))
        with pytest.raises(SimulationError, match="rank"):
            simulate_factorization(sym, 4, GENERIC_CLUSTER, PlanOptions(nb=8))

    def test_ldlt_survives_the_same_matrix(self):
        solver = SparseSolver(indefinite_grid(5), method="ldlt")
        b = np.ones(25)
        res = solver.solve(b)
        assert res.residual < 1e-9

    def test_parallel_ldlt_survives(self):
        lower = indefinite_grid(6)
        g = AdjacencyGraph.from_symmetric_lower(lower)
        sym = analyze(lower, nested_dissection_order(g))
        res = simulate_factorization(
            sym, 4, GENERIC_CLUSTER, PlanOptions(nb=8), method="ldlt"
        )
        assert res.makespan > 0


#: the two host drivers of the front loop
FACTOR = {
    "seq": multifrontal_factor,
    "threads": lambda sym, method: multifrontal_factor_threads(sym, method=method, workers=2),
}


def analyzed_cube():
    lower = grid3d_laplacian(6)
    return analyze(lower, nested_dissection_order(AdjacencyGraph.from_symmetric_lower(lower)))


def pivot_column(sym, where):
    """A permuted column in the middle of the widest front (a LAPACK pivot
    block), or the first column of the last leaf front (a sweep, and a
    pivot that is the matrix entry itself)."""
    plan = sym.front_plan
    if where == "wide":
        s = max(range(sym.n_supernodes), key=lambda s: plan.width[s])
        assert plan.width[s] >= LAPACK_MIN_PIVOTS
        return plan.start[s] + plan.width[s] // 2
    s = max(s for s in range(sym.n_supernodes) if not sym.sn_children[s])
    assert plan.width[s] < LAPACK_MIN_PIVOTS and plan.start[s] > 0
    return plan.start[s]


def set_pivot_entry(sym, col, value):
    """Overwrite the diagonal entry of permuted column *col* in the matrix
    *sym* factors. Non-finite values cannot come in through the validated
    input path, but overflow inside the fronts produces them all the same."""
    a = sym.permuted_lower
    k = a.indptr[col]
    assert a.indices[k] == col
    a.data[k] = value


class TestPivotFailureColumns:
    """A failing pivot is reported in permuted global columns by every
    kernel and driver, whichever dense path the front took."""

    @pytest.mark.parametrize("backend", sorted(FACTOR))
    @pytest.mark.parametrize(
        "method,where,value,error",
        [
            ("cholesky", "leaf", -1.0, NotPositiveDefiniteError),
            ("cholesky", "wide", -1.0, NotPositiveDefiniteError),
            # LDLᵀ takes a negative pivot; a zero one is what it refuses
            ("ldlt", "leaf", 0.0, SingularMatrixError),
        ],
    )
    def test_failing_pivot_names_its_permuted_column(
        self, backend, method, where, value, error
    ):
        sym = analyzed_cube()
        col = pivot_column(sym, where)
        set_pivot_entry(sym, col, value)
        with pytest.raises(error) as ei:
            FACTOR[backend](sym, method=method)
        assert ei.value.column == col

    @pytest.mark.parametrize("backend", sorted(FACTOR))
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_pivot_in_a_lapack_front(self, backend, bad):
        # OpenBLAS potrf passes NaN and +Inf pivots without an error; the
        # factor must still fail typed, at the right column.
        sym = analyzed_cube()
        col = pivot_column(sym, "wide")
        set_pivot_entry(sym, col, bad)
        with pytest.raises(NotPositiveDefiniteError) as ei:
            FACTOR[backend](sym, method="cholesky")
        assert ei.value.column == col


class TestVerificationGuard:
    def test_simulate_verify_passes_on_clean_run(self):
        solver = SparseSolver(grid3d_laplacian(3))
        rep = solver.simulate(
            ParallelConfig(n_ranks=2, machine=GENERIC_CLUSTER, nb=8),
            verify=True,
        )
        assert rep.factor_time > 0

    def test_verify_detects_corruption(self, monkeypatch):
        """If the distributed factor were wrong, verify must catch it."""
        solver = SparseSolver(grid3d_laplacian(3))
        solver.factor()

        from repro.parallel.driver import ParallelFactorResult

        real = ParallelFactorResult.to_dense_l

        def corrupted(self):
            l = real(self)
            l[1, 0] += 1.0
            return l

        monkeypatch.setattr(ParallelFactorResult, "to_dense_l", corrupted)
        with pytest.raises(ReproError, match="mismatch"):
            solver.simulate(
                ParallelConfig(n_ranks=2, machine=GENERIC_CLUSTER, nb=8),
                verify=True,
            )


class TestInputValidation:
    def test_nonfinite_matrix_rejected(self):
        d = np.eye(3)
        d[1, 1] = np.nan
        with pytest.raises(ShapeError):
            CSCMatrix.from_dense(d)

    def test_nonfinite_rhs_rejected(self):
        solver = SparseSolver(grid2d_laplacian(3))
        with pytest.raises(ShapeError):
            solver.solve(np.array([np.inf] + [0.0] * 8))

    def test_simulate_bad_rank_count(self):
        solver = SparseSolver(grid2d_laplacian(3))
        with pytest.raises(ReproError):
            solver.simulate(ParallelConfig(n_ranks=0))

    def test_solve_shape_mismatch(self):
        solver = SparseSolver(grid2d_laplacian(3))
        with pytest.raises(ShapeError):
            solver.solve(np.ones(4))
