"""Mixed-precision fronts and refinement robustness.

Covers the fp32 working-precision regime end to end — factor storage,
solve-phase dtype discipline, fp64-recovering iterative refinement, the
seq/threads bitwise contract at reduced precision, refinement divergence
handling (non-finite and growing residuals, best-so-far iterates), the
normwise backward-error stopping test, and the service's fp32→fp64
degradation ladder.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import SparseSolver
from repro.core.solver import SolveResult
from repro.exec import multifrontal_factor_threads
from repro.gen.grids import grid2d_laplacian, grid3d_laplacian
from repro.graph import AdjacencyGraph
from repro.mf.numeric import multifrontal_factor
from repro.mf.refine import iterative_refinement_many
from repro.mf.solve_phase import solve, solve_many
from repro.ordering import amd_order
from repro.service import ServiceConfig, SolverService
from repro.sparse.coo import COOMatrix
from repro.sparse.convert import coo_to_csc
from repro.sparse.ops import sym_norm_inf_lower
from repro.symbolic import analyze
from repro.util.errors import ShapeError
from repro.util.rng import make_rng
from repro.util.validation import work_dtype

pytestmark = pytest.mark.precision


def analyzed(lower):
    g = AdjacencyGraph.from_symmetric_lower(lower)
    return analyze(lower, amd_order(g))


def hilbert_lower(n: int):
    """Lower triangle of the n×n Hilbert matrix — SPD with condition
    number ~e^{3.5n}; n=7 is factorable in fp32 (column sweeps and LAPACK
    alike) but stalls fp32-factor refinement, the canonical
    degradation-ladder trigger. n=8 sits on the edge: whether its fp32
    factor exists depends on the kernel's rounding."""
    r, c, v = [], [], []
    for i in range(n):
        for j in range(i + 1):
            r.append(i)
            c.append(j)
            v.append(1.0 / (i + j + 1))
    return coo_to_csc(
        COOMatrix(
            (n, n),
            np.asarray(r, dtype=np.int64),
            np.asarray(c, dtype=np.int64),
            np.asarray(v, dtype=np.float64),
        )
    )


def berr(lower, x, b):
    """Normwise backward error ‖b−Ax‖∞/(‖A‖∞‖x‖∞+‖b‖∞), per column."""
    from repro.sparse.ops import sym_matvec_lower_many

    x2 = x[:, None] if x.ndim == 1 else x
    b2 = b[:, None] if b.ndim == 1 else b
    r = b2 - sym_matvec_lower_many(lower, x2)
    anorm = sym_norm_inf_lower(lower)
    denom = anorm * np.max(np.abs(x2), axis=0) + np.max(np.abs(b2), axis=0)
    return np.max(np.abs(r), axis=0) / denom


class TestWorkDtype:
    def test_known_precisions(self):
        assert work_dtype("fp64") == np.float64
        assert work_dtype("fp32") == np.float32

    def test_unknown_precision_rejected(self):
        with pytest.raises(ShapeError):
            work_dtype("fp16")


class TestFp32Factor:
    @pytest.mark.parametrize("method", ["cholesky", "ldlt"])
    def test_blocks_are_fp32_and_half_size(self, method):
        sym = analyzed(grid2d_laplacian(12))
        f64 = multifrontal_factor(sym, method=method)
        f32 = multifrontal_factor(sym, method=method, precision="fp32")
        assert f32.precision == "fp32" and f32.dtype == np.float32
        assert all(blk.dtype == np.float32 for blk in f32.blocks)
        bytes64 = sum(blk.nbytes for blk in f64.blocks)
        bytes32 = sum(blk.nbytes for blk in f32.blocks)
        assert bytes64 == 2 * bytes32
        if method == "ldlt":
            assert f32.diag.dtype == np.float32

    def test_unknown_precision_rejected(self):
        sym = analyzed(grid2d_laplacian(4))
        with pytest.raises(ShapeError):
            multifrontal_factor(sym, precision="fp16")

    @pytest.mark.parametrize("method", ["cholesky", "ldlt"])
    def test_threads_factor_bitwise_identical(self, method):
        sym = analyzed(grid3d_laplacian(5))
        ref = multifrontal_factor(sym, method=method, precision="fp32")
        for workers in (1, 3):
            got = multifrontal_factor_threads(
                sym, method=method, precision="fp32", workers=workers
            )
            assert got.precision == "fp32"
            for a, b in zip(ref.blocks, got.blocks):
                assert a.dtype == b.dtype == np.float32
                assert np.array_equal(a, b)
            if method == "ldlt":
                assert np.array_equal(ref.diag, got.diag)

    def test_solve_returns_fp64(self):
        sym = analyzed(grid2d_laplacian(10))
        f32 = multifrontal_factor(sym, precision="fp32")
        rng = make_rng(0)
        b = rng.standard_normal((sym.n, 3))
        x = solve_many(f32, b)
        assert x.dtype == np.float64
        assert solve(f32, b[:, 0]).dtype == np.float64

    def test_threads_solve_bitwise_identical(self):
        # a threaded fp32 factor solves to the sequential fp32 factor's x
        sym = analyzed(grid2d_laplacian(11))
        f32 = multifrontal_factor(sym, precision="fp32")
        rng = make_rng(1)
        b = rng.standard_normal((sym.n, 4))
        ref = solve_many(f32, b)
        for workers in (1, 4):
            got = multifrontal_factor_threads(sym, workers=workers, precision="fp32")
            assert np.array_equal(ref, solve_many(got, b))


class TestFp32Refinement:
    @pytest.mark.parametrize("method", ["cholesky", "ldlt"])
    def test_recovers_fp64_backward_error(self, method):
        # The acceptance gate: fp32 factor + fp64 refinement reaches
        # normwise backward error <= 1e-12 on well-conditioned SPD input.
        lower = grid3d_laplacian(6)
        sym = analyzed(lower)
        f32 = multifrontal_factor(sym, method=method, precision="fp32")
        rng = make_rng(2)
        b = rng.standard_normal((sym.n, 3))
        res = iterative_refinement_many(f32, lower, b, tol=1e-12)
        assert bool(np.all(res.converged))
        assert not np.any(res.diverged)
        assert np.all(res.backward_error <= 1e-12)
        # and the result really is fp64-accurate, measured independently
        assert np.all(berr(lower, res.x, b) <= 1e-12)

    def test_panel_bitwise_identical_to_scalar(self):
        lower = grid2d_laplacian(9)
        sym = analyzed(lower)
        f32 = multifrontal_factor(sym, precision="fp32")
        rng = make_rng(3)
        b = rng.standard_normal((sym.n, 5))
        panel = iterative_refinement_many(f32, lower, b)
        for j in range(b.shape[1]):
            single = iterative_refinement_many(f32, lower, b[:, j])
            assert np.array_equal(panel.x[:, j], single.x[:, 0])
            assert panel.residual_history[j] == single.residual_history[0]
            assert panel.diverged[j] == single.diverged[0]

    def test_refinement_trajectory_identical_across_backends(self):
        lower = grid2d_laplacian(10)
        sym = analyzed(lower)
        f32 = multifrontal_factor(sym, precision="fp32")
        rng = make_rng(4)
        b = rng.standard_normal((sym.n, 3))
        seq = iterative_refinement_many(f32, lower, b)
        thr = iterative_refinement_many(
            multifrontal_factor_threads(sym, workers=3, precision="fp32"), lower, b
        )
        assert np.array_equal(seq.x, thr.x)
        assert seq.residual_history == thr.residual_history
        assert np.array_equal(seq.iterations, thr.iterations)


class TestRefinementRobustness:
    def test_zero_rhs_column_converges_with_zero_solution(self):
        lower = grid2d_laplacian(8)
        sym = analyzed(lower)
        f = multifrontal_factor(sym)
        rng = make_rng(5)
        b = rng.standard_normal((sym.n, 3))
        b[:, 1] = 0.0
        res = iterative_refinement_many(f, lower, b)
        assert bool(res.converged[1]) and not bool(res.diverged[1])
        assert np.array_equal(res.x[:, 1], np.zeros(sym.n))
        assert res.residual_history[1] == (0.0,)
        assert res.backward_error[1] == 0.0

    def test_mixed_scale_columns(self):
        # The normwise test is per-column scale-invariant: wildly scaled
        # (but fp32-representable) right-hand sides in one panel must all
        # converge to the same backward-error level.
        lower = grid2d_laplacian(8)
        sym = analyzed(lower)
        f32 = multifrontal_factor(sym, precision="fp32")
        rng = make_rng(6)
        b = rng.standard_normal((sym.n, 3))
        b[:, 0] *= 1e30
        b[:, 2] *= 1e-30
        res = iterative_refinement_many(f32, lower, b, tol=1e-12)
        assert bool(np.all(res.converged))
        assert np.all(res.backward_error <= 1e-12)

    def test_fp32_overflow_column_diverges_without_poisoning_panel(self):
        # 1e100 is not representable in fp32: that column's direct solve
        # goes non-finite. It must be frozen as diverged (with the finite
        # zero fallback iterate) while its panel siblings still converge.
        lower = grid2d_laplacian(8)
        sym = analyzed(lower)
        f32 = multifrontal_factor(sym, precision="fp32")
        rng = make_rng(6)
        b = rng.standard_normal((sym.n, 3))
        b[:, 1] *= 1e100
        with np.errstate(over="ignore", invalid="ignore"):
            res = iterative_refinement_many(f32, lower, b, tol=1e-12)
        assert bool(res.diverged[1]) and not bool(res.converged[1])
        assert np.all(np.isfinite(res.x))
        assert res.backward_error[1] == 1.0  # the zero-vector fallback
        assert bool(res.converged[0]) and bool(res.converged[2])
        assert res.backward_error[0] <= 1e-12
        assert res.backward_error[2] <= 1e-12

    def test_nan_solve_reports_diverged_not_poisoned(self):
        # A solve that returns non-finite values (e.g. a broken factor)
        # must stop immediately, flag `diverged`, and hand back the
        # best-so-far iterate — never a NaN-filled x, and never loop to
        # max_iter pretending progress.
        lower = grid2d_laplacian(6)
        sym = analyzed(lower)
        f = multifrontal_factor(sym)
        rng = make_rng(7)
        b = rng.standard_normal((sym.n, 2))

        def nan_solve(factor, rhs):
            out = np.empty((factor.n, rhs.shape[1]))
            out.fill(np.nan)
            return out

        res = iterative_refinement_many(f, lower, b, solve_fn=nan_solve)
        assert bool(np.all(res.diverged))
        assert not np.any(res.converged)
        assert np.all(np.isfinite(res.x))
        assert np.all(np.isfinite(res.backward_error))
        # stopped at the first residual check, not after max_iter loops
        assert np.all(res.iterations == 0)

    def test_growing_residual_stops_early_with_best_iterate(self):
        # A solve that produces a good initial iterate but garbage
        # corrections: the backward error jumps by ~1e6, tripping the
        # growth guard. Refinement must stop early and hand back the good
        # first iterate, not the corrupted one.
        lower = grid2d_laplacian(6)
        sym = analyzed(lower)
        f = multifrontal_factor(sym)
        rng = make_rng(8)
        b = rng.standard_normal((lower.shape[0], 1))
        calls = {"n": 0}

        def flaky_solve(factor, rhs):
            out = solve_many(factor, rhs)
            if calls["n"]:
                out = out * 1e6  # corrections push x the wrong way
            calls["n"] += 1
            return out

        # tol=0.0 is unreachable, so refinement keeps iterating until the
        # first bad correction lands.
        res = iterative_refinement_many(
            f, lower, b, max_iter=10, tol=0.0, solve_fn=flaky_solve
        )
        assert res.diverged[0] and not res.converged[0]
        assert res.iterations[0] == 1  # stopped at the first bad iterate
        assert np.all(np.isfinite(res.x))
        # the returned iterate is the good initial solve, bitwise
        assert np.array_equal(res.x[:, 0], solve(f, b[:, 0]))
        # the reported backward error matches an independent measurement…
        got = berr(lower, res.x[:, 0], b[:, 0])
        assert got[0] == pytest.approx(res.backward_error[0], rel=1e-12)
        # …and is the best entry in the recorded history
        assert res.backward_error[0] == min(res.residual_history[0])

    def test_max_iter_exhaustion_is_not_diverged(self):
        # Hilbert(7): fp32 factor refinement stalls — it must report
        # converged=False, diverged=False (budget, not blow-up).
        lower = hilbert_lower(7)
        s = SparseSolver(lower, ordering="natural")
        s.factor(precision="fp32")
        rng = make_rng(9)
        b = rng.standard_normal(7)
        res = iterative_refinement_many(s.numeric, lower, b, tol=1e-12)
        assert not res.converged[0]
        assert not res.diverged[0]
        assert res.iterations[0] == 5  # the default max_iter budget
        assert np.all(np.isfinite(res.x))

    def test_dense_kernels_accept_fp32_reject_mismatch(self):
        from repro.dense.chol import cholesky_in_place
        from repro.dense.trsm import solve_lower_inplace

        a32 = np.eye(4, dtype=np.float32) * 4.0
        cholesky_in_place(a32)
        assert a32.dtype == np.float32
        with pytest.raises(ShapeError):
            solve_lower_inplace(a32, np.ones(4))  # fp32 L vs fp64 rhs
        with pytest.raises(ShapeError):
            cholesky_in_place(np.eye(3, dtype=np.float16))


class TestSolverPrecision:
    def test_solver_fp32_reaches_tolerance(self):
        lower = grid3d_laplacian(5)
        s = SparseSolver(lower)
        s.factor(precision="fp32")
        rng = make_rng(10)
        res = s.solve(rng.standard_normal(lower.shape[0]))
        assert isinstance(res, SolveResult)
        assert res.precision == "fp32"
        assert res.residual <= 1e-12
        assert res.refinement_iterations >= 1

    def test_solver_auto_falls_back_to_fp64(self):
        lower = hilbert_lower(7)
        s = SparseSolver(lower, ordering="natural")
        s.factor(precision="fp32")
        rng = make_rng(11)
        res = s.solve(rng.standard_normal(7))
        assert res.precision == "fp64"
        assert s.numeric.precision == "fp64"

    def test_fallback_refactors_on_the_solve_backend(self):
        # solve(backend=, workers=) is the backend of the fp64 re-factor:
        # the fallback runs on the pool and lands on the seq fallback's x.
        lower = hilbert_lower(7)
        b = make_rng(11).standard_normal(7)
        results = {}
        for backend, workers in (("seq", None), ("threads", 2)):
            s = SparseSolver(lower, ordering="natural")
            s.factor(precision="fp32")
            results[backend] = s.solve(b, backend=backend, workers=workers)
            assert s.numeric.precision == "fp64"
            assert (s.numeric.exec_stats is not None) == (backend == "threads")
        assert results["threads"].precision == "fp64"
        assert results["threads"].x.tobytes() == results["seq"].x.tobytes()

    def test_refactor_keeps_precision(self):
        lower = grid2d_laplacian(8)
        s = SparseSolver(lower)
        s.factor(precision="fp32")
        s.refactor(lower)
        assert s.numeric.precision == "fp32"
        s.refactor(lower, precision="fp64")
        assert s.numeric.precision == "fp64"

    def test_solver_rejects_unknown_precision(self):
        s = SparseSolver(grid2d_laplacian(4))
        with pytest.raises(ShapeError):
            s.factor(precision="double")


@pytest.mark.service
class TestServicePrecision:
    def test_fp32_request_completes_with_refinement(self):
        a = grid2d_laplacian(9)
        rng = make_rng(12)
        svc = SolverService(ServiceConfig())
        jid = svc.submit(a, rng.standard_normal(a.shape[0]), precision="fp32")
        res = svc.drain()[jid]
        assert res.ok and res.precision == "fp32"
        assert "factor_fp32" in res.timings

    def test_precision_is_part_of_batch_key(self):
        a = grid2d_laplacian(9)
        rng = make_rng(13)
        b = rng.standard_normal(a.shape[0])
        svc = SolverService(ServiceConfig())
        i32a = svc.submit(a, b, precision="fp32")
        i32b = svc.submit(a, b, precision="fp32")
        i64 = svc.submit(a, b)  # defaults to fp64
        res = svc.drain()
        assert res[i32a].batched_rhs == 2 and res[i32b].batched_rhs == 2
        assert res[i64].batched_rhs == 1
        assert res[i64].precision == "fp64"

    def test_stalled_fp32_degrades_to_fp64(self):
        svc = SolverService(
            ServiceConfig(precision="fp32", ordering="natural")
        )
        rng = make_rng(14)
        jid = svc.submit(hilbert_lower(7), rng.standard_normal(7))
        res = svc.drain()[jid]
        assert res.ok
        assert res.precision == "fp64"
        assert "factor_fp64" in res.timings  # the fallback re-factor ran
        assert svc.metrics.counter("service_precision_fallback_total") == 1

    def test_fp32_factor_breakdown_degrades_to_fp64(self):
        # Hilbert(10) has a pivot that is positive in fp64 but negative in
        # fp32: the fp32 factorization raises and the executor must walk
        # down to fp64 instead of retrying the deterministic failure.
        svc = SolverService(
            ServiceConfig(precision="fp32", ordering="natural")
        )
        rng = make_rng(15)
        jid = svc.submit(hilbert_lower(10), rng.standard_normal(10))
        res = svc.drain()[jid]
        assert res.ok
        assert res.precision == "fp64"
        assert res.retries == 0  # degraded, not retried
        assert svc.metrics.counter("service_precision_fallback_total") == 1

    def test_unknown_precision_rejected_at_submit(self):
        svc = SolverService(ServiceConfig())
        with pytest.raises(ShapeError):
            svc.submit(grid2d_laplacian(4), np.ones(16), precision="fp8")
