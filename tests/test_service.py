"""Tests for the serving layer (`repro.service`): fingerprints, the
analysis cache, the queue/dispatch loop, and the executor's resilience
(retry, timeout)."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core import SparseSolver
from repro.gen import grid2d_laplacian, grid3d_laplacian, random_spd_sparse
from repro.service import (
    EXPIRED,
    FAILED,
    TIMED_OUT,
    AnalysisCache,
    AnalysisEntry,
    ServiceConfig,
    SolverService,
    pattern_fingerprint,
    values_digest,
)
from repro.sparse.csc import CSCMatrix
from repro.sparse.ops import full_symmetric_from_lower
from repro.util.errors import (
    OrderingError,
    PatternMismatchError,
    ReproError,
    ShapeError,
)
from repro.util.rng import make_rng

pytestmark = pytest.mark.service


def with_values(lower, data):
    return CSCMatrix(lower.shape, lower.indptr, lower.indices, data, _skip_check=True)


class FakeClock:
    """Deterministic service clock advancing a fixed step per call."""

    def __init__(self, step=1.0):
        self.t = 0.0
        self.step = step

    def __call__(self):
        self.t += self.step
        return self.t


class TestFingerprint:
    def test_lower_and_full_symmetric_agree(self):
        lower = grid2d_laplacian(5)
        full = full_symmetric_from_lower(lower)
        assert pattern_fingerprint(lower) == pattern_fingerprint(full)

    def test_distinct_patterns_differ(self):
        fp1 = pattern_fingerprint(grid2d_laplacian(5))
        fp2 = pattern_fingerprint(grid3d_laplacian(3))
        fp3 = pattern_fingerprint(random_spd_sparse(25, seed=3))
        assert len({fp1.digest, fp2.digest, fp3.digest}) == 3

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 10_000), scale=st.floats(0.1, 100.0))
    def test_invariant_under_value_changes(self, seed, scale):
        lower = grid2d_laplacian(4)
        rng = make_rng(seed)
        other = with_values(
            lower, lower.data * scale + rng.standard_normal(lower.nnz) ** 2 * 0
        )
        randomized = with_values(lower, rng.random(lower.nnz) + 0.5)
        fp = pattern_fingerprint(lower)
        assert pattern_fingerprint(other) == fp
        assert pattern_fingerprint(randomized) == fp

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_not_invariant_under_permutation(self, seed):
        """Documented contract: P A P^T is a *different* pattern (its
        analysis differs), so permuted copies must miss the cache."""
        from repro.sparse.permute import permute_symmetric_lower

        lower = grid2d_laplacian(4)
        perm = make_rng(seed).permutation(lower.shape[0])
        permuted = permute_symmetric_lower(lower, perm)
        fp, fpp = pattern_fingerprint(lower), pattern_fingerprint(permuted)
        if np.array_equal(permuted.indptr, lower.indptr) and np.array_equal(
            permuted.indices, lower.indices
        ):
            assert fp == fpp  # permutation fixed the structure: same key
        else:
            assert fp.digest != fpp.digest

    def test_values_digest_tracks_values(self):
        lower = grid2d_laplacian(4)
        assert values_digest(lower) == values_digest(lower.copy())
        assert values_digest(lower) != values_digest(
            with_values(lower, lower.data * 2.0)
        )


class TestAnalysisCache:
    def entry(self, size):
        lower = random_spd_sparse(size, seed=size)
        solver = SparseSolver(lower, ordering="amd")
        solver.analyze()
        return AnalysisEntry(
            fingerprint=pattern_fingerprint(lower), solver=solver
        )

    def test_hit_miss_eviction_stats(self):
        cache = AnalysisCache(capacity=2)
        e1, e2, e3 = (self.entry(s) for s in (16, 20, 24))
        assert cache.get(e1.fingerprint) is None
        cache.put(e1)
        cache.put(e2)
        assert cache.get(e1.fingerprint) is e1
        cache.put(e3)  # evicts e2 (e1 was refreshed by the hit)
        assert len(cache) == 2
        assert cache.get(e2.fingerprint) is None
        assert cache.get(e3.fingerprint) is e3
        s = cache.stats
        assert (s.hits, s.misses, s.inserts, s.evictions) == (2, 2, 3, 1)
        assert 0 < s.hit_rate < 1

    def test_capacity_validation(self):
        with pytest.raises(ShapeError):
            AnalysisCache(capacity=0)


class TestJobQueue:
    def submit_n(self, service, lower, k):
        n = lower.shape[0]
        rng = make_rng(k)
        return [
            service.submit(lower, rng.standard_normal(n)) for _ in range(k)
        ]

    def test_priority_order(self):
        svc = SolverService()
        a, b_mat = grid2d_laplacian(4), grid2d_laplacian(5)
        ones_a, ones_b = np.ones(16), np.ones(25)
        svc.submit(a, ones_a, priority=5)
        svc.submit(b_mat, ones_b, priority=0)
        batch = svc.queue.pop_batch()
        assert batch[0].priority == 0

    def test_coalesces_same_pattern_and_values(self):
        svc = SolverService()
        lower = grid2d_laplacian(4)
        self.submit_n(svc, lower, 3)
        svc.submit(with_values(lower, lower.data * 2.0), np.ones(16))
        batch = svc.queue.pop_batch()
        assert len(batch) == 3  # same values coalesce; scaled copy doesn't
        assert len(svc.queue) == 1

    def test_max_rhs_bound(self):
        svc = SolverService()
        lower = grid2d_laplacian(4)
        self.submit_n(svc, lower, 5)
        batch = svc.queue.pop_batch(max_rhs=3)
        assert sum(j.n_rhs for j in batch) == 3

    def test_no_coalesce_mode(self):
        svc = SolverService(ServiceConfig(coalesce=False))
        lower = grid2d_laplacian(4)
        self.submit_n(svc, lower, 3)
        assert len(svc.queue.pop_batch(coalesce=False)) == 1

    def test_max_rhs_keeps_fifo_order(self):
        """Regression: a same-key job that does not fit the max_rhs budget
        closes the key — later-submitted same-key jobs must wait behind it
        instead of jumping the queue into the current batch."""
        svc = SolverService()
        lower = grid2d_laplacian(4)
        j0 = svc.submit(lower, np.ones((16, 2)))
        j1 = svc.submit(lower, np.ones((16, 3)))  # overflows the budget
        j2 = svc.submit(lower, np.ones(16))  # would fit, but is behind j1
        first = svc.queue.pop_batch(max_rhs=4)
        assert [j.job_id for j in first] == [j0]
        # The next batch starts with the job that was bumped, in order.
        second = svc.queue.pop_batch(max_rhs=4)
        assert [j.job_id for j in second] == [j1, j2]


class TestServiceSolve:
    def test_matches_direct_solver(self):
        lower = grid3d_laplacian(3)
        b = make_rng(0).standard_normal(27)
        res = SolverService().solve(lower, b)
        assert res.ok and res.residual < 1e-10
        ref = SparseSolver(lower).solve(b, refine=False)
        np.testing.assert_array_equal(res.x, ref.x)
        assert res.residual == ref.residual

    def test_cached_path_bitwise_identical_to_cold(self):
        lower = grid2d_laplacian(6)
        b = make_rng(1).standard_normal(36)
        drift = with_values(lower, lower.data * 1.7)

        warm = SolverService()
        warm.solve(lower, b)  # populate the cache
        hit = warm.solve(drift, b)
        assert hit.cache_hit

        cold = SolverService(ServiceConfig(cache_enabled=False)).solve(drift, b)
        assert not cold.cache_hit
        np.testing.assert_array_equal(hit.x, cold.x)

    def test_coalesced_batch_matches_individual_solves(self):
        lower = grid2d_laplacian(5)
        n = lower.shape[0]
        rng = make_rng(2)
        bs = [rng.standard_normal(n) for _ in range(3)]
        svc = SolverService()
        ids = [svc.submit(lower, b) for b in bs]
        out = svc.drain()
        assert all(out[i].batched_rhs == 3 for i in ids)
        assert svc.metrics.counter("coalesced_jobs") == 2
        for i, b in zip(ids, bs):
            single = SolverService().solve(lower, b)
            np.testing.assert_array_equal(out[i].x, single.x)
            assert out[i].residual == single.residual

    def test_multi_rhs_job_shape(self):
        lower = grid2d_laplacian(4)
        b = make_rng(3).standard_normal((16, 4))
        res = SolverService().solve(lower, b)
        assert res.ok and res.x.shape == (16, 4)

    def test_full_symmetric_input(self):
        lower = grid2d_laplacian(4)
        res = SolverService().solve(
            full_symmetric_from_lower(lower), np.ones(16)
        )
        assert res.ok and res.residual < 1e-10

    def test_bad_rhs_shape(self):
        with pytest.raises(ShapeError):
            SolverService().submit(grid2d_laplacian(4), np.ones(9))

    @pytest.mark.parametrize("method", ["lu", "bogus"])
    def test_unknown_method_rejected_at_submit(self, method):
        svc = SolverService()
        with pytest.raises(ShapeError, match="method"):
            svc.submit(grid2d_laplacian(4), np.ones(16), method=method)
        assert len(svc.queue) == 0
        assert svc.metrics.counter("jobs_submitted") == 0
        assert svc.drain() == {}

    @pytest.mark.parametrize("fleet_workers", [1, 2])
    def test_empty_rhs_panel_rejected_before_enqueue(self, fleet_workers):
        lower = grid2d_laplacian(4)
        svc = SolverService(ServiceConfig(fleet_workers=fleet_workers))
        jid = svc.submit(lower, np.ones(16))
        with pytest.raises(ShapeError):
            svc.submit(lower, np.ones((16, 0)))
        assert len(svc.queue) == 1
        out = svc.drain()
        assert list(out) == [jid]
        assert out[jid].ok and out[jid].residual < 1e-10

    @pytest.mark.parametrize(
        "field, value, error",
        [
            ("fleet_workers", 0, ShapeError),
            ("fleet_workers", -3, ShapeError),
            ("max_batch_rhs", 0, ShapeError),
            ("ordering", "bogus", OrderingError),
            ("precision", "fp16", ShapeError),
            ("cache_capacity", 0, ShapeError),
            ("cache_capacity", -3, ShapeError),
            ("max_pending", 0, ShapeError),
            ("tenant_quota", 0, ShapeError),
            ("max_retries", -1, ShapeError),
            ("retry_backoff", -0.5, ShapeError),
            ("retry_backoff", float("nan"), ShapeError),
        ],
    )
    def test_bad_config_rejected_at_construction(self, field, value, error):
        with pytest.raises(error):
            SolverService(ServiceConfig(**{field: value}))

    def test_deadline_expiry(self):
        clock = FakeClock(step=10.0)
        svc = SolverService(clock=clock, sleep=lambda s: None)
        jid = svc.submit(grid2d_laplacian(4), np.ones(16), deadline=5.0)
        out = svc.drain()
        assert out[jid].status == EXPIRED
        assert svc.metrics.counter("jobs_expired") == 1

    def test_metrics_report_text(self):
        svc = SolverService()
        svc.solve(grid2d_laplacian(4), np.ones(16))
        report = svc.metrics_report()
        for token in ("service metrics", "analysis cache", "p95<=",
                      "jobs_completed", "hit rate"):
            assert token in report


def flaky(real, failures, exc):
    """Wrap *real* to raise *exc* for the first *failures* calls."""
    state = {"left": failures}

    def wrapper(*args, **kwargs):
        if state["left"] > 0:
            state["left"] -= 1
            raise exc
        return real(*args, **kwargs)

    return wrapper


class TestResilience:
    def test_transient_failure_retried(self, monkeypatch):
        import repro.core.solver as core_solver

        real = core_solver.multifrontal_factor
        monkeypatch.setattr(
            core_solver,
            "multifrontal_factor",
            flaky(real, 2, ReproError("injected numeric failure")),
        )
        svc = SolverService(
            ServiceConfig(max_retries=2), sleep=lambda s: None
        )
        res = svc.solve(grid2d_laplacian(4), np.ones(16))
        assert res.ok and res.retries == 2
        assert svc.metrics.counter("retries") == 2
        assert "retries" in svc.metrics_report()

    def test_retry_limit_exhausted(self, monkeypatch):
        import repro.core.solver as core_solver

        monkeypatch.setattr(
            core_solver,
            "multifrontal_factor",
            flaky(core_solver.multifrontal_factor, 99, ReproError("down")),
        )
        svc = SolverService(
            ServiceConfig(max_retries=1), sleep=lambda s: None
        )
        res = svc.solve(grid2d_laplacian(4), np.ones(16))
        assert res.status == FAILED
        assert res.retries == 1
        assert "down" in res.error

    def test_timeout_between_retries(self, monkeypatch):
        import repro.core.solver as core_solver

        monkeypatch.setattr(
            core_solver,
            "multifrontal_factor",
            flaky(core_solver.multifrontal_factor, 99, ReproError("slow")),
        )
        svc = SolverService(
            ServiceConfig(max_retries=10),
            clock=FakeClock(step=3.0),
            sleep=lambda s: None,
        )
        res = svc.solve(grid2d_laplacian(4), np.ones(16), timeout=5.0)
        assert res.status == TIMED_OUT
        assert res.retries < 10  # budget cut the retry loop short

    def test_timeout_status_tracks_each_jobs_own_budget(self, monkeypatch):
        """In a coalesced batch, only jobs whose *own* timeout elapsed are
        TIMED_OUT; neighbors fail with the underlying error instead."""
        import repro.core.solver as core_solver

        monkeypatch.setattr(
            core_solver,
            "multifrontal_factor",
            flaky(core_solver.multifrontal_factor, 99, ReproError("bad pivot")),
        )
        svc = SolverService(
            ServiceConfig(max_retries=10),
            clock=FakeClock(step=3.0),
            sleep=lambda s: None,
        )
        lower = grid2d_laplacian(4)
        j_timed = svc.submit(lower, np.ones(16), timeout=5.0)
        j_neighbor = svc.submit(lower, np.ones(16))  # no budget of its own
        out = svc.drain()
        assert out[j_timed].status == TIMED_OUT
        assert out[j_neighbor].status == FAILED
        assert "bad pivot" in out[j_neighbor].error

    def test_over_budget_batch_fails_fast_without_backoff(self, monkeypatch):
        """The budget check runs *before* the backoff sleep: a batch whose
        budget is already spent never burns a sleep."""
        import repro.core.solver as core_solver

        monkeypatch.setattr(
            core_solver,
            "multifrontal_factor",
            flaky(core_solver.multifrontal_factor, 99, ReproError("slow")),
        )
        sleeps = []
        svc = SolverService(
            ServiceConfig(max_retries=10),
            clock=FakeClock(step=10.0),
            sleep=sleeps.append,
        )
        res = svc.solve(grid2d_laplacian(4), np.ones(16), timeout=5.0)
        assert res.status == TIMED_OUT
        assert res.retries == 0
        assert sleeps == []  # budget was gone before the first backoff

    def test_backoff_park_capped_at_remaining_budget(self, monkeypatch):
        """The retry is parked (not slept inline) and the backoff delay is
        clipped so the park never outlives the job's wall budget.

        Clock trace (step=1): the first attempt starts at t=3 and fails at
        elapsed 1 s, so the 100 s backoff clips to the 4 s of budget left
        and the batch parks until t=8 — exactly start + budget. The idle
        drain sleeps only to the wake (3 s, from t=5), and the re-dispatch
        finds the budget exhausted: timed out after one retry.
        """
        import repro.core.solver as core_solver

        monkeypatch.setattr(
            core_solver,
            "multifrontal_factor",
            flaky(core_solver.multifrontal_factor, 99, ReproError("slow")),
        )
        sleeps = []
        svc = SolverService(
            ServiceConfig(max_retries=10, retry_backoff=100.0),
            clock=FakeClock(step=1.0),
            sleep=sleeps.append,
        )
        res = svc.solve(grid2d_laplacian(4), np.ones(16), timeout=5.0)
        assert res.status == TIMED_OUT
        assert res.retries == 1
        assert svc.metrics.counter("retries") == 1
        assert sleeps == [3.0]  # park wake at start+budget, not +100 s


class TestRefactorErgonomics:
    def test_refactor_accepts_full_symmetric(self):
        lower = grid2d_laplacian(5)
        solver = SparseSolver(lower)
        b = make_rng(6).standard_normal(25)
        x1 = solver.solve(b).x
        full2 = full_symmetric_from_lower(with_values(lower, lower.data * 2.0))
        solver.refactor(full2)
        np.testing.assert_allclose(solver.solve(b).x, x1 / 2, rtol=1e-10)

    def test_pattern_mismatch_is_typed(self):
        solver = SparseSolver(grid2d_laplacian(4))
        solver.analyze()
        with pytest.raises(PatternMismatchError):
            solver.refactor(random_spd_sparse(16, seed=1))
        with pytest.raises(PatternMismatchError):
            solver.refactor(grid3d_laplacian(2))

    def test_pattern_mismatch_subclasses_shape_error(self):
        # Backward compatibility: existing callers catching ShapeError keep
        # working; the service distinguishes the mismatch specifically.
        assert issubclass(PatternMismatchError, ShapeError)

    def test_update_values_invalidates_numeric(self):
        lower = grid2d_laplacian(4)
        solver = SparseSolver(lower)
        solver.factor()
        solver.update_values(with_values(lower, lower.data * 2.0))
        assert solver.numeric is None
        assert solver.sym is not None
