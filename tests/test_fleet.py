"""Serving-fleet tests: EDF scheduling, admission control, sharded cache,
fleet-vs-single bitwise identity, non-blocking retry parks, and metrics
atomicity under concurrent workers."""

import sys

import numpy as np
import pytest

from repro.core import SparseSolver
from repro.gen import grid2d_laplacian, random_spd_sparse
from repro.obs import spans as obs_spans
from repro.obs.metrics import MetricsRegistry
from repro.obs.spans import recording
from repro.service import (
    COMPLETED,
    EXPIRED,
    AdmissionError,
    AnalysisEntry,
    ServiceConfig,
    ShardedAnalysisCache,
    SolverService,
    pattern_fingerprint,
)
from repro.util.errors import ReproError, ShapeError
from repro.util.rng import make_rng

pytestmark = pytest.mark.fleet


class FakeClock:
    """Deterministic service clock advancing a fixed step per call."""

    def __init__(self, step=1.0):
        self.t = 0.0
        self.step = step

    def __call__(self):
        self.t += self.step
        return self.t


def flaky(real, failures, exc):
    """Wrap *real* to raise *exc* for the first *failures* calls."""
    state = {"left": failures}

    def wrapper(*args, **kwargs):
        if state["left"] > 0:
            state["left"] -= 1
            raise exc
        return real(*args, **kwargs)

    return wrapper


def drain_order(queue):
    """Job ids in the order the queue would dispatch them (no coalescing)."""
    order = []
    while len(queue):
        order.append(queue.pop_batch(coalesce=False)[0].job_id)
    return order


class TestEDFOrdering:
    def service(self, **cfg):
        return SolverService(
            ServiceConfig(coalesce=False, **cfg),
            clock=FakeClock(),
            sleep=lambda s: None,
        )

    def distinct(self, k):
        """k distinct-pattern matrices (no coalescing interference)."""
        return [random_spd_sparse(16 + 2 * i, seed=i) for i in range(k)]

    def test_earliest_deadline_beats_priority(self):
        svc = self.service()
        m = self.distinct(3)
        late = svc.submit(m[0], np.ones(m[0].shape[0]), priority=-9, deadline=900.0)
        soon = svc.submit(m[1], np.ones(m[1].shape[0]), priority=9, deadline=100.0)
        mid = svc.submit(m[2], np.ones(m[2].shape[0]), priority=0, deadline=500.0)
        assert drain_order(svc.queue) == [soon, mid, late]

    def test_priority_breaks_deadline_ties(self):
        svc = self.service()
        m = self.distinct(3)
        ids = [
            svc.submit(mi, np.ones(mi.shape[0]), priority=p, deadline=100.0)
            for mi, p in zip(m, [2, 0, 1])
        ]
        assert drain_order(svc.queue) == [ids[1], ids[2], ids[0]]

    def test_no_deadline_sorts_behind_any_deadline(self):
        svc = self.service()
        m = self.distinct(3)
        urgent_nodl = svc.submit(m[0], np.ones(m[0].shape[0]), priority=-99)
        slack = svc.submit(m[1], np.ones(m[1].shape[0]), priority=99, deadline=1e9)
        nodl = svc.submit(m[2], np.ones(m[2].shape[0]), priority=0)
        # Any deadline-carrying job outranks deadline-free ones; among the
        # latter, priority (then FIFO) decides.
        assert drain_order(svc.queue) == [slack, urgent_nodl, nodl]

    def test_fifo_among_equals(self):
        svc = self.service()
        m = self.distinct(4)
        ids = [svc.submit(mi, np.ones(mi.shape[0])) for mi in m]
        assert drain_order(svc.queue) == ids

    def test_parked_job_waits_for_not_before(self):
        svc = self.service()
        m = self.distinct(2)
        a = svc.submit(m[0], np.ones(m[0].shape[0]))
        b = svc.submit(m[1], np.ones(m[1].shape[0]))
        q = svc.queue
        batch = q.pop_batch(coalesce=False)
        assert batch[0].job_id == a
        batch[0].not_before = 50.0
        q.push(batch[0])
        assert q.next_ready_at() == 50.0
        # Before the wake time only b is dispatchable; a is parked.
        assert q.pop_batch(coalesce=False, now=10.0)[0].job_id == b
        assert q.pop_batch(coalesce=False, now=10.0) == []
        assert len(q) == 1  # parked jobs still count as pending
        assert q.pop_batch(coalesce=False, now=50.0)[0].job_id == a

    def test_exclude_defers_inflight_fingerprints(self):
        svc = self.service()
        m = grid2d_laplacian(4)
        other = random_spd_sparse(20, seed=1)
        a1 = svc.submit(m, np.ones(16))
        a2 = svc.submit(m, np.ones(16) * 2)
        b = svc.submit(other, np.ones(20))
        q = svc.queue
        first = q.pop_batch(coalesce=False)[0]
        assert first.job_id == a1
        inflight = {first.fingerprint.key}
        # Same-pattern a2 is skipped (not dropped) while a1 is in flight.
        assert q.pop_batch(coalesce=False, exclude=inflight)[0].job_id == b
        assert q.pop_batch(coalesce=False, exclude=inflight) == []
        assert len(q) == 1
        assert q.pop_batch(coalesce=False, exclude=set())[0].job_id == a2

    def test_tenant_pending_counts(self):
        svc = self.service()
        m = self.distinct(3)
        svc.submit(m[0], np.ones(m[0].shape[0]), tenant="a")
        svc.submit(m[1], np.ones(m[1].shape[0]), tenant="a")
        svc.submit(m[2], np.ones(m[2].shape[0]), tenant="b")
        q = svc.queue
        assert (q.tenant_pending("a"), q.tenant_pending("b")) == (2, 1)
        q.pop_batch(coalesce=False)
        assert q.tenant_pending("a") == 1
        drain_order(q)
        assert (q.tenant_pending("a"), q.tenant_pending("b")) == (0, 0)


class TestAdmission:
    def test_quota_exhaustion_and_recovery(self):
        svc = SolverService(ServiceConfig(tenant_quota=2))
        m = grid2d_laplacian(4)
        svc.submit(m, np.ones(16), tenant="a")
        svc.submit(m, np.ones(16) * 2, tenant="a")
        with pytest.raises(AdmissionError) as exc:
            svc.submit(m, np.ones(16) * 3, tenant="a")
        assert exc.value.reason == "quota"
        # Another tenant is unaffected by a's quota exhaustion.
        svc.submit(m, np.ones(16), tenant="b")
        res = svc.drain()
        assert all(r.status == COMPLETED for r in res.values())
        # Draining frees the quota: the tenant is admitted again.
        svc.submit(m, np.ones(16), tenant="a")
        assert svc.metrics.counter("service_admission_rejected_quota_total") == 1

    def test_backpressure_rejection(self):
        svc = SolverService(ServiceConfig(max_pending=2))
        m = grid2d_laplacian(4)
        svc.submit(m, np.ones(16))
        svc.submit(m, np.ones(16) * 2)
        with pytest.raises(AdmissionError) as exc:
            svc.submit(m, np.ones(16) * 3)
        assert exc.value.reason == "backpressure"
        assert svc.metrics.counter("jobs_submitted") == 2
        assert (
            svc.metrics.counter("service_admission_rejected_backpressure_total")
            == 1
        )
        svc.drain()
        svc.submit(m, np.ones(16) * 3)  # room again after the drain

    def test_rejected_jobs_never_enqueued(self):
        svc = SolverService(ServiceConfig(max_pending=1))
        m = grid2d_laplacian(4)
        svc.submit(m, np.ones(16))
        for _ in range(3):
            with pytest.raises(AdmissionError):
                svc.submit(m, np.ones(16))
        assert len(svc.queue) == 1
        assert len(svc.drain()) == 1


class TestShardedCache:
    def entry(self, size):
        lower = random_spd_sparse(size, seed=size)
        solver = SparseSolver(lower, ordering="amd")
        solver.analyze()
        return AnalysisEntry(
            fingerprint=pattern_fingerprint(lower), solver=solver
        )

    def test_shard_routing_is_deterministic(self):
        cache = ShardedAnalysisCache(capacity=8, shards=4)
        for size in range(16, 40, 2):
            fp = self.entry(size).fingerprint
            assert cache.shard_of(fp) == cache.shard_of(fp)
            assert 0 <= cache.shard_of(fp) < 4

    def test_shard_isolation_and_merged_stats(self):
        # One slot per shard: same-shard inserts evict each other, but
        # never entries living on other shards.
        cache = ShardedAnalysisCache(capacity=4, shards=4)
        entries = [self.entry(s) for s in range(16, 48, 2)]
        by_shard = {}
        for e in entries:
            cache.put(e)
            by_shard.setdefault(cache.shard_of(e.fingerprint), []).append(e)
        assert sum(len(v) for v in by_shard.values()) == len(entries)
        for shard, owned in by_shard.items():
            # Only the newest entry of each shard survived its own slot.
            assert cache.get(owned[-1].fingerprint) is owned[-1]
            for old in owned[:-1]:
                assert cache.get(old.fingerprint) is None
        merged = cache.stats
        parts = cache.shard_stats()
        assert merged.inserts == sum(p.inserts for p in parts) == len(entries)
        assert merged.hits == sum(p.hits for p in parts)
        assert merged.misses == sum(p.misses for p in parts)
        assert merged.evictions == sum(p.evictions for p in parts)
        assert sum(cache.shard_sizes()) == len(cache)

    def test_capacity_split_and_validation(self):
        cache = ShardedAnalysisCache(capacity=5, shards=2)
        assert cache.capacity == 6  # ceil(5/2) per shard
        with pytest.raises(ShapeError):
            ShardedAnalysisCache(capacity=4, shards=0)


class TestFleetDrain:
    def trace(self):
        mats = [random_spd_sparse(24 + 4 * i, seed=i) for i in range(5)]
        rng = make_rng(11)
        reqs = []
        for rep in range(3):
            for i, m in enumerate(mats):
                reqs.append((m, rng.standard_normal(m.shape[0]), i % 3))
        return reqs

    def run(self, cfg):
        svc = SolverService(cfg)
        ids = [
            svc.submit(m, b, priority=p, deadline=svc.now() + 60.0)
            for m, b, p in self.trace()
        ]
        res = svc.drain()
        return svc, [res[i] for i in ids]

    def test_fleet_bitwise_identical_to_single(self):
        _, single = self.run(ServiceConfig())
        svc, fleet = self.run(ServiceConfig(fleet_workers=4, shards=4))
        assert all(r.status == COMPLETED for r in single)
        assert all(r.status == COMPLETED for r in fleet)
        for a, b in zip(single, fleet):
            assert np.array_equal(a.x, b.x)
        # The scheduler never overlapped same-fingerprint batches, so the
        # cache did the same hits/misses as the sequential drain.
        assert svc.cache.stats.misses == 5

    @pytest.mark.obs
    def test_fleet_batch_spans_nest_on_their_own_lane(self):
        with recording() as rec:
            _, fleet = self.run(ServiceConfig(fleet_workers=2, shards=2))
        assert all(r.status == COMPLETED for r in fleet)
        by_id = {s.span_id: s for s in rec.spans}
        assert len(by_id) == len(rec.spans)
        batches = rec.by_name("service.batch")
        assert batches
        for s in batches:
            assert s.parent_id == -1 or by_id[s.parent_id].lane == s.lane
        for s in rec.spans:
            if s.parent_id != -1:
                parent = by_id[s.parent_id]
                assert parent.lane == s.lane and parent.depth == s.depth - 1
        assert obs_spans._open.get() == ()

    def test_fleet_expires_past_deadlines(self):
        svc = SolverService(ServiceConfig(fleet_workers=2))
        m = grid2d_laplacian(4)
        dead = svc.submit(m, np.ones(16), deadline=svc.now() - 1.0)
        live = svc.submit(m, np.ones(16) * 2, deadline=svc.now() + 60.0)
        res = svc.drain()
        assert res[dead].status == EXPIRED
        assert res[live].status == COMPLETED
        assert svc.metrics.counter("service_deadline_missed_total") == 1
        assert svc.deadline_miss_ratio == 0.5

    def test_fleet_retries_requeued_batches(self, monkeypatch):
        import repro.core.solver as core_solver

        monkeypatch.setattr(
            core_solver,
            "multifrontal_factor",
            flaky(core_solver.multifrontal_factor, 2, ReproError("blip")),
        )
        svc = SolverService(
            ServiceConfig(fleet_workers=3, max_retries=3, retry_backoff=1e-4)
        )
        m = grid2d_laplacian(5)
        ids = [svc.submit(m, np.ones(25) * (i + 1.0)) for i in range(3)]
        res = svc.drain()
        assert all(res[i].status == COMPLETED for i in ids)
        assert svc.metrics.counter("retries") >= 1

    def test_requeue_does_not_stall_other_jobs(self, monkeypatch):
        """The retry backoff parks the flaky batch; the other job is
        dispatched in the meantime instead of waiting out the sleep."""
        import repro.core.solver as core_solver

        real = core_solver.multifrontal_factor
        state = {"failed": False}

        def flaky_first_pattern(sym, *args, **kwargs):
            if not state["failed"] and sym.n == 16:
                state["failed"] = True
                raise ReproError("blip")
            return real(sym, *args, **kwargs)

        monkeypatch.setattr(core_solver, "multifrontal_factor", flaky_first_pattern)
        sleeps = []
        svc = SolverService(
            ServiceConfig(max_retries=2, retry_backoff=40.0),
            clock=FakeClock(),
            sleep=sleeps.append,
        )
        flaky_id = svc.submit(grid2d_laplacian(4), np.ones(16))
        healthy = svc.submit(random_spd_sparse(20, seed=3), np.ones(20))
        res = svc.drain()
        assert res[flaky_id].status == COMPLETED
        assert res[flaky_id].retries == 1
        assert res[healthy].status == COMPLETED
        # The healthy job ran during the park: its queue wait is far below
        # the 40 s backoff the inline-sleep design would have cost it.
        assert res[healthy].queue_wait < 40.0
        # The drain slept only once everything else was done, and only up
        # to the park's wake time.
        assert len(sleeps) == 1
        assert 0.0 < sleeps[0] < 40.0


class TestMetricsAtomicity:
    def hammer(self, fn, threads=4, iters=2000):
        """Run *fn* concurrently with a tiny switch interval (forces the
        interpreter to interleave mid-read-modify-write)."""
        import threading

        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            ts = [
                threading.Thread(target=lambda: [fn() for _ in range(iters)])
                for _ in range(threads)
            ]
            for t in ts:
                t.start()
            for t in ts:
                t.join()
        finally:
            sys.setswitchinterval(old)
        return threads * iters

    def test_counter_increments_are_atomic(self):
        reg = MetricsRegistry()
        total = self.hammer(lambda: reg.inc("hits"))
        assert reg.counter("hits") == total

    def test_histogram_observations_are_atomic(self):
        reg = MetricsRegistry()
        total = self.hammer(lambda: reg.observe("lat", 0.5))
        snap = reg.snapshot().histograms["lat"]
        assert snap.count == total
        assert snap.sum == pytest.approx(0.5 * total)

    def test_gauge_inc_dec_atomic(self):
        reg = MetricsRegistry()
        g = reg.gauge("depth")
        self.hammer(lambda: (g.inc(), g.inc(-1)))
        assert g.value == 0.0

    def test_service_latency_observations_are_thread_safe(self):
        svc = SolverService()
        total = self.hammer(
            lambda: svc.metrics.observe("queue_wait", 0.25), iters=500
        )
        assert svc.metrics.snapshot().histograms["queue_wait"].count == total
