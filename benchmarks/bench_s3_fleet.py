"""S3 (serving fleet) — sharded SLO-aware serving vs the single executor.

Design choices probed, on a synthetic load replay with Poisson arrivals,
bursty tenants, and hot-pattern skew:

* **fleet bitwise identity** (always asserted) — N worker slots pulling
  coalesced batches concurrently from the shared queue produce solutions
  byte-for-byte identical to the single-executor drain, per job, because
  the scheduler never lets two batches with the same pattern fingerprint
  be in flight at once (the cached analysis is the only shared mutable
  numeric state) and per-job answer bits are independent of batch
  composition (the blocked solve's per-column bitwise contract).
* **fleet throughput** (asserted only when the host has >= 4 cores) —
  4 fleet workers on the skewed replay beat the single executor by
  >= 2x wall time; numpy's BLAS-3 kernels release the GIL, so
  independent factorizations overlap on real cores.
* **EDF meets every deadline** (always asserted; deterministic fake
  clock) — on a trace whose priorities are anti-correlated with its
  deadlines, earliest-deadline-first ordering meets every deadline (pure
  priority ordering, since removed, missed half).
* **admission control under bursts** (always asserted) — a bursty tenant
  hitting its quota is rejected with a typed error while other tenants'
  work is admitted and completes; rejections are counted, never enqueued.
"""

import os
import time

import numpy as np
import pytest

from harness import banner

from repro.gen import grid3d_laplacian, random_spd_sparse
from repro.service import (
    COMPLETED,
    AdmissionError,
    ServiceConfig,
    SolverService,
)
from repro.sparse.csc import CSCMatrix
from repro.util.rng import make_rng
from repro.util.tables import format_table

FLEET_WORKERS = 4
SHARDS = 4
SPEEDUP_FLOOR = 2.0
MIN_CORES = 4

#: distinct sparsity patterns in the replay (cube Laplacians)
PATTERN_SIZES = [7, 8, 9, 10, 11, 12]
#: index of the hot pattern the skewed trace concentrates on
HOT = 3
#: total requests in the replay
REQUESTS = 48
#: probability a request lands on the hot pattern
HOT_SKEW = 0.5
#: hot-pattern requests arrive in value-waves of this size: same values
#: within a wave, so coalescing (not just parallelism) absorbs the skew
WAVE = 4
#: mean Poisson interarrival time of the offered load [s]
MEAN_IAT = 0.01
#: deadline slack granted to every request [s]
SLACK = 120.0


class FakeClock:
    """Deterministic service clock advancing a fixed step per call."""

    def __init__(self, step=1.0):
        self.t = 0.0
        self.step = step

    def __call__(self):
        self.t += self.step
        return self.t


def build_replay(seed=7):
    """The load replay: (matrix, rhs, priority, tenant, arrival) tuples.

    Poisson arrivals (exponential interarrivals), three steady tenants
    plus one bursty tenant owning every hot-wave request, and hot-pattern
    skew with values drifting per wave.
    """
    rng = make_rng(seed)
    bases = [grid3d_laplacian(s) for s in PATTERN_SIZES]
    trace = []
    arrival = 0.0
    hot_count = 0
    for req in range(REQUESTS):
        arrival += float(rng.exponential(MEAN_IAT))
        if rng.random() < HOT_SKEW:
            base = bases[HOT]
            wave = hot_count // WAVE
            hot_count += 1
            matrix = CSCMatrix(
                base.shape,
                base.indptr,
                base.indices,
                base.data * (1.0 + 0.05 * wave),
                _skip_check=True,
            )
            tenant = "burst"
        else:
            i = int(rng.integers(len(bases)))
            base = bases[i]
            matrix = CSCMatrix(
                base.shape,
                base.indptr,
                base.indices,
                base.data * (1.0 + 0.01 * req),
                _skip_check=True,
            )
            tenant = f"tenant{req % 3}"
        b = rng.standard_normal(matrix.shape[0])
        trace.append((matrix, b, req % 3, tenant, arrival))
    return trace


def replay(trace, config):
    """Submit the whole trace, drain once, return (service, results, wall)."""
    service = SolverService(config)
    t0 = service.now()
    ids = []
    for matrix, b, priority, tenant, arrival in trace:
        ids.append(
            service.submit(
                matrix,
                b,
                priority=priority,
                tenant=tenant,
                deadline=t0 + arrival + SLACK,
            )
        )
    start = time.perf_counter()
    results = service.drain()
    elapsed = time.perf_counter() - start
    return service, [results[i] for i in ids], elapsed


def test_s3_fleet_bitwise_and_throughput():
    trace = build_replay()
    svc_1, res_1, t_1 = replay(trace, ServiceConfig())
    svc_f, res_f, t_f = replay(
        trace, ServiceConfig(fleet_workers=FLEET_WORKERS, shards=SHARDS)
    )

    # Contract 1: bitwise identity per job, any worker count (always).
    assert all(r.status == COMPLETED for r in res_1)
    assert all(r.status == COMPLETED for r in res_f)
    for a, b in zip(res_1, res_f):
        assert np.array_equal(a.x, b.x), (
            f"fleet solution differs from single executor on job {a.job_id}"
        )

    speedup = t_1 / t_f
    jobs = len(trace)
    banner(
        "S3",
        f"Serving fleet vs single executor ({jobs} requests, "
        f"{len(PATTERN_SIZES)} patterns, hot-pattern skew {HOT_SKEW}, "
        f"Poisson mean interarrival {MEAN_IAT * 1e3:.0f} ms)",
    )
    print(
        format_table(
            ["mode", "jobs", "time [s]", "jobs/s", "batches", "hit rate",
             "miss ratio"],
            [
                ["single", jobs, round(t_1, 3), round(jobs / t_1, 1),
                 svc_1.metrics.counter("batches"),
                 round(svc_1.cache.stats.hit_rate, 3),
                 round(svc_1.deadline_miss_ratio, 3)],
                [f"fleet x{FLEET_WORKERS}", jobs, round(t_f, 3),
                 round(jobs / t_f, 1), svc_f.metrics.counter("batches"),
                 round(svc_f.cache.stats.hit_rate, 3),
                 round(svc_f.deadline_miss_ratio, 3)],
            ],
        )
    )
    cores = os.cpu_count() or 1
    print(
        f"\nhost cores: {cores}; fleet speedup {speedup:.2f}x "
        f"(floor {SPEEDUP_FLOOR}x, enforced when cores >= {MIN_CORES}); "
        f"shard sizes {svc_f.cache.shard_sizes()}; "
        "solutions bitwise identical across both modes"
    )

    if cores < MIN_CORES:
        # Bit-identity above has already been enforced; only the timing
        # gate needs real cores.
        pytest.skip(
            f"speedup floor needs >= {MIN_CORES} cores; host has {cores}"
        )
    assert speedup >= SPEEDUP_FLOOR


# EDF experiment: K jobs with anti-correlated priorities and deadlines on
# a deterministic clock. The sequential drain consumes a fixed number of
# clock ticks per batch (1 dispatch + 3 in execute/record), so job i —
# submitted i-th, K submit ticks up front — completes at tick 10 + 4(i+1)
# when served in deadline order; +2 slack makes EDF meet every deadline
# while any inversion (priority order is exactly reversed) misses.
EDF_JOBS = 10


def _edf_trace():
    mats = [random_spd_sparse(24 + 2 * i, seed=100 + i) for i in range(EDF_JOBS)]
    deadlines = [EDF_JOBS + 4 * (i + 1) + 2 for i in range(EDF_JOBS)]
    priorities = [EDF_JOBS - i for i in range(EDF_JOBS)]
    return mats, deadlines, priorities


def test_s3_edf_deadlines():
    mats, deadlines, priorities = _edf_trace()
    svc = SolverService(ServiceConfig(), clock=FakeClock(), sleep=lambda s: None)
    for m, d, p in zip(mats, deadlines, priorities):
        svc.submit(m, np.ones(m.shape[0]), priority=p, deadline=d)
    svc.drain()
    missed = svc.metrics.counter("service_deadline_missed_total")
    jobs = svc.metrics.counter("service_deadline_jobs_total")

    banner(
        "S3-EDF",
        f"EDF deadline misses ({EDF_JOBS} jobs, anti-correlated "
        "priorities/deadlines, deterministic clock)",
    )
    print(
        format_table(
            ["policy", "deadline jobs", "missed", "miss ratio"],
            [["edf", jobs, missed, round(svc.deadline_miss_ratio, 3)]],
        )
    )
    assert jobs == EDF_JOBS
    assert missed == 0, "EDF must meet every deadline on this trace"


def test_s3_admission_under_burst():
    m = grid3d_laplacian(5)
    rng = make_rng(3)
    svc = SolverService(ServiceConfig(max_pending=16, tenant_quota=4))
    admitted = 0
    rejections = {"quota": 0, "backpressure": 0}
    for i in range(12):  # the burst: one tenant far past its quota
        try:
            svc.submit(m, rng.standard_normal(m.shape[0]), tenant="burst")
            admitted += 1
        except AdmissionError as exc:
            rejections[exc.reason] += 1
    for i in range(6):  # steady tenants are unaffected by the burst
        svc.submit(m, rng.standard_normal(m.shape[0]), tenant=f"tenant{i % 3}")
        admitted += 1
    results = svc.drain()

    banner("S3-ADM", "Admission control under a tenant burst")
    print(
        format_table(
            ["admitted", "quota rejects", "backpressure rejects", "completed"],
            [[admitted, rejections["quota"], rejections["backpressure"],
              sum(1 for r in results.values() if r.status == COMPLETED)]],
        )
    )
    assert rejections["quota"] == 8  # 12 burst submits, quota 4
    assert admitted == 10
    assert len(results) == admitted
    assert all(r.status == COMPLETED for r in results.values())
    assert svc.metrics.counter("service_admission_rejected_total") == 8
    # After the drain the tenant's pending count is back to zero: admitted.
    svc.submit(m, rng.standard_normal(m.shape[0]), tenant="burst")
