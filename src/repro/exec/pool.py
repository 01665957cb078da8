"""Dependency-counting worker pool: real shared-memory task execution.

This module is the **only** place in the library allowed to touch raw
thread primitives (lint rule RP008): every thread, lock, and condition
variable of the shared-memory backend lives here, so the rest of the
codebase stays single-threaded and bit-deterministic by construction.

Design
------
One :class:`TaskPool` run executes one :class:`~repro.exec.tasks.TaskGraph`:

* a shared **ready heap** ordered by task priority (heavy subtrees first,
  task id as the deterministic tiebreak), guarded by one condition
  variable;
* each worker loops pop → execute → decrement dependents, pushing newly
  ready tasks and waking peers. Task bodies run *outside* the lock —
  numpy releases the GIL inside its BLAS-3-sized kernels, which is where
  the real concurrency comes from;
* a task exception cancels the run: the ready heap is drained, every
  worker exits, and :meth:`TaskPool.run` re-raises the original exception
  (a non-positive pivot surfaces as :class:`NotPositiveDefiniteError`,
  exactly like the sequential path);
* an empty heap with no task in flight and work remaining means the graph
  has a cycle — the pool raises
  :class:`~repro.util.errors.ExecBackendError` instead of deadlocking;
* :meth:`TaskPool.cancel` (from a task or another thread) shuts the pool
  down: the current run drains and raises, later runs refuse to start.

Observability: every task runs inside one
:func:`~repro.obs.spans.timed` span named ``exec.<kind>`` (``kind`` is
the graph's label) with ``task`` and ``worker`` attributes. When a span
recorder is installed the span is recorded on its worker thread's lane,
and the spans the task opens nest under it; either way its ``.elapsed``
is the task's entry in :class:`PoolStats`. :meth:`PoolStats.publish`
exports the queue depth high-water mark, task count, and task-latency
histogram into a :class:`~repro.obs.metrics.MetricsRegistry`.

Verification hook: ``TaskPool(fuzz=...)`` accepts a
:class:`ScheduleFuzzer` (see :mod:`repro.check.schedfuzz`) that
adversarially permutes the ready queue (``ready_key``), forces preemption
points (``defer`` re-queues a popped task), and injects task delays — all
deterministically from a seed, so a failing schedule replays
byte-for-byte. The pool records no access log: race-freedom follows from
the factor graph's edges being the assembly tree's and from dependency
counting (a task starts only after its prerequisites end); see DESIGN.md,
"Verifying the threaded backend".

Lock discipline (lint rule RP010): this module is the only place thread
primitives may be *constructed*; everything else obtains them through
:func:`make_lock`. All acquisition is ``with``-statement scoped — no bare
``acquire``/``release`` anywhere in the library.
"""

from __future__ import annotations

import heapq
import os
import threading
import time
from contextlib import AbstractContextManager
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Protocol

from repro.exec.tasks import TaskGraph
from repro.obs.spans import timed
from repro.util.errors import ExecBackendError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.obs.metrics import MetricsRegistry

__all__ = [
    "TaskPool",
    "PoolStats",
    "ScheduleFuzzer",
    "default_workers",
    "make_condition",
    "make_lock",
]


def make_lock() -> AbstractContextManager[bool]:
    """The sanctioned mutex constructor for the execution backend.

    Code that needs a private mutex (e.g. the service cache's shard
    locks) obtains it here instead of touching
    ``threading`` directly, keeping every thread primitive construction
    in this one audited module (lint rule RP010). The returned lock is
    used in ``with`` statements only.
    """
    return threading.Lock()


def make_condition() -> threading.Condition:
    """The sanctioned condition-variable constructor (lint rule RP010).

    :class:`repro.exec.fleet.FleetCrew` coordinates its serving workers
    through a condition variable; like every other thread primitive it is
    *constructed* here so provenance stays auditable in one module. Usage
    is ``with``-scoped plus ``wait``/``notify_all`` inside the block.
    """
    return threading.Condition()


class ScheduleFuzzer(Protocol):
    """Adversarial schedule perturbation driven by the pool.

    Implementations must be deterministic functions of (seed, task) — the
    pool may call them from any worker; ``defer`` is always invoked while
    holding the run's condition lock, so bounded internal state is safe
    there. See :class:`repro.check.schedfuzz.FuzzPlan`.
    """

    def ready_key(self, task: int, key: float) -> float:
        """Heap key for a task entering the ready queue (lower pops
        first); *key* is the pool's natural priority key."""
        ...

    def requeue_key(self, task: int) -> float:
        """Heap key for a task re-queued by a forced preemption."""
        ...

    def defer(self, task: int) -> bool:
        """True to push the just-popped *task* back and pick another
        (called only when other ready tasks exist; must eventually
        return False for every task)."""
        ...

    def delay(self, task: int) -> float:
        """Seconds to sleep before running *task*'s body (0 = none)."""
        ...

#: cap on the automatic worker count (diminishing returns past this for
#: GIL-sharing Python task bookkeeping, however many cores the host has)
MAX_DEFAULT_WORKERS = 8


def default_workers() -> int:
    """Worker count used when the caller passes ``workers=None``."""
    return max(1, min(MAX_DEFAULT_WORKERS, os.cpu_count() or 1))


@dataclass
class PoolStats:
    """Outcome of one :meth:`TaskPool.run`."""

    workers: int
    n_tasks: int
    completed: int
    #: ready-heap high-water mark (parallel slack the schedule exposed)
    max_queue_depth: int
    #: wall seconds each worker spent inside task bodies
    busy_seconds: list[float] = field(default_factory=list)
    #: per-task wall seconds
    task_seconds: list[float] = field(default_factory=list)

    def publish(self, registry: MetricsRegistry, prefix: str = "exec") -> None:
        """Export pool telemetry into *registry*: worker/queue gauges, a
        task counter, and the task-latency histogram."""
        registry.gauge(f"{prefix}_workers").set(float(self.workers))
        registry.gauge(f"{prefix}_queue_depth_peak").set(float(self.max_queue_depth))
        registry.inc(f"{prefix}_tasks", self.completed)
        for dt in self.task_seconds:
            registry.observe(f"{prefix}_task_seconds", dt)


class _RunState:
    """Shared mutable state of one pool run (guarded by ``cond``)."""

    def __init__(self, graph: TaskGraph, fuzz: ScheduleFuzzer | None) -> None:
        self.graph = graph
        self.fuzz = fuzz
        self.cond = threading.Condition()
        self.n_deps_left = [int(d) for d in graph.n_deps]
        self.ready: list[tuple[float, int]] = [
            (self.heap_key(t), t) for t in graph.roots()
        ]
        heapq.heapify(self.ready)
        self.active = 0
        self.completed = 0
        self.stop = False
        self.cancelled = False
        self.error: BaseException | None = None
        self.max_queue_depth = len(self.ready)

    def heap_key(self, task: int) -> float:
        """Ready-heap key of *task*: the negated priority (heavy subtrees
        pop first), optionally permuted by the schedule fuzzer."""
        key = -float(self.graph.priority[task])
        if self.fuzz is not None:
            key = self.fuzz.ready_key(task, key)
        return key


class TaskPool:
    """A pool of worker threads executing dependency-counted task graphs.

    One pool may run several graphs sequentially; a run in progress
    cannot overlap another. After :meth:`cancel` the pool is shut down
    for good.
    *fuzz* installs a :class:`ScheduleFuzzer`.
    """

    def __init__(
        self,
        workers: int,
        name: str = "exec",
        fuzz: ScheduleFuzzer | None = None,
    ):
        if not isinstance(workers, int) or workers < 1:
            raise ExecBackendError(
                f"worker count must be a positive integer; got {workers!r}"
            )
        self.workers = workers
        self.name = name
        self.fuzz = fuzz
        self._lock = threading.Lock()
        self._cancelled = False
        self._state: _RunState | None = None

    # -- control -------------------------------------------------------------

    def cancel(self) -> None:
        """Shut the pool down: drain the current run (its :meth:`run`
        raises :class:`ExecBackendError`) and refuse future runs. Safe to
        call from a task body or from another thread."""
        with self._lock:
            self._cancelled = True
            state = self._state
        if state is not None:
            with state.cond:
                state.stop = True
                state.cancelled = True
                state.ready.clear()
                state.cond.notify_all()

    @property
    def cancelled(self) -> bool:
        with self._lock:
            return self._cancelled

    # -- execution -----------------------------------------------------------

    def run(self, graph: TaskGraph, run_task: Callable[[int], None]) -> PoolStats:
        """Execute every task of *graph*; returns the run's telemetry.

        Raises the first task exception verbatim after draining, or
        :class:`ExecBackendError` for pool-level failures (cancellation,
        a stalled/cyclic graph, a pool already shut down).
        """
        with self._lock:
            if self._cancelled:
                raise ExecBackendError(f"{self.name} pool is shut down")
            if self._state is not None:
                raise ExecBackendError(f"{self.name} pool is already running")
            state = _RunState(graph, self.fuzz)
            self._state = state

        # Per-worker task seconds: written lock-free by exactly one worker
        # each, merged after the join.
        seconds: list[list[float]] = [[] for _ in range(self.workers)]
        try:
            threads = [
                threading.Thread(
                    target=self._worker,
                    args=(wid, state, run_task, seconds[wid]),
                    name=f"{self.name}-worker-{wid}",
                    daemon=True,
                )
                for wid in range(self.workers)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
        finally:
            with self._lock:
                self._state = None

        if state.error is not None:
            raise state.error
        if state.cancelled:
            raise ExecBackendError(
                f"{self.name} pool cancelled with "
                f"{state.completed}/{graph.n_tasks} tasks completed"
            )
        if state.completed != graph.n_tasks:
            raise ExecBackendError(
                f"{self.name} pool finished {state.completed}/"
                f"{graph.n_tasks} tasks (inconsistent task graph)"
            )

        return PoolStats(
            workers=self.workers,
            n_tasks=graph.n_tasks,
            completed=state.completed,
            max_queue_depth=state.max_queue_depth,
            busy_seconds=[sum(lane) for lane in seconds],
            task_seconds=[dt for lane in seconds for dt in lane],
        )

    def _worker(
        self,
        wid: int,
        state: _RunState,
        run_task: Callable[[int], None],
        seconds: list[float],
    ) -> None:
        graph = state.graph
        fuzz = state.fuzz
        kind = f"exec.{graph.label}"
        while True:
            with state.cond:
                while True:
                    if state.stop:
                        return
                    if state.ready:
                        _, tid = heapq.heappop(state.ready)
                        if (
                            fuzz is not None
                            and state.ready
                            and fuzz.defer(tid)
                        ):
                            # Forced preemption point: push the popped task
                            # back (demoted) and pick another.
                            heapq.heappush(
                                state.ready, (fuzz.requeue_key(tid), tid)
                            )
                            continue
                        break
                    if state.active == 0:
                        # Nothing running, nothing ready, work remaining:
                        # the graph has a dependency cycle. Fail loudly
                        # instead of deadlocking every worker.
                        state.error = ExecBackendError(
                            f"{self.name} pool stalled: "
                            f"{graph.n_tasks - state.completed} tasks "
                            "blocked with none in flight (dependency cycle?)"
                        )
                        state.stop = True
                        state.cond.notify_all()
                        return
                    state.cond.wait()
                state.active += 1

            if fuzz is not None:
                pause = fuzz.delay(tid)
                if pause > 0.0:
                    time.sleep(pause)
            try:
                with timed(kind, task=tid, worker=wid) as task_span:
                    run_task(tid)
            # The catch-all is the capture half of cross-thread propagation:
            # run() re-raises state.error verbatim on the calling thread.
            except BaseException as exc:  # repro: noqa[RP001]
                with state.cond:
                    if state.error is None:
                        state.error = exc
                    state.stop = True
                    state.active -= 1
                    state.ready.clear()
                    state.cond.notify_all()
                return
            seconds.append(task_span.elapsed)

            with state.cond:
                state.active -= 1
                state.completed += 1
                for d in graph.dependents[tid]:
                    state.n_deps_left[d] -= 1
                    if state.n_deps_left[d] == 0:
                        heapq.heappush(state.ready, (state.heap_key(d), d))
                        state.cond.notify()
                if len(state.ready) > state.max_queue_depth:
                    state.max_queue_depth = len(state.ready)
                if state.completed == graph.n_tasks:
                    state.stop = True
                    state.cond.notify_all()
