"""Structured span tracing: the host-side timeline of the library.

A *span* is one named, nested interval of real wall time with free-form
attributes — "solver.analyze", "mf.factor", "service.batch". Spans are
recorded by a process-wide :class:`SpanRecorder` that is installed either
by the ``REPRO_OBS`` environment variable (read once at import, like
``REPRO_CHECK``) or programmatically with :func:`enable` /
:func:`recording`.

The design constraint is the same as the sanitizer's: **instrumented hot
paths must be ~zero-cost when observability is off**. :func:`span` returns
a shared no-op context manager without allocating anything when no
recorder is installed, so the instrumentation sprinkled through the
solver, the parallel driver, and the serving layer costs one global read
and one function call per phase when disabled — and never changes answer
bits either way. A site that needs its duration as a value (a served
job's phase timings, ``AnalyzeInfo.wall_time``) uses :func:`timed`
instead, which reads the clock whether or not a recorder is installed;
this module is the only library code that reads the host clock.

Nesting is per thread: each thread keeps its own open-span stack, so
spans opened concurrently by fleet or pool workers get their parent from
their own thread and carry that thread's trace lane.

Exporters live in :mod:`repro.obs.export` (Chrome trace-event JSON,
Prometheus text, human tables); per-supernode profiling in
:mod:`repro.obs.profile` rides on the same recorder.
"""

from __future__ import annotations

import itertools
import os
import time
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass, field
from typing import Any, Iterator

from repro.obs.profile import FrontProfile

__all__ = [
    "ExecTaskEvent",
    "Span",
    "SpanRecorder",
    "span",
    "timed",
    "enable",
    "disable",
    "recording",
    "obs_enabled",
    "current_recorder",
]

_TRUTHY = frozenset({"1", "true", "on", "yes"})


@dataclass(frozen=True)
class ExecTaskEvent:
    """One task executed by a :mod:`repro.exec` worker thread.

    Unlike :class:`Span`, these carry the pool's own worker index and no
    nesting. The Chrome exporter renders them as one timeline row per
    worker — real concurrency next to the host phases and the simulated
    rank timelines.
    """

    #: task label, e.g. ``"factor:s17"``
    name: str
    #: worker thread index within the pool (trace row)
    worker: int
    #: ``time.perf_counter`` seconds at task start / end
    start: float
    end: float

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass(frozen=True)
class Span:
    """One finished interval on the host timeline."""

    name: str
    #: ``time.perf_counter`` seconds at entry / exit
    start: float
    end: float
    #: nesting depth at entry (0 = top level)
    depth: int
    #: recorder-unique id, assigned in entry order
    span_id: int
    #: ``span_id`` of the enclosing span on the same thread, -1 at top level
    parent_id: int
    #: trace lane of the recording thread (one Chrome trace row each)
    lane: int
    attrs: dict[str, Any] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class SpanRecorder:
    """Collects finished spans (and the front profile) of one recording.

    Safe to record into from several threads: finished spans are appended
    (atomic under the interpreter lock), span ids come from an atomic
    counter, and each thread keeps its own open-span stack.
    """

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.profile = FrontProfile()
        #: per-worker task events from the shared-memory backend
        #: (:mod:`repro.exec` appends; the Chrome exporter renders them)
        self.exec_events: list[ExecTaskEvent] = []
        #: ``perf_counter`` value of the first span start (export origin)
        self.t0: float | None = None
        self._ids = itertools.count()

    def clear(self) -> None:
        self.spans.clear()
        self.profile = FrontProfile()
        self.exec_events.clear()
        self.t0 = None
        self._ids = itertools.count()

    def by_name(self, name: str) -> list[Span]:
        return [s for s in self.spans if s.name == name]

    def total(self, name: str) -> float:
        """Summed duration of every span with this name [s]."""
        return sum(s.duration for s in self.spans if s.name == name)

    def phase_totals(self) -> dict[str, tuple[int, float]]:
        """name -> (count, total seconds), insertion-ordered by first use."""
        out: dict[str, tuple[int, float]] = {}
        for s in self.spans:
            n, t = out.get(s.name, (0, 0.0))
            out[s.name] = (n + 1, t + s.duration)
        return out


class _NullSpan:
    """Shared no-op span: what :func:`span` hands out when obs is off."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc: object) -> None:
        return None

    def set(self, **attrs: Any) -> "_NullSpan":
        return self


NULL_SPAN = _NullSpan()

#: the open spans of the current thread, innermost last. A thread starts
#: with an empty context, so every thread gets its own stack; the
#: recorder itself holds no nesting state.
_open: ContextVar[tuple["_LiveSpan", ...]] = ContextVar(
    "repro_open_spans", default=()
)
#: trace lane of the current thread (-1 until its first span)
_lane: ContextVar[int] = ContextVar("repro_span_lane", default=-1)
_lane_ids = itertools.count()


def _thread_lane() -> int:
    lane = _lane.get()
    if lane < 0:
        lane = next(_lane_ids)
        _lane.set(lane)
    return lane


class _LiveSpan:
    """An open span (context manager); *rec* ``None`` only times it."""

    __slots__ = (
        "_rec", "name", "attrs", "_start", "elapsed",
        "span_id", "parent_id", "depth", "lane",
    )

    def __init__(
        self, rec: SpanRecorder | None, name: str, attrs: dict[str, Any]
    ) -> None:
        self._rec = rec
        self.name = name
        self.attrs = attrs
        self.elapsed = 0.0

    def __enter__(self) -> "_LiveSpan":
        rec = self._rec
        if rec is not None:
            stack = _open.get()
            top = stack[-1] if stack else None
            if top is not None and top._rec is rec:
                self.parent_id, self.depth = top.span_id, top.depth + 1
            else:
                self.parent_id, self.depth = -1, 0
            self.span_id = next(rec._ids)
            self.lane = _thread_lane()
            _open.set(stack + (self,))
        self._start = time.perf_counter()
        if rec is not None and rec.t0 is None:
            rec.t0 = self._start
        return self

    def set(self, **attrs: Any) -> "_LiveSpan":
        """Attach attributes to the open span (chainable)."""
        self.attrs.update(attrs)
        return self

    def __exit__(self, *exc: object) -> None:
        end = time.perf_counter()
        self.elapsed = end - self._start
        rec = self._rec
        if rec is None:
            return
        stack = _open.get()
        if stack and stack[-1] is self:
            _open.set(stack[:-1])
        rec.spans.append(
            Span(
                name=self.name,
                start=self._start,
                end=end,
                depth=self.depth,
                span_id=self.span_id,
                parent_id=self.parent_id,
                lane=self.lane,
                attrs=self.attrs,
            )
        )


# -- process-wide switch -----------------------------------------------------

_recorder: SpanRecorder | None = None


def span(name: str, **attrs: Any):
    """Context manager for one named span.

    When no recorder is installed this returns a shared no-op object —
    the disabled cost of an instrumented phase is one global read.
    """
    rec = _recorder
    if rec is None:
        return NULL_SPAN
    return _LiveSpan(rec, name, attrs)


def timed(name: str, **attrs: Any) -> _LiveSpan:
    """Context manager that always measures its block: ``.elapsed`` [s].

    The clock is read once on entry and once on exit; when a recorder is
    installed the span is recorded from those same two readings, so its
    duration equals ``.elapsed`` exactly. Sites that never read a
    duration use :func:`span`, whose disabled path reads no clock.
    """
    return _LiveSpan(_recorder, name, attrs)


def obs_enabled() -> bool:
    """True when a span recorder is installed (``REPRO_OBS`` or API)."""
    return _recorder is not None


def current_recorder() -> SpanRecorder | None:
    return _recorder


def enable(recorder: SpanRecorder | None = None) -> SpanRecorder:
    """Install (and return) the process-wide recorder."""
    global _recorder
    _recorder = recorder if recorder is not None else SpanRecorder()
    return _recorder


def disable() -> SpanRecorder | None:
    """Remove the recorder; returns it so callers can still export."""
    global _recorder
    rec = _recorder
    _recorder = None
    return rec


@contextmanager
def recording(recorder: SpanRecorder | None = None) -> Iterator[SpanRecorder]:
    """Scoped recording: install a recorder, restore the previous state.

    >>> from repro.obs import spans
    >>> with spans.recording() as rec:
    ...     with spans.span("example"):
    ...         pass
    >>> [s.name for s in rec.spans]
    ['example']
    """
    global _recorder
    prev = _recorder
    rec = enable(recorder)
    try:
        yield rec
    finally:
        _recorder = prev


if os.environ.get("REPRO_OBS", "").strip().lower() in _TRUTHY:
    enable()
