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

A span is one object from start to finish: the context manager while it
is open, the record the recorder keeps once it closes. The multifrontal
loop opens one ``mf.front`` span per dense partial factorization and
the worker pool one ``exec.<kind>`` span per task, so front attribution
and worker timelines are read from the same spans as every phase.
Exporters and the front reports live in :mod:`repro.obs.export`.
"""

from __future__ import annotations

import itertools
import os
import time
from contextlib import contextmanager
from contextvars import ContextVar
from typing import Any, Iterator

__all__ = [
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


class Span:
    """One named interval of host wall time with free-form attributes.

    Open, it is the context manager :func:`span` and :func:`timed` hand
    out; closed, it is the record its recorder keeps. *rec* ``None`` only
    times the block. ``start`` / ``end`` are ``time.perf_counter``
    seconds. When *rec* is a recorder, entry also sets ``depth`` (0 = top
    level), ``span_id`` (recorder-unique, in entry order), ``parent_id``
    (the enclosing span on the same thread, -1 at top level) and ``lane``
    (the recording thread's trace row).
    """

    __slots__ = (
        "_rec", "name", "attrs", "start", "end",
        "depth", "span_id", "parent_id", "lane",
    )

    def __init__(
        self, rec: SpanRecorder | None, name: str, attrs: dict[str, Any]
    ) -> None:
        self._rec = rec
        self.name = name
        self.attrs = attrs
        self.start = self.end = 0.0

    @property
    def elapsed(self) -> float:
        """Seconds between entry and exit (``perf_counter`` readings)."""
        return self.end - self.start

    def __enter__(self) -> Span:
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
        self.start = time.perf_counter()
        return self

    def set(self, **attrs: Any) -> Span:
        """Attach attributes to the open span (chainable)."""
        self.attrs.update(attrs)
        return self

    def __exit__(self, *exc: object) -> None:
        self.end = time.perf_counter()
        rec = self._rec
        if rec is None:
            return
        stack = _open.get()
        if stack and stack[-1] is self:
            _open.set(stack[:-1])
        rec.spans.append(self)

    def __repr__(self) -> str:
        return f"Span({self.name!r}, {self.elapsed:.6f} s, {self.attrs!r})"


class SpanRecorder:
    """Collects the finished spans of one recording.

    Safe to record into from several threads: finished spans are appended
    (atomic under the interpreter lock), span ids come from an atomic
    counter, and each thread keeps its own open-span stack.
    """

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._ids = itertools.count()

    def by_name(self, name: str) -> list[Span]:
        return [s for s in self.spans if s.name == name]

    def total(self, name: str) -> float:
        """Summed duration of every span with this name [s]."""
        return sum(s.elapsed for s in self.spans if s.name == name)

    def phase_totals(self) -> dict[str, tuple[int, float]]:
        """name -> (count, total seconds), insertion-ordered by first use."""
        out: dict[str, tuple[int, float]] = {}
        for s in self.spans:
            n, t = out.get(s.name, (0, 0.0))
            out[s.name] = (n + 1, t + s.elapsed)
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
_open: ContextVar[tuple[Span, ...]] = ContextVar("repro_open_spans", default=())
#: trace lane of the current thread (-1 until its first span)
_lane: ContextVar[int] = ContextVar("repro_span_lane", default=-1)
_lane_ids = itertools.count()


def _thread_lane() -> int:
    lane = _lane.get()
    if lane < 0:
        lane = next(_lane_ids)
        _lane.set(lane)
    return lane


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
    return Span(rec, name, attrs)


def timed(name: str, **attrs: Any) -> Span:
    """Context manager that always measures its block: ``.elapsed`` [s].

    The clock is read once on entry and once on exit; when a recorder is
    installed the same :class:`Span` is recorded, so the recorded
    interval is ``.elapsed`` exactly. Sites that never read a duration
    use :func:`span`, whose disabled path reads no clock.
    """
    return Span(_recorder, name, attrs)


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
