"""Access/event trace of the shared-memory execution backend.

When enabled — ``TaskPool(trace=True)``, an :class:`ExecTrace` passed in,
or globally via ``REPRO_CHECK=1`` — the pool and the pooled factor/solve
steps record every synchronization-relevant event of a run:

* ``graph_begin`` / ``graph_end`` / ``graph_abort`` — one pool run over
  one task graph (the forward/backward solve level-set boundaries are
  exactly these delimiters);
* ``task_start`` / ``task_end`` / ``task_error`` — task body execution,
  with the worker thread that ran it;
* ``dep_dec`` — one dependency-count decrement: completion of ``task``
  released one prerequisite of ``target``, leaving ``remaining``. These
  are the happens-before edges the schedule actually exercised;
* ``slot_write`` / ``slot_read`` / ``slot_consume`` — accesses to the
  shared contribution slots: a factor task *publishes* its update matrix
  (``slot_write`` on ``upd:s``) and the parent *consumes* it exactly
  once; a forward-solve task publishes its update panel (``fwd:s``) and
  each owning ancestor consumes its ``[lo:hi)`` row run.

:mod:`repro.check.racecheck` replays this log: it derives the partial
order from the ``dep_dec`` edges and flags any two conflicting slot
accesses that order does not separate, plus conservation and determinism
violations.

Thread-safety: events are appended from concurrent workers without a
lock. Under CPython, ``list.append`` and ``next(itertools.count())`` are
atomic with respect to the GIL, so the log is complete and every event
gets a unique ``seq``; the *list order* may differ from ``seq`` order,
which is why consumers sort by ``seq`` (:meth:`ExecTrace.sorted_events`).
The per-thread worker id rides a ``threading.local`` so slot accesses
emitted from inside task bodies land on the right worker lane.
"""

from __future__ import annotations

import itertools
import json
import threading
from dataclasses import dataclass, field
from typing import IO, Callable, Iterator

from repro.obs.profile import FrontProfile

__all__ = ["ExecEvent", "ExecTrace", "EXEC_EVENT_KINDS"]


class _WorkerLocal(threading.local):
    """Per-thread worker-lane binding (``-1`` = not a pool worker)."""

    worker: int = -1

#: every event kind an :class:`ExecTrace` may contain
EXEC_EVENT_KINDS = (
    "graph_begin",
    "graph_end",
    "graph_abort",
    "task_start",
    "task_end",
    "task_error",
    "dep_dec",
    "slot_write",
    "slot_read",
    "slot_consume",
)


@dataclass(frozen=True)
class ExecEvent:
    """One synchronization-relevant event of a pool run.

    Field use by kind:

    * ``graph_begin`` — ``label`` = graph label, ``target`` = task count;
    * ``graph_end`` / ``graph_abort`` — ``target`` = completed tasks;
    * ``task_start`` / ``task_end`` / ``task_error`` — ``task``,
      ``worker``;
    * ``dep_dec`` — ``task`` completed, released ``target``, which has
      ``remaining`` unmet prerequisites left;
    * ``slot_write`` / ``slot_read`` / ``slot_consume`` — ``slot`` names
      the shared location (``"upd:12"``, ``"fwd:3"``); ``lo``/``hi``
      bound the accessed row run (``-1`` = the whole slot).
    """

    seq: int
    kind: str
    #: wall-clock seconds (``FrontProfile.clock``) at record time
    time: float
    task: int = -1
    worker: int = -1
    target: int = -1
    remaining: int = -1
    lo: int = -1
    hi: int = -1
    slot: str = ""
    label: str = ""

    def to_json(self) -> str:
        d: dict[str, object] = {"seq": self.seq, "kind": self.kind, "time": self.time}
        for key in ("task", "worker", "target", "remaining", "lo", "hi"):
            v = getattr(self, key)
            if v != -1:
                d[key] = v
        if self.slot:
            d["slot"] = self.slot
        if self.label:
            d["label"] = self.label
        return json.dumps(d)

    @classmethod
    def from_json(cls, line: str) -> "ExecEvent":
        d = json.loads(line)
        return cls(
            seq=int(d["seq"]),
            kind=str(d["kind"]),
            time=float(d.get("time", 0.0)),
            task=int(d.get("task", -1)),
            worker=int(d.get("worker", -1)),
            target=int(d.get("target", -1)),
            remaining=int(d.get("remaining", -1)),
            lo=int(d.get("lo", -1)),
            hi=int(d.get("hi", -1)),
            slot=str(d.get("slot", "")),
            label=str(d.get("label", "")),
        )


@dataclass
class ExecTrace:
    """Append-only event log of one or more pool runs.

    One trace may span several graph runs (a solve records the forward
    and backward graphs back to back); each run is delimited by
    ``graph_begin`` … ``graph_end``/``graph_abort`` markers.
    """

    events: list[ExecEvent] = field(default_factory=list)
    clock: Callable[[], float] = FrontProfile.clock

    def __post_init__(self) -> None:
        self._seq = itertools.count(len(self.events))
        self._tls = _WorkerLocal()

    # -- recording ----------------------------------------------------------

    def set_worker(self, worker: int) -> None:
        """Bind the calling thread to a worker lane; subsequent events
        recorded from this thread default to it."""
        self._tls.worker = worker

    def add(
        self,
        kind: str,
        task: int = -1,
        worker: int | None = None,
        target: int = -1,
        remaining: int = -1,
        lo: int = -1,
        hi: int = -1,
        slot: str = "",
        label: str = "",
    ) -> None:
        """Record one event, stamping ``seq`` (atomic) and wall time."""
        if worker is None:
            worker = self._tls.worker
        self.events.append(
            ExecEvent(
                seq=next(self._seq),
                kind=kind,
                time=self.clock(),
                task=task,
                worker=worker,
                target=target,
                remaining=remaining,
                lo=lo,
                hi=hi,
                slot=slot,
                label=label,
            )
        )

    # -- access -------------------------------------------------------------

    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self) -> Iterator[ExecEvent]:
        return iter(self.events)

    def sorted_events(self) -> list[ExecEvent]:
        """Events in ``seq`` order (concurrent appends may interleave)."""
        return sorted(self.events, key=lambda e: e.seq)

    # -- JSONL round trip ---------------------------------------------------

    def to_jsonl(self, fp: IO[str]) -> None:
        for e in self.sorted_events():
            fp.write(e.to_json())
            fp.write("\n")

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fp:
            self.to_jsonl(fp)

    @classmethod
    def from_events(cls, events: list[ExecEvent]) -> "ExecTrace":
        trace = cls(events=sorted(events, key=lambda e: e.seq))
        trace._seq = itertools.count(
            max((e.seq for e in trace.events), default=-1) + 1
        )
        return trace

    @classmethod
    def from_jsonl(cls, fp: IO[str]) -> "ExecTrace":
        return cls.from_events(
            [ExecEvent.from_json(line) for line in fp if line.strip()]
        )

    @classmethod
    def load(cls, path: str) -> "ExecTrace":
        with open(path, "r", encoding="utf-8") as fp:
            return cls.from_jsonl(fp)
