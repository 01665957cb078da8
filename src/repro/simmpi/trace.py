"""Execution traces of simulated runs.

When enabled on the :class:`~repro.simmpi.scheduler.Simulator`, every
compute region, send injection, and receive wait is recorded as a
``TraceEvent``, and every send, receive completion, and receive block as a
:class:`CommEvent` in the run's :class:`CommTrace`.
:func:`repro.obs.export.chrome_trace` renders both as per-rank timelines
(the comm events as instants with ``include_comm``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Hashable, Iterator

#: message-level event kinds recorded in a :class:`CommTrace`
COMM_KINDS = ("send", "recv", "block")


@dataclass(frozen=True)
class TraceEvent:
    """One interval on one rank's timeline."""

    rank: int
    kind: str  # "compute" | "send" | "wait"
    start: float
    end: float
    #: free-form detail (bytes for sends, flops for computes)
    detail: float = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass(frozen=True)
class CommEvent:
    """One message-level event.

    ``rank`` is the acting rank: the sender for ``"send"``, the receiver
    for ``"recv"`` and ``"block"``. ``peer`` is the other side of the
    (intended) message: destination for sends, source for receives and
    blocks. ``tag`` is the canonical string form of the message tag (see
    :func:`tag_key`); a send and the receive that consumed it carry the
    same tag string.
    """

    kind: str  # "send" | "recv" | "block"
    time: float
    rank: int
    peer: int
    tag: str
    nbytes: int = 0


def tag_key(tag: Hashable) -> str:
    """Canonical string form of a message tag.

    Tags in the library are hashable trees of tuples/strings/ints; the
    ``repr`` is stable across a run, so a send and the receive that
    consumed it carry the same string.
    """
    return tag if isinstance(tag, str) else repr(tag)


@dataclass
class CommTrace:
    """Append-only message-level event log of one simulation."""

    events: list[CommEvent] = field(default_factory=list)

    def add(
        self,
        kind: str,
        time: float,
        rank: int,
        peer: int,
        tag: Hashable,
        nbytes: int = 0,
    ) -> None:
        if kind not in COMM_KINDS:
            raise ValueError(f"unknown comm event kind {kind!r}")
        self.events.append(
            CommEvent(
                kind=kind,
                time=float(time),
                rank=int(rank),
                peer=int(peer),
                tag=tag_key(tag),
                nbytes=int(nbytes),
            )
        )

    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self) -> Iterator[CommEvent]:
        return iter(self.events)


@dataclass
class Trace:
    """Ordered event log of one simulation."""

    events: list[TraceEvent] = field(default_factory=list)
    #: message-level log (populated alongside the timeline when tracing)
    comm: CommTrace = field(default_factory=CommTrace)

    def add(self, rank: int, kind: str, start: float, end: float, detail: float = 0.0) -> None:
        if end > start:
            self.events.append(TraceEvent(rank, kind, start, end, detail))

    def total(self, kind: str) -> float:
        return sum(e.duration for e in self.events if e.kind == kind)

    def span(self) -> float:
        if not self.events:
            return 0.0
        return max(e.end for e in self.events)
