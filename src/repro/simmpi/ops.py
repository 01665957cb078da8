"""Operations a rank program may yield to the simulator.

These are plain descriptors: yielding one suspends the rank; the scheduler
performs the operation, advances the rank's clock, and resumes the
generator (with the received payload, for :class:`Recv`). A simulation
creates one per yield, so they are slotted and the scheduler dispatches on
their exact type — do not subclass them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Hashable


@dataclass(slots=True)
class Send:
    """Eager (buffered) send: the sender is charged injection time and
    continues; the message arrives at the destination after the wire
    delay."""

    dest: int  # global rank
    tag: Hashable
    payload: Any
    #: explicit wire size override (None = estimate from payload)
    nbytes: int | None = None


@dataclass(slots=True)
class Recv:
    """Blocking receive of a message matching (source, tag). The resumed
    generator receives the payload as the value of the ``yield``."""

    source: int  # global rank
    tag: Hashable


@dataclass(slots=True)
class Compute:
    """Charge local work: *flops* at the kernel efficiency implied by
    *front_order*, plus *mem_bytes* of streaming traffic."""

    flops: float = 0.0
    front_order: int = 1_000_000
    mem_bytes: float = 0.0
    threads: int = 1


@dataclass(slots=True)
class Local:
    """Zero-cost bookkeeping yield (lets the scheduler interleave ranks at
    deterministic points without charging time)."""
