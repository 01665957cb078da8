"""Communicators and collective operations.

A :class:`Comm` is a per-rank handle naming a group of global ranks.
Point-to-point methods build op descriptors to ``yield``; collectives are
generator helpers used with ``yield from`` and are implemented with
binomial trees over the group — so their simulated cost falls out of the
point-to-point model, the same way mpi4py collectives decompose on real
networks.

All members of a group must call collectives in the same order (the usual
MPI contract); tags are drawn from a per-communicator sequence so
concurrent collectives on different communicators never collide.
"""

from __future__ import annotations

from typing import Any, Callable, Generator, Hashable, Sequence

from repro.simmpi.ops import Recv, Send
from repro.util.errors import SimulationError


class Comm:
    """Communicator handle held by one rank.

    Parameters
    ----------
    world_rank
        This rank's global id.
    group
        Sorted tuple of global ranks in the communicator.
    ctx
        Context id distinguishing this communicator from others (all
        members must use the same value).
    """

    __slots__ = ("world_rank", "group", "ctx", "rank", "_seq")

    def __init__(self, world_rank: int, group: Sequence[int], ctx: Hashable = 0) -> None:
        self.group = tuple(sorted(int(g) for g in group))
        if len(set(self.group)) != len(self.group):
            raise SimulationError(f"duplicate ranks in group {group}")
        if world_rank not in self.group:
            raise SimulationError(f"rank {world_rank} not in group {group}")
        self.world_rank = int(world_rank)
        #: rank within this communicator (0..size-1)
        self.rank = self.group.index(self.world_rank)
        self.ctx = ctx
        self._seq = 0

    # -- basic properties --------------------------------------------------

    @property
    def size(self) -> int:
        return len(self.group)

    # -- point to point -----------------------------------------------------

    def send(self, payload: Any, dest: int, tag: Hashable, nbytes: int | None = None) -> Send:
        """Op descriptor: send to communicator-local rank *dest*."""
        return Send(self.group[dest], ("p2p", self.ctx, tag), payload, nbytes)

    def recv(self, source: int, tag: Hashable) -> Recv:
        """Op descriptor: receive from communicator-local rank *source*."""
        return Recv(self.group[source], ("p2p", self.ctx, tag))

    # -- collectives ---------------------------------------------------------

    def _tag(self, kind: str) -> Hashable:
        tag = ("coll", self.ctx, self._seq, kind)
        self._seq += 1
        return tag

    def bcast(self, payload: Any, root: int = 0) -> Generator[Send | Recv, Any, Any]:
        """Binomial-tree broadcast; returns the payload on every rank."""
        tag = self._tag("bcast")
        me = (self.rank - root) % self.size
        size = self.size
        # Receive from the parent (the rank with this rank's lowest set bit
        # cleared), unless we are the (virtual) root.
        mask = 1
        while mask < size:
            if me & mask:
                src = me ^ mask
                payload = yield Recv(self.group[(src + root) % size], tag)
                break
            mask <<= 1
        # Forward to children: all ranks me + m for m below our receive bit.
        mask >>= 1
        while mask >= 1:
            dst = me + mask
            if dst < size:
                yield Send(self.group[(dst + root) % size], tag, payload)
            mask >>= 1
        return payload

    def reduce(
        self,
        value: Any,
        op: Callable[[Any, Any], Any] | None = None,
        root: int = 0,
    ) -> Generator[Send | Recv, Any, Any]:
        """Binomial-tree reduction to *root*; returns the reduced value on
        the root, ``None`` elsewhere. *op* defaults to ``+``."""
        if op is None:
            op = _add
        tag = self._tag("reduce")
        me = (self.rank - root) % self.size
        size = self.size
        acc = value
        mask = 1
        while mask < size:
            if me & mask:
                dst = me ^ mask
                yield Send(self.group[(dst + root) % size], tag, acc)
                return None
            partner = me | mask
            if partner < size:
                other = yield Recv(self.group[(partner + root) % size], tag)
                acc = op(acc, other)
            mask <<= 1
        return acc

    def allreduce(
        self, value: Any, op: Callable[[Any, Any], Any] | None = None
    ) -> Generator[Send | Recv, Any, Any]:
        """Reduce-then-broadcast allreduce."""
        acc = yield from self.reduce(value, op=op, root=0)
        acc = yield from self.bcast(acc, root=0)
        return acc


def _add(a: Any, b: Any) -> Any:
    return a + b
