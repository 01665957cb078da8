"""The discrete-event scheduler.

Runs every rank program as a coroutine, advancing a per-rank clock:

* :class:`~repro.simmpi.ops.Compute` advances the yielding rank only;
* :class:`~repro.simmpi.ops.Send` charges the sender injection time
  (α + bytes·β) and deposits the message with an arrival timestamp
  (sender clock + hop latency) — an eager/buffered send;
* :class:`~repro.simmpi.ops.Recv` blocks until a matching message exists,
  then sets the receiver clock to ``max(receiver clock, arrival)``.

Scheduling is deterministic: among runnable ranks, the one with the
smallest ``(clock, rank)`` runs next, so results (including floating-point
summation order) are reproducible run-to-run.

The scheduler is also the one verifier of simulated communication. When
no rank is runnable it raises a deadlock error naming every wait-for
cycle, each rank blocked behind one, and each rank waiting on a rank that
already finished. Under ``REPRO_CHECK=1`` it also rejects a send while an
undelivered message with the same ``(dst, src, tag)`` key is queued (the
tag cannot tell the two apart), and at teardown checks that every message
was received and that the :class:`~repro.simmpi.ledger.MessageLedger`
conserves counts and bytes.
"""

from __future__ import annotations

import heapq
from collections import deque
from dataclasses import dataclass
from typing import Any, Callable

from repro.machine.model import MachineModel
from repro.simmpi.comm import Comm
from repro.simmpi.ledger import MessageLedger
from repro.simmpi.message import payload_nbytes
from repro.simmpi.ops import Compute, Local, Recv, Send
from repro.simmpi.trace import Trace
from repro.util.errors import SimulationError
from repro.util.validation import runtime_checks_enabled


@dataclass
class RankStats:
    """Per-rank time breakdown."""

    rank: int
    #: final simulated clock of this rank
    finish_time: float = 0.0
    #: time spent in Compute charges
    compute_time: float = 0.0
    #: time spent injecting sends
    send_time: float = 0.0
    #: time spent blocked in receives (idle + wire wait)
    wait_time: float = 0.0
    n_yields: int = 0


@dataclass
class SimResult:
    """Outcome of one simulation."""

    #: wall-clock of the simulated machine (max over rank finish times)
    makespan: float
    #: per-rank return values of the programs
    returns: list[Any]
    rank_stats: list[RankStats]
    ledger: MessageLedger
    #: event timeline (None unless the simulator was built with trace=True)
    trace: Trace | None = None


class Simulator:
    """Deterministic DES over rank coroutines.

    Parameters
    ----------
    machine
        Cost model for compute and messages.
    n_ranks
        Number of simulated ranks.
    threads_per_rank
        SMP threads per rank (scales compute charges).
    """

    def __init__(
        self,
        machine: MachineModel,
        n_ranks: int,
        threads_per_rank: int = 1,
        trace: bool = False,
    ) -> None:
        if n_ranks < 1:
            raise SimulationError("n_ranks must be >= 1")
        if threads_per_rank < 1:
            raise SimulationError("threads_per_rank must be >= 1")
        self.machine = machine
        self.n_ranks = int(n_ranks)
        self.threads = int(threads_per_rank)
        self.enable_trace = bool(trace)

    def run(self, program: Callable, *args: Any, **kwargs: Any) -> SimResult:
        """Execute ``program(comm, *args, **kwargs)`` on every rank.

        *program* must be a generator function taking the communicator as
        its first argument. Extra args are passed through; to give ranks
        different inputs, close over a per-rank structure and index it by
        ``comm.rank``.
        """
        machine = self.machine
        p = self.n_ranks
        gens = []
        for r in range(p):
            comm = Comm(r, range(p), ctx=("world",))
            gen = program(comm, *args, **kwargs)
            if not hasattr(gen, "send"):
                raise SimulationError(
                    "program must be a generator function (did it 'yield'?)"
                )
            gens.append(gen)

        clock = [0.0] * p
        stats = [RankStats(r) for r in range(p)]
        ledger = MessageLedger(p)
        returns: list[Any] = [None] * p
        done = [False] * p
        # Mailboxes: (dst, src, tag) -> FIFO of (arrival_time, payload, nbytes)
        mailbox: dict[tuple, deque] = {}
        # Blocked ranks: rank -> (src, tag)
        blocked: dict[int, tuple] = {}
        # Ready queue: (clock, rank); lazy entries, validity via `in_queue`.
        ready: list[tuple[float, int]] = [(0.0, r) for r in range(p)]
        heapq.heapify(ready)
        resume_value: list[Any] = [None] * p
        trace = Trace() if self.enable_trace else None
        checks = runtime_checks_enabled()
        # Hop counts are a pure function of (src, dst): asked once per pair.
        hop_table: dict[tuple[int, int], int] = {}
        alpha, alpha_hop, beta = machine.alpha, machine.alpha_hop, machine.beta

        def deposit(src: int, op: Send) -> None:
            nbytes = op.nbytes if op.nbytes is not None else payload_nbytes(op.payload)
            dst = op.dest
            if not (0 <= dst < p):
                raise SimulationError(f"rank {src} sent to invalid rank {dst}")
            if src != dst:
                hops = hop_table.get((src, dst))
                if hops is None:
                    hops = hop_table[src, dst] = machine.topology.hops(src, dst, p)
                inject = alpha + nbytes * beta
            else:
                hops = 0
                inject = machine.mem_time(nbytes)
            if trace is not None:
                trace.add(src, "send", clock[src], clock[src] + inject, nbytes)
            clock[src] += inject
            stats[src].send_time += inject
            arrival = clock[src] + hops * alpha_hop
            key = (dst, src, op.tag)
            box = mailbox.get(key)
            if box is None:
                box = mailbox[key] = deque()
            elif checks:
                # Empty boxes are deleted, so this key has a message queued.
                raise SimulationError(
                    f"same-key race: rank {src} sent to rank {dst} with tag "
                    f"{op.tag!r} at t={clock[src]:.6g} while an earlier message "
                    f"on that key (arrival t={box[0][0]:.6g}) is undelivered; "
                    "the tag cannot tell them apart"
                )
            box.append((arrival, op.payload, nbytes))
            ledger.record_send(src, dst, nbytes, hops)
            if trace is not None:
                trace.comm.add("send", clock[src], src, dst, op.tag, nbytes)
            # Wake the receiver if it is blocked on this message.
            if blocked.get(dst) == (src, op.tag):
                del blocked[dst]
                _complete_recv(dst, key)

        def _complete_recv(r: int, key: tuple) -> None:
            box = mailbox[key]
            arrival, payload, nbytes = box.popleft()
            if not box:
                del mailbox[key]
            wait = max(arrival - clock[r], 0.0)
            if trace is not None and wait > 0:
                trace.add(r, "wait", clock[r], arrival, nbytes)
            stats[r].wait_time += wait
            clock[r] = max(clock[r], arrival)
            ledger.record_recv(r, nbytes)
            if trace is not None:
                trace.comm.add("recv", clock[r], r, key[1], key[2], nbytes)
            resume_value[r] = payload
            heapq.heappush(ready, (clock[r], r))

        n_done = 0
        while n_done < p:
            if not ready:
                raise SimulationError(_deadlock_message(blocked, done))
            t, r = heapq.heappop(ready)
            if done[r] or r in blocked or t < clock[r] - 1e-30:
                continue  # stale entry
            value, resume_value[r] = resume_value[r], None
            try:
                op = gens[r].send(value)
            except StopIteration as stop:
                returns[r] = stop.value
                done[r] = True
                stats[r].finish_time = clock[r]
                n_done += 1
                continue
            except Exception as exc:  # surface rank failures with context
                raise SimulationError(f"rank {r} raised: {exc!r}") from exc
            stats[r].n_yields += 1

            kind = type(op)
            if kind is Recv:
                key = (r, op.source, op.tag)
                if key in mailbox:
                    _complete_recv(r, key)
                else:
                    blocked[r] = (op.source, op.tag)
                    if trace is not None:
                        trace.comm.add("block", clock[r], r, op.source, op.tag)
                continue
            if kind is Send:
                deposit(r, op)
            elif kind is Compute:
                dt = 0.0
                if op.flops:
                    dt += machine.compute_time(
                        op.flops, op.front_order, threads=max(op.threads, self.threads)
                    )
                if op.mem_bytes:
                    dt += machine.mem_time(op.mem_bytes)
                if trace is not None:
                    trace.add(r, "compute", clock[r], clock[r] + dt, op.flops)
                clock[r] += dt
                stats[r].compute_time += dt
            elif kind is not Local:
                raise SimulationError(
                    f"rank {r} yielded unknown op {op!r}"
                )
            heapq.heappush(ready, (clock[r], r))

        makespan = max(clock) if clock else 0.0
        for s in stats:
            s.finish_time = clock[s.rank]
        if checks:
            # Debug-mode teardown invariants (REPRO_CHECK=1): every sent
            # message was consumed, and the ledger conserves counts/bytes.
            if mailbox:
                leftover = sorted(mailbox)[:5]
                raise SimulationError(
                    f"{sum(len(v) for v in mailbox.values())} message(s) "
                    f"sent but never received; first keys (dst, src, tag): "
                    f"{leftover}"
                )
            ledger.verify()
        return SimResult(
            makespan=makespan,
            returns=returns,
            rank_stats=stats,
            ledger=ledger,
            trace=trace,
        )


def _deadlock_message(blocked: dict[int, tuple], done: list[bool]) -> str:
    """Diagnose a state where every unfinished rank is blocked.

    Each blocked rank waits on exactly one source, so the wait-for graph is
    functional: walking successors from every rank finds every cycle. A
    rank outside the cycles is either blocked behind one, or its chain ends
    at a rank that already finished and so will never send.
    """

    def recv(r: int) -> str:
        src, tag = blocked[r]
        return f"rank {r} recv(src={src}, tag={tag!r})"

    lines = [f"deadlock: {len(blocked)} rank(s) blocked, none runnable"]
    cycle_of: dict[int, int] = {}  # rank on a cycle -> the cycle's first rank
    for start in sorted(blocked):
        path: list[int] = []
        r = start
        while r in blocked and r not in cycle_of and r not in path:
            path.append(r)
            r = blocked[r][0]
        if r in path:
            cycle = path[path.index(r):]
            cycle_of.update(dict.fromkeys(cycle, r))
            steps = " -> ".join(recv(a) for a in cycle)
            lines.append(f"wait-for cycle: {steps} -> rank {r}")
    for r in sorted(blocked):
        if r in cycle_of:
            continue
        src = blocked[r][0]
        head = src
        while head in blocked and head not in cycle_of:
            head = blocked[head][0]
        if head in cycle_of:
            lines.append(f"{recv(r)} is blocked behind the cycle through rank {cycle_of[head]}")
        elif 0 <= src < len(done) and not done[src]:
            lines.append(f"{recv(r)} is blocked behind rank {src}")
        else:
            gone = "already finished" if 0 <= src < len(done) else "does not exist"
            lines.append(f"{recv(r)} waits on rank {src}, which {gone}: that message is never sent")
    return "\n  ".join(lines)
