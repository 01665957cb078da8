"""Message and work ledger: everything the analysis layer reports.

The scheduler records every message (count, bytes, hops) and every compute
charge here; benchmark F2's communication-fraction breakdown and the
conservation checks in the test suite read these totals.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.util.errors import SimulationError


@dataclass
class MessageLedger:
    """Aggregate communication/computation record of one simulation."""

    n_ranks: int
    #: total point-to-point messages delivered
    n_messages: int = 0
    #: total payload bytes moved
    total_bytes: int = 0
    #: total hop-weighted bytes (network load proxy)
    hop_bytes: int = 0
    #: per-rank sent message counts
    sent_by_rank: list[int] = field(default_factory=list)
    #: per-rank sent bytes
    bytes_sent_by_rank: list[int] = field(default_factory=list)
    #: per-rank received message counts
    recv_by_rank: list[int] = field(default_factory=list)
    #: per-rank received bytes
    bytes_recv_by_rank: list[int] = field(default_factory=list)

    def __post_init__(self) -> None:
        z = [0] * self.n_ranks
        self.sent_by_rank = list(z)
        self.bytes_sent_by_rank = list(z)
        self.recv_by_rank = list(z)
        self.bytes_recv_by_rank = list(z)

    def record_send(self, src: int, dst: int, nbytes: int, hops: int) -> None:
        self.n_messages += 1
        self.total_bytes += nbytes
        self.hop_bytes += nbytes * max(hops, 0)
        self.sent_by_rank[src] += 1
        self.bytes_sent_by_rank[src] += nbytes

    def record_recv(self, dst: int, nbytes: int) -> None:
        self.recv_by_rank[dst] += 1
        self.bytes_recv_by_rank[dst] += nbytes

    def verify(self) -> None:
        """Conservation assertion over the whole ledger.

        Every delivered message was sent exactly once and received exactly
        once, so at the end of a simulation the per-rank sent totals must
        sum to ``n_messages`` and match the per-rank received totals, in
        both counts and bytes. The simulator teardown calls it when
        ``REPRO_CHECK=1``.

        Raises :class:`~repro.util.errors.SimulationError` with per-rank
        evidence on the first violated identity.
        """
        for name, per_rank in (
            ("sent_by_rank", self.sent_by_rank),
            ("bytes_sent_by_rank", self.bytes_sent_by_rank),
            ("recv_by_rank", self.recv_by_rank),
            ("bytes_recv_by_rank", self.bytes_recv_by_rank),
        ):
            if len(per_rank) != self.n_ranks:
                raise SimulationError(
                    f"ledger {name} has {len(per_rank)} entries for "
                    f"{self.n_ranks} ranks"
                )
            bad = [r for r, v in enumerate(per_rank) if v < 0]
            if bad:
                raise SimulationError(f"ledger {name} negative at ranks {bad[:5]}")
        sent = sum(self.sent_by_rank)
        recv = sum(self.recv_by_rank)
        if sent != self.n_messages:
            raise SimulationError(
                f"ledger count conservation violated: per-rank sends sum to "
                f"{sent}, ledger counted {self.n_messages} messages"
            )
        if recv != sent:
            raise SimulationError(
                f"ledger count conservation violated: {sent} messages sent "
                f"but {recv} received ({sent - recv} undelivered)"
            )
        bytes_sent = sum(self.bytes_sent_by_rank)
        bytes_recv = sum(self.bytes_recv_by_rank)
        if bytes_sent != self.total_bytes:
            raise SimulationError(
                f"ledger byte conservation violated: per-rank sends sum to "
                f"{bytes_sent} B, ledger counted {self.total_bytes} B"
            )
        if bytes_recv != bytes_sent:
            raise SimulationError(
                f"ledger byte conservation violated: {bytes_sent} B sent but "
                f"{bytes_recv} B received"
            )
