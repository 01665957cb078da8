"""Tests for the simulated message-passing runtime."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.check.sanitize import sanitized
from repro.machine import MachineModel, FlatTopology
from repro.simmpi import Comm, Compute, Local, Send, Simulator, payload_nbytes
from repro.simmpi.message import ENVELOPE_BYTES
from repro.util.errors import SimulationError


def machine(**over):
    kw = dict(
        name="t",
        flop_rate=1e9,
        dense_efficiency=1.0,
        small_kernel_efficiency=1.0,
        kernel_crossover=1,
        mem_bandwidth=1e9,
        alpha=1e-6,
        alpha_hop=0.0,
        beta=1e-9,
        topology=FlatTopology(),
    )
    kw.update(over)
    return MachineModel(**kw)


def run(program, p=4, m=None, **kw):
    return Simulator(m or machine(), p, **kw).run(program)


class TestPayloadSize:
    def test_array(self):
        a = np.zeros(100)
        assert payload_nbytes(a) == ENVELOPE_BYTES + 800

    def test_nested(self):
        assert payload_nbytes((np.zeros(2), 5)) == ENVELOPE_BYTES + 16 + 8

    def test_none(self):
        assert payload_nbytes(None) == ENVELOPE_BYTES

    def test_dict_and_str(self):
        assert payload_nbytes({"ab": 1.0}) == ENVELOPE_BYTES + 2 + 8


class TestPointToPoint:
    def test_ping(self):
        def prog(comm):
            if comm.rank == 0:
                yield comm.send(np.arange(4.0), dest=1, tag="x")
                return None
            data = yield comm.recv(source=0, tag="x")
            return data

        res = run(prog, p=2)
        np.testing.assert_array_equal(res.returns[1], np.arange(4.0))

    def test_ping_pong_time(self):
        m = machine()

        def prog(comm):
            if comm.rank == 0:
                yield comm.send(0, dest=1, tag=1)
                ack = yield comm.recv(source=1, tag=2)
                return ack
            v = yield comm.recv(source=0, tag=1)
            yield comm.send(v + 1, dest=0, tag=2)
            return None

        res = run(prog, p=2, m=m)
        assert res.returns[0] == 1
        # Two messages, each at least alpha.
        assert res.makespan >= 2 * m.alpha

    def test_messages_fifo_per_key(self):
        def prog(comm):
            if comm.rank == 0:
                for k in range(5):
                    yield comm.send(k, dest=1, tag="t")
                return None
            out = []
            for _ in range(5):
                out.append((yield comm.recv(source=0, tag="t")))
            return out

        res = run(prog, p=2)
        assert res.returns[1] == [0, 1, 2, 3, 4]

    def test_tags_demultiplex(self):
        def prog(comm):
            if comm.rank == 0:
                yield comm.send("a", dest=1, tag="A")
                yield comm.send("b", dest=1, tag="B")
                return None
            b = yield comm.recv(source=0, tag="B")
            a = yield comm.recv(source=0, tag="A")
            return (a, b)

        res = run(prog, p=2)
        assert res.returns[1] == ("a", "b")

    def test_deadlock_detected(self):
        def prog(comm):
            _ = yield comm.recv(source=(comm.rank + 1) % comm.size, tag=0)

        with pytest.raises(SimulationError, match="deadlock"):
            run(prog, p=2)

    def test_send_invalid_rank(self):
        def prog(comm):
            yield Send(99, "t", None)

        with pytest.raises(SimulationError):
            run(prog, p=2)

    def test_rank_exception_wrapped(self):
        def prog(comm):
            yield Local()
            raise ValueError("boom")

        with pytest.raises(SimulationError, match="boom"):
            run(prog, p=2)

    def test_non_generator_program(self):
        def prog(comm):
            return 42

        with pytest.raises(SimulationError):
            run(prog, p=2)

    @pytest.mark.parametrize("threads", [0, -1])
    def test_threads_per_rank_below_one_rejected(self, threads):
        with pytest.raises(SimulationError, match="threads_per_rank"):
            Simulator(machine(), 4, threads_per_rank=threads)


class TestLiveCommChecks:
    """The scheduler is the one verifier of simulated communication."""

    def deadlock_message(self, prog, p):
        with pytest.raises(SimulationError, match="deadlock") as err:
            run(prog, p=p)
        return str(err.value)

    def test_two_rank_cycle_names_ranks_and_tags(self):
        def prog(comm):
            peer = 1 - comm.rank
            yield comm.recv(source=peer, tag=f"from{peer}")

        msg = self.deadlock_message(prog, 2)
        assert "wait-for cycle" in msg
        assert "rank 0 recv(src=1" in msg and "'from1'" in msg
        assert "rank 1 recv(src=0" in msg and "'from0'" in msg

    def test_rank_blocked_behind_cycle(self):
        def prog(comm):
            src = {0: 1, 1: 0, 2: 0}[comm.rank]
            yield comm.recv(source=src, tag=f"r{comm.rank}")

        msg = self.deadlock_message(prog, 3)
        line = next(s for s in msg.splitlines() if "rank 2 recv(src=0" in s)
        assert "'r2'" in line and "behind the cycle through rank 0" in line

    def test_rank_waiting_on_finished_rank(self):
        def prog(comm):
            if comm.rank == 1:
                yield comm.recv(source=0, tag="never")
            return comm.rank

        msg = self.deadlock_message(prog, 2)
        assert "wait-for cycle" not in msg
        assert "rank 1 recv(src=0" in msg and "'never'" in msg
        assert "rank 0, which already finished" in msg

    @staticmethod
    def same_key_pair(comm):
        # Rank 1 waits on "b" while rank 0 queues two "dup" messages.
        if comm.rank == 0:
            yield comm.send("first", dest=1, tag="dup")
            yield comm.send("second", dest=1, tag="dup")
            yield comm.send(None, dest=1, tag="b")
            return None
        yield comm.recv(source=0, tag="b")
        a = yield comm.recv(source=0, tag="dup")
        b = yield comm.recv(source=0, tag="dup")
        return (a, b)

    def test_same_key_pair_raises_under_checks(self):
        with sanitized(True):
            with pytest.raises(SimulationError, match="same-key race.*'dup'"):
                run(self.same_key_pair, p=2)

    def test_same_key_pair_runs_with_checks_off(self):
        with sanitized(False):
            res = run(self.same_key_pair, p=2)
        assert res.returns[1] == ("first", "second")


class TestCompute:
    def test_compute_advances_clock(self):
        m = machine()

        def prog(comm):
            yield Compute(flops=1e9)
            return None

        res = run(prog, p=2, m=m)
        assert res.makespan == pytest.approx(1.0)
        assert res.rank_stats[0].compute_time == pytest.approx(1.0)

    def test_mem_bytes_charged(self):
        def prog(comm):
            yield Compute(mem_bytes=1e9)
            return None

        res = run(prog, p=1)
        assert res.makespan == pytest.approx(1.0)

    def test_ranks_advance_independently(self):
        def prog(comm):
            yield Compute(flops=1e9 * (comm.rank + 1))
            return None

        res = run(prog, p=3)
        times = [s.finish_time for s in res.rank_stats]
        assert times == pytest.approx([1.0, 2.0, 3.0])
        assert res.makespan == pytest.approx(3.0)

    def test_wait_time_accounting(self):
        def prog(comm):
            if comm.rank == 0:
                yield Compute(flops=1e9)
                yield comm.send(1, dest=1, tag=0)
                return None
            _ = yield comm.recv(source=0, tag=0)
            return None

        res = run(prog, p=2)
        assert res.rank_stats[1].wait_time >= 0.9  # waited ~1s


class TestCollectives:
    @pytest.mark.parametrize("p", [1, 2, 3, 4, 7, 8, 16])
    def test_bcast(self, p):
        def prog(comm):
            data = np.arange(3.0) if comm.rank == 0 else None
            out = yield from comm.bcast(data, root=0)
            return out.sum()

        res = run(prog, p=p)
        assert all(v == 3.0 for v in res.returns)

    @pytest.mark.parametrize("p", [1, 2, 5, 8])
    @pytest.mark.parametrize("root", [0, 1])
    def test_bcast_nonzero_root(self, p, root):
        if root >= p:
            pytest.skip("root out of range")

        def prog(comm):
            data = 42 if comm.rank == root else None
            out = yield from comm.bcast(data, root=root)
            return out

        res = run(prog, p=p)
        assert res.returns == [42] * p

    @pytest.mark.parametrize("p", [1, 2, 3, 6, 8])
    def test_reduce_sum(self, p):
        def prog(comm):
            out = yield from comm.reduce(comm.rank + 1)
            return out

        res = run(prog, p=p)
        assert res.returns[0] == p * (p + 1) // 2
        assert all(v is None for v in res.returns[1:])

    def test_reduce_custom_op(self):
        def prog(comm):
            out = yield from comm.reduce(comm.rank, op=max)
            return out

        res = run(prog, p=5)
        assert res.returns[0] == 4

    @pytest.mark.parametrize("p", [1, 2, 4, 7])
    def test_allreduce(self, p):
        def prog(comm):
            out = yield from comm.allreduce(np.full(2, float(comm.rank)))
            return out

        res = run(prog, p=p)
        expected = np.full(2, sum(range(p)), dtype=float)
        for v in res.returns:
            np.testing.assert_array_equal(v, expected)

    def test_subcommunicator(self):
        def prog(comm):
            if comm.rank < 2:
                sub = Comm(comm.world_rank, [0, 1], ctx="lo")
            else:
                sub = Comm(comm.world_rank, [2, 3], ctx="hi")
            out = yield from sub.allreduce(comm.rank)
            return out

        res = run(prog, p=4)
        assert res.returns == [1, 1, 5, 5]

    def test_collective_sequences_do_not_collide(self):
        def prog(comm):
            a = yield from comm.allreduce(1)
            b = yield from comm.allreduce(comm.rank)
            return (a, b)

        res = run(prog, p=4)
        assert all(v == (4, 6) for v in res.returns)


class TestLedger:
    def test_conservation(self):
        def prog(comm):
            if comm.rank == 0:
                yield comm.send(np.zeros(10), dest=1, tag=0)
                return None
            _ = yield comm.recv(source=0, tag=0)
            return None

        res = run(prog, p=2)
        led = res.ledger
        assert led.n_messages == 1
        assert sum(led.sent_by_rank) == sum(led.recv_by_rank) == 1
        assert sum(led.bytes_sent_by_rank) == sum(led.bytes_recv_by_rank)
        assert led.total_bytes == payload_nbytes(np.zeros(10))

    def test_bcast_message_count(self):
        def prog(comm):
            _ = yield from comm.bcast(1, root=0)
            return None

        res = run(prog, p=8)
        # A binomial bcast over p ranks sends exactly p-1 messages.
        assert res.ledger.n_messages == 7

class TestDeterminism:
    @settings(max_examples=10, deadline=None)
    @given(st.integers(2, 9), st.integers(0, 100))
    def test_property_repeatable(self, p, seed):
        def prog(comm):
            rng = np.random.default_rng(seed + comm.rank)
            acc = rng.standard_normal(4)
            out = yield from comm.allreduce(acc)
            yield Compute(flops=float(comm.rank) * 1e6)
            return out

        r1 = run(prog, p=p)
        r2 = run(prog, p=p)
        assert r1.makespan == r2.makespan
        for a, b in zip(r1.returns, r2.returns):
            np.testing.assert_array_equal(a, b)
        assert r1.ledger.n_messages == r2.ledger.n_messages


class TestCommValidation:
    def test_rank_not_in_group(self):
        with pytest.raises(SimulationError):
            Comm(5, [0, 1, 2])

    def test_duplicate_group(self):
        with pytest.raises(SimulationError):
            Comm(0, [0, 0, 1])

    def test_local_global_mapping(self):
        c = Comm(7, [3, 7, 9])
        assert c.rank == 1
        assert c.size == 3
        assert c.group == (3, 7, 9)


class TestSelfSend:
    def test_send_to_self_is_memcpy(self):
        def prog(comm):
            yield comm.send(np.arange(3.0), dest=comm.rank, tag="self")
            got = yield comm.recv(source=comm.rank, tag="self")
            return got

        res = run(prog, p=2)
        np.testing.assert_array_equal(res.returns[0], np.arange(3.0))
        # self-messages pay memory-copy time, not network alpha
        assert res.rank_stats[0].send_time < machine().alpha
