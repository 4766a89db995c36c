"""Tests for the simulated MPI layer."""

import numpy as np
import pytest

from repro.machine import ReconfigurableSystem, cray_xd1
from repro.mpi import Communicator, payload_bytes


@pytest.fixture
def system():
    return ReconfigurableSystem(cray_xd1(p=4))


@pytest.fixture
def comm(system):
    return Communicator(system)


def run_ranks(comm, fn):
    """Spawn fn(rank) as one process per rank; run; return {rank: result}."""
    results = {}

    def wrap(rank):
        def proc():
            value = yield from fn(rank)
            results[rank] = value

        return proc()

    for rank in range(comm.size):
        comm.sim.process(wrap(rank), name=f"rank{rank}")
    comm.sim.run()
    return results


# --------------------------------------------------------------- payloads


def test_payload_bytes_variants():
    assert payload_bytes(None) == 0
    assert payload_bytes(3.14) == 8
    assert payload_bytes(np.zeros((10, 10))) == 800
    assert payload_bytes([1, 2, 3]) == 24
    assert payload_bytes(object()) == 8


# ------------------------------------------------------------ point-to-point


def test_send_recv_payload_and_timing(comm):
    def fn(rank):
        if rank == 0:
            yield from comm.send(0, 1, data="hello", nbytes=2e9)  # 1 s at B_n = 2 GB/s
            return None
        if rank == 1:
            data = yield from comm.recv(1, 0)
            return (data, comm.sim.now)
        return None
        yield  # pragma: no cover

    results = run_ranks(comm, fn)
    data, t = results[1]
    assert data == "hello"
    assert t == pytest.approx(1.0, rel=1e-3)  # + tiny link latency


def test_messages_do_not_overtake(comm):
    """Two sends on the same (src, dst, tag) arrive in order."""

    def fn(rank):
        if rank == 0:
            yield from comm.send(0, 1, data="first", nbytes=8)
            yield from comm.send(0, 1, data="second", nbytes=8)
            return None
        if rank == 1:
            a = yield from comm.recv(1, 0)
            b = yield from comm.recv(1, 0)
            return (a, b)
        return None
        yield  # pragma: no cover

    assert run_ranks(comm, fn)[1] == ("first", "second")


def test_tags_demultiplex(comm):
    def fn(rank):
        if rank == 0:
            yield from comm.send(0, 1, data="red", nbytes=8, tag="a")
            yield from comm.send(0, 1, data="blue", nbytes=8, tag="b")
            return None
        if rank == 1:
            blue = yield from comm.recv(1, 0, tag="b")
            red = yield from comm.recv(1, 0, tag="a")
            return (red, blue)
        return None
        yield  # pragma: no cover

    assert run_ranks(comm, fn)[1] == ("red", "blue")


def test_recv_blocks_until_message(comm):
    def fn(rank):
        if rank == 1:
            data = yield from comm.recv(1, 0)
            return (data, comm.sim.now)
        if rank == 0:
            yield comm.sim.timeout(5.0)
            yield from comm.send(0, 1, data=42, nbytes=8)
        return None

    _, t = run_ranks(comm, fn)[1]
    assert t >= 5.0


def test_self_send_rejected(comm):
    with pytest.raises(ValueError, match="itself"):
        list(comm.send(0, 0, None, nbytes=1))


def test_bad_rank_rejected(comm):
    with pytest.raises(ValueError, match="out of range"):
        list(comm.recv(7, 0))


def test_comm_time_recorded_on_mpi_lane(comm):
    """Section 4.3: processor computations cannot overlap communication --
    the trace shows MPI occupancy on per-node mpi lanes (separate from
    the exclusive cpu compute lanes, because concurrent sends may ride
    the node's two links)."""

    def fn(rank):
        if rank == 0:
            yield from comm.send(0, 1, data=None, nbytes=2e9)
        elif rank == 1:
            yield from comm.recv(1, 0)
        return None

    run_ranks(comm, fn)
    trace = comm.sim.trace
    sends = [iv for iv in trace.by_category("mpi0") if iv.label.startswith("mpi:send")]
    recvs = [iv for iv in trace.by_category("mpi1") if iv.label.startswith("mpi:recv")]
    assert len(sends) == 1 and len(recvs) == 1
    assert sends[0].duration == pytest.approx(1.0, rel=1e-3)


def test_wire_time_uses_network_bandwidth(comm):
    """4 GB at 2 GB/s = 2 s."""

    def fn(rank):
        if rank == 0:
            yield from comm.send(0, 3, data=None, nbytes=4e9)
        elif rank == 3:
            yield from comm.recv(3, 0)
            return comm.sim.now
        return None

    assert run_ranks(comm, fn)[3] == pytest.approx(2.0, rel=1e-3)
