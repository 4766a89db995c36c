"""Tests for the simulated MPI messaging of the DES interpreter.

Schedules exchange messages with ``send`` / ``send_batch`` ops and
receive them with ``wait`` / ``wait_all`` on message keys
``(src, dst, tag)``; the observable effects are the clock, the
network's byte count and the ``mpi{i}`` trace lanes.
"""

import pytest

from repro.machine import ReconfigurableSystem, cray_xd1
from repro.sim import ProcessFailure
from repro.sim.interpret import DesInterpreter

SPEC = cray_xd1(p=4)


def run_schedules(*programs):
    """Spawn program ``j`` as process ``rank{j}``; run; return the system."""
    system = ReconfigurableSystem(SPEC)
    des = DesInterpreter(system)
    for j, ops in enumerate(programs):
        des.spawn(f"rank{j}", ops)
    system.run()
    return system


def recvs(system, rank):
    """The ``mpi:recv`` intervals on ``rank``'s lane, in completion order."""
    return [iv for iv in system.trace.by_category(f"mpi{rank}")
            if iv.label.startswith("mpi:recv")]


def wire_time(nbytes):
    return SPEC.network.latency + nbytes / SPEC.network.bandwidth


def test_send_recv_payload_and_timing():
    # 2 GB at B_n = 2 GB/s: 1 s plus the link latency.
    system = run_schedules(
        [("send", (0, 1, 0), 2e9)],
        [("wait", (0, 1, 0))],
    )
    (iv,) = recvs(system, 1)
    assert iv.meta["nbytes"] == 2_000_000_000
    assert iv.end == wire_time(2e9)
    assert system.network.bytes_moved == 2e9


def test_messages_do_not_overtake():
    """Two sends on the same (src, dst, tag) arrive in send order, also
    when both wait on the mailbox before the receiver asks."""
    sends = [("send", (0, 1, 0), 8), ("send", (0, 1, 0), 16)]
    waits = [("wait", (0, 1, 0)), ("wait", (0, 1, 0))]
    busy = [("cpu", 1, ("dgemm", 1e10), ("work", 1))]
    for receiver in (waits, busy + waits):
        system = run_schedules(sends, receiver)
        assert [iv.meta["nbytes"] for iv in recvs(system, 1)] == [8, 16]


def test_tags_demultiplex():
    system = run_schedules(
        [("send", (0, 1, "a"), 8), ("send", (0, 1, "b"), 16)],
        [("wait", (0, 1, "b")), ("wait", (0, 1, "a"))],
    )
    assert [iv.meta["nbytes"] for iv in recvs(system, 1)] == [16, 8]


def test_recv_blocks_until_message():
    system = run_schedules(
        [("cpu", 0, ("dgemm", 1e10), ("work", 0)), ("send", (0, 1, 0), 8)],
        [("wait", (0, 1, 0))],
    )
    (work,) = system.trace.by_category("cpu0")
    (iv,) = recvs(system, 1)
    assert iv.start == 0.0
    assert iv.end == work.end + wire_time(8)


def test_send_batch_and_wait_all_pair_messages():
    """A batch rides the sender's two links; ``wait_all`` resumes when
    every named message has landed."""
    batch = [(0, 1, "a"), (0, 1, "b"), (0, 2, "a")]
    system = run_schedules(
        [("send_batch", batch, 2e9), ("cpu", 0, ("dgemm", 1e9), ("after", 0))],
        [("wait_all", [(0, 1, "b"), (0, 1, "a")]), ("cpu", 1, ("dgemm", 1e9), ("after", 1))],
        [("wait", (0, 2, "a"))],
    )
    one = wire_time(2e9)
    assert [iv.end for iv in recvs(system, 1)] == [one, one]
    assert [iv.end for iv in recvs(system, 2)] == [one + one]
    assert system.trace.by_category("cpu1")[0].start == one
    assert system.trace.by_category("cpu0")[0].start == one + one
    assert system.network.bytes_moved == 6e9


def test_self_send_rejected():
    with pytest.raises(ProcessFailure) as info:
        run_schedules([("send", (0, 0, 0), 1)])
    assert isinstance(info.value.__cause__, ValueError)
    assert "itself" in str(info.value.__cause__)


def test_bad_rank_rejected():
    with pytest.raises(ProcessFailure) as info:
        run_schedules([("send", (0, 7, 0), 1)])
    assert isinstance(info.value.__cause__, ValueError)
    assert "out of range" in str(info.value.__cause__)


def test_comm_time_recorded_on_mpi_lane():
    """Section 4.3: processor computations cannot overlap communication --
    the trace shows MPI occupancy on per-node mpi lanes (separate from
    the exclusive cpu compute lanes, because concurrent sends may ride
    the node's two links)."""
    system = run_schedules(
        [("send", (0, 1, 0), 2e9)],
        [("wait", (0, 1, 0))],
    )
    trace = system.trace
    sends = [iv for iv in trace.by_category("mpi0") if iv.label == "mpi:send->1"]
    received = [iv for iv in trace.by_category("mpi1") if iv.label == "mpi:recv<-0"]
    assert len(sends) == 1 and len(received) == 1
    assert sends[0].duration == wire_time(2e9)
    assert received[0].meta["wait"] is True
    assert not trace.by_category("cpu0") and not trace.by_category("cpu1")


def test_wire_time_uses_network_bandwidth():
    """4 GB at 2 GB/s = 2 s."""
    system = run_schedules(
        [("send", (0, 3, 0), 4e9)],
        [],
        [],
        [("wait", (0, 3, 0))],
    )
    assert system.sim.now == pytest.approx(2.0, rel=1e-3)
    assert recvs(system, 3)[0].end == wire_time(4e9)
