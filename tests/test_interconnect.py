"""Tests for the crossbar interconnect model."""

import pytest

from repro.machine import Interconnect, NetworkSpec
from repro.sim import Simulator, Trace


def make_net(sim, p=4, bandwidth=100.0, latency=0.0, links=1):
    return Interconnect(sim, NetworkSpec(bandwidth=bandwidth, latency=latency, links_per_node=links), p)


def test_transfer_time_formula():
    net = make_net(Simulator(), bandwidth=2e9, latency=1e-6)
    assert net.transfer_time(2e9) == pytest.approx(1.0 + 1e-6)
    with pytest.raises(ValueError):
        net.transfer_time(-1)


def test_point_to_point_send():
    sim = Simulator()
    net = make_net(sim)
    done = []

    def proc(sim):
        yield from net.send(0, 1, 100)
        done.append(sim.now)

    sim.process(proc(sim))
    sim.run()
    assert done == [pytest.approx(1.0)]
    assert net.bytes_moved == 100


def test_send_validation():
    sim = Simulator()
    net = make_net(sim)
    with pytest.raises(ValueError, match="itself"):
        list(net.send(1, 1, 10))
    with pytest.raises(ValueError, match="out of range"):
        list(net.send(0, 9, 10))


def test_disjoint_pairs_do_not_interfere():
    """Non-blocking crossbar: 0->1 and 2->3 proceed concurrently."""
    sim = Simulator()
    net = make_net(sim)
    ends = []

    def proc(sim, s, d):
        yield from net.send(s, d, 100)
        ends.append(sim.now)

    sim.process(proc(sim, 0, 1))
    sim.process(proc(sim, 2, 3))
    sim.run()
    assert ends == [pytest.approx(1.0), pytest.approx(1.0)]


def test_single_link_serialises_egress():
    sim = Simulator()
    net = make_net(sim, links=1)
    ends = []

    def proc(sim, d):
        yield from net.send(0, d, 100)
        ends.append((d, sim.now))

    sim.process(proc(sim, 1))
    sim.process(proc(sim, 2))
    sim.run()
    assert sorted(t for _, t in ends) == [pytest.approx(1.0), pytest.approx(2.0)]


def test_two_links_allow_parallel_egress():
    """XD1 nodes have two 2 GB/s links: two sends can leave concurrently."""
    sim = Simulator()
    net = make_net(sim, links=2)
    ends = []

    def proc(sim, d):
        yield from net.send(0, d, 100)
        ends.append(sim.now)

    sim.process(proc(sim, 1))
    sim.process(proc(sim, 2))
    sim.process(proc(sim, 3))  # third must wait for a free link
    sim.run()
    assert sorted(ends) == [pytest.approx(1.0), pytest.approx(1.0), pytest.approx(2.0)]


def test_ingress_contention():
    """Two senders into the same destination serialise on its ingress link."""
    sim = Simulator()
    net = make_net(sim, links=1)
    ends = []

    def proc(sim, s):
        yield from net.send(s, 3, 100)
        ends.append(sim.now)

    sim.process(proc(sim, 0))
    sim.process(proc(sim, 1))
    sim.run()
    assert sorted(ends) == [pytest.approx(1.0), pytest.approx(2.0)]


def test_opposite_directions_full_duplex():
    """0->1 and 1->0 are full duplex (egress and ingress are separate)."""
    sim = Simulator()
    net = make_net(sim, links=1)
    ends = []

    def proc(sim, s, d):
        yield from net.send(s, d, 100)
        ends.append(sim.now)

    sim.process(proc(sim, 0, 1))
    sim.process(proc(sim, 1, 0))
    sim.run()
    assert ends == [pytest.approx(1.0), pytest.approx(1.0)]


def test_send_records_trace():
    sim = Simulator()
    sim.trace = Trace()
    net = make_net(sim)

    def proc(sim):
        yield from net.send(0, 2, 100, label="blockX")

    sim.process(proc(sim))
    sim.run()
    (iv,) = sim.trace.by_category("net0->")
    assert iv.label == "blockX"
    assert iv.meta["dst"] == 2


def test_latency_added_once_per_message():
    sim = Simulator()
    net = make_net(sim, bandwidth=100.0, latency=0.25)

    def proc(sim):
        yield from net.send(0, 1, 100)

    sim.process(proc(sim))
    assert sim.run() == pytest.approx(1.25)
