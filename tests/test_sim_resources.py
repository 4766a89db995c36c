"""Unit tests for Resource, Store and BandwidthChannel (repro.sim.resources)."""

import pytest

from repro.sim import BandwidthChannel, Resource, Simulator, Store, Trace


# ---------------------------------------------------------------- Resource


def test_resource_grants_immediately_when_free():
    sim = Simulator()
    res = Resource(sim, capacity=2)
    done = []

    def proc(sim):
        yield res.request()
        done.append(sim.now)

    sim.process(proc(sim))
    sim.run()
    assert done == [0.0]
    assert res.in_use == 1


def test_resource_serialises_contenders():
    sim = Simulator()
    res = Resource(sim, capacity=1)
    spans = []

    def worker(sim, tag, hold):
        yield res.request()
        start = sim.now
        yield sim.timeout(hold)
        res.release()
        spans.append((tag, start, sim.now))

    sim.process(worker(sim, "a", 3.0))
    sim.process(worker(sim, "b", 2.0))
    sim.run()
    assert spans == [("a", 0.0, 3.0), ("b", 3.0, 5.0)]


def test_resource_fifo_no_overtaking():
    """A waiting request is granted before every later one."""
    sim = Simulator()
    res = Resource(sim, capacity=2)
    order = []

    def holder(sim):
        yield res.request()
        yield res.request()
        yield sim.timeout(5.0)
        res.release()
        res.release()

    def waiter(sim, tag, arrive):
        yield sim.timeout(arrive)
        yield res.request()
        order.append((tag, sim.now))
        res.release()

    sim.process(holder(sim))
    sim.process(waiter(sim, "first", 1.0))
    sim.process(waiter(sim, "second", 2.0))
    sim.run()
    assert order == [("first", 5.0), ("second", 5.0)]


def test_resource_bad_capacity():
    with pytest.raises(ValueError):
        Resource(Simulator(), capacity=0)


# ---------------------------------------------------------------- Store


def test_store_fifo_order():
    sim = Simulator()
    store = Store(sim)
    got = []

    def producer(sim):
        for i in range(3):
            yield sim.timeout(1.0)
            yield store.put(i)

    def consumer(sim):
        for _ in range(3):
            got.append((yield store.get()))

    sim.process(producer(sim))
    sim.process(consumer(sim))
    sim.run()
    assert got == [0, 1, 2]


def test_store_get_blocks_until_put():
    sim = Simulator()
    store = Store(sim)
    times = []

    def consumer(sim):
        item = yield store.get()
        times.append((sim.now, item))

    def producer(sim):
        yield sim.timeout(7.0)
        yield store.put("msg")

    sim.process(consumer(sim))
    sim.process(producer(sim))
    sim.run()
    assert times == [(7.0, "msg")]


# ---------------------------------------------------------------- BandwidthChannel


def test_channel_transfer_time_formula():
    sim = Simulator()
    ch = BandwidthChannel(sim, bandwidth=1e9, latency=1e-6)
    assert ch.transfer_time(1e9) == pytest.approx(1.0 + 1e-6)
    assert ch.transfer_time(0) == pytest.approx(1e-6)
    with pytest.raises(ValueError):
        ch.transfer_time(-1)


def test_channel_serialises_transfers():
    sim = Simulator()
    sim.trace = Trace()
    ch = BandwidthChannel(sim, bandwidth=100.0, trace_category="ch")  # 100 B/s
    ends = []

    def mover(sim, nbytes):
        yield from ch.transfer(nbytes)
        ends.append(sim.now)

    sim.process(mover(sim, 100))  # 1 s
    sim.process(mover(sim, 200))  # 2 s, queued behind
    sim.run()
    assert ends == [pytest.approx(1.0), pytest.approx(3.0)]
    assert [(iv.start, iv.meta["nbytes"]) for iv in sim.trace.by_category("ch")] == [
        (0.0, 100), (pytest.approx(1.0), 200)
    ]


def test_channel_latency_paid_per_transfer():
    sim = Simulator()
    ch = BandwidthChannel(sim, bandwidth=100.0, latency=0.5)

    def mover(sim):
        yield from ch.transfer(100)
        yield from ch.transfer(100)

    sim.process(mover(sim))
    sim.run()
    assert sim.now == pytest.approx(3.0)  # 2 * (0.5 + 1.0)


def test_channel_records_trace():
    sim = Simulator()
    sim.trace = Trace()
    ch = BandwidthChannel(sim, bandwidth=10.0, trace_category="dram")

    def mover(sim):
        yield from ch.transfer(10, label="blockA")

    sim.process(mover(sim))
    sim.run()
    (iv,) = sim.trace.by_category("dram")
    assert iv.label == "blockA"
    assert iv.duration == pytest.approx(1.0)
    assert iv.meta["nbytes"] == 10


def test_channel_invalid_params():
    sim = Simulator()
    with pytest.raises(ValueError):
        BandwidthChannel(sim, bandwidth=0)
    with pytest.raises(ValueError):
        BandwidthChannel(sim, bandwidth=1.0, latency=-1)


def test_channel_transfer_as_spawned_process_overlaps_compute():
    """A spawned transfer overlaps a compute timeout -- the overlap pattern
    used throughout the application schedules (Sec 4.2 of the paper)."""
    sim = Simulator()
    ch = BandwidthChannel(sim, bandwidth=100.0)

    def node(sim):
        xfer = sim.process(ch.transfer(200))  # 2 s
        yield sim.timeout(1.5)  # compute, overlapped
        yield xfer
        return sim.now

    results = []

    def main(sim):
        results.append((yield sim.process(node(sim))))

    sim.process(main(sim))
    sim.run()
    assert results == [pytest.approx(2.0)]  # max(2.0, 1.5), not the sum
