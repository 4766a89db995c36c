"""Property-based tests (hypothesis) for the simulation substrate."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import BandwidthChannel, Resource, Simulator, Store, Trace


@given(
    holds=st.lists(st.floats(min_value=0.01, max_value=10.0), min_size=1, max_size=20),
    capacity=st.integers(min_value=1, max_value=4),
)
@settings(max_examples=50, deadline=None)
def test_resource_never_oversubscribed_and_conserves_time(holds, capacity):
    """Whatever the contention pattern: (a) the trace never shows more
    than `capacity` concurrent holders, (b) total busy time is exactly
    the sum of hold times divided across lanes, (c) makespan is bounded
    by the bin-packing limits."""
    sim = Simulator()
    sim.trace = Trace()
    res = Resource(sim, capacity=capacity)

    def worker(sim, hold, idx):
        req = res.request()
        yield req
        start = sim.now
        yield sim.timeout(hold)
        res.release()
        sim.trace.record("res", f"w{idx}", start, sim.now)

    for i, hold in enumerate(holds):
        sim.process(worker(sim, hold, i))
    makespan = sim.run()
    total = sum(holds)
    assert makespan >= max(holds) - 1e-9
    assert makespan >= total / capacity - 1e-9
    assert makespan <= total + 1e-9
    # No instant has more than `capacity` overlapping intervals.
    events = []
    for iv in sim.trace.by_category("res"):
        events.append((iv.start, 1))
        events.append((iv.end, -1))
    events.sort()
    level = 0
    for _, delta in events:
        level += delta
        assert level <= capacity


@given(items=st.lists(st.integers(), min_size=1, max_size=30))
@settings(max_examples=50, deadline=None)
def test_store_is_fifo_under_any_schedule(items):
    sim = Simulator()
    store = Store(sim)
    got = []

    def producer(sim):
        for i, item in enumerate(items):
            yield sim.timeout(0.1 * (i % 3))
            yield store.put(item)

    def consumer(sim):
        for _ in items:
            got.append((yield store.get()))

    sim.process(producer(sim))
    sim.process(consumer(sim))
    sim.run()
    assert got == items


@given(
    sizes=st.lists(st.floats(min_value=1.0, max_value=1e6), min_size=1, max_size=15),
    bandwidth=st.floats(min_value=10.0, max_value=1e9),
)
@settings(max_examples=50, deadline=None)
def test_channel_serialisation_conserves_time(sizes, bandwidth):
    """A serialising channel finishes all transfers in exactly
    sum(size)/bandwidth when saturated from t=0."""
    sim = Simulator()
    sim.trace = Trace()
    ch = BandwidthChannel(sim, bandwidth=bandwidth, trace_category="ch")

    def mover(sim, nbytes):
        yield from ch.transfer(nbytes)

    for nbytes in sizes:
        sim.process(mover(sim, nbytes))
    makespan = sim.run()
    assert makespan == pytest.approx(sum(sizes) / bandwidth, rel=1e-9)
    moved = sim.trace.by_category("ch")
    assert [iv.meta["nbytes"] for iv in moved] == sizes
    assert all(a.end == b.start for a, b in zip(moved, moved[1:]))


@given(
    delays=st.lists(st.floats(min_value=0.0, max_value=100.0), min_size=1, max_size=25)
)
@settings(max_examples=50, deadline=None)
def test_clock_is_monotone_and_ends_at_max(delays):
    sim = Simulator()
    seen = []

    def proc(sim, delay):
        yield sim.timeout(delay)
        seen.append(sim.now)

    for delay in delays:
        sim.process(proc(sim, delay))
    end = sim.run()
    assert end == pytest.approx(max(delays))
    assert seen == sorted(seen)


@given(
    n_waiters=st.integers(min_value=1, max_value=20),
    fire_at=st.floats(min_value=0.1, max_value=50.0),
)
@settings(max_examples=50, deadline=None)
def test_event_fanout_wakes_everyone_once(n_waiters, fire_at):
    sim = Simulator()
    ev = sim.event()
    woken = []

    def waiter(sim, idx):
        value = yield ev
        woken.append((idx, sim.now, value))

    def firer(sim):
        yield sim.timeout(fire_at)
        ev.succeed("go")

    for i in range(n_waiters):
        sim.process(waiter(sim, i))
    sim.process(firer(sim))
    sim.run()
    assert len(woken) == n_waiters
    assert all(t == pytest.approx(fire_at) and v == "go" for _, t, v in woken)
