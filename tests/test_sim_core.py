"""Unit tests for the discrete-event engine (repro.sim.core)."""

import pytest

from repro.sim import (
    AllOf,
    Event,
    ProcessFailure,
    SimulationError,
    Simulator,
)


def test_clock_starts_at_zero():
    sim = Simulator()
    assert sim.now == 0.0


def test_timeout_advances_clock():
    sim = Simulator()

    def proc(sim):
        yield sim.timeout(2.5)
        yield sim.timeout(1.5)

    sim.process(proc(sim))
    assert sim.run() == 4.0


def test_timeout_value_passthrough():
    sim = Simulator()
    got = []

    def proc(sim):
        got.append((yield sim.timeout(1.0, value="hello")))

    sim.process(proc(sim))
    sim.run()
    assert got == ["hello"]


def test_negative_timeout_rejected():
    sim = Simulator()
    with pytest.raises(ValueError):
        sim.timeout(-1.0)


def test_event_succeed_wakes_waiter():
    sim = Simulator()
    ev = sim.event("flag")
    order = []

    def waiter(sim):
        value = yield ev
        order.append(("woke", sim.now, value))

    def setter(sim):
        yield sim.timeout(3.0)
        ev.succeed(42)
        order.append(("set", sim.now))

    sim.process(waiter(sim))
    sim.process(setter(sim))
    sim.run()
    assert order == [("set", 3.0), ("woke", 3.0, 42)]


def test_event_double_trigger_rejected():
    sim = Simulator()
    ev = sim.event()
    ev.succeed(1)
    with pytest.raises(SimulationError):
        ev.succeed(2)


def test_event_value_before_trigger_rejected():
    sim = Simulator()
    ev = sim.event()
    with pytest.raises(SimulationError):
        _ = ev.value


def test_fail_requires_exception():
    sim = Simulator()
    ev = sim.event()
    with pytest.raises(TypeError):
        ev.fail("not an exception")


def test_process_return_value_propagates():
    sim = Simulator()
    results = []

    def inner(sim):
        yield sim.timeout(1.0)
        return 99

    def outer(sim):
        value = yield sim.process(inner(sim))
        results.append(value)

    sim.process(outer(sim))
    sim.run()
    assert results == [99]


def test_process_exception_surfaces_from_run():
    sim = Simulator()

    def bad(sim):
        yield sim.timeout(1.0)
        raise ValueError("boom")

    sim.process(bad(sim))
    with pytest.raises(ProcessFailure) as ei:
        sim.run()
    assert isinstance(ei.value.__cause__, ValueError)


def test_process_exception_catchable_by_waiter():
    sim = Simulator()
    caught = []

    def bad(sim):
        yield sim.timeout(1.0)
        raise ValueError("boom")

    def guard(sim):
        try:
            yield sim.process(bad(sim))
        except ValueError as exc:
            caught.append(str(exc))
        yield sim.timeout(1.0)

    sim.process(guard(sim))
    assert sim.run() == 2.0
    assert caught == ["boom"]


def test_yield_non_event_is_error():
    sim = Simulator()

    def bad(sim):
        yield 3.0  # a bare number, not an Event

    sim.process(bad(sim))
    with pytest.raises(ProcessFailure):
        sim.run()


def test_cross_simulator_event_rejected():
    sim1, sim2 = Simulator(), Simulator()

    def bad(sim):
        yield sim2.timeout(1.0)

    sim1.process(bad(sim1))
    with pytest.raises(ProcessFailure):
        sim1.run()


def test_same_time_events_fire_in_schedule_order():
    sim = Simulator()
    order = []

    def make(tag):
        def proc(sim):
            yield sim.timeout(5.0)
            order.append(tag)

        return proc

    for tag in "abc":
        sim.process(make(tag)(sim))
    sim.run()
    assert order == ["a", "b", "c"]


def test_all_of_waits_for_slowest():
    sim = Simulator()
    times = []

    def proc(sim):
        t1 = sim.timeout(1.0, value="x")
        t2 = sim.timeout(5.0, value="y")
        result = yield sim.all_of([t1, t2])
        times.append(sim.now)
        assert set(result.values()) == {"x", "y"}

    sim.process(proc(sim))
    sim.run()
    assert times == [5.0]


def test_all_of_empty_fires_immediately():
    sim = Simulator()
    fired = []

    def proc(sim):
        yield sim.all_of([])
        fired.append(sim.now)

    sim.process(proc(sim))
    sim.run()
    assert fired == [0.0]


def test_yield_already_processed_event():
    sim = Simulator()
    trail = []
    ev = sim.event()
    ev.succeed("done")

    def proc(sim):
        yield sim.timeout(1.0)
        value = yield ev  # fired long ago; must not deadlock
        trail.append((sim.now, value))

    sim.process(proc(sim))
    sim.run()
    assert trail == [(1.0, "done")]


def test_deep_process_chain():
    sim = Simulator()

    def leaf(sim):
        yield sim.timeout(0.5)
        return 1

    def chain(sim, depth):
        if depth == 0:
            value = yield sim.process(leaf(sim))
            return value
        value = yield sim.process(chain(sim, depth - 1))
        return value + 1

    results = []

    def main(sim):
        results.append((yield sim.process(chain(sim, 50))))

    sim.process(main(sim))
    sim.run()
    assert results == [51]
    assert sim.now == 0.5


def test_fp_collapsed_delay_preserves_fifo_order():
    """A positive delay below one ulp of the clock must not let the new
    event overtake older same-time events (float-keyed calendar buckets
    would otherwise schedule it *at* ``now``, where calendar entries win
    ties against the zero-delay deque)."""
    sim = Simulator()
    fired = []

    def proc(sim):
        yield sim.timeout(1e18)
        assert sim.now + 1e-10 == sim.now  # the delay collapses
        first = sim.event()
        first.add_callback(lambda e: fired.append("first"))
        first.succeed()
        collapsed = sim.timeout(1e-10)
        collapsed.add_callback(lambda e: fired.append("collapsed"))
        yield collapsed

    sim.process(proc(sim))
    sim.run()
    assert fired == ["first", "collapsed"]
    assert sim.now == 1e18


def test_fp_collapsed_post_keeps_calendar_empty():
    sim = Simulator()

    def proc(sim):
        yield sim.timeout(1e18)
        sim.timeout(1e-10)
        # The collapsed timeout went to the same-time deque, not the
        # calendar: no bucket may exist at the current time.
        assert sim.now not in sim._buckets
        yield sim.timeout(1.0)

    sim.process(proc(sim))
    sim.run()
