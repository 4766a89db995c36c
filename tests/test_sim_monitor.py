"""DES monitor tests: the counting run loop must mirror the fast loop
exactly while recording event-loop internals."""

import pytest

from repro.obs.metrics import MetricsRegistry
from repro.sim import SimMonitor, Simulator


def pipeline(sim, results, n=50):
    def producer():
        for i in range(n):
            yield sim.timeout(0.5)
            results.append((sim.now, i))

    def zero_delay():
        for _ in range(n):
            yield sim.timeout(0)

    sim.process(producer())
    sim.process(zero_delay())


def test_monitored_run_matches_fast_run():
    """Same processes, same final time and side effects, monitor on or off."""
    fast, fast_out = Simulator(), []
    pipeline(fast, fast_out)
    fast.run()

    mon = SimMonitor()
    slow, slow_out = Simulator(), []
    pipeline(slow, slow_out)
    slow.attach_monitor(mon)
    slow.run()

    assert slow.now == fast.now
    assert slow_out == fast_out
    assert mon.run_calls == 1
    assert mon.events_fired > 0
    assert mon.events_fired == mon.calendar_events + mon.zero_delay_events


def test_monitor_counts_event_types_and_recycling():
    mon = SimMonitor()
    sim = Simulator()
    pipeline(sim, [])
    sim.attach_monitor(mon)
    sim.run()
    assert mon.fired_by_type.get("Timeout", 0) > 0
    # the free pool recycles non-referenced timeouts on this workload
    assert mon.timeouts_recycled > 0
    assert mon.pool_high_water >= 1
    assert mon.max_heap_len >= 1
    assert mon.max_bucket_depth >= 1


def test_monitor_accumulates_across_runs():
    mon = SimMonitor()
    for _ in range(2):
        sim = Simulator()
        pipeline(sim, [], n=10)
        sim.attach_monitor(mon)
        sim.run()
    assert mon.run_calls == 2


def test_snapshot_and_registry_publication():
    mon = SimMonitor()
    sim = Simulator()
    pipeline(sim, [], n=10)
    sim.attach_monitor(mon)
    sim.run()
    snap = mon.snapshot()
    assert snap["events_fired"] == mon.events_fired
    assert isinstance(snap["fired_by_type"], dict)

    reg = MetricsRegistry()
    mon.to_registry(reg, app="test")
    assert reg.value("des.events_fired", app="test") == mon.events_fired
    assert reg.value("des.events_by_type", app="test", type="Timeout") > 0


def test_monitored_crash_propagates():
    """Process failures must escape the monitored loop exactly as they
    escape the fast loop: wrapped in ProcessFailure."""
    from repro.sim.core import ProcessFailure

    sim = Simulator()

    def bad():
        yield sim.timeout(1.0)
        raise RuntimeError("crash inside process")

    sim.process(bad(), name="bad")
    sim.attach_monitor(SimMonitor())
    with pytest.raises(ProcessFailure):
        sim.run()
