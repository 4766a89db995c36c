"""Event-loop instrumentation for :class:`repro.sim.core.Simulator`.

Attach a :class:`SimMonitor` before ``run()`` and the simulator swaps
its inlined fast loop for a mirrored counting loop::

    sim = Simulator()
    mon = SimMonitor()
    sim.attach_monitor(mon)
    ...
    sim.run()
    print(mon.snapshot())

The monitored loop is semantically identical to the fast loop (same
event order, same timeout recycling); it only adds per-event counting.
With no monitor attached the engine pays exactly one attribute check
per ``run()`` call, so disabled instrumentation stays off the hot path
entirely (enforced by ``benchmarks/bench_perf_regression.py
--check-baseline``).
"""

from __future__ import annotations

from typing import Any, Optional

__all__ = ["SimMonitor"]


class SimMonitor:
    """Counters for one (or more) ``Simulator.run`` calls.

    Attributes
    ----------
    events_fired:
        Total events dispatched, split into ``calendar_events`` (came
        off the time heap) and ``zero_delay_events`` (same-time deque).
    fired_by_type:
        Dispatch counts per event class name (``Timeout``, ``Event``,
        ``Process``, ``AllOf``, ``Request``).
    timeouts_recycled:
        Timeouts returned to the free pool (vs left to the GC).
    max_bucket_depth:
        Deepest same-time calendar bucket observed at pop time -- the
        burst width of barrier releases / fan-in joins.
    max_heap_len:
        Most distinct pending times in the calendar at once.
    pool_high_water:
        Largest timeout free-pool size reached.
    """

    __slots__ = (
        "events_fired",
        "calendar_events",
        "zero_delay_events",
        "fired_by_type",
        "timeouts_recycled",
        "max_bucket_depth",
        "max_heap_len",
        "pool_high_water",
        "run_calls",
    )

    def __init__(self) -> None:
        self.events_fired = 0
        self.calendar_events = 0
        self.zero_delay_events = 0
        self.fired_by_type: dict[str, int] = {}
        self.timeouts_recycled = 0
        self.max_bucket_depth = 0
        self.max_heap_len = 0
        self.pool_high_water = 0
        self.run_calls = 0

    def snapshot(self) -> dict[str, Any]:
        """JSON-able counter dump."""
        return {
            "events_fired": self.events_fired,
            "calendar_events": self.calendar_events,
            "zero_delay_events": self.zero_delay_events,
            "fired_by_type": dict(sorted(self.fired_by_type.items())),
            "timeouts_recycled": self.timeouts_recycled,
            "max_bucket_depth": self.max_bucket_depth,
            "max_heap_len": self.max_heap_len,
            "pool_high_water": self.pool_high_water,
            "run_calls": self.run_calls,
        }

    def to_registry(self, registry: Any, **labels: str) -> None:
        """Publish the counters onto a :class:`~repro.obs.metrics.MetricsRegistry`."""
        registry.counter("des.events_fired", **labels).inc(self.events_fired)
        registry.counter("des.calendar_events", **labels).inc(self.calendar_events)
        registry.counter("des.zero_delay_events", **labels).inc(self.zero_delay_events)
        for cls, count in sorted(self.fired_by_type.items()):
            registry.counter("des.events_by_type", type=cls, **labels).inc(count)
        registry.counter("des.timeouts_recycled", **labels).inc(self.timeouts_recycled)
        registry.gauge("des.max_bucket_depth", **labels).max(self.max_bucket_depth)
        registry.gauge("des.max_heap_len", **labels).max(self.max_heap_len)
        registry.gauge("des.timeout_pool_high_water", **labels).max(self.pool_high_water)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<SimMonitor fired={self.events_fired} "
            f"(cal={self.calendar_events} zero={self.zero_delay_events}) "
            f"recycled={self.timeouts_recycled}>"
        )
