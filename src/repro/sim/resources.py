"""Shared-resource primitives for the simulation engine.

Three primitives cover everything the machine models need:

* :class:`Resource` -- a counted resource with FIFO queuing (a processor
  core, an FPGA fabric, a DMA engine, a NIC port),
* :class:`Store` -- an unbounded FIFO of items (the message mailboxes
  of :class:`~repro.sim.interpret.DesInterpreter`),
* :class:`BandwidthChannel` -- a serialising pipe that turns byte counts
  into occupancy time (the FPGA<->DRAM path).

All blocking operations return :class:`~repro.sim.core.Event` objects to be
``yield``-ed from processes.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Optional

from .core import Event, SimulationError, Simulator

__all__ = ["Request", "Resource", "Store", "BandwidthChannel"]


class Request(Event):
    """A pending claim on one unit of a :class:`Resource`; fires when granted."""

    __slots__ = ("resource",)

    def __getattr__(self, attr: str):
        if attr == "name":
            # Lazy: requests are created once per simulated kernel call and
            # the debug name is only needed when something prints the event.
            return f"request:{self.resource.name}"
        raise AttributeError(attr)


class Resource:
    """A counted, FIFO-granted resource.

    ``capacity`` units exist; each request claims one and blocks until a
    unit is free *and* all earlier requests have been granted (strict
    FIFO, no overtaking -- keeps traces deterministic).
    """

    def __init__(self, sim: Simulator, capacity: int = 1, name: str = "resource") -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.sim = sim
        self.name = name
        self.capacity = capacity
        self._in_use = 0
        self._queue: deque[Request] = deque()

    @property
    def in_use(self) -> int:
        """Units currently held."""
        return self._in_use

    def request(self) -> Request:
        """Claim one unit; yield the returned event to block."""
        # Slim factory (mirrors Simulator.event): skips Event.__init__ and
        # leaves ``name`` unset so the lazy __getattr__ debug name applies.
        # One request per simulated kernel call / channel transfer makes
        # this construction hot.
        req = Request.__new__(Request)
        req.sim = self.sim
        req._value = None
        req._ok = True
        req._triggered = False
        req._processed = False
        req._cb = None
        req.callbacks = None
        req.resource = self
        self._queue.append(req)
        self._grant()
        return req

    def release(self) -> None:
        """Return one unit previously granted."""
        if self._in_use < 1:
            raise SimulationError(f"release() on {self.name!r} with no unit in use")
        self._in_use -= 1
        self._grant()

    def _grant(self) -> None:
        while self._queue and self._in_use < self.capacity:
            req = self._queue.popleft()
            self._in_use += 1
            req.succeed(req)


class Store:
    """An unbounded FIFO buffer of Python objects; :meth:`get` blocks
    while it is empty.  The DES interpreter's message mailboxes."""

    def __init__(self, sim: Simulator) -> None:
        self.sim = sim
        self._items: deque[Any] = deque()
        self._getters: deque[Event] = deque()

    def put(self, item: Any) -> Event:
        """Deposit ``item``; the returned event is already triggered.

        Yielding it resumes the caller one step later, behind the events
        already queued for this instant -- the step a DES send ends with.
        """
        # Unnamed via the slim factory: one event per message, and the
        # f-string debug name dominated put()/get() in profiles.
        ev = self.sim.event()
        ev.succeed(item)
        if self._getters:
            self._getters.popleft().succeed(item)
        else:
            self._items.append(item)
        return ev

    def get(self) -> Event:
        """Withdraw the oldest item; the event's value is the item."""
        ev = self.sim.event()
        if self._items:
            ev.succeed(self._items.popleft())
        else:
            self._getters.append(ev)
        return ev


class BandwidthChannel:
    """A serialising data pipe: moving ``nbytes`` occupies it ``nbytes/bw`` s.

    Models the FPGA<->DRAM path (B_d).  Transfers are granted FIFO; an
    optional fixed per-transfer ``latency`` is paid before the bandwidth
    term (the paper's model omits memory latency because data are
    streamed, so memory channels use ``latency=0``).
    """

    def __init__(
        self,
        sim: Simulator,
        bandwidth: float,
        name: str = "channel",
        latency: float = 0.0,
        trace_category: Optional[str] = None,
    ) -> None:
        if bandwidth <= 0:
            raise ValueError(f"bandwidth must be positive, got {bandwidth}")
        if latency < 0:
            raise ValueError(f"latency must be >= 0, got {latency}")
        self.sim = sim
        self.name = name
        self.bandwidth = bandwidth
        self.latency = latency
        self.trace_category = trace_category
        self._lock = Resource(sim, capacity=1, name=f"{name}.lock")

    def transfer_time(self, nbytes: float) -> float:
        """Pure service time for ``nbytes`` (no queuing)."""
        if nbytes < 0:
            raise ValueError(f"negative transfer size: {nbytes}")
        return self.latency + nbytes / self.bandwidth

    def transfer(self, nbytes: float, label: str = ""):
        """Process generator performing a transfer; yield from a process.

        Usage::

            yield from channel.transfer(8 * 1024)

        or spawn it to overlap with other work::

            done = sim.process(channel.transfer(nbytes))
            ...                  # other events
            yield done
        """
        service = self.transfer_time(nbytes)
        req = self._lock.request()
        yield req
        start = self.sim.now
        try:
            yield self.sim.timeout(service)
        finally:
            self._lock.release()
        if self.sim.trace is not None and self.trace_category is not None:
            self.sim.trace.record(
                self.trace_category, label or self.name, start, self.sim.now, nbytes=nbytes
            )
        return service
