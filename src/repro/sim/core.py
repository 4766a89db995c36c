"""Discrete-event simulation core.

A minimal, self-contained process-based discrete-event engine in the style
of SimPy, tailored for modelling reconfigurable computing systems.  The
engine provides:

* :class:`Simulator` -- the event loop with a virtual clock,
* :class:`Event` -- one-shot triggers carrying a value,
* :class:`Process` -- generator-based cooperative processes,
* :class:`Timeout` -- events that fire after a simulated delay,
* :class:`AllOf` -- the fan-in combinator.

Processes are plain Python generators that ``yield`` events.  When an event
fires, the process resumes and receives the event's value as the result of
the ``yield`` expression::

    sim = Simulator()

    def worker(sim):
        yield sim.timeout(3.0)        # advance 3 simulated seconds
        value = yield some_event      # block until the event fires
        ...

    sim.process(worker(sim))
    sim.run()

The engine is deterministic: events scheduled for the same time fire in
the order in which they were scheduled (a monotone sequence number breaks
ties), which makes traces reproducible across runs -- a property the test
suite relies on.

Performance notes
-----------------
Sweeps run millions of events, so the hot path is tuned:

* The first callback of an event lives in a dedicated ``_cb`` slot and the
  overflow list ``callbacks`` is created lazily -- the common one-waiter
  case (a process yielding a timeout) allocates no list and the loop
  dispatches it inline without swapping lists.
* :meth:`Simulator.timeout` recycles :class:`Timeout` instances from a
  small free pool.  Recycling is only done for timeouts that nothing else
  references (checked via ``sys.getrefcount`` after dispatch), so holding
  on to a fired timeout and reading its value later remains safe.
* Event names are computed lazily (``__getattr__``), so the per-timeout
  f-string formatting of the debugging name is never paid unless someone
  actually looks at it.
* Starting a :class:`Process` posts a pre-triggered bare-bones event
  instead of building, wiring and succeeding a full bootstrap event.
* Zero-delay posts (every ``succeed``/``fail``, process bootstraps,
  condition fires) bypass the calendar entirely: they go to a FIFO deque
  of same-time events.  Deque entries are always younger than any
  calendar entry scheduled at the current time, so draining calendar
  entries at ``now`` first and then the deque reproduces the global
  schedule order of the naive implementation.  Positive delays whose
  ``now + delay`` collapses to ``now`` in float arithmetic (delay below
  one ulp of the clock) are routed through the same deque -- a calendar
  entry created *now* at time ``now`` would violate the younger-than
  invariant and fire ahead of older same-time events.
* Delayed events live in a calendar queue: a heap of *distinct* times
  plus a dict mapping each time to its events (a bare event, promoted to
  a deque on the second arrival).  Same-time bursts -- barrier releases,
  synchronized stripe starts, fan-in joins -- cost one dict append
  instead of a tuple heappush, FIFO order within a time replaces the
  sequence counter, and the heap stays as small as the number of
  distinct pending times.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Generator
from heapq import heappop, heappush
from sys import getrefcount
from typing import Any, Callable, Iterable, Optional

__all__ = [
    "Event",
    "Timeout",
    "Process",
    "AllOf",
    "Simulator",
    "SimulationError",
    "ProcessFailure",
]

#: Upper bound on the Timeout free pool; past this, instances are dropped
#: to the garbage collector like any other object.
_TIMEOUT_POOL_CAP = 256


class SimulationError(RuntimeError):
    """Raised for invalid uses of the simulation API."""


class ProcessFailure(SimulationError):
    """Raised from :meth:`Simulator.run` when a process raised an exception.

    The original exception is available as ``__cause__``.  Structured
    context is attached for programmatic consumers (the fault subsystem
    reads these instead of parsing the message):

    * ``process_name`` -- name of the process whose generator raised,
    * ``sim_time`` -- simulated time of the failure,
    * ``lane`` -- the trace lane with the most recent activity at the
      failure time (``None`` when the run is untraced).
    """

    process_name: Optional[str] = None
    sim_time: Optional[float] = None
    lane: Optional[str] = None


class Event:
    """A one-shot occurrence in simulated time.

    Events start *pending*; calling :meth:`succeed` (or :meth:`fail`)
    *triggers* them, after which their callbacks run inside the event loop
    at the current simulation time.  An event can only be triggered once.

    Callbacks are stored as a single ``_cb`` slot plus a lazily-created
    overflow list; use :meth:`add_callback` rather than touching either
    attribute directly.
    """

    __slots__ = ("sim", "name", "_value", "_ok", "_triggered", "_processed", "_cb", "callbacks")

    def __init__(self, sim: "Simulator", name: str = "") -> None:
        self.sim = sim
        self.name = name
        self._value: Any = None
        self._ok: bool = True
        self._triggered = False
        self._processed = False
        self._cb: Optional[Callable[["Event"], None]] = None
        self.callbacks: Optional[list[Callable[["Event"], None]]] = None

    def __getattr__(self, attr: str) -> Any:
        # Only reached when a slot was never assigned (fast-path events
        # skip __init__ and leave ``name`` unset until someone asks).
        if attr == "name":
            return ""
        raise AttributeError(attr)

    # -- state ---------------------------------------------------------

    @property
    def triggered(self) -> bool:
        """True once :meth:`succeed`/:meth:`fail` has been called."""
        return self._triggered

    @property
    def processed(self) -> bool:
        """True once the event's callbacks have run."""
        return self._processed

    @property
    def ok(self) -> bool:
        """True if the event succeeded (meaningless before triggering)."""
        return self._ok

    @property
    def value(self) -> Any:
        """The value the event fired with."""
        if not self._triggered:
            raise SimulationError(f"event {self!r} has not been triggered")
        return self._value

    # -- triggering ----------------------------------------------------

    def succeed(self, value: Any = None) -> "Event":
        """Trigger the event successfully with ``value``."""
        if self._triggered:
            raise SimulationError(f"event {self!r} already triggered")
        self._triggered = True
        self._ok = True
        self._value = value
        self.sim._dq.append(self)  # zero-delay post, inlined
        return self

    def fail(self, exc: BaseException) -> "Event":
        """Trigger the event as failed; waiters receive ``exc``."""
        if self._triggered:
            raise SimulationError(f"event {self!r} already triggered")
        if not isinstance(exc, BaseException):
            raise TypeError("fail() requires an exception instance")
        self._triggered = True
        self._ok = False
        self._value = exc
        self.sim._dq.append(self)  # zero-delay post, inlined
        return self

    def add_callback(self, fn: Callable[["Event"], None]) -> None:
        """Run ``fn(event)`` when the event is processed.

        If the event has already been processed the callback runs
        immediately, preserving at-least-once semantics for late waiters.
        """
        if self._processed:
            fn(self)
        elif self._cb is None:
            self._cb = fn
        else:
            cbs = self.callbacks
            if cbs is None:
                self.callbacks = [fn]
            else:
                cbs.append(fn)

    def _has_waiters(self) -> bool:
        """True if any callback is registered (crash-surfacing helper)."""
        return self._cb is not None or bool(self.callbacks)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "processed" if self._processed else ("triggered" if self._triggered else "pending")
        label = f" {self.name!r}" if self.name else ""
        return f"<{type(self).__name__}{label} {state}>"


class Timeout(Event):
    """An event that fires ``delay`` simulated seconds after creation.

    Prefer :meth:`Simulator.timeout`, which recycles instances from a free
    pool; direct construction works but always allocates.
    """

    __slots__ = ("delay",)

    def __init__(self, sim: "Simulator", delay: float, value: Any = None) -> None:
        if delay < 0:
            raise ValueError(f"negative timeout delay: {delay}")
        self.sim = sim
        self._value = value
        self._ok = True
        self._triggered = True
        self._processed = False
        self._cb = None
        self.callbacks = None
        self.delay = delay
        sim._post(self, delay=delay)

    def __getattr__(self, attr: str) -> Any:
        if attr == "name":
            # Lazy: formatting every timeout's debug name dominated
            # Timeout construction in profiles.
            return f"timeout({self.delay:g})"
        raise AttributeError(attr)


class Process(Event):
    """A running generator; also an event that fires when the generator ends.

    The process event's value is the generator's return value, so processes
    can be composed: one process may ``yield`` another to wait for it and
    collect its result.
    """

    __slots__ = ("generator", "_send", "_throw", "_target", "_resume_cb")

    def __init__(self, sim: "Simulator", generator: Generator, name: str = "") -> None:
        if not isinstance(generator, Generator):
            raise TypeError(f"Process requires a generator, got {type(generator).__name__}")
        super().__init__(sim, name=name or getattr(generator, "__name__", "process"))
        self.generator = generator
        self._send = generator.send
        self._throw = generator.throw
        self._target: Optional[Event] = None
        # One bound method reused for every event this process waits on
        # (binding per wait shows up in profiles at event rates).
        self._resume_cb: Callable[[Event], None] = self._resume
        # Bootstrap: resume for the first time via a bare pre-triggered
        # event posted at the current time (skips the full Event/succeed
        # ceremony of the naive implementation).
        init = Event.__new__(Event)
        init.sim = sim
        init._value = None
        init._ok = True
        init._triggered = True
        init._processed = False
        init._cb = self._resume_cb
        init.callbacks = None
        sim._post(init)

    def _resume(self, event: Event) -> None:
        """Advance the generator with the fired event's value."""
        try:
            if event._ok:
                target = self._send(event._value)
            else:
                target = self._throw(event._value)
        except StopIteration as stop:
            self._target = None
            self.succeed(stop.value)
            return
        except BaseException as exc:
            # The process died.  Fail the process event so waiters see it;
            # if nobody is waiting, the simulator surfaces it from run().
            self._target = None
            try:
                self.fail(exc)
            except SimulationError:
                pass
            if not self._has_waiters():
                self.sim._crashed.append((self, exc))
            return
        # ``target.sim`` doubles as the is-an-Event check: every Event
        # carries it and yielding anything else is a programming error
        # surfaced below (an isinstance on the hot path costs real time).
        try:
            foreign = target.sim is not self.sim
        except AttributeError:
            self._target = None
            exc2 = SimulationError(
                f"process {self.name!r} yielded {target!r}; processes must yield Event instances"
            )
            self.fail(exc2)
            if not self._has_waiters():
                self.sim._crashed.append((self, exc2))
            return
        if foreign:
            self._target = None
            exc3 = SimulationError(f"process {self.name!r} yielded an event from another simulator")
            self.fail(exc3)
            if not self._has_waiters():
                self.sim._crashed.append((self, exc3))
            return
        self._target = target
        # Inlined add_callback on the hot wait path.
        resume = self._resume_cb
        if target._processed:
            resume(target)
        elif target._cb is None:
            target._cb = resume
        else:
            cbs = target.callbacks
            if cbs is None:
                target.callbacks = [resume]
            else:
                cbs.append(resume)


class AllOf(Event):
    """Fires when *all* constituent events have fired.

    Value: dict mapping each event to its value.  Fails fast if any
    constituent fails.
    """

    __slots__ = ("events", "_pending")

    def __init__(self, sim: "Simulator", events: Iterable[Event]) -> None:
        # Inlined Event.__init__; the name ``all_of`` comes lazily from
        # ``__getattr__``.
        self.sim = sim
        self._value: Any = None
        self._ok = True
        self._triggered = False
        self._processed = False
        self._cb = None
        self.callbacks = None
        evs = self.events = tuple(events)
        for ev in evs:
            if ev.sim is not sim:
                raise SimulationError("condition mixes events from different simulators")
        self._pending = len(evs)
        if not evs:
            self.succeed(self._collect())
            return
        # One bound method shared by all constituents, wired through the
        # inlined add_callback fast path (fan-in is hot in the machine
        # models: every overlap barrier is an all_of over channel ops).
        check = self._check
        for ev in evs:
            if ev._processed:
                check(ev)
            elif ev._cb is None:
                ev._cb = check
            else:
                cbs = ev.callbacks
                if cbs is None:
                    ev.callbacks = [check]
                else:
                    cbs.append(check)

    def __getattr__(self, attr: str) -> Any:
        if attr == "name":
            return "all_of"
        raise AttributeError(attr)

    def _collect(self) -> dict[Event, Any]:
        return {ev: ev._value for ev in self.events if ev._processed and ev._ok}

    def _check(self, event: Event) -> None:
        if self._triggered:
            return
        if not event._ok:
            self.fail(event._value)
            return
        self._pending -= 1
        if self._pending == 0:
            self.succeed(self._collect())


class Simulator:
    """The discrete-event loop.

    Attributes
    ----------
    now:
        Current simulated time in seconds.
    trace:
        Optional :class:`repro.sim.trace.Trace` attached by the caller; the
        engine itself never writes to it, components do.
    """

    def __init__(self) -> None:
        self._now: float = 0.0
        # Calendar queue: heap of distinct pending times + per-time bucket.
        # A bucket is the event itself while a time has a single event and
        # is promoted to a deque on the second arrival.
        self._times: list[float] = []
        self._buckets: dict[float, Any] = {}
        # Zero-delay posts in FIFO order; always at time self._now, always
        # younger than any calendar entry scheduled at self._now.
        self._dq: deque[Event] = deque()
        self._crashed: list[tuple[Process, BaseException]] = []
        self._timeout_pool: list[Timeout] = []
        self.trace = None  # set by callers that want tracing
        self.monitor = None  # optional SimMonitor; None keeps run() on the fast loop

    def attach_monitor(self, monitor: Any) -> Any:
        """Route subsequent :meth:`run` calls through the counting loop.

        ``monitor`` is a :class:`repro.sim.monitor.SimMonitor` (or any
        object with its counter attributes).  Pass ``None`` to detach and
        return to the uninstrumented fast loop.
        """
        self.monitor = monitor
        return monitor

    # -- clock ----------------------------------------------------------

    @property
    def now(self) -> float:
        """Current simulation time (seconds)."""
        return self._now

    # -- event factories -------------------------------------------------

    def event(self, name: str = "") -> Event:
        """Create a fresh pending event."""
        # Bypasses Event.__init__; this factory is on the hot path of the
        # message-passing machinery (one event per send/recv pairing).
        ev = Event.__new__(Event)
        ev.sim = self
        if name:
            ev.name = name
        ev._value = None
        ev._ok = True
        ev._triggered = False
        ev._processed = False
        ev._cb = None
        ev.callbacks = None
        return ev

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """An event firing ``delay`` seconds from now.

        Instances come from a free pool of timeouts that completed with no
        outstanding references; the pool bounds allocation in timeout-heavy
        simulations (every compute/transfer in the machine models is one).
        """
        if delay < 0:
            raise ValueError(f"negative timeout delay: {delay}")
        pool = self._timeout_pool
        if pool:
            t = pool.pop()
            t.delay = delay
            t._value = value
            t._processed = False
            # _ok/_triggered/_cb/callbacks were reset when recycled.
        else:
            t = Timeout.__new__(Timeout)
            t.sim = self
            t._value = value
            t._ok = True
            t._triggered = True
            t._processed = False
            t._cb = None
            t.callbacks = None
            t.delay = delay
        if delay == 0.0:
            self._dq.append(t)
        else:
            # Inlined calendar push (mirrors _post).
            when = self._now + delay
            if when == self._now:
                # Positive delay collapsed in float addition (delay below
                # one ulp of the clock).  Route through the same-time
                # deque: a calendar entry created *now* at time `now`
                # would unfairly predate older deque entries, which the
                # pop rule assumes are always younger.
                self._dq.append(t)
                return t
            buckets = self._buckets
            b = buckets.get(when)
            if b is None:
                buckets[when] = t
                heappush(self._times, when)
            elif type(b) is deque:
                b.append(t)
            else:
                buckets[when] = deque((b, t))
        return t

    def process(self, generator: Generator, name: str = "") -> Process:
        """Start a new process from ``generator``; returns its Process event."""
        return Process(self, generator, name=name)

    def all_of(self, events: Iterable[Event]) -> AllOf:
        """Event that fires when all of ``events`` have fired."""
        return AllOf(self, events)

    # -- scheduling -------------------------------------------------------

    def _post(self, event: Event, delay: float = 0.0) -> None:
        if delay == 0.0:
            self._dq.append(event)
        else:
            when = self._now + delay
            if when == self._now:
                # FP collapse (see timeout()): keep same-time FIFO order.
                self._dq.append(event)
                return
            buckets = self._buckets
            b = buckets.get(when)
            if b is None:
                buckets[when] = event
                heappush(self._times, when)
            elif type(b) is deque:
                b.append(event)
            else:
                buckets[when] = deque((b, event))

    def _process_failure(self, proc: "Process", exc: BaseException) -> ProcessFailure:
        """Build the :class:`ProcessFailure` for an unconsumed crash.

        Cold path (runs once, when the loop is about to abort), so it can
        afford to scan the trace for the lane active nearest the failure
        time -- usually the resource the dead process was driving.
        """
        lane: Optional[str] = None
        trace = self.trace
        intervals = getattr(trace, "intervals", None) if trace is not None else None
        if intervals:
            now = self._now
            # Most recent lane activity at or before the failure time;
            # ties go to the latest-recorded interval.
            best = None
            for iv in intervals:
                if iv.start <= now and (best is None or iv.start >= best.start):
                    best = iv
            if best is not None:
                lane = best.category
        where = f" (last active lane: {lane})" if lane else ""
        failure = ProcessFailure(
            f"process {proc.name!r} failed at t={self._now:g}{where}: "
            f"{type(exc).__name__}: {exc}"
        )
        failure.process_name = proc.name
        failure.sim_time = self._now
        failure.lane = lane
        return failure

    def run(self) -> float:
        """Run until the event queue drains; returns the final time.

        If any process raised an exception that no other process
        consumed, a :class:`ProcessFailure` chaining the first such
        exception is raised.
        """
        # The loop body is inlined with hoisted locals; at sweep event
        # rates a per-event method call and attribute loads are
        # measurable.  Keep semantic changes mirrored in `_run_monitored`
        # (the counting twin used when a monitor is attached -- this one
        # check is the entire disabled-path cost).
        if self.monitor is not None:
            return self._run_monitored()
        times = self._times
        buckets = self._buckets
        dq = self._dq
        crashed = self._crashed
        pool = self._timeout_pool
        refcount = getrefcount
        pop = heappop
        popleft = dq.popleft
        dq_deque = deque
        while True:
            # Calendar entries scheduled at the current time predate
            # everything in the same-time deque, so they win ties.
            if dq and not (times and times[0] <= self._now):
                event = popleft()
            elif times:
                when = times[0]
                b = buckets[when]
                if type(b) is dq_deque:
                    event = b.popleft()
                    if not b:
                        pop(times)
                        del buckets[when]
                else:
                    event = b
                    b = None  # drop the extra ref before recycling
                    pop(times)
                    del buckets[when]
                self._now = when
            else:
                break
            event._processed = True
            cb = event._cb
            if cb is not None:
                event._cb = None
                cb(event)
            cbs = event.callbacks
            if cbs:
                event.callbacks = None
                for fn in cbs:
                    fn(event)
            # Recycle the timeout only if provably unreferenced: the only
            # remaining references are `event` and getrefcount's argument.
            if type(event) is Timeout and refcount(event) == 2 and len(pool) < _TIMEOUT_POOL_CAP:
                pool.append(event)
            if crashed:
                proc, exc = crashed[0]
                # A failure is "consumed" if some other process was waiting
                # on the failed process event (its callbacks were drained).
                raise self._process_failure(proc, exc) from exc
        return self._now

    def _run_monitored(self) -> float:
        """The counting twin of :meth:`run` (same schedule semantics).

        Updates the attached monitor per event: dispatch counts by event
        class and source (calendar vs zero-delay deque), calendar-queue
        occupancy high-water marks, and timeout-pool recycling.
        """
        mon = self.monitor
        mon.run_calls += 1
        times = self._times
        dq = self._dq
        crashed = self._crashed
        pool = self._timeout_pool
        by_type = mon.fired_by_type
        while True:
            if len(times) > mon.max_heap_len:
                mon.max_heap_len = len(times)
            if dq and not (times and times[0] <= self._now):
                event = dq.popleft()
                mon.zero_delay_events += 1
            elif times:
                event = self._pop_bucket_monitored(mon)
                mon.calendar_events += 1
            else:
                break
            mon.events_fired += 1
            cls = type(event).__name__
            by_type[cls] = by_type.get(cls, 0) + 1
            event._processed = True
            cb = event._cb
            if cb is not None:
                event._cb = None
                cb(event)
            cbs = event.callbacks
            if cbs:
                event.callbacks = None
                for fn in cbs:
                    fn(event)
            if type(event) is Timeout and getrefcount(event) == 2 and len(pool) < _TIMEOUT_POOL_CAP:
                pool.append(event)
                mon.timeouts_recycled += 1
                if len(pool) > mon.pool_high_water:
                    mon.pool_high_water = len(pool)
            if crashed:
                proc, exc = crashed[0]
                raise self._process_failure(proc, exc) from exc
        return self._now

    def _pop_bucket_monitored(self, mon: Any) -> Event:
        """Take the next calendar event, advancing the clock and
        recording the bucket depth at pop time."""
        when = self._times[0]
        buckets = self._buckets
        b = buckets[when]
        if type(b) is deque:
            if len(b) > mon.max_bucket_depth:
                mon.max_bucket_depth = len(b)
            event = b.popleft()
            if not b:
                heappop(self._times)
                del buckets[when]
        else:
            if mon.max_bucket_depth < 1:
                mon.max_bucket_depth = 1
            event = b
            heappop(self._times)
            del buckets[when]
        self._now = when
        return event
