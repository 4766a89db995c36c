"""Run an app's op schedule on either engine.

LU, FW and MM write their schedules once, as op generators (see
:class:`repro.sim.analytic.Replay` for the vocabulary), built by a
``processes(price)`` callable that returns ``(name, ops)`` per process
in spawn order.  :func:`replay_schedule` replays them without a DES,
:func:`des_schedule` runs them on a live machine through
:class:`~repro.sim.interpret.DesInterpreter`.  Both return the fields
every ``*SimResult`` shares -- ``elapsed``, ``trace``, ``cpu_busy``,
``fpga_busy`` and ``network_bytes`` -- and the two agree bitwise.

The general replay is :class:`~repro.sim.stepped.StepReplay`, which
takes the DES's same-instant order by construction and refuses nothing.
LU schedules try :class:`~repro.sim.analytic.Replay` first, whose
inline tie classes are faster on twin workers but only checked: a
schedule whose order it cannot prove replays on ``StepReplay``.
:func:`run_schedule` is the one driver every ``simulate_*`` entry point
hands its schedule to: the fast path first, the DES otherwise.
"""

from __future__ import annotations

from typing import Callable, Iterator, Optional

from ..machine.system import MachineSpec, ReconfigurableSystem
from ..obs.metrics import REGISTRY
from ..sim.analytic import (FastPathUnsupported, FoldDeferred, Replay, ReplayCosts,
                            SteadyRates, fault_nodes, try_fast_path)
from ..sim.interpret import DesInterpreter, Physical
from ..sim.stepped import StepReplay

__all__ = ["des_schedule", "replay_schedule", "run_schedule"]

Processes = Callable[[object], list[tuple[str, Iterator]]]


def _stall(event, i: int):
    yield ("stall", i, event.duration, (event, i))


def replay_schedule(spec: MachineSpec, freq_hz: float, rates: SteadyRates,
                    processes: Processes, stall_log: list, app: str) -> dict:
    """``app``'s schedule replayed, with ``rates`` folded in.

    ``freq_hz`` is the configured design's nominal clock.  Each
    ``dma_stall`` in ``rates.stalls`` becomes a ``stall`` op spawned
    before the schedule, in :meth:`FaultInjector.install`'s order, as
    the DES spawns its stall processes; the replay's stall marks are
    appended to ``stall_log`` once the run completes.  ``app``'s
    schedule replays on :class:`StepReplay`, except LU's: that runs on
    :class:`Replay` first, and on ``StepReplay`` only where ``Replay``
    cannot prove the same-instant order -- it refuses an ambiguous tie,
    or a stretch fold defers (:class:`~repro.sim.analytic.FoldDeferred`,
    counted under ``fastpath.deferral{app, reason}``).  Every engine run
    adds its :meth:`work` to the ``replay.events`` and ``replay.folded``
    counters.
    """
    p, links = spec.p, spec.network.links_per_node
    engine = None
    if app == "lu":
        try:
            engine = _replayed(Replay(p, links), spec, freq_hz, rates, processes)
        except FoldDeferred:
            REGISTRY.counter("fastpath.deferral", app=app, reason="instant").inc()
        except FastPathUnsupported as exc:
            if exc.reason != "ambiguous-tie":
                raise
    if engine is None:
        engine = _replayed(StepReplay(p, links), spec, freq_hz, rates, processes)
    stall_log.extend(engine.marks)
    return dict(
        elapsed=engine.max_t,
        trace=None,
        cpu_busy=engine.cpu_busy,
        fpga_busy=engine.fpga_busy,
        network_bytes=engine.net_bytes,
    )


def _replayed(engine, spec: MachineSpec, freq_hz: float, rates: SteadyRates,
              processes: Processes):
    """``engine`` run to the end over the schedule; its work is counted
    whether or not it completes."""
    p = spec.p
    try:
        for event in rates.stalls:
            for i in fault_nodes(event.node, p):
                engine.spawn(_stall(event, i), event.at)
        for _, ops in processes(ReplayCosts(spec, freq_hz, rates)):
            engine.process(ops)
        engine.run()
    finally:
        name = "stepped" if isinstance(engine, StepReplay) else "replay"
        work = engine.work()
        REGISTRY.counter("replay.events", engine=name).inc(work["events"])
        if work["folded"]:
            REGISTRY.counter("replay.folded", engine=name).inc(work["folded"])
    return engine


def des_schedule(spec: MachineSpec, design, processes: Processes, trace: bool = False,
                 node_specs=None, monitor=None, faults=None) -> dict:
    """The schedule on a live machine with ``design`` on every FPGA.

    ``monitor`` attaches to the simulator; ``faults`` is installed
    after the FPGAs are configured and before the schedule spawns.
    """
    system = ReconfigurableSystem(spec, trace=trace, node_specs=node_specs)
    if monitor is not None:
        system.sim.attach_monitor(monitor)
    system.configure_fpgas(lambda: design)
    if faults is not None:
        faults.install(system)
    des = DesInterpreter(system)
    for name, ops in processes(Physical):
        des.spawn(name, ops)
    elapsed = system.run()
    return dict(
        elapsed=elapsed,
        trace=system.trace,
        cpu_busy=[nd.cpu_busy_time for nd in system.nodes],
        fpga_busy=[nd.fpga.busy_time for nd in system.nodes],
        network_bytes=system.network.bytes_moved,
    )


def run_schedule(app: str, spec: MachineSpec, design, processes: Processes,
                 result: Callable[[dict], object],
                 closed_form: Optional[Callable[[SteadyRates, list], object]] = None,
                 fast_path: Optional[str] = None, trace: bool = False, node_specs=None,
                 monitor=None, faults=None):
    """One ``simulate_*`` run: the fast path when it accepts, else the DES.

    ``result`` builds the app's result from the shared fields.  The fast
    path (:func:`~repro.sim.analytic.try_fast_path`) replays the schedule
    with the folded rates; ``closed_form(rates, stall_log)``, when given,
    stands in for the replay and appends the stall marks the replay would
    have logged.  The DES runs the same schedule with every kwarg.
    """
    stall_log: list = []

    def solve(rates: SteadyRates):
        if closed_form is not None:
            return closed_form(rates, stall_log)
        return result(replay_schedule(spec, design.freq_hz, rates, processes, stall_log,
                                      app))

    fast = try_fast_path(app, solve, mode=fast_path, trace=trace, node_specs=node_specs,
                         monitor=monitor, faults=faults, stall_log=stall_log)
    if fast is not None:
        return fast
    return result(des_schedule(spec, design, processes, trace, node_specs, monitor, faults))
