"""DES fault injection: perturb a live :class:`ReconfigurableSystem`.

A :class:`FaultInjector` takes a :class:`~repro.faults.scenarios.
FaultScenario` and installs itself on a system *before* the schedule
processes run.  Every perturbation works through state the resources
already re-read on each grant, so the simulator hot path is untouched:

* ``link_slowdown`` -- replaces the interconnect's frozen ``NetworkSpec``
  with a scaled-bandwidth copy (``Interconnect.transfer_time`` reads
  ``self.spec`` per send);
* ``fpga_throttle`` -- wraps the loaded design in a delegating proxy
  whose ``freq_hz`` is scaled (``FpgaFabric.run_cycles`` reads the
  design clock per call);
* ``dram_contention`` -- scales ``BandwidthChannel.bandwidth`` on the
  node's B_d channel (read per transfer);
* ``dma_stall`` -- holds the B_d channel's grant lock for the stall
  window, so queued transfers wait exactly as a wedged DMA engine would
  (the LU analytic replay folds these as holds on its channel queue);
* ``node_failure`` -- a fault process raises :class:`NodeFailureError`
  at the failure time; the engine wraps it in a structured
  :class:`~repro.sim.ProcessFailure` carrying process/time/lane context.

Overlapping windows on the same target stack multiplicatively: the
injector keeps the nominal base value per target and recomputes
``base * product(active factors)`` on every apply/revert, so when the
last window closes the target returns to its base *bitwise*.

Determinism: the injector spawns its fault processes before the caller
spawns the schedule processes, so at equal times fault events fire first
under the engine's FIFO tie-breaking; the scenario timeline itself is
seeded (see :meth:`FaultScenario.expand`).  Same scenario + same
machine + same schedule => the bitwise-same makespan, trace and
injection log.
"""

from __future__ import annotations

import dataclasses
import functools
from typing import Any, Iterable, Optional

from ..machine.system import ReconfigurableSystem
from ..sim.analytic import SteadyRates, fault_nodes, scale_in_order
from .scenarios import RATE_KINDS, FaultEvent, FaultScenario

__all__ = ["FaultInjector", "NodeFailureError"]

#: Trace lane used for injection marks (zero-length intervals).
FAULT_LANE = "faults"


class NodeFailureError(RuntimeError):
    """A simulated node died; raised inside the fault process."""

    def __init__(self, node: int, at: float) -> None:
        super().__init__(f"node {node} failed at t={at:g}")
        self.node = node
        self.at = at


class _ThrottledDesign:
    """A delegating proxy over a loaded FPGA design with a scaled clock.

    Everything except ``freq_hz`` falls through to the wrapped design;
    the injector sets ``freq_hz`` directly when throttle windows open
    and close (restoring ``base_freq_hz`` exactly when none are active).
    """

    def __init__(self, design: Any) -> None:
        self.__dict__["_design"] = design
        self.__dict__["base_freq_hz"] = design.freq_hz
        self.__dict__["freq_hz"] = design.freq_hz

    def __getattr__(self, name: str) -> Any:
        return getattr(self.__dict__["_design"], name)


class FaultInjector:
    """Installs a scenario's faults onto one live system.

    ``fail_fast=True`` enacts ``node_failure`` events (the run aborts
    with a :class:`~repro.sim.ProcessFailure`); ``fail_fast=False``
    records them without enacting -- the adaptation layer uses this for
    ``exclude-node`` runs where the failed node was already removed from
    the machine.

    One injector serves one run: :meth:`install` (a DES run) or
    :meth:`install_folded` (an analytic replay) may be called once.
    The ``injected`` list is the deterministic event log
    (``{"t", "kind", "phase", "node", "factor", "duration"}`` dicts in
    application order), identical for both kinds of run.
    """

    def __init__(self, scenario: FaultScenario, fail_fast: bool = True) -> None:
        self.scenario = scenario
        self.fail_fast = fail_fast
        self.system: Optional[ReconfigurableSystem] = None
        self.injected: list[dict[str, Any]] = []
        self._installed = False
        self._factors: dict[tuple, list[float]] = {}
        self._base: dict[tuple, float] = {}

    # -- installation ---------------------------------------------------

    def _claim(self) -> None:
        if self._installed:
            raise RuntimeError("FaultInjector already installed; use one per run")
        self._installed = True

    @functools.cached_property
    def timeline(self) -> tuple[FaultEvent, ...]:
        """The scenario's :meth:`FaultScenario.expand`, expanded once."""
        return self.scenario.expand()

    def steady_rates(self) -> Optional[SteadyRates]:
        """The scenario as faults an analytic replay can fold in.

        Foldable means every expanded event is either a steady rate fault
        (``duration=None``) at ``at <= 0`` on every node (``node=None``)
        -- exactly the events :meth:`install` applies synchronously at
        t=0 to every target -- or a ``dma_stall``.  Factors keep
        :meth:`FaultScenario.expand` order, the order :meth:`_scaled`
        multiplies them in; stalls keep it too, the order :meth:`install`
        spawns their processes in.  Returns None for any other timeline
        (the run needs the DES).  Stall node ids are checked against the
        machine by the replay (:func:`~repro.sim.analytic.fault_nodes`),
        with the same error :meth:`install` raises.
        """
        factors: dict[str, list[float]] = {kind: [] for kind in RATE_KINDS}
        stalls: list[FaultEvent] = []
        for event in self.timeline:
            if event.kind == "dma_stall":
                stalls.append(event)
            elif event.steady and event.at <= 0 and event.node is None:
                factors[event.kind].append(event.factor)
            else:
                return None
        return SteadyRates(
            link=tuple(factors["link_slowdown"]),
            clock=tuple(factors["fpga_throttle"]),
            dram=tuple(factors["dram_contention"]),
            stalls=tuple(stalls),
        )

    def install_folded(self, stall_log: Iterable = ()) -> "FaultInjector":
        """Record a run whose :meth:`steady_rates` an analytic replay folded.

        Claims the injector like :meth:`install` and logs what the DES
        run would: first the t=0 ``apply`` entry per rate event, in
        :meth:`FaultScenario.expand` order, then each stall's ``apply``
        and ``revert`` at the replay's grant and release times.
        ``stall_log`` holds those ``((event, node), phase, t)`` marks in
        the DES's order (a replay engine's ``marks``).
        """
        self._claim()
        for event in self.timeline:
            if event.kind != "dma_stall":
                self._log(event, "apply", 0.0)
        for (event, node), phase, t in stall_log:
            self._log(event, phase, t, node=node)
        return self

    def install(self, system: ReconfigurableSystem) -> "FaultInjector":
        """Hook every scenario event into ``system``'s simulator.

        Must run after the FPGAs are configured (the B_d channels exist)
        and before the schedule processes are spawned (fault processes
        win FIFO ties at equal times).
        """
        self._claim()
        self.system = system
        sim = system.sim
        p = system.p
        for event in self.timeline:
            fault_nodes(event.node, p)  # raises on a node outside the machine
            if event.kind == "node_failure":
                if self.fail_fast:
                    sim.process(
                        self._fail_node(event), name=f"fault:node_failure@{event.node}"
                    )
                else:
                    self._log(event, "suppressed", event.at, node=event.node)
                continue
            if event.kind == "dma_stall":
                for i in self._nodes_of(event):
                    if system.nodes[i].fpga_dram is None:
                        raise RuntimeError(
                            f"node {i}: FPGA not configured; install the injector "
                            "after configure_fpgas()"
                        )
                    sim.process(self._stall(event, i), name=f"fault:dma_stall@{i}")
                continue
            # Rate faults: immediate steady ones apply synchronously at
            # t=0 (before any service time is computed); timed or
            # windowed ones run as fault processes.
            if event.at <= 0 and event.duration is None:
                self._apply(event)
                self._log(event, "apply", 0.0)
            else:
                sim.process(self._window(event), name=f"fault:{event.kind}")
        return self

    # -- fault processes ------------------------------------------------

    def _window(self, event: FaultEvent):
        sim = self.system.sim
        if event.at > 0:
            yield sim.timeout(event.at)
        self._apply(event)
        self._log(event, "apply", sim.now)
        if event.duration is None:
            return
        yield sim.timeout(event.duration)
        self._revert(event)
        self._log(event, "revert", sim.now)

    def _stall(self, event: FaultEvent, node_id: int):
        sim = self.system.sim
        if event.at > 0:
            yield sim.timeout(event.at)
        channel = self.system.nodes[node_id].fpga_dram
        yield channel._lock.request()
        self._log(event, "apply", sim.now, node=node_id)
        try:
            yield sim.timeout(event.duration)
        finally:
            channel._lock.release()
        self._log(event, "revert", sim.now, node=node_id)

    def _fail_node(self, event: FaultEvent):
        sim = self.system.sim
        if event.at > 0:
            yield sim.timeout(event.at)
        self._log(event, "fail", sim.now, node=event.node)
        raise NodeFailureError(event.node, sim.now)

    # -- perturbation mechanics -----------------------------------------

    def _nodes_of(self, event: FaultEvent) -> range | tuple[int, ...]:
        return fault_nodes(event.node, self.system.p)

    def _targets(self, event: FaultEvent) -> list[tuple]:
        if event.kind == "link_slowdown":
            return [("net",)]
        return [(event.kind, i) for i in self._nodes_of(event)]

    def _apply(self, event: FaultEvent) -> None:
        for key in self._targets(event):
            self._factors.setdefault(key, []).append(event.factor)
            self._set(key)

    def _revert(self, event: FaultEvent) -> None:
        for key in self._targets(event):
            self._factors[key].remove(event.factor)
            self._set(key)

    def _set(self, key: tuple) -> None:
        """Recompute and write one target's value from its active factors."""
        system = self.system
        factors = self._factors.get(key) or []
        if key == ("net",):
            if key not in self._base:
                self._base[key] = system.network.spec.bandwidth
            value = self._scaled(key, factors)
            system.network.spec = dataclasses.replace(system.network.spec, bandwidth=value)
            return
        kind, i = key
        node = system.nodes[i]
        if kind == "fpga_throttle":
            fabric = node.fpga
            if not isinstance(fabric.design, _ThrottledDesign):
                fabric.design = _ThrottledDesign(fabric.design)
            if key not in self._base:
                self._base[key] = fabric.design.base_freq_hz
            fabric.design.freq_hz = self._scaled(key, factors)
        elif kind == "dram_contention":
            if node.fpga_dram is None:
                raise RuntimeError(
                    f"node {i}: FPGA not configured; install the injector "
                    "after configure_fpgas()"
                )
            if key not in self._base:
                self._base[key] = node.fpga_dram.bandwidth
            node.fpga_dram.bandwidth = self._scaled(key, factors)
        else:  # pragma: no cover - _targets only emits the keys above
            raise ValueError(f"unknown perturbation target {key!r}")

    def _scaled(self, key: tuple, factors: list[float]) -> float:
        return scale_in_order(self._base[key], factors)

    # -- bookkeeping ----------------------------------------------------

    def _log(
        self, event: FaultEvent, phase: str, t: float, node: Optional[int] = None
    ) -> None:
        self.injected.append(
            {
                "t": t,
                "kind": event.kind,
                "phase": phase,
                "node": event.node if node is None else node,
                "factor": event.factor,
                "duration": event.duration,
            }
        )
        trace = self.system.sim.trace if self.system is not None else None
        if trace is not None:
            trace.record(
                FAULT_LANE,
                f"{event.kind}:{phase}",
                t,
                t,
                factor=event.factor,
                node=event.node if node is None else node,
            )
