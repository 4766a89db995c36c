"""FPGA fabric model.

A :class:`FpgaFabric` is a live, per-node FPGA in a simulation.  It must
be *configured* with a design (a synthesised bitstream-like object
exposing ``k``, ``freq_hz`` and resource requirements, e.g.
:class:`repro.hw.mm_design.MatrixMultiplyDesign`) before it can run.
Configuration validates resources against the device -- the software
analogue of place-and-route succeeding -- and fixes the clock that
converts cycle counts into time.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Optional

from ..hw.devices import FpgaDevice
from ..sim import Resource, Simulator

__all__ = ["FpgaSpec", "FpgaFabric", "NotConfiguredError"]


class NotConfiguredError(RuntimeError):
    """An FPGA operation was attempted before a design was loaded."""


@dataclass(frozen=True)
class FpgaSpec:
    """Declarative description of a node's FPGA subsystem."""

    device: FpgaDevice
    dram_link_bandwidth: float  # hardware max FPGA<->DRAM path (bytes/s)

    def __post_init__(self) -> None:
        if self.dram_link_bandwidth <= 0:
            raise ValueError("the DRAM link bandwidth must be positive")

    def b_d(self, freq_hz: float) -> float:
        """B_d for a design clocked at ``freq_hz``: one word per design
        cycle, capped by the hardware link.

        On XD1 the RapidArray path tops out at 2.8 GB/s but the designs
        consume one 8-byte word per cycle, so B_d = 8 * F_f (1.04 GB/s at
        130 MHz) -- exactly the paper's Section 6.1 accounting.  The one
        copy of the rule: the DES channel, the analytic replays and
        :meth:`~repro.machine.system.MachineSpec.parameters` all call it.
        """
        return min(8.0 * freq_hz, self.dram_link_bandwidth)


class FpgaFabric:
    """A live FPGA: exclusive compute lane + a loaded design."""

    def __init__(self, sim: Simulator, spec: FpgaSpec, name: str, trace_category: str) -> None:
        self.sim = sim
        self.spec = spec
        self.name = name
        self.trace_category = trace_category
        self.lane = Resource(sim, capacity=1, name=f"{name}.lane")
        self.design: Optional[Any] = None
        self.busy_time = 0.0

    # -- configuration -----------------------------------------------------

    def configure(self, design: Any) -> None:
        """Load ``design`` onto the fabric, validating device resources.

        ``design`` must expose ``freq_hz``; if it carries a synthesis
        ``report``, the report's device must match this fabric's device.
        """
        if getattr(design, "freq_hz", 0) <= 0:
            raise ValueError(f"design {design!r} has no positive freq_hz")
        report = getattr(design, "report", None)
        if report is not None and report.device != self.spec.device.name:
            raise ValueError(
                f"design was synthesised for {report.device}, "
                f"but this fabric is a {self.spec.device.name}"
            )
        device = getattr(design, "device", None)
        if device is not None and device.name != self.spec.device.name:
            raise ValueError(
                f"design targets {device.name}, fabric is {self.spec.device.name}"
            )
        self.design = design

    @property
    def freq_hz(self) -> float:
        """Clock of the loaded design (F_f)."""
        if self.design is None:
            raise NotConfiguredError(f"{self.name}: no design configured")
        return self.design.freq_hz

    @property
    def effective_dram_bandwidth(self) -> float:
        """B_d of the loaded design (:meth:`FpgaSpec.b_d`)."""
        return self.spec.b_d(self.freq_hz)

    # -- execution -----------------------------------------------------------

    def run_cycles(self, cycles: float, label: str = "fpga"):
        """Process generator: occupy the fabric for ``cycles`` clock ticks."""
        if cycles < 0:
            raise ValueError(f"negative cycle count: {cycles}")
        freq = self.freq_hz  # raises if unconfigured
        req = self.lane.request()
        yield req
        start = self.sim.now
        try:
            yield self.sim.timeout(cycles / freq)
        finally:
            self.lane.release()
        self.busy_time += self.sim.now - start
        if self.sim.trace is not None:
            self.sim.trace.record(self.trace_category, label, start, self.sim.now, cycles=cycles)
