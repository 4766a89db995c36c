"""Compute-node model: one processor + one FPGA + memories.

A :class:`ComputeNode` is the live per-node object in a simulation.  It
owns:

* a CPU lane (exclusive :class:`~repro.sim.resources.Resource`) -- one
  processor per node, as the paper's C program uses only one of the two
  Opterons on an XD1 blade;
* an :class:`~repro.machine.fpga.FpgaFabric` that must be configured with
  a synthesised design before use;
* a DRAM bank (the processor's main memory) and an SRAM bank (the
  FPGA's on-board QDR memory);
* the FPGA<->DRAM streaming channel whose bandwidth is ``B_d`` -- fixed
  when the design is configured (one word per design cycle, capped by
  the hardware link).

All compute/transfer methods are process generators for the simulation
engine; trace lanes are ``cpu{i}``, ``fpga{i}``, ``dram{i}``, ``sram{i}``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Optional

from ..sim import BandwidthChannel, Resource, Simulator
from .fpga import FpgaFabric, FpgaSpec
from .memory import MemoryBank, MemorySpec
from .processor import ProcessorSpec

__all__ = ["NodeSpec", "ComputeNode"]


@dataclass(frozen=True)
class NodeSpec:
    """Declarative description of one compute node."""

    processor: ProcessorSpec
    fpga: FpgaSpec
    dram: MemorySpec
    sram: MemorySpec


class ComputeNode:
    """A live node: processor + FPGA + DRAM + SRAM, bound to a simulator."""

    def __init__(self, sim: Simulator, spec: NodeSpec, index: int) -> None:
        self.sim = sim
        self.spec = spec
        self.index = index
        self.cpu_lane = Resource(sim, capacity=1, name=f"cpu{index}.lane")
        self.fpga = FpgaFabric(sim, spec.fpga, name=f"fpga{index}", trace_category=f"fpga{index}")
        self.dram = MemoryBank(sim, spec.dram, name=f"dram{index}", trace_category=f"dram{index}")
        self.sram = MemoryBank(sim, spec.sram, name=f"sram{index}", trace_category=f"sram{index}")
        self.fpga_dram: Optional[BandwidthChannel] = None
        self.cpu_busy_time = 0.0
        self.cpu_flops_done = 0.0
        self.fpga_flops_done = 0.0

    # -- configuration -------------------------------------------------------

    def configure_fpga(self, design: Any) -> None:
        """Load a design; fixes the FPGA clock and the B_d channel."""
        self.fpga.configure(design)
        self.fpga_dram = BandwidthChannel(
            self.sim,
            bandwidth=self.fpga.effective_dram_bandwidth,
            name=f"fpga_dram{self.index}",
            trace_category=f"dram{self.index}",
        )

    @property
    def b_d(self) -> float:
        """The node's effective FPGA<->DRAM bandwidth (B_d)."""
        if self.fpga_dram is None:
            raise RuntimeError(f"node {self.index}: FPGA not configured, B_d undefined")
        return self.fpga_dram.bandwidth

    # -- CPU ----------------------------------------------------------------

    def cpu_run(self, kernel: str, flops: float, label: str = ""):
        """Process generator: run ``flops`` of ``kernel`` on the processor."""
        duration = self.spec.processor.kernel_time(kernel, flops)
        yield from self.cpu_occupy(duration, label=label or kernel, flops=flops)

    def cpu_occupy(self, seconds: float, label: str = "cpu", flops: float = 0.0):
        """Process generator: hold the CPU lane for ``seconds``.

        Used both for computation and for the MPI communication time that,
        per Section 4.3, cannot overlap with processor computation.
        """
        if seconds < 0:
            raise ValueError(f"negative duration: {seconds}")
        req = self.cpu_lane.request()
        yield req
        start = self.sim.now
        try:
            yield self.sim.timeout(seconds)
        finally:
            self.cpu_lane.release()
        self.cpu_busy_time += self.sim.now - start
        self.cpu_flops_done += flops
        if self.sim.trace is not None:
            self.sim.trace.record(f"cpu{self.index}", label, start, self.sim.now, flops=flops)

    # -- FPGA ----------------------------------------------------------------

    def fpga_run_cycles(self, cycles: float, label: str = "fpga", flops: float = 0.0):
        """Process generator: run the FPGA for ``cycles`` design clocks."""
        yield from self.fpga.run_cycles(cycles, label=label)
        self.fpga_flops_done += flops

    def fpga_run_seconds(self, seconds: float, label: str = "fpga", flops: float = 0.0):
        """Process generator: run the FPGA for a precomputed duration."""
        yield from self.fpga.run_cycles(seconds * self.fpga.freq_hz, label=label)
        self.fpga_flops_done += flops

    # -- data movement ---------------------------------------------------------

    def dram_to_fpga(self, nbytes: float, label: str = "dram->fpga"):
        """Process generator: stream ``nbytes`` from DRAM into the FPGA.

        This is the T_mem term of the partition equations; it shares the
        B_d channel with all other FPGA<->DRAM traffic on this node.
        """
        if self.fpga_dram is None:
            raise RuntimeError(f"node {self.index}: FPGA not configured")
        yield from self.fpga_dram.transfer(nbytes, label=label)

    def fpga_to_sram(self, nbytes: float, label: str = "fpga->sram"):
        """Process generator: move intermediates to on-board SRAM."""
        yield from self.sram.transfer(nbytes, label=label)
