"""Compute-node model: one processor + one FPGA + memories.

A :class:`ComputeNode` is the live per-node object in a simulation.  It
owns:

* a CPU lane (exclusive :class:`~repro.sim.resources.Resource`) -- one
  processor per node, as the paper's C program uses only one of the two
  Opterons on an XD1 blade;
* an :class:`~repro.machine.fpga.FpgaFabric` that must be configured with
  a synthesised design before use;
* the FPGA<->DRAM streaming channel whose bandwidth is ``B_d`` -- fixed
  when the design is configured (one word per design cycle, capped by
  the hardware link).

The node's SRAM is declarative only (:class:`NodeSpec`'s ``sram``): its
capacity feeds the Section 4.1 parameters.  All compute/transfer methods
are process generators for the simulation engine; trace lanes are
``cpu{i}``, ``fpga{i}``, ``dram{i}``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Optional

from ..sim import BandwidthChannel, Resource, Simulator
from .fpga import FpgaFabric, FpgaSpec
from .memory import MemorySpec
from .processor import ProcessorSpec

__all__ = ["NodeSpec", "ComputeNode"]


@dataclass(frozen=True)
class NodeSpec:
    """Declarative description of one compute node."""

    processor: ProcessorSpec
    fpga: FpgaSpec
    sram: MemorySpec


class ComputeNode:
    """A live node: processor + FPGA + B_d channel, bound to a simulator."""

    def __init__(self, sim: Simulator, spec: NodeSpec, index: int) -> None:
        self.sim = sim
        self.spec = spec
        self.index = index
        self.cpu_lane = Resource(sim, capacity=1, name=f"cpu{index}.lane")
        self.fpga = FpgaFabric(sim, spec.fpga, name=f"fpga{index}", trace_category=f"fpga{index}")
        self.fpga_dram: Optional[BandwidthChannel] = None
        self.cpu_busy_time = 0.0

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
        """Process generator: run ``flops`` of ``kernel`` on the processor,
        holding the exclusive CPU lane for the kernel's time."""
        duration = self.spec.processor.kernel_time(kernel, flops)
        req = self.cpu_lane.request()
        yield req
        start = self.sim.now
        try:
            yield self.sim.timeout(duration)
        finally:
            self.cpu_lane.release()
        self.cpu_busy_time += self.sim.now - start
        if self.sim.trace is not None:
            self.sim.trace.record(f"cpu{self.index}", label or kernel, start, self.sim.now,
                                  flops=flops)

    # -- data movement ---------------------------------------------------------

    def dram_to_fpga(self, nbytes: float, label: str = "dram->fpga"):
        """Process generator: stream ``nbytes`` from DRAM into the FPGA.

        This is the T_mem term of the partition equations; it shares the
        B_d channel with all other FPGA<->DRAM traffic on this node.
        """
        if self.fpga_dram is None:
            raise RuntimeError(f"node {self.index}: FPGA not configured")
        yield from self.fpga_dram.transfer(nbytes, label=label)
