"""The whole reconfigurable computing system (Figure 1 of the paper).

:class:`MachineSpec` declaratively describes a machine -- p identical
nodes plus the interconnect -- and :class:`ReconfigurableSystem`
instantiates it on a fresh simulator with tracing enabled.  The class
also derives the paper's :class:`~repro.core.parameters.SystemParameters`
for a given (application kernel, FPGA design) pair, which is how every
experiment goes from "machine + design" to the analytic model.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Optional

from ..core.parameters import SystemParameters
from ..sim import Simulator, Trace
from .interconnect import Interconnect, NetworkSpec
from .node import ComputeNode, NodeSpec

__all__ = ["MachineSpec", "ReconfigurableSystem"]


@dataclass(frozen=True)
class MachineSpec:
    """A reconfigurable computing system: p identical nodes + network."""

    name: str
    p: int
    node: NodeSpec
    network: NetworkSpec

    def __post_init__(self) -> None:
        if self.p < 1:
            raise ValueError(f"p must be >= 1, got {self.p}")

    def parameters(
        self,
        kernel: str,
        design: Any,
        sram_bytes: Optional[int] = None,
    ) -> SystemParameters:
        """Derive Section 4.1 parameters for an application on this machine.

        ``kernel`` selects the processor's sustained rate; ``design`` (a
        synthesised FPGA design) supplies O_f, F_f and B_d.
        """
        return SystemParameters(
            p=self.p,
            o_f=design.ops_per_cycle,
            f_f=design.freq_hz,
            cpu_flops=self.node.processor.sustained_flops(kernel),
            b_d=self.node.fpga.b_d(design.freq_hz),
            b_n=self.network.bandwidth,
            f_p=self.node.processor.clock_hz,
            sram_bytes=sram_bytes if sram_bytes is not None else self.node.sram.capacity_bytes,
        )


class ReconfigurableSystem:
    """A live instance of a :class:`MachineSpec` on a simulator.

    ``node_specs`` optionally overrides the per-node hardware (length p),
    enabling heterogeneous chassis -- e.g. a partially upgraded system.
    The schedules read each node's rates through the node object, so a
    slower node simply takes longer and the imbalance becomes visible in
    the trace (see :mod:`repro.core.hetero` for the model-side fix).
    """

    def __init__(
        self,
        spec: MachineSpec,
        trace: bool = True,
        node_specs: Optional[list[NodeSpec]] = None,
    ) -> None:
        self.spec = spec
        self.sim = Simulator()
        if trace:
            self.sim.trace = Trace()
        if node_specs is not None and len(node_specs) != spec.p:
            raise ValueError(
                f"node_specs must have length p={spec.p}, got {len(node_specs)}"
            )
        per_node = node_specs if node_specs is not None else [spec.node] * spec.p
        self.nodes = [ComputeNode(self.sim, ns, i) for i, ns in enumerate(per_node)]
        self.network = Interconnect(self.sim, spec.network, spec.p)

    @property
    def p(self) -> int:
        return self.spec.p

    @property
    def trace(self) -> Optional[Trace]:
        return self.sim.trace

    def configure_fpgas(self, design_factory: Callable[[], Any]) -> None:
        """Load a fresh design instance onto every node's FPGA."""
        for node in self.nodes:
            node.configure_fpga(design_factory())

    def run(self) -> float:
        """Run the simulation to completion; returns the final time."""
        return self.sim.run()
