"""Facade for the extension application: distributed hybrid C = A x B."""

from __future__ import annotations

from typing import Optional

from ...hw.mm_design import MatrixMultiplyDesign
from ...machine.system import MachineSpec
from ..hybrid import HybridDesign
from .partition import MmPartition, mm_row_partition
from .simulate import MmSimConfig, MmSimResult, simulate_mm

__all__ = ["MmDesign"]


class MmDesign(HybridDesign):
    """The hybrid ring matrix multiplication on a given machine."""

    def __init__(self, spec: MachineSpec, n: int, k: Optional[int] = None) -> None:
        self.spec = spec
        self.design = MatrixMultiplyDesign.for_device(spec.node.fpga.device, k=k)
        self.k = self.design.k
        self.params = spec.parameters("dgemm", self.design)
        self.plan: MmPartition = mm_row_partition(n, self.k, self.params)
        self.n = n

    @property
    def predicted_gflops(self) -> float:
        """Section 4.5-style prediction: p ring steps of the step makespan."""
        total = self.spec.p * self.plan.step_makespan
        return 2.0 * float(self.n) ** 3 / total / 1e9

    def partition_params(self) -> dict:
        """The plan's partition decisions, JSON-able (run-ledger manifest)."""
        return {"m_f": self.plan.m_f, "r": self.plan.r, "k": self.k}

    def config(self, m_f: Optional[int] = None, **over) -> MmSimConfig:
        return MmSimConfig(
            n=self.n, k=self.k, m_f=self.plan.m_f if m_f is None else m_f, **over
        )

    def simulate(self, trace: bool = False, monitor=None, faults=None, **over) -> MmSimResult:
        return simulate_mm(
            self.spec,
            self.config(**over),
            design=self.design,
            trace=trace,
            monitor=monitor,
            faults=faults,
        )

    def overlap_report(self, result: Optional[MmSimResult] = None, registry=None, **over):
        """Reconcile a simulated run against ``p x`` the step makespan.

        MM's model is per ring step rather than a whole-run T_tp/T_tf
        pair, so the totals are the per-step paths times ``p`` steps:
        processor path ``t_p + t_mem + t_net``, FPGA path ``t_f`` --
        ``max`` of the two recovers :attr:`predicted_gflops`'s latency.
        """
        from types import SimpleNamespace

        from ...obs import reconcile

        if result is None:
            result = self.simulate(trace=True, **over)
        p = self.spec.p
        plan = self.plan
        prediction = SimpleNamespace(
            t_tp=p * (plan.t_p + plan.t_mem + plan.t_net),
            t_tf=p * plan.t_f,
        )
        return reconcile(
            "mm",
            self.makespan(result),
            prediction,
            trace=result.trace,
            registry=registry,
            n=self.n,
            p=p,
            gflops=result.gflops,
            partition=self.partition_params(),
        )

    def simulate_cpu_only(self, trace: bool = False, **over) -> MmSimResult:
        return simulate_mm(self.spec, self.config(m_f=0, **over), design=self.design, trace=trace)

    def simulate_fpga_only(self, trace: bool = False, **over) -> MmSimResult:
        return simulate_mm(
            self.spec, self.config(m_f=self.plan.r, **over), design=self.design, trace=trace
        )
