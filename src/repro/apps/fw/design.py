"""Top-level facade for the Floyd-Warshall application design."""

from __future__ import annotations

from dataclasses import replace
from typing import Optional

from ...core.blocksize import choose_fw_block_size
from ...core.model import DesignModel, FwPlan
from ...core.parameters import SystemParameters
from ...core.partition import fw_op_times
from ...core.prediction import predict_fw
from ...hw.fw_design import FloydWarshallDesign
from ...machine.system import MachineSpec
from ..hybrid import HybridDesign
from .simulate import FwSimConfig, FwSimResult, simulate_fw

__all__ = ["FwDesign"]

#: The default problem is this many tiles a side: n = 18432 at XD1's b = 256.
DEFAULT_TILES = 72


class FwDesign(HybridDesign):
    """The hybrid Floyd-Warshall design on a given machine."""

    def __init__(self, spec: MachineSpec, n: Optional[int] = None, b: Optional[int] = None,
                 k: Optional[int] = None) -> None:
        """``b`` defaults to the Section 6.1 tile for this machine (a
        multiple of the array's ``k``: 256 on XD1 and SRC, 231 on XT3 and
        RASC) and ``n`` to :data:`DEFAULT_TILES` such tiles a side."""
        self.spec = spec
        self.design = FloydWarshallDesign.for_device(spec.node.fpga.device, k=k)
        self.k = self.design.k
        self.params = spec.parameters("fw", self.design)
        default_b = choose_fw_block_size(self.params, self.k)
        n = DEFAULT_TILES * default_b if n is None else n
        b = default_b if b is None else b
        model = DesignModel(self.params)
        self.plan: FwPlan = model.plan_fw(n, b, self.k)
        self.n, self.b = n, b

    @property
    def ops_per_phase(self) -> int:
        return self.plan.partition.per_phase_ops

    def partition_params(self) -> dict:
        """The plan's partition decisions, JSON-able (run-ledger manifest)."""
        return {
            "l1": self.plan.partition.l1,
            "l2": self.plan.partition.l2,
            "k": self.k,
        }

    def replan(self, params: SystemParameters) -> "FwDesign":
        """This design with Eq. (6) re-solved on other parameters (a
        fault policy's perturbed machine)."""
        return self._planned(params, DesignModel(params).plan_fw(self.n, self.b, self.k))

    def repredict(self, params: SystemParameters) -> "FwDesign":
        """This design's ``(l1, l2)`` kept, its per-op times and its
        prediction re-evaluated on other parameters."""
        t_p, t_f, t_comm, t_mem = fw_op_times(self.b, self.k, params)
        part = replace(self.plan.partition, t_p=t_p, t_f=t_f, t_comm=t_comm, t_mem=t_mem)
        prediction = predict_fw(self.n, self.b, part, params)
        return self._planned(params, replace(self.plan, partition=part, prediction=prediction))

    def makespan(self, result: FwSimResult) -> float:
        """:attr:`FwSimResult.total_elapsed`: FW simulates ``iterations``
        iterations and extrapolates to the whole run."""
        return result.total_elapsed

    def config(self, l1: Optional[int] = None, l2: Optional[int] = None, **over) -> FwSimConfig:
        """A simulation config; defaults to the plan's l1/l2 split, and
        ``l2`` to the rest of the phase's ops after ``l1``."""
        l1 = self.plan.partition.l1 if l1 is None else l1
        l2 = self.ops_per_phase - l1 if l2 is None else l2
        return FwSimConfig(n=self.n, b=self.b, k=self.k, l1=l1, l2=l2, **over)

    def simulate(self, trace: bool = False, monitor=None, faults=None, **over) -> FwSimResult:
        """Simulate the planned hybrid design.

        ``trace=True`` records per-lane busy intervals (needed for the
        Chrome-trace export and :meth:`overlap_report`); ``monitor`` is
        an optional :class:`repro.sim.SimMonitor` for DES internals;
        ``faults`` is an optional :class:`repro.faults.FaultInjector`.
        """
        return simulate_fw(
            self.spec,
            self.config(**over),
            design=self.design,
            trace=trace,
            monitor=monitor,
            faults=faults,
        )

    def simulate_cpu_only(self, **over) -> FwSimResult:
        """The Processor-only baseline (every task on the CPU)."""
        return simulate_fw(
            self.spec, self.config(l1=self.ops_per_phase, **over), design=self.design
        )

    def simulate_fpga_only(self, **over) -> FwSimResult:
        """The FPGA-only baseline (every task on the FPGA)."""
        return simulate_fw(self.spec, self.config(l1=0, **over), design=self.design)

    def overlap_report(self, result: Optional[FwSimResult] = None, registry=None, **over):
        """Reconcile a simulated run against the plan's max{T_tp, T_tf}.

        The reconciled makespan is the extrapolated :meth:`makespan`;
        the trace only covers the simulated window, which is passed as
        ``window`` so per-resource utilisation stays meaningful.
        """
        from ...obs import reconcile

        if result is None:
            result = self.simulate(trace=True, **over)
        return reconcile(
            "fw",
            self.makespan(result),
            self.plan.prediction,
            trace=result.trace,
            window=result.elapsed,
            registry=registry,
            n=self.n,
            b=self.b,
            p=self.spec.p,
            iterations_run=result.iterations_run,
            gflops=result.gflops,
            partition=self.partition_params(),
        )
