"""Top-level facade for the LU application design.

Bundles planning (the design model), timing simulation (the DES) and
functional validation behind one object, and provides the paper's two
baselines for comparison -- the API the examples and benchmarks use.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Optional

from ...core.model import DesignModel, LuPlan
from ...core.parameters import SystemParameters
from ...core.partition import lu_stripe_times
from ...core.prediction import predict_lu
from ...hw.mm_design import MatrixMultiplyDesign
from ...machine.system import MachineSpec
from ..hybrid import HybridDesign
from .simulate import LuSimConfig, LuSimResult, simulate_lu

__all__ = ["LuDesign"]

#: The measured panel-routine latencies of Table 1 (b = 3000).
TABLE1_LATENCIES = {"t_lu": 4.9, "t_opl": 7.1, "t_opu": 7.1}

#: The default ``(n, b)``: small enough for CI fault sweeps and
#: campaigns, at the paper's b = 3000 so Table 1's latencies apply.
DEFAULT_SIZE = (12000, 3000)


class LuDesign(HybridDesign):
    """The hybrid LU design on a given machine."""

    def __init__(
        self,
        spec: MachineSpec,
        n: Optional[int] = None,
        b: Optional[int] = None,
        k: Optional[int] = None,
        use_table1: bool = True,
    ) -> None:
        n = DEFAULT_SIZE[0] if n is None else n
        b = DEFAULT_SIZE[1] if b is None else b
        self.spec = spec
        self.design = MatrixMultiplyDesign.for_device(spec.node.fpga.device, k=k)
        self.k = self.design.k
        self.params = spec.parameters("dgemm", self.design)
        model = DesignModel(self.params)
        latencies = TABLE1_LATENCIES if (use_table1 and b == 3000) else {}
        self.plan: LuPlan = model.plan_lu(n, b, self.k, **latencies)
        self.n, self.b = n, b

    def partition_params(self) -> dict:
        """The plan's partition decisions, JSON-able (run-ledger manifest)."""
        return {
            "b_p": self.plan.partition.b_p,
            "b_f": self.plan.partition.b_f,
            "l": self.plan.balance.l,
            "k": self.k,
        }

    def replan(self, params: SystemParameters) -> "LuDesign":
        """This design with Eqs. (4)/(5) re-solved on other parameters
        (a fault policy's perturbed machine), same panel latencies."""
        plan = DesignModel(params).plan_lu(self.n, self.b, self.k, *self._panel_times)
        return self._planned(params, plan)

    def repredict(self, params: SystemParameters) -> "LuDesign":
        """This design's split kept, its Eq. (4) terms and its prediction
        re-evaluated on other parameters."""
        part = self.plan.partition
        t_p, t_f, t_comm, t_mem = lu_stripe_times(self.b, part.b_f, self.k, params)
        part = replace(part, t_p=t_p, t_f=t_f, t_comm=t_comm, t_mem=t_mem)
        prediction = predict_lu(self.n, self.b, part, *self._panel_times, params)
        return self._planned(params, replace(self.plan, partition=part, prediction=prediction))

    @property
    def _panel_times(self) -> tuple[float, float, float]:
        """The plan's ``(t_lu, t_opl, t_opu)``: Table 1 or the estimates."""
        return self.plan.prediction.detail["panel_times"]

    # -- simulation -----------------------------------------------------------

    def config(self, b_f: Optional[int] = None, l: Optional[int] = None, **over) -> LuSimConfig:
        """A simulation config; defaults to the plan's decisions."""
        return LuSimConfig(
            n=self.n,
            b=self.b,
            k=self.k,
            b_f=self.plan.partition.b_f if b_f is None else b_f,
            l=self.plan.balance.l if l is None else l,
            **over,
        )

    def simulate(self, trace: bool = False, monitor=None, faults=None, **over) -> LuSimResult:
        """Simulate the planned hybrid design.

        ``trace=True`` records per-lane busy intervals (needed for the
        Chrome-trace export and :meth:`overlap_report`); ``monitor`` is
        an optional :class:`repro.sim.SimMonitor` for DES internals;
        ``faults`` is an optional :class:`repro.faults.FaultInjector`.
        """
        return simulate_lu(
            self.spec,
            self.config(**over),
            design=self.design,
            trace=trace,
            monitor=monitor,
            faults=faults,
        )

    def simulate_cpu_only(self, **over) -> LuSimResult:
        """The Processor-only baseline (b_f = 0)."""
        return simulate_lu(self.spec, self.config(b_f=0, **over), design=self.design)

    def simulate_fpga_only(self, **over) -> LuSimResult:
        """The FPGA-only baseline (b_f = b)."""
        return simulate_lu(self.spec, self.config(b_f=self.b, **over), design=self.design)

    def overlap_report(self, result: Optional[LuSimResult] = None, registry=None, **over):
        """Reconcile a simulated run against the plan's max{T_tp, T_tf}.

        Simulates with tracing when no ``result`` is given (a result
        without a trace still reconciles, just without per-resource
        busy-time breakdown).  Returns an
        :class:`repro.obs.OverlapReport` and publishes its gauges.
        """
        from ...obs import reconcile

        if result is None:
            result = self.simulate(trace=True, **over)
        return reconcile(
            "lu",
            self.makespan(result),
            self.plan.prediction,
            trace=result.trace,
            registry=registry,
            n=self.n,
            b=self.b,
            p=self.spec.p,
            gflops=result.gflops,
            partition=self.partition_params(),
        )
