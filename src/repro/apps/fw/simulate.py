"""Run the distributed FW designs (Section 5.2.3) on either engine.

:func:`simulate_fw` runs the one FW schedule of
:mod:`repro.apps.fw.schedule` on the discrete-event simulator through
:class:`~repro.sim.interpret.DesInterpreter`, unless the fast path
accepts the run: stall-free runs then take the closed form of
:mod:`repro.apps.fw.analytic`, and runs with ``dma_stall`` windows the
same schedule on the analytic :class:`~repro.sim.analytic.Replay`.  All
three produce the same :class:`FwSimResult` bitwise wherever the fast
path does not refuse.

Within a node each phase's operations are split ``l1`` to the processor
and ``l2`` to the FPGA (Equation 6).  Baselines use the same schedule:
``l1 = L`` (all-CPU) is the Processor-only design, ``l1 = 0`` the
FPGA-only design.

Because every phase is structurally identical, benchmark runs simulate
``iterations`` (default 1) full iterations and extrapolate linearly to
all ``n/b`` -- the extrapolation is validated against full simulations
at small n in the test suite.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from ...hw.fw_design import FloydWarshallDesign
from ...machine.system import MachineSpec
from ...sim import Trace
from ..engines import run_schedule
from .layout import ColumnBlockLayout
from .schedule import fw_processes

__all__ = ["FwSimConfig", "FwSimResult", "simulate_fw"]


@dataclass(frozen=True)
class FwSimConfig:
    """Everything a distributed-FW simulation run needs."""

    n: int
    b: int
    k: int
    l1: int  # per-phase operations on the processor
    l2: int  # per-phase operations on the FPGA
    overlap: bool = True  # False: FPGA waits for all staging (ablation)
    aggregate_ops: bool = True  # lump each phase's ops into one event each
    iterations: Optional[int] = 1  # iterations to simulate (None = all)
    cpu_kernel: str = "fw"

    def __post_init__(self) -> None:
        if self.n < self.b or self.n % self.b:
            raise ValueError(f"b={self.b} must divide n={self.n}")
        if self.b % self.k:
            raise ValueError(f"b={self.b} must be a multiple of k={self.k}")
        if self.l1 < 0 or self.l2 < 0 or self.l1 + self.l2 < 1:
            raise ValueError(f"invalid split l1={self.l1}, l2={self.l2}")

    @property
    def nb(self) -> int:
        return self.n // self.b

    @property
    def ops_per_phase(self) -> int:
        return self.l1 + self.l2

    def layout(self, p: int) -> ColumnBlockLayout:
        """The block-column layout on ``p`` nodes, which the split must fill."""
        layout = ColumnBlockLayout(self.nb, p)
        if self.ops_per_phase != layout.cols_per_node:
            raise ValueError(
                f"l1 + l2 = {self.ops_per_phase} must equal the per-node "
                f"per-phase operation count n/(bp) = {layout.cols_per_node}"
            )
        return layout

    @property
    def iterations_run(self) -> int:
        """Iterations a run simulates: ``iterations``, at most ``n/b``."""
        return self.nb if self.iterations is None else min(self.iterations, self.nb)


@dataclass
class FwSimResult:
    """Measured outcome of a (possibly partial) simulated run."""

    elapsed: float  # simulated time for `iterations_run` iterations
    iterations_run: int
    config: FwSimConfig
    trace: Optional[Trace]
    cpu_busy: list[float] = field(default_factory=list)
    fpga_busy: list[float] = field(default_factory=list)
    network_bytes: float = 0.0

    @property
    def total_elapsed(self) -> float:
        """Full-run time, extrapolating uniform iterations if truncated."""
        if self.iterations_run == 0:
            return 0.0
        return self.elapsed * self.config.nb / self.iterations_run

    @property
    def useful_flops(self) -> float:
        return 2.0 * float(self.config.n) ** 3

    @property
    def gflops(self) -> float:
        total = self.total_elapsed
        return self.useful_flops / total / 1e9 if total > 0 else 0.0


def simulate_fw(
    spec: MachineSpec,
    config: FwSimConfig,
    design: Optional[FloydWarshallDesign] = None,
    trace: bool = False,
    node_specs: Optional[list] = None,
    monitor: Optional[object] = None,
    faults: Optional[object] = None,
    fast_path: Optional[str] = None,
) -> FwSimResult:
    """Run the distributed blocked-FW schedule on a simulated machine.

    ``monitor`` is an optional :class:`repro.sim.SimMonitor`; attaching
    one records DES internals at the cost of the counting run loop.
    ``faults`` is an optional :class:`repro.faults.FaultInjector`
    (anything with ``install``), hooked in after the FPGAs are
    configured and before the schedule processes spawn.

    ``fast_path`` selects the analytic fast path (``"auto"`` / ``"on"``
    / ``"off"``; None = process default); see
    :mod:`repro.sim.analytic`.  Analytic results are bitwise identical:
    steady whole-run rate faults fold into the closed form, and
    ``dma_stall`` windows into the schedule's replay.
    """
    # Deferred import: .analytic imports this module's config/result types.
    from .analytic import analytic_fw

    if design is None:
        design = FloydWarshallDesign.for_device(spec.node.fpga.device, k=config.k)

    def processes(price):
        return fw_processes(config, spec.p, design.tile_cycles(config.b), price)

    def result(fields: dict) -> FwSimResult:
        return FwSimResult(iterations_run=config.iterations_run, config=config, **fields)

    return run_schedule(
        "fw", spec, design, processes, result,
        closed_form=lambda rates: analytic_fw(spec, config, design, rates),
        fast_path=fast_path, trace=trace, node_specs=node_specs, monitor=monitor,
        faults=faults,
    )
