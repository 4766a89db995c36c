"""Run the distributed FW designs (Section 5.2.3) on either engine.

:func:`simulate_fw` runs the one FW schedule of
:mod:`repro.apps.fw.schedule` on the discrete-event simulator through
:class:`~repro.sim.interpret.DesInterpreter`, unless the fast path
accepts the run: it then takes the closed form of
:mod:`repro.apps.fw.analytic`, ``dma_stall`` windows included, which
hands the few runs it cannot fold (a stall at the instant its node uses
its channel, per-op granularity) to the same schedule on the analytic
:class:`~repro.sim.stepped.StepReplay`.  All three produce the same
:class:`FwSimResult` bitwise wherever the fast path does not refuse.

Within a node each phase's operations are split ``l1`` to the processor
and ``l2`` to the FPGA (Equation 6).  Baselines use the same schedule:
``l1 = L`` (all-CPU) is the Processor-only design, ``l1 = 0`` the
FPGA-only design.

Because every phase is structurally identical, benchmark runs simulate
``iterations`` (default 1) full iterations and extrapolate linearly to
all ``n/b`` -- the extrapolation is validated against full simulations
at small n in the test suite.

:func:`distributed_blocked_fw` runs the same schedule on real blocks,
through the numerics interpreter of :mod:`repro.apps.numerics`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from ...core.coordination import CoordinationGuard
from ...hw.fw_design import FloydWarshallDesign
from ...machine.system import MachineSpec
from ...sim import Trace
from ...sim.interpret import Physical
from ..engines import run_schedule
from ..numerics import FunctionalResult, FwBlocks
from .layout import ColumnBlockLayout
from .schedule import fw_processes

__all__ = ["FwSimConfig", "FwSimResult", "distributed_blocked_fw", "simulate_fw"]


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
    steady whole-run rate faults and ``dma_stall`` windows fold into
    the closed form.
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
        closed_form=lambda rates, stall_log: analytic_fw(spec, config, design, rates, stall_log),
        fast_path=fast_path, trace=trace, node_specs=node_specs, monitor=monitor,
        faults=faults,
    )


def distributed_blocked_fw(d: np.ndarray, b: int, p: int, l1: Optional[int] = None,
                           use_hw_model: bool = False, hw_k: int = 2,
                           guard: Optional[CoordinationGuard] = None) -> FunctionalResult:
    """All-pairs shortest paths of ``d`` (``.dist``) with the schedule
    :func:`simulate_fw` times, over every iteration.

    ``l1`` of each node's per-phase operations (default half) run on the
    "CPU", the rest on the "FPGA" (the cycle-level array with
    ``use_hw_model``): ``l1=0`` is the FPGA-only baseline, ``l1=n/(bp)``
    the Processor-only one.  ``guard`` checks every cross-device access.
    """
    d = np.asarray(d, dtype=np.float64)
    n = d.shape[0]
    if d.shape != (n, n):
        raise ValueError(f"matrix must be square, got {d.shape}")
    if n % b:
        raise ValueError(f"b={b} must divide n={n}")
    per_phase = ColumnBlockLayout(n // b, p).cols_per_node
    if l1 is None:
        l1 = per_phase // 2
    if not 0 <= l1 <= per_phase:
        raise ValueError(f"l1={l1} outside [0, {per_phase}]")
    design = FloydWarshallDesign(k=hw_k, freq_hz=1e6, device=None) if use_hw_model else None
    if design is not None and b % hw_k:
        raise ValueError(f"use_hw_model requires b={b} to be a multiple of k={hw_k}")
    config = FwSimConfig(n=n, b=b, k=hw_k if design else 1, l1=l1, l2=per_phase - l1,
                         iterations=None)
    return FwBlocks(d, config, p, guard, design).run(fw_processes(config, p, 1, Physical))
