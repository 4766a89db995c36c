"""Run the ring-allgather matrix multiplication on either engine.

:func:`simulate_mm` runs the one ring schedule of
:mod:`repro.apps.mm.schedule` on the analytic
:class:`~repro.sim.stepped.StepReplay` when the fast path accepts the
run, and on the discrete-event simulator through
:class:`~repro.sim.interpret.DesInterpreter` otherwise; both produce the
same :class:`MmSimResult` bitwise.

Baselines use the same schedule: ``m_f = 0`` is the Processor-only
design, ``m_f = r`` the FPGA-only design.  :func:`distributed_ring_mm`
runs the same schedule on real panels, through the numerics interpreter
of :mod:`repro.apps.numerics`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from ...core.coordination import CoordinationGuard
from ...hw.mm_design import MatrixMultiplyDesign
from ...hw.pe_array import LinearPEArray
from ...machine.system import MachineSpec
from ...sim import Trace
from ...sim.interpret import Physical
from ..engines import run_schedule
from ..numerics import FunctionalResult, MmBlocks
from .schedule import mm_processes

__all__ = ["MmSimConfig", "MmSimResult", "distributed_ring_mm", "simulate_mm"]


@dataclass(frozen=True)
class MmSimConfig:
    """Everything a ring-MM simulation run needs."""

    n: int
    k: int
    m_f: int  # C rows per step on the FPGA (0 = CPU-only, r = FPGA-only)
    overlap: bool = True
    cpu_kernel: str = "dgemm"

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError(f"n must be >= 1, got {self.n}")
        if self.m_f < 0:
            raise ValueError(f"m_f must be >= 0, got {self.m_f}")

    def validate_for(self, p: int) -> int:
        if self.n % p:
            raise ValueError(f"p={p} must divide n={self.n}")
        r = self.n // p
        if self.m_f > r:
            raise ValueError(f"m_f={self.m_f} exceeds panel height r={r}")
        if self.m_f % self.k:
            raise ValueError(f"m_f={self.m_f} must be a multiple of k={self.k}")
        return r


@dataclass
class MmSimResult:
    """Measured outcome of one simulated ring multiplication."""

    elapsed: float
    config: MmSimConfig
    trace: Optional[Trace]
    cpu_busy: list[float] = field(default_factory=list)
    fpga_busy: list[float] = field(default_factory=list)
    network_bytes: float = 0.0

    @property
    def useful_flops(self) -> float:
        return 2.0 * float(self.config.n) ** 3

    @property
    def gflops(self) -> float:
        return self.useful_flops / self.elapsed / 1e9 if self.elapsed > 0 else 0.0


def simulate_mm(
    spec: MachineSpec,
    config: MmSimConfig,
    design: Optional[MatrixMultiplyDesign] = None,
    trace: bool = False,
    node_specs: Optional[list] = None,
    monitor: Optional[object] = None,
    faults: Optional[object] = None,
    fast_path: Optional[str] = None,
) -> MmSimResult:
    """Run the ring-allgather MM schedule on a simulated machine.

    ``monitor`` is an optional :class:`repro.sim.SimMonitor`; attaching
    one records DES internals at the cost of the counting run loop.
    ``faults`` is an optional :class:`repro.faults.FaultInjector`
    (anything with ``install``), hooked in after the FPGAs are
    configured and before the schedule processes spawn.

    ``fast_path`` selects the analytic no-contention fast path
    (``"auto"`` / ``"on"`` / ``"off"``; None = process default); see
    :mod:`repro.sim.analytic`.  Analytic results are bitwise identical:
    steady whole-run rate faults and ``dma_stall`` windows fold into the
    schedule's replay.
    """
    if design is None:
        design = MatrixMultiplyDesign.for_device(spec.node.fpga.device, k=config.k)

    def processes(price):
        return mm_processes(config, spec.p, price)

    def result(fields: dict) -> MmSimResult:
        return MmSimResult(config=config, **fields)

    return run_schedule("mm", spec, design, processes, result, fast_path=fast_path,
                        trace=trace, node_specs=node_specs, monitor=monitor, faults=faults)


def distributed_ring_mm(a: np.ndarray, b: np.ndarray, p: int, m_f: Optional[int] = None,
                        k: int = 2, use_hw_model: bool = False,
                        guard: Optional[CoordinationGuard] = None) -> FunctionalResult:
    """``A @ B`` (``.product``) with the ring schedule :func:`simulate_mm` times.

    ``m_f`` rows of each node's per-step product (default half the panel,
    rounded to k) run on the "FPGA", the cycle-level PE array with
    ``use_hw_model``.  ``guard`` checks every cross-device access.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    n = a.shape[0]
    if a.shape != (n, n) or b.shape != (n, n):
        raise ValueError(f"A and B must be square and equal-sized, got {a.shape}, {b.shape}")
    if p < 1 or n % p:
        raise ValueError(f"p={p} must divide n={n}")
    r = n // p
    if m_f is None:
        m_f = (r // 2 // k) * k
    if not 0 <= m_f <= r:
        raise ValueError(f"m_f={m_f} outside [0, {r}]")
    array = LinearPEArray(k) if use_hw_model and m_f > 0 else None
    if array is not None and (r % k or m_f % k or n % k):
        raise ValueError("use_hw_model requires n/p, m_f and n to be multiples of k")
    config = MmSimConfig(n=n, k=k if array is not None else 1, m_f=m_f)
    return MmBlocks(a, b, config, p, guard, array).run(mm_processes(config, p, Physical))
