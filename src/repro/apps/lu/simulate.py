"""Run the distributed LU designs (Section 5.1.3) on either engine.

:func:`simulate_lu` runs the one LU schedule of
:mod:`repro.apps.lu.schedule` on the analytic
:class:`~repro.sim.analytic.Replay` when the fast path accepts the run,
and on the discrete-event simulator through
:class:`~repro.sim.interpret.DesInterpreter` otherwise; both produce the
same :class:`LuSimResult` bitwise wherever the replay does not refuse.
:func:`distributed_block_lu` runs the same schedule on real blocks,
through the numerics interpreter of :mod:`repro.apps.numerics`.
:func:`simulate_block_mm` is one cooperative block multiply (Figure 5):
its closed forms live in :mod:`repro.apps.lu.analytic`, its DES run is
:func:`~repro.apps.lu.schedule.block_mm_processes` on the interpreter.
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
from ...sim.analytic import try_fast_path
from ...sim.interpret import Physical
from ..engines import des_schedule, run_schedule
from ..numerics import FunctionalResult, LuBlocks
from .analytic import analytic_block_mm
from .layout import BlockCyclicLayout
from .schedule import block_mm_processes, lu_processes

__all__ = ["LuSimConfig", "LuSimResult", "distributed_block_lu", "simulate_block_mm",
           "simulate_lu"]


@dataclass(frozen=True)
class LuSimConfig:
    """Everything a distributed-LU simulation run needs."""

    n: int
    b: int
    k: int
    b_f: int  # rows of each block product computed on the FPGA
    l: int  # opMMs shipped per owner routine (Eq. 5); 0 = ship at end
    superstripes: int = 4  # event-granularity chunks per opMM
    overlap: bool = True  # False: stage everything before computing (ablation)
    collect_results: bool = True  # model A'_uv collection + opMS
    cpu_mm_kernel: str = "dgemm"
    iterations: Optional[int] = None  # simulate only the first N iterations
                                      # (Figure 6 uses iterations=1)

    def __post_init__(self) -> None:
        if self.n < self.b or self.n % self.b:
            raise ValueError(f"b={self.b} must divide n={self.n}")
        if not 0 <= self.b_f <= self.b:
            raise ValueError(f"b_f={self.b_f} outside [0, {self.b}]")
        if self.b % self.k:
            raise ValueError(f"b={self.b} must be a multiple of k={self.k}")
        if self.l < 0:
            raise ValueError(f"l must be >= 0, got {self.l}")
        if self.superstripes < 1 or self.superstripes > self.b // self.k:
            raise ValueError(
                f"superstripes must be in [1, b/k] = [1, {self.b // self.k}]"
            )

    @property
    def nb(self) -> int:
        return self.n // self.b

    @property
    def b_p(self) -> int:
        return self.b - self.b_f


@dataclass
class LuSimResult:
    """Measured outcome of one simulated run."""

    elapsed: float
    useful_flops: float
    config: LuSimConfig
    trace: Optional[Trace]
    cpu_busy: list[float] = field(default_factory=list)
    fpga_busy: list[float] = field(default_factory=list)
    network_bytes: float = 0.0

    @property
    def gflops(self) -> float:
        return self.useful_flops / self.elapsed / 1e9 if self.elapsed > 0 else 0.0

    @property
    def fpga_utilisation(self) -> float:
        return sum(self.fpga_busy) / (len(self.fpga_busy) * self.elapsed) if self.elapsed else 0.0


def simulate_lu(
    spec: MachineSpec,
    config: LuSimConfig,
    design: Optional[MatrixMultiplyDesign] = None,
    trace: bool = False,
    node_specs: Optional[list] = None,
    monitor: Optional[object] = None,
    faults: Optional[object] = None,
    fast_path: Optional[str] = None,
) -> LuSimResult:
    """Run the distributed LU schedule on a simulated machine.

    ``monitor`` is an optional :class:`repro.sim.SimMonitor`; attaching
    one records DES internals (event counts, calendar-bucket depths) at
    the cost of the slower counting run loop.  ``faults`` is an optional
    :class:`repro.faults.FaultInjector` (anything with ``install``),
    hooked in after the FPGAs are configured and before the schedule
    processes spawn; with ``faults=None`` the run is untouched.

    ``fast_path`` selects the analytic no-contention fast path:
    ``"auto"`` (bitwise-identical analytic replay when eligible, DES
    otherwise), ``"on"`` (raise if ineligible), ``"off"`` (always DES),
    or None for the process default (``REPRO_FAST_PATH``, else auto).
    Steady whole-run rate faults and ``dma_stall`` windows fold into the
    replay; see :func:`repro.sim.analytic.fast_path_refusal`.
    """
    if design is None:
        design = MatrixMultiplyDesign.for_device(spec.node.fpga.device, k=config.k)

    def processes(price):
        return lu_processes(config, spec.p, price)

    def result(fields: dict) -> LuSimResult:
        return LuSimResult(useful_flops=(2.0 / 3.0) * float(config.n) ** 3, config=config,
                           **fields)

    return run_schedule("lu", spec, design, processes, result, fast_path=fast_path,
                        trace=trace, node_specs=node_specs, monitor=monitor, faults=faults)


def simulate_block_mm(
    spec: MachineSpec,
    b: int,
    b_f: int,
    k: int,
    fast_path: Optional[str] = None,
) -> float:
    """Latency of ONE cooperative b x b block multiplication (Figure 5).

    Node 0 streams the ``b / k`` stripe pairs; nodes 1..p-1 pipeline
    receive / stage / compute, splitting rows b_f : b - b_f between FPGA
    and CPU.  ``fast_path`` selects the analytic closed form (see
    :func:`simulate_lu`).
    """
    fast = try_fast_path(
        "block_mm", lambda _rates: analytic_block_mm(spec, b, b_f, k), mode=fast_path
    )
    if fast is not None:
        return fast
    if not 0 <= b_f <= b:
        raise ValueError(f"b_f={b_f} outside [0, {b}]")
    if b % k:
        raise ValueError(f"b={b} must be a multiple of k={k}")
    design = MatrixMultiplyDesign.for_device(spec.node.fpga.device, k=k)
    return des_schedule(
        spec, design, lambda _price: block_mm_processes(spec.p, b, b_f, k)
    )["elapsed"]


def distributed_block_lu(a: np.ndarray, b: int, p: int, b_f: Optional[int] = None, k: int = 2,
                         use_hw_model: bool = False,
                         guard: Optional[CoordinationGuard] = None) -> FunctionalResult:
    """Factorise ``a`` (no pivoting; ``.lu`` packs the factors) with the
    schedule :func:`simulate_lu` times (``l = 1``, two superstripes).

    ``b_f`` rows of each block product run on the "FPGA" (default b//2
    rounded to k; 0 = Processor-only, b = FPGA-only), on the cycle-level
    PE array with ``use_hw_model`` (b, b_f, b/(p-1) multiples of k).
    ``guard`` checks every cross-device access (Section 4.4).
    """
    a = np.asarray(a, dtype=np.float64)
    n = a.shape[0]
    if a.shape != (n, n):
        raise ValueError(f"matrix must be square, got {a.shape}")
    if p < 2:
        raise ValueError("the distributed design needs p >= 2 nodes")
    if b_f is None:
        b_f = (b // 2 // k) * k
    array = LinearPEArray(k) if use_hw_model and b_f > 0 else None
    if array is not None and (b_f % k or b % k or (b % (p - 1) == 0 and (b // (p - 1)) % k)):
        raise ValueError("use_hw_model requires b, b_f and b/(p-1) to be multiples of k")
    stripe = k if array is not None else 1  # (LuSimConfig checks b | n and 0 <= b_f <= b)
    config = LuSimConfig(n=n, b=b, k=stripe, b_f=b_f, l=1, superstripes=min(2, b // stripe))
    blocks = LuBlocks(a, config, BlockCyclicLayout(config.nb, p), guard, array)
    return blocks.run(lu_processes(config, p, Physical))
