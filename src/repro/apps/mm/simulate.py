"""Discrete-event simulation of the ring-allgather matrix multiplication.

Each node holds row panels of A, B and C.  In ring step ``s`` the node
multiplies one ``r x r`` block of A with the B panel currently resident
(its own at s = 0), while forwarding the panel around the ring:

    recv panel (except step 0)  -> stage FPGA share -> CPU gemm share
                                 \\-> FPGA gemm share (overlapped)
    send the panel onward (overlapped with the next step's compute
    only via the network links; CPU time is charged, per Section 4.3)

Baselines: ``m_f = 0`` is the Processor-only design, ``m_f = r`` the
FPGA-only design.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from ...hw.mm_design import MatrixMultiplyDesign
from ...machine.system import MachineSpec, ReconfigurableSystem
from ...mpi import Communicator
from ...sim import Trace
from .partition import MmPartition

__all__ = ["MmSimConfig", "MmSimResult", "simulate_mm"]


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


def _analytic_mm(spec, config, design, rates):
    # Deferred import: .analytic imports this module's config/result types.
    from .analytic import analytic_mm

    return analytic_mm(spec, config, design, rates)


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
    :mod:`repro.sim.analytic`.  Analytic results are bitwise identical,
    steady whole-run rate faults included.
    """
    from ...sim.analytic import try_fast_path

    fast = try_fast_path(
        "mm",
        lambda rates: _analytic_mm(spec, config, design, rates),
        mode=fast_path,
        trace=trace,
        node_specs=node_specs,
        monitor=monitor,
        faults=faults,
    )
    if fast is not None:
        return fast
    system = ReconfigurableSystem(spec, trace=trace, node_specs=node_specs)
    if not trace:
        system.sim.trace = None
    if monitor is not None:
        system.sim.attach_monitor(monitor)
    if design is None:
        design = MatrixMultiplyDesign.for_device(spec.node.fpga.device, k=config.k)
    system.configure_fpgas(lambda: design)
    if faults is not None:
        faults.install(system)
    comm = Communicator(system)
    sim = system.sim
    p = spec.p
    r = config.validate_for(p)
    n, k, m_f = config.n, config.k, config.m_f
    m_p = r - m_f
    bw = 8
    panel_bytes = float(r) * n * bw
    stage_bytes = (m_f * r) * bw + panel_bytes if m_f else 0.0
    fpga_cycles = m_f * n * r / k  # (m_f x r) @ (r x n) on the array
    cpu_flops = 2.0 * m_p * r * n
    fpga_flops = 2.0 * m_f * r * n

    def fpga_step(node, done, s):
        yield from node.fpga_run_cycles(fpga_cycles, label=f"mm[{s}]", flops=fpga_flops)
        done.succeed()

    def node_main(i: int):
        node = system.nodes[i]
        right = (i + 1) % p
        left = (i - 1) % p
        for s in range(p):
            if s > 0:
                yield from comm.recv(i, left, tag=("ring", s))
            fpga_done = sim.event(name=f"fpga[{i},{s}]")
            if m_f > 0:
                if config.overlap:
                    # Stage a pipeline-fill fraction, launch, stream the rest.
                    fill = stage_bytes / max(r // k, 1)
                    yield from node.dram_to_fpga(fill, label=f"stage[{s}]")
                    sim.process(fpga_step(node, fpga_done, s))
                    yield from node.dram_to_fpga(stage_bytes - fill, label=f"stage[{s}]")
                else:
                    yield from node.dram_to_fpga(stage_bytes, label=f"stage[{s}]")
                    sim.process(fpga_step(node, fpga_done, s))
            else:
                fpga_done.succeed()
            if m_p > 0:
                yield from node.cpu_run(config.cpu_kernel, cpu_flops, label=f"gemm[{s}]")
            if s < p - 1:
                # Forward the panel for the next step (CPU time, Sec. 4.3).
                yield from comm.send(i, right, nbytes=panel_bytes, tag=("ring", s + 1))
            yield fpga_done

    for i in range(p):
        sim.process(node_main(i), name=f"node{i}")
    elapsed = system.run()
    return MmSimResult(
        elapsed=elapsed,
        config=config,
        trace=system.trace,
        cpu_busy=[nd.cpu_busy_time for nd in system.nodes],
        fpga_busy=[nd.fpga.busy_time for nd in system.nodes],
        network_bytes=system.network.bytes_moved,
    )
