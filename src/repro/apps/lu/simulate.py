"""Discrete-event simulation of the distributed LU designs (Section 5.1.3).

Simulates the paper's schedule faithfully at the opMM/superstripe level:

* In iteration ``t`` the owner ``P_{t mod p}`` runs opLU, then the m
  opL/opU pairs, on its processor (atomic routines -- its sends happen
  *between* routines, which is exactly the effect the paper blames for
  the measured-vs-predicted gap);
* after each routine pair the owner ships the input stripes for up to
  ``l`` ready opMMs to the other ``p-1`` nodes (Equation 5's throttle),
  and ships any remainder after the panel completes;
* every worker pipelines each opMM: per superstripe it receives the
  stripe data (T_comm), stages the FPGA's share over the B_d channel
  (T_mem), kicks the FPGA (T_f share) and runs its own gemm share (T_p),
  so the Equation-4 balance emerges from resource contention rather than
  being scripted;
* each opMM's partial results go to the block's storage node, whose sink
  process applies opMS; the next iteration's owner blocks on the opMS
  completions its panel needs (the recursion on A_11).

The same machinery runs the baselines: ``b_f = 0`` is the
Processor-only design, ``b_f = b`` the FPGA-only design.

Granularity: stripes are aggregated into ``superstripes`` chunks per
opMM (default 4) to bound the event count at scale; a single cooperative
block multiply can be simulated at true stripe granularity with
:func:`simulate_block_mm` (used for Figure 5).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from ...core.partition import LuStripePartition, lu_stripe_partition
from ...hw.mm_design import MatrixMultiplyDesign
from ...kernels.flops import getrf_flops, trsm_flops
from ...machine.system import MachineSpec, ReconfigurableSystem
from ...mpi import Communicator
from ...sim import Trace

__all__ = ["LuSimConfig", "LuSimResult", "simulate_lu", "simulate_block_mm"]


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
    def cpu_utilisation(self) -> float:
        return sum(self.cpu_busy) / (len(self.cpu_busy) * self.elapsed) if self.elapsed else 0.0

    @property
    def fpga_utilisation(self) -> float:
        return sum(self.fpga_busy) / (len(self.fpga_busy) * self.elapsed) if self.elapsed else 0.0


def released_after_opl(t: int, j: int) -> list[tuple[int, int]]:
    """opMM jobs enabled by opL[t, t+j]: products (t+j, v) with v < t+j.

    (They additionally need opU[t, v], already done for v < t+j.)
    """
    w = t + j
    return [(w, v) for v in range(t + 1, w)]


def released_after_opu(t: int, j: int) -> list[tuple[int, int]]:
    """opMM jobs enabled by opU[t, t+j]: products (u, t+j) with u <= t+j."""
    w = t + j
    return [(u, w) for u in range(t + 1, w + 1)]


def iteration_jobs(t: int, nb: int) -> list[tuple[int, int]]:
    """All opMM jobs of iteration t in release (send/recv) order."""
    out: list[tuple[int, int]] = []
    for j in range(1, nb - t):
        out.extend(released_after_opl(t, j))
        out.extend(released_after_opu(t, j))
    return out


def _analytic_lu(spec, config, design, rates, stall_log):
    # Deferred import: .analytic imports this module's schedule helpers.
    from .analytic import analytic_lu

    return analytic_lu(spec, config, design, rates, stall_log)


def _analytic_block_mm(spec, b, b_f, k, design, stripes):
    from .analytic import analytic_block_mm

    return analytic_block_mm(spec, b, b_f, k, design, stripes)


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
    from ...sim.analytic import try_fast_path

    stall_log: list = []
    fast = try_fast_path(
        "lu",
        lambda rates: _analytic_lu(spec, config, design, rates, stall_log),
        mode=fast_path,
        trace=trace,
        node_specs=node_specs,
        monitor=monitor,
        faults=faults,
        stall_log=stall_log,
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
    if p < 2:
        raise ValueError("the distributed LU design needs p >= 2 nodes")
    nb, b, b_f, b_p, S = config.nb, config.b, config.b_f, config.b_p, config.superstripes
    bw = 8
    cpu_rate = spec.node.processor.sustained_flops(config.cpu_mm_kernel)

    # Per-worker, per-opMM data sizes (physical: C broadcast, D scattered).
    c_bytes = b * b * bw
    d_bytes = b * b * bw // (p - 1)
    job_bytes = c_bytes + d_bytes
    stage_bytes = (b_f * b + b * b // (p - 1)) * bw  # FPGA share staged over B_d
    # (b/k stripes) x (b_f * b/(p-1) cycles per stripe) per opMM.
    fpga_cycles_per_job = b_f * b * b / ((p - 1) * config.k)
    cpu_flops_per_job = 2.0 * b_p * b * (b / (p - 1))
    fpga_flops_per_job = 2.0 * b_f * b * (b / (p - 1))
    result_bytes = b * b * bw // (p - 1)  # each worker's E columns

    ms_events: dict[tuple[int, int, int], object] = {}

    def ms_event(t: int, u: int, v: int):
        key = (t, u, v)
        if key not in ms_events:
            ms_events[key] = sim.event(name=f"ms[{t},{u},{v}]")
        return ms_events[key]

    def workers_of(t: int) -> list[int]:
        owner = t % p
        return [i for i in range(p) if i != owner]

    # ------------------------------------------------------------- owner

    def send_job(t: int, u: int, v: int):
        """Owner ships one opMM's stripes to all workers, superstripe-wise."""
        owner = t % p
        for s in range(S):
            sends = [
                sim.process(
                    comm.send(owner, w, nbytes=job_bytes / S, tag=("mm", t, u, v, s))
                )
                for w in workers_of(t)
            ]
            yield sim.all_of(sends)

    def owner_iteration(node, t: int):
        m = nb - t - 1
        owner = t % p
        # The panel reads strip t as updated by iteration t-1's opMS.
        if t > 0 and config.collect_results:
            waits = [ms_event(t - 1, u, t) for u in range(t, nb)]
            waits += [ms_event(t - 1, t, v) for v in range(t + 1, nb)]
            yield sim.all_of(waits)
        yield from node.cpu_run("dgetrf", getrf_flops(b), label=f"opLU[{t}]")
        pending: list[tuple[int, int]] = []

        def ship(limit: int):
            for _ in range(min(limit, len(pending))):
                u, v = pending.pop(0)
                yield from send_job(t, u, v)

        for j in range(1, m + 1):
            yield from node.cpu_run("dtrsm", trsm_flops(b, b), label=f"opL[{t},{t + j}]")
            pending.extend(released_after_opl(t, j))
            yield from ship(config.l)
            yield from node.cpu_run("dtrsm", trsm_flops(b, b), label=f"opU[{t},{t + j}]")
            pending.extend(released_after_opu(t, j))
            yield from ship(config.l)
        yield from ship(len(pending))

    # ------------------------------------------------------------- worker

    def worker_iteration(node, i: int, t: int):
        owner = t % p
        for u, v in iteration_jobs(t, nb):
            fpga_done = sim.event(name=f"fpga[{i},{t},{u},{v}]")
            if config.overlap:
                started = False
                for s in range(S):
                    yield from comm.recv(i, owner, tag=("mm", t, u, v, s))
                    if b_f > 0:
                        yield from node.dram_to_fpga(stage_bytes / S, label=f"stage[{t},{u},{v}]")
                        if not started:
                            sim.process(
                                fpga_job(node, i, fpga_done, fpga_cycles_per_job, t, u, v)
                            )
                            started = True
                    if b_p > 0:
                        yield from node.cpu_run(
                            config.cpu_mm_kernel,
                            cpu_flops_per_job / S,
                            label=f"gemm[{t},{u},{v}]",
                        )
                if not started:
                    fpga_done.succeed()
            else:
                # Ablation: no overlap -- receive and stage everything,
                # then compute.
                for s in range(S):
                    yield from comm.recv(i, owner, tag=("mm", t, u, v, s))
                if b_f > 0:
                    yield from node.dram_to_fpga(stage_bytes, label=f"stage[{t},{u},{v}]")
                    sim.process(fpga_job(node, i, fpga_done, fpga_cycles_per_job, t, u, v))
                else:
                    fpga_done.succeed()
                if b_p > 0:
                    yield from node.cpu_run(
                        config.cpu_mm_kernel, cpu_flops_per_job, label=f"gemm[{t},{u},{v}]"
                    )
            yield fpga_done
            if config.collect_results:
                dest = min(u, v) % p
                if dest != i:
                    yield from comm.send(
                        i, dest, nbytes=result_bytes, tag=("ms", t, u, v, i)
                    )
                else:
                    ev = local_part_event(i, t, u, v)
                    if not ev.triggered:
                        ev.succeed()
                    yield ev

    def fpga_job(node, i: int, done_event, cycles: float, t: int, u: int, v: int):
        yield from node.fpga_run_cycles(
            cycles, label=f"mm[{t},{u},{v}]", flops=fpga_flops_per_job
        )
        done_event.succeed()

    # ---------------------------------------------------- opMS sink per node

    local_ms_parts: dict[tuple[int, int, int, int], object] = {}

    def local_part_event(i: int, t: int, u: int, v: int):
        """Get-or-create the event marking a worker's locally-kept part.

        The worker succeeds it when its share of A'_uv is ready; the sink
        only waits on it.
        """
        key = (i, t, u, v)
        ev = local_ms_parts.get(key)
        if ev is None:
            ev = sim.event(name=f"local_ms[{i},{t},{u},{v}]")
            local_ms_parts[key] = ev
        return ev

    def ms_sink(node, i: int):
        """Receives A'_uv parts and applies the opMS subtractions."""
        for t in range(n_iters):
            owner = t % p
            my_jobs = [
                (u, v) for (u, v) in iteration_jobs(t, nb) if min(u, v) % p == i
            ]
            for u, v in my_jobs:
                recvs = []
                for w in workers_of(t):
                    if w == i:
                        recvs.append(local_part_event(i, t, u, v))
                    else:
                        recvs.append(
                            sim.process(comm.recv(i, w, tag=("ms", t, u, v, w)))
                        )
                yield sim.all_of(recvs)
                # The subtraction itself: b^2 flops, tiny but real.
                yield from node.cpu_run(
                    config.cpu_mm_kernel, float(b * b), label=f"opMS[{t},{u},{v}]"
                )
                ms_event(t, u, v).succeed()

    # ------------------------------------------------------------ node mains

    n_iters = nb if config.iterations is None else min(config.iterations, nb)

    def node_main(i: int):
        node = system.nodes[i]
        for t in range(n_iters):
            if i == t % p:
                yield from owner_iteration(node, t)
            else:
                yield from worker_iteration(node, i, t)

    for i in range(p):
        sim.process(node_main(i), name=f"node{i}")
        if config.collect_results:
            sim.process(ms_sink(system.nodes[i], i), name=f"ms_sink{i}")

    elapsed = system.run()
    return LuSimResult(
        elapsed=elapsed,
        useful_flops=(2.0 / 3.0) * float(config.n) ** 3,
        config=config,
        trace=system.trace,
        cpu_busy=[nd.cpu_busy_time for nd in system.nodes],
        fpga_busy=[nd.fpga.busy_time for nd in system.nodes],
        network_bytes=system.network.bytes_moved,
    )


def simulate_block_mm(
    spec: MachineSpec,
    b: int,
    b_f: int,
    k: int,
    design: Optional[MatrixMultiplyDesign] = None,
    stripes: Optional[int] = None,
    trace: bool = False,
    fast_path: Optional[str] = None,
) -> float:
    """Latency of ONE cooperative b x b block multiplication (Figure 5).

    Node 0 streams the stripe pairs; nodes 1..p-1 pipeline receive /
    stage / compute, splitting rows b_f : b - b_f between FPGA and CPU.
    ``stripes`` defaults to the true count ``b / k``.  ``fast_path``
    selects the analytic closed form (see :func:`simulate_lu`).
    """
    from ...sim.analytic import try_fast_path

    fast = try_fast_path(
        "block_mm",
        lambda _rates: _analytic_block_mm(spec, b, b_f, k, design, stripes),
        mode=fast_path,
        trace=trace,
    )
    if fast is not None:
        return fast
    if not 0 <= b_f <= b:
        raise ValueError(f"b_f={b_f} outside [0, {b}]")
    if b % k:
        raise ValueError(f"b={b} must be a multiple of k={k}")
    system = ReconfigurableSystem(spec, trace=trace)
    if not trace:
        system.sim.trace = None
    if design is None:
        design = MatrixMultiplyDesign.for_device(spec.node.fpga.device, k=k)
    system.configure_fpgas(lambda: design)
    comm = Communicator(system)
    sim = system.sim
    p = spec.p
    S = stripes if stripes is not None else b // k
    bw = 8
    b_p = b - b_f
    cpu_rate = spec.node.processor.sustained_flops("dgemm")

    stripe_bytes = 2 * b * k * bw  # one C column stripe + one D row stripe
    stage_bytes = (b_f * k + b * k / (p - 1)) * bw
    fpga_cycles = b_f * (b / (p - 1))  # per stripe
    cpu_flops = 2.0 * b_p * k * (b / (p - 1))  # per stripe

    def sender():
        for s in range(S):
            sends = [
                sim.process(comm.send(0, w, nbytes=stripe_bytes, tag=("stripe", s)))
                for w in range(1, p)
            ]
            yield sim.all_of(sends)

    def fpga_run(node, done):
        yield from node.fpga_run_cycles(fpga_cycles * S, label="mm", flops=0.0)
        done.succeed()

    def worker(i: int):
        node = system.nodes[i]
        done = sim.event()
        started = False
        for s in range(S):
            yield from comm.recv(i, 0, tag=("stripe", s))
            if b_f > 0:
                yield from node.dram_to_fpga(stage_bytes, label=f"stage{s}")
                if not started:
                    sim.process(fpga_run(node, done))
                    started = True
            if b_p > 0:
                yield from node.cpu_run("dgemm", cpu_flops, label=f"gemm{s}")
        if started:
            yield done

    sim.process(sender(), name="sender")
    for i in range(1, p):
        sim.process(worker(i), name=f"worker{i}")
    return system.run()
