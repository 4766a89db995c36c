"""Analytic (DES-free) replays of the LU simulations -- bitwise exact.

:func:`analytic_lu` replays :func:`repro.apps.lu.simulate.simulate_lu`
through the :class:`repro.sim.analytic.Replay` engine: the same
schedule expressed as op-yielding generators, evaluating the identical
float arithmetic in the identical order, so every field of the returned
:class:`LuSimResult` matches the DES bitwise.  The engine refuses
(:class:`FastPathUnsupported`) any configuration whose outcome would
depend on DES intra-timestamp micro-ordering.

:func:`analytic_block_mm` is a closed form for the Figure 5 kernel:
the stripe broadcast is a chain of link-limited send waves and each
worker's receive/stage/compute pipeline is a pure fold over stripe
arrivals, with no cross-worker contention for any parameter choice.
:func:`analytic_block_mm_batch` vectorises that fold over a whole
``b_f`` grid in one NumPy pass (one fused sweep instead of one DES run
per point) while keeping elementwise IEEE-754 double arithmetic, so
each lane of the batch equals the scalar (and hence the DES) bitwise.

Tie classes used for LU (why the replay is safe where it does not
refuse): the owner's per-superstripe broadcast is one ``send_batch``
burst -- its transfers enter each FIFO in a fixed documented order in
both engines; workers' result sends toward the same ``opMS`` owner are
tagged with their broadcast *wave* (``position // links_per_node``), as
same-job same-wave workers are structurally identical twins whose
arrival order is restored at every resynchronisation point.  Any other
same-time collision refuses to the DES.
"""

from __future__ import annotations

from typing import Optional

from ...hw.mm_design import MatrixMultiplyDesign
from ...kernels.flops import getrf_flops, trsm_flops
from ...machine.system import MachineSpec
from ...sim.analytic import NOMINAL_RATES, Replay, SteadyRates, fault_nodes
from .simulate import (
    LuSimConfig,
    LuSimResult,
    iteration_jobs,
    released_after_opl,
    released_after_opu,
)

__all__ = ["analytic_block_mm", "analytic_block_mm_batch", "analytic_lu"]


def analytic_lu(
    spec: MachineSpec,
    config: LuSimConfig,
    design: Optional[MatrixMultiplyDesign] = None,
    rates: SteadyRates = NOMINAL_RATES,
    stall_log: Optional[list] = None,
) -> LuSimResult:
    """Replay the distributed LU schedule without a DES (bitwise exact).

    ``rates`` folds steady rate faults into ``B_n``, ``F_f`` and ``B_d``,
    and each of its ``stalls`` into a hold on the stalled nodes' ``B_d``
    channel queues.  A finished replay appends the stalls' grant and
    release marks to ``stall_log`` (see
    :meth:`repro.faults.FaultInjector.install_folded`).  Raises
    :class:`repro.sim.analytic.FastPathUnsupported` when the schedule
    hits an ambiguous same-time resource tie (then only the DES's
    micro-ordering can decide the outcome).
    """
    if design is None:
        design = MatrixMultiplyDesign.for_device(spec.node.fpga.device, k=config.k)
    p = spec.p
    stalls = [(event, i) for event in rates.stalls for i in fault_nodes(event.node, p)]
    if p < 2:
        raise ValueError("the distributed LU design needs p >= 2 nodes")
    nb, b, b_f, b_p, S = config.nb, config.b, config.b_f, config.b_p, config.superstripes
    bw = 8
    proc = spec.node.processor
    kernel = config.cpu_mm_kernel

    # Identical size/duration arithmetic to simulate_lu, precomputed once.
    c_bytes = b * b * bw
    d_bytes = b * b * bw // (p - 1)
    job_bytes = c_bytes + d_bytes
    stage_bytes = (b_f * b + b * b // (p - 1)) * bw
    fpga_cycles_per_job = b_f * b * b / ((p - 1) * config.k)
    cpu_flops_per_job = 2.0 * b_p * b * (b / (p - 1))
    result_bytes = b * b * bw // (p - 1)

    net = spec.network
    b_n = rates.network_bandwidth(net.bandwidth)
    chunk_size = int(job_bytes / S)  # comm.send coerces nbytes to int
    chunk_svc = net.latency + chunk_size / b_n
    result_size = int(result_bytes)
    result_svc = net.latency + result_size / b_n
    freq = rates.fpga_clock(design.freq_hz)
    b_d = rates.b_d(design.freq_hz, spec.node.fpga.dram_link_bandwidth)
    stage_dur = 0.0 + (stage_bytes / S) / b_d  # BandwidthChannel latency 0.0
    stage_dur_full = 0.0 + stage_bytes / b_d
    fpga_dur = fpga_cycles_per_job / freq
    gemm_dur = proc.kernel_time(kernel, cpu_flops_per_job / S)
    gemm_dur_full = proc.kernel_time(kernel, cpu_flops_per_job)
    getrf_dur = proc.kernel_time("dgetrf", getrf_flops(b))
    trsm_dur = proc.kernel_time("dtrsm", trsm_flops(b, b))
    opms_dur = proc.kernel_time(kernel, float(b * b))

    n_iters = nb if config.iterations is None else min(config.iterations, nb)
    engine = Replay(p, net.links_per_node)

    def workers_of(t: int) -> list[int]:
        owner = t % p
        return [i for i in range(p) if i != owner]

    def owner_iteration(t: int):
        m = nb - t - 1
        owner = t % p
        if t > 0 and config.collect_results:
            waits = [("ms", t - 1, u, t) for u in range(t, nb)]
            waits += [("ms", t - 1, t, v) for v in range(t + 1, nb)]
            yield ("wait_all", waits)
        yield ("cpu", owner, getrf_dur)
        pending: list[tuple[int, int]] = []

        def ship(limit: int):
            for _ in range(min(limit, len(pending))):
                u, v = pending.pop(0)
                dsts = workers_of(t)
                for s in range(S):
                    yield ("send_batch", owner, dsts, chunk_svc, chunk_size,
                           [("mm", t, u, v, s, w) for w in dsts])

        for j in range(1, m + 1):
            yield ("cpu", owner, trsm_dur)
            pending.extend(released_after_opl(t, j))
            yield from ship(config.l)
            yield ("cpu", owner, trsm_dur)
            pending.extend(released_after_opu(t, j))
            yield from ship(config.l)
        yield from ship(len(pending))

    def worker_iteration(i: int, t: int):
        wave = workers_of(t).index(i) // net.links_per_node
        for u, v in iteration_jobs(t, nb):
            fkey = ("fpga", i, t, u, v)
            if config.overlap:
                started = False
                for s in range(S):
                    yield ("wait", ("mm", t, u, v, s, i))
                    if b_f > 0:
                        yield ("chan", i, stage_dur)
                        if not started:
                            yield ("fpga_spawn", i, fpga_dur, fkey)
                            started = True
                    if b_p > 0:
                        yield ("cpu", i, gemm_dur)
                if not started:
                    yield ("set", fkey)
            else:
                for s in range(S):
                    yield ("wait", ("mm", t, u, v, s, i))
                if b_f > 0:
                    yield ("chan", i, stage_dur_full)
                    yield ("fpga_spawn", i, fpga_dur, fkey)
                else:
                    yield ("set", fkey)
                if b_p > 0:
                    yield ("cpu", i, gemm_dur_full)
            yield ("wait", fkey)
            if config.collect_results:
                dest = min(u, v) % p
                if dest != i:
                    yield ("send", i, dest, result_svc, result_size,
                           ("msr", t, u, v, i), ("msr", t, u, v, wave))
                else:
                    yield ("set", ("msr", t, u, v, i))

    def ms_sink(i: int):
        for t in range(n_iters):
            mine = [(u, v) for (u, v) in iteration_jobs(t, nb) if min(u, v) % p == i]
            for u, v in mine:
                yield ("wait_all", [("msr", t, u, v, w) for w in workers_of(t)])
                yield ("cpu", i, opms_dur)
                yield ("set", ("ms", t, u, v))

    def node_main(i: int):
        for t in range(n_iters):
            if i == t % p:
                yield from owner_iteration(t)
            else:
                yield from worker_iteration(i, t)

    def stall(event, i: int):
        yield ("stall", i, event.duration, (event, i))

    # Stall processes first and in FaultInjector.install's order, as the
    # DES spawns them.
    for event, i in stalls:
        engine.spawn(stall(event, i), event.at)
    for i in range(p):
        engine.advance(node_main(i), 0.0)
        if config.collect_results:
            engine.advance(ms_sink(i), 0.0)
    elapsed = engine.run()
    if stall_log is not None:
        stall_log.extend(engine.marks)
    return LuSimResult(
        elapsed=elapsed,
        useful_flops=(2.0 / 3.0) * float(config.n) ** 3,
        config=config,
        trace=None,
        cpu_busy=engine.cpu_busy,
        fpga_busy=engine.fpga_busy,
        network_bytes=engine.net_bytes,
    )


def _block_mm_params(spec: MachineSpec, b: int, k: int, design, stripes):
    """Shared scalar precomputation for the block-MM closed forms."""
    if design is None:
        design = MatrixMultiplyDesign.for_device(spec.node.fpga.device, k=k)
    p = spec.p
    S = stripes if stripes is not None else b // k
    net = spec.network
    stripe_bytes = 2 * b * k * 8
    svc = net.latency + stripe_bytes / net.bandwidth
    b_d = min(8.0 * design.freq_hz, spec.node.fpga.dram_link_bandwidth)
    rate = spec.node.processor.sustained_flops("dgemm")
    m = p - 1
    L = net.links_per_node
    # arrivals[s][i]: when worker at wave position i holds stripe s.  The
    # sender launches every stripe as one all_of burst and the next burst
    # starts at the previous one's last wave completion.
    nwaves = -(-m // L)
    arrivals = [[0.0] * m for _ in range(S)]
    e0 = 0.0
    for s in range(S):
        wave_start = e0
        for j in range(nwaves):
            c = wave_start + svc
            for i in range(j * L, min((j + 1) * L, m)):
                arrivals[s][i] = c
            wave_start = c
        e0 = wave_start
    return design, p, S, b_d, rate, m, arrivals, e0


def analytic_block_mm(
    spec: MachineSpec,
    b: int,
    b_f: int,
    k: int,
    design: Optional[MatrixMultiplyDesign] = None,
    stripes: Optional[int] = None,
) -> float:
    """Latency of one cooperative block MM, bitwise equal to the DES.

    The Figure 5 schedule is conflict-free for every parameter choice:
    the sender's stripe waves serialise on its egress links, each
    worker's pipeline folds over its own resources only, and the two
    never collide at equal timestamps (service times are positive).
    """
    if not 0 <= b_f <= b:
        raise ValueError(f"b_f={b_f} outside [0, {b}]")
    if b % k:
        raise ValueError(f"b={b} must be a multiple of k={k}")
    design, p, S, b_d, rate, m, arrivals, makespan = _block_mm_params(
        spec, b, k, design, stripes
    )
    b_p = b - b_f
    stage_bytes = (b_f * k + b * k / (p - 1)) * 8
    stage_svc = 0.0 + stage_bytes / b_d
    cpu_t = (2.0 * b_p * k * (b / (p - 1))) / rate
    fpga_dur = (b_f * (b / (p - 1))) * S / design.freq_hz
    for i in range(m):
        t = 0.0
        fpga_done = None
        for s in range(S):
            a = arrivals[s][i]
            if a > t:
                t = a
            if b_f > 0:
                t = t + stage_svc
                if fpga_done is None:
                    fpga_done = t + fpga_dur
            if b_p > 0:
                t = t + cpu_t
        if fpga_done is not None and fpga_done > t:
            t = fpga_done
        if t > makespan:
            makespan = t
    return makespan


def analytic_block_mm_batch(
    spec: MachineSpec,
    b: int,
    b_fs: list[int],
    k: int,
    design: Optional[MatrixMultiplyDesign] = None,
    stripes: Optional[int] = None,
) -> list[float]:
    """Block-MM latencies for a whole ``b_f`` grid in one NumPy pass.

    Every elementwise operation mirrors :func:`analytic_block_mm` in
    value and order (IEEE-754 doubles either way), so each returned
    latency is bitwise identical to the scalar closed form and to the
    DES.  The stripe-arrival chain is shared across the grid -- it does
    not depend on ``b_f`` -- so the whole sweep costs one vectorised
    fold over stripes.
    """
    import numpy as np

    for b_f in b_fs:
        if not 0 <= b_f <= b:
            raise ValueError(f"b_f={b_f} outside [0, {b}]")
    if b % k:
        raise ValueError(f"b={b} must be a multiple of k={k}")
    design, p, S, b_d, rate, m, arrivals, e0 = _block_mm_params(spec, b, k, design, stripes)
    bf = np.asarray(b_fs, dtype=np.int64)
    bp = b - bf
    has_f = bf > 0
    has_p = bp > 0
    stage_svc = 0.0 + (bf * k + b * k / (p - 1)) * 8 / b_d
    cpu_t = (2.0 * bp * k * (b / (p - 1))) / rate
    fpga_dur = (bf * (b / (p - 1))) * S / design.freq_hz
    makespan = np.full(len(b_fs), e0)
    for i in range(m):
        t = np.zeros(len(b_fs))
        fpga_done = np.full(len(b_fs), -np.inf)
        fpga_started = np.zeros(len(b_fs), dtype=bool)
        for s in range(S):
            t = np.maximum(t, arrivals[s][i])
            staged = np.where(has_f, t + stage_svc, t)
            first = has_f & ~fpga_started
            fpga_done = np.where(first, staged + fpga_dur, fpga_done)
            fpga_started |= has_f
            t = staged
            t = np.where(has_p, t + cpu_t, t)
        t = np.maximum(t, fpga_done)
        makespan = np.maximum(makespan, t)
    return [float(x) for x in makespan]
