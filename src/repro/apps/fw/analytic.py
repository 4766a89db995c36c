"""Closed forms of the distributed-FW simulation, for stall-free runs.

Without DMA stalls the FW schedule of :mod:`repro.apps.fw.schedule` is
*structurally* conflict-free: each phase's broadcast serialises on the
owner's egress links in spawn-order waves, every other resource (CPU
lane, DMA channel, FPGA) is used serially by its own node's process,
and consecutive phases cannot collide because the owner always computes
for a strictly positive time between broadcasts.  The makespan is
therefore a pure fold over phases, and :func:`analytic_fw` evaluates
exactly the float arithmetic the DES would -- same operations, same
order, including the ``end - start`` busy-time accounting -- so every
field of the returned :class:`FwSimResult` is bitwise identical.  It
takes about a fifteenth of the time of running the schedule on
:class:`~repro.sim.analytic.Replay`, which is why it stays: a stall
window breaks the fold (it queues on one node's channel), so
:func:`~repro.apps.fw.simulate.simulate_fw` replays the schedule for
runs with stalls instead.

:func:`analytic_fw_batch` vectorises the fold over a whole
``(l1, l2)`` split grid (the Figure 7 sweep) in one NumPy pass with
elementwise IEEE-754 double arithmetic, keeping each lane bitwise equal
to the scalar replay and hence to the DES.
"""

from __future__ import annotations

from typing import Optional, Sequence

from ...hw.fw_design import FloydWarshallDesign
from ...machine.system import MachineSpec
from ...sim.analytic import NOMINAL_RATES, FastPathUnsupported, SteadyRates
from .simulate import FwSimConfig, FwSimResult

__all__ = ["analytic_fw", "analytic_fw_batch"]


def _fw_params(spec: MachineSpec, config: FwSimConfig, design, rates=NOMINAL_RATES):
    if rates.stalls:
        raise ValueError("the FW closed form has no stall term; simulate_fw replays stalls")
    if design is None:
        design = FloydWarshallDesign.for_device(spec.node.fpga.device, k=config.k)
    layout = config.layout(spec.p)
    net = spec.network
    block_bytes = config.b * config.b * 8
    svc = net.latency + block_bytes / rates.network_bandwidth(net.bandwidth)
    op_cycles = design.tile_cycles(config.b)
    op_flops = 2.0 * float(config.b) ** 3
    freq = rates.fpga_clock(design.freq_hz)
    b_d = rates.b_d(design.freq_hz, spec.node.fpga.dram_link_bandwidth)
    rate = spec.node.processor.sustained_flops(config.cpu_kernel)
    if svc <= 0.0 or op_cycles <= 0 or rate <= 0.0:
        raise FastPathUnsupported(
            "degenerate timing parameters (zero-cost ops would tie)",
            reason="unsupported-config",
        )
    return design, layout, block_bytes, svc, op_cycles, op_flops, freq, b_d, rate


def analytic_fw(
    spec: MachineSpec,
    config: FwSimConfig,
    design: Optional[FloydWarshallDesign] = None,
    rates: SteadyRates = NOMINAL_RATES,
) -> FwSimResult:
    """The FW schedule's closed form, without an engine (bitwise exact).

    ``rates`` folds steady rate faults into ``B_n``, ``F_f`` and ``B_d``;
    it must carry no ``dma_stall`` windows (:func:`simulate_fw` runs
    those on the schedule's replay).
    """
    design, layout, block_bytes, svc, op_cycles, op_flops, freq, b_d, rate = _fw_params(
        spec, config, design, rates
    )
    p = spec.p
    nb, l1, l2 = config.nb, config.l1, config.l2
    stage_bytes = 2 * block_bytes
    stage_svc = 0.0 + stage_bytes / b_d
    L = spec.network.links_per_node
    n_iters = config.iterations_run

    t = [0.0] * p
    cpu_busy = [0.0] * p
    fpga_busy = [0.0] * p
    net_bytes = 0.0
    m = p - 1

    for it in range(n_iters):
        owner = layout.iteration_owner(it)
        for phase in range(nb):
            if phase == 0:
                # op1 on the diagonal block (owner's processor).
                t0 = t[owner]
                t[owner] = t0 + op_flops / rate
                cpu_busy[owner] += t[owner] - t0
            if m > 0:
                # Broadcast: link-limited waves in spawn order; the owner
                # resumes at the last completion (all_of over the sends).
                dests = [w for w in range(p) if w != owner]
                wave_start = t[owner]
                pos = 0
                while pos < m:
                    c = wave_start + svc
                    for w in dests[pos:pos + L]:
                        if c > t[w]:
                            t[w] = c
                        net_bytes += block_bytes
                    pos += L
                    wave_start = c
                t[owner] = wave_start
            for i in range(p):
                ti = t[i]
                if l2 == 0:
                    fpga_done = ti
                elif config.aggregate_ops:
                    if config.overlap:
                        ti = ti + stage_svc
                        fd0 = ti
                        fpga_done = ti + (l2 * op_cycles) / freq
                        fpga_busy[i] += fpga_done - fd0
                        if l2 > 1:
                            ti = ti + (0.0 + stage_bytes * (l2 - 1) / b_d)
                    else:
                        ti = ti + (0.0 + stage_bytes * l2 / b_d)
                        fd0 = ti
                        fpga_done = ti + (l2 * op_cycles) / freq
                        fpga_busy[i] += fpga_done - fd0
                else:
                    # Per-operation granularity: ops chain back to back on
                    # the FPGA lane while the process keeps staging.
                    if config.overlap:
                        ti = ti + stage_svc
                        f = ti
                        for _ in range(l2):
                            fe = f + op_cycles / freq
                            fpga_busy[i] += fe - f
                            f = fe
                        fpga_done = f
                        for _ in range(l2 - 1):
                            ti = ti + stage_svc
                    else:
                        for _ in range(l2):
                            ti = ti + stage_svc
                        f = ti
                        for _ in range(l2):
                            fe = f + op_cycles / freq
                            fpga_busy[i] += fe - f
                            f = fe
                        fpga_done = f
                if l1 > 0:
                    if config.aggregate_ops:
                        tc = ti + (l1 * op_flops) / rate
                        cpu_busy[i] += tc - ti
                        ti = tc
                    else:
                        for _ in range(l1):
                            tc = ti + op_flops / rate
                            cpu_busy[i] += tc - ti
                            ti = tc
                if fpga_done > ti:
                    ti = fpga_done
                t[i] = ti
    return FwSimResult(
        elapsed=max(t),
        iterations_run=n_iters,
        config=config,
        trace=None,
        cpu_busy=cpu_busy,
        fpga_busy=fpga_busy,
        network_bytes=net_bytes,
    )


def analytic_fw_batch(
    spec: MachineSpec,
    configs: Sequence[FwSimConfig],
    design: Optional[FloydWarshallDesign] = None,
) -> list[FwSimResult]:
    """FW results for a grid of ``(l1, l2)`` splits in one NumPy pass.

    All configs must agree on everything except the split (the Figure 7
    shape) and use ``aggregate_ops``.  Each returned result is bitwise
    identical to :func:`analytic_fw` on the same config.
    """
    import numpy as np

    base = configs[0]
    for cfg in configs:
        if not cfg.aggregate_ops:
            raise FastPathUnsupported(
                "per-op granularity is not batchable", reason="unsupported-config"
            )
        if (cfg.n, cfg.b, cfg.k, cfg.overlap, cfg.iterations, cfg.cpu_kernel) != (
            base.n, base.b, base.k, base.overlap, base.iterations, base.cpu_kernel
        ):
            raise ValueError("batch configs must differ only in (l1, l2)")
    design, layout, block_bytes, svc, op_cycles, op_flops, freq, b_d, rate = _fw_params(
        spec, base, design
    )
    p = spec.p
    nb = base.nb
    stage_bytes = 2 * block_bytes
    stage_svc = 0.0 + stage_bytes / b_d
    L = spec.network.links_per_node
    n_iters = base.iterations_run
    npts = len(configs)
    l1a = np.asarray([c.l1 for c in configs], dtype=np.int64)
    l2a = np.asarray([c.l2 for c in configs], dtype=np.int64)
    has_f = l2a > 0
    has_p = l1a > 0
    many_f = l2a > 1

    t = [np.zeros(npts) for _ in range(p)]
    cpu_busy = [np.zeros(npts) for _ in range(p)]
    fpga_busy = [np.zeros(npts) for _ in range(p)]
    net_bytes = 0.0
    m = p - 1

    for it in range(n_iters):
        owner = layout.iteration_owner(it)
        for phase in range(nb):
            if phase == 0:
                t0 = t[owner]
                t[owner] = t0 + op_flops / rate
                cpu_busy[owner] = cpu_busy[owner] + (t[owner] - t0)
            if m > 0:
                dests = [w for w in range(p) if w != owner]
                wave_start = t[owner]
                pos = 0
                while pos < m:
                    c = wave_start + svc
                    for w in dests[pos:pos + L]:
                        t[w] = np.maximum(t[w], c)
                        net_bytes += block_bytes
                    pos += L
                    wave_start = c
                t[owner] = wave_start
            for i in range(p):
                ti = t[i]
                if base.overlap:
                    staged = np.where(has_f, ti + stage_svc, ti)
                    fd = np.where(has_f, staged + (l2a * op_cycles) / freq, ti)
                    fpga_busy[i] = fpga_busy[i] + np.where(has_f, fd - staged, 0.0)
                    ti = np.where(
                        many_f, staged + (0.0 + stage_bytes * (l2a - 1) / b_d), staged
                    )
                else:
                    staged = np.where(has_f, ti + (0.0 + stage_bytes * l2a / b_d), ti)
                    fd = np.where(has_f, staged + (l2a * op_cycles) / freq, ti)
                    fpga_busy[i] = fpga_busy[i] + np.where(has_f, fd - staged, 0.0)
                    ti = staged
                tc = ti + (l1a * op_flops) / rate
                cpu_busy[i] = cpu_busy[i] + np.where(has_p, tc - ti, 0.0)
                ti = np.where(has_p, tc, ti)
                t[i] = np.maximum(ti, fd)
    elapsed = t[0]
    for i in range(1, p):
        elapsed = np.maximum(elapsed, t[i])
    return [
        FwSimResult(
            elapsed=float(elapsed[j]),
            iterations_run=n_iters,
            config=configs[j],
            trace=None,
            cpu_busy=[float(cpu_busy[i][j]) for i in range(p)],
            fpga_busy=[float(fpga_busy[i][j]) for i in range(p)],
            network_bytes=net_bytes,
        )
        for j in range(npts)
    ]
