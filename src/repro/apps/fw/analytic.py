"""Closed forms of the distributed-FW simulation.

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
:class:`~repro.sim.analytic.Replay`.

A ``dma_stall`` window delays only its own node: it queues FIFO on that
node's ``B_d`` channel with the node's staging holds, and the rest of
the run follows through the node's times.  The fold keeps its phases
and runs each channel as that queue (:func:`_fold_stalls`), about a
seventh of the replay's time on the campaign's default design, and
logs the stall marks in the DES's order; the runs it cannot settle
without stepping through an instant go to
:class:`~repro.sim.stepped.StepReplay`.

:func:`analytic_fw_batch` vectorises the fold over a whole
``(l1, l2)`` split grid (the Figure 7 sweep) in one NumPy pass with
elementwise IEEE-754 double arithmetic, keeping each lane bitwise equal
to the scalar replay and hence to the DES.  Nothing in ``repro`` calls
it: the sweeps' scalar fast path is faster over the paper's grids.  It
stays only until the perfbench tracer stops patching it (ROADMAP
item 7).
"""

from __future__ import annotations

from math import inf
from operator import itemgetter, le
from typing import Optional, Sequence

from ...hw.fw_design import FloydWarshallDesign
from ...machine.system import MachineSpec
from ...obs.metrics import REGISTRY
from ...sim.analytic import NOMINAL_RATES, FastPathUnsupported, SteadyRates, fault_nodes
from ..engines import replay_schedule
from .schedule import fw_processes
from .simulate import FwSimConfig, FwSimResult

__all__ = ["analytic_fw", "analytic_fw_batch"]


def _fw_params(spec: MachineSpec, config: FwSimConfig, design, rates=NOMINAL_RATES):
    if design is None:
        design = FloydWarshallDesign.for_device(spec.node.fpga.device, k=config.k)
    layout = config.layout(spec.p)
    net = spec.network
    block_bytes = config.b * config.b * 8
    svc = net.latency + block_bytes / rates.network_bandwidth(net.bandwidth)
    op_cycles = design.tile_cycles(config.b)
    op_flops = 2.0 * float(config.b) ** 3
    freq = rates.fpga_clock(design.freq_hz)
    b_d = rates.b_d(spec.node.fpga.b_d(design.freq_hz))
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
    stall_log: Optional[list] = None,
) -> FwSimResult:
    """The FW schedule's closed form, without an engine (bitwise exact).

    ``rates`` folds steady rate faults into ``B_n``, ``F_f`` and ``B_d``,
    and its ``dma_stall`` windows into FIFO holds on each node's ``B_d``
    channel (see :func:`_fold_stalls`); their ``apply``/``revert`` marks
    are appended to ``stall_log`` in the DES's order.
    """
    if design is None:
        design = FloydWarshallDesign.for_device(spec.node.fpga.device, k=config.k)
    if rates.stalls:
        return _with_stalls(spec, config, design, rates, [] if stall_log is None else stall_log)
    params = _fw_params(spec, config, design, rates)
    p = spec.p
    t = [0.0] * p
    cpu_busy = [0.0] * p
    fpga_busy = [0.0] * p
    net_bytes = _phases(spec, config, params, t, cpu_busy, fpga_busy)
    return FwSimResult(
        elapsed=max(t),
        iterations_run=config.iterations_run,
        config=config,
        trace=None,
        cpu_busy=cpu_busy,
        fpga_busy=fpga_busy,
        network_bytes=net_bytes,
    )


def _phases(spec, config, params, t, cpu_busy, fpga_busy, start=(0, 0)) -> float:
    """Fold the stall-free phases from ``start`` = ``(iteration, phase)`` on.

    Advances the per-node times ``t`` and busy sums in place from their
    state at ``start`` and returns the bytes the broadcasts moved.
    """
    _, layout, block_bytes, svc, op_cycles, op_flops, freq, b_d, rate = params
    p = spec.p
    nb, l1, l2 = config.nb, config.l1, config.l2
    stage_bytes = 2 * block_bytes
    stage_svc = 0.0 + stage_bytes / b_d
    L = spec.network.links_per_node
    net_bytes = 0.0
    m = p - 1

    for it in range(start[0], config.iterations_run):
        owner = layout.iteration_owner(it)
        dests = [w for w in range(p) if w != owner]
        for phase in range(start[1] if it == start[0] else 0, nb):
            if phase == 0:
                # op1 on the diagonal block (owner's processor).
                t0 = t[owner]
                t[owner] = t0 + op_flops / rate
                cpu_busy[owner] += t[owner] - t0
            if m > 0:
                # Broadcast: link-limited waves in spawn order; the owner
                # resumes at the last completion (all_of over the sends).
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
    return net_bytes


#: The DES position of its setup, before the run: each process starts one
#: step after it, in start order (the stall processes first).
_SETUP = (-1.0, 0)


class _Defer(Exception):
    """A stall meets its node's own channel traffic at one instant."""


def _with_stalls(spec, config, design, rates, stall_log) -> FwSimResult:
    """A run with ``dma_stall`` windows: the fold, else the schedule's replay.

    The fold covers ``aggregate_ops`` runs; a per-op run replays the
    schedule on :class:`~repro.sim.stepped.StepReplay` (its pricer
    refuses multi-run FPGA jobs).  A fold that meets a same-instant stall
    replays too, counted under ``fastpath.deferral{app, reason}`` -- a
    counter kept apart from the ``fastpath.fallback`` ones, since the run
    stays analytic.
    """
    if config.aggregate_ops:
        try:
            return _fold_stalls(spec, config, design, rates, stall_log)
        except _Defer as exc:
            REGISTRY.counter("fastpath.deferral", app="fw", reason=str(exc)).inc()

    def processes(price):
        return fw_processes(config, spec.p, design.tile_cycles(config.b), price)

    fields = replay_schedule(spec, design.freq_hz, rates, processes, stall_log, "fw")
    return FwSimResult(iterations_run=config.iterations_run, config=config, **fields)


def _fold_stalls(spec, config, design, rates, stall_log) -> FwSimResult:
    """:func:`analytic_fw` with stall windows, for ``aggregate_ops`` runs.

    A stall only delays its own node, so the phase fold still holds;
    each node's ``B_d`` channel becomes a FIFO queue fed by its holds
    and its stalls in request order.  A hold or stall requested at ``a``
    is granted at ``a`` on a free channel, else when the request ahead
    of it is released, and released ``dur`` later; every stall's revert
    counts in ``elapsed``, as the DES's latest instant does.

    The marks must also come out in the DES's order.  The DES runs an
    instant's timers in the order they started, then its zero-delay
    posts, each one step after the entry that posted it (the step table
    of :class:`~repro.sim.stepped.StepReplay`).  So every entry that can
    lead to a mark carries its DES position ``(t, step, parent, rank)``:
    a timer's is ``(end, 0, the entry that started it, 0)``, a post's
    ``(t, step + 1, the entry that posted it, its rank among that
    entry's posts)``.  Tuples compare as the DES runs its entries, so
    sorting the marks by position is the DES's order, including stalls
    granted together on symmetric pivot-wave receivers.  The same
    positions settle whether a hold requested at its channel's release
    instant finds it free, whether a receiver that reaches its pivot
    wait at the pivot's arrival instant waits for the put, and whether
    a process that waits for its FPGA job's key at the job's end waits.

    A stall requested at the instant its node requests or releases a
    hold, or at another stall's request instant on its node, raises
    :class:`_Defer`, and the caller replays the run.
    """
    params = _fw_params(spec, config, design, rates)
    _, layout, block_bytes, svc, op_cycles, op_flops, freq, b_d, rate = params
    p = spec.p
    nb, l1, l2 = config.nb, config.l1, config.l2
    L = spec.network.links_per_node
    stage_bytes = 2 * block_bytes
    # fw_processes' per-phase op costs, as ReplayCosts prices them.
    op1 = op_flops / rate
    cpu_dur = (l1 * op_flops) / rate
    fpga_dur = (l2 * op_cycles) / freq
    if config.overlap:  # the channel holds before and after the FPGA launch
        before = 0.0 + stage_bytes / b_d
        after = 0.0 + stage_bytes * (l2 - 1) / b_d if l2 > 1 else None
    else:
        before, after = 0.0 + stage_bytes * l2 / b_d, None

    # Each node's stalls in request order: (at, spawn index, dur, mark).
    stalls: list[list] = [[] for _ in range(p)]
    spawns = 0
    for event in rates.stalls:
        for i in fault_nodes(event.node, p):
            stalls[i].append((event.at if event.at > 0 else 0.0, spawns, event.duration,
                              (event, i)))
            spawns += 1
    for lst in stalls:
        lst.sort(key=itemgetter(0, 1))
    requested = [frozenset(s[0] for s in lst) for lst in stalls]
    if any(len(r) < len(lst) for r, lst in zip(requested, stalls)):
        raise _Defer("same-instant-stalls")
    next_at = [lst[0][0] if lst else inf for lst in stalls]
    drained = [0] * p
    free_t = [-inf] * p  # release instant of the channel's last grant
    free_pos = [_SETUP] * p  # and the position of that release's entry
    marks: list = []  # (position, mark, phase)

    def drain(i: int, until: float) -> None:
        """Grant node ``i``'s stalls requested before ``until``."""
        lst = stalls[i]
        j, ft, fp = drained[i], free_t[i], free_pos[i]
        while j < len(lst) and lst[j][0] < until:
            at, spawn, dur, mark = lst[j]
            if at > ft:  # granted at its request: at its start, or as its sleep ends
                first = (0.0, 1, _SETUP, spawn)
                s = (at, 1, (at, 0, first, 0), 0) if at > 0 else (0.0, 2, first, 0)
            else:  # queued: granted by the release ahead of it
                s = (ft, fp[1] + 1, fp, 0)
            ft = s[0] + dur
            fp = (ft, 0, s, 0)
            marks.append((s, mark, "apply"))
            marks.append((fp, mark, "revert"))
            j += 1
        drained[i], free_t[i], free_pos[i] = j, ft, fp
        next_at[i] = lst[j][0] if j < len(lst) else inf

    def hold(i: int, a: float, pos: tuple, rank: int, dur: float) -> tuple:
        """Node ``i``'s hold requested at ``a`` in entry ``pos``, as that
        entry's ``rank``-th post: the entry that ends it."""
        if a in requested[i]:
            raise _Defer("stall-at-hold-instant")
        if next_at[i] < a:
            drain(i, a)
        ft, fp = free_t[i], free_pos[i]
        if a > ft or (a == ft and fp <= pos):  # released before the request
            g = (a, pos[1] + 1, pos, rank)
        else:  # granted by the release, as that entry's first post
            g = (ft, fp[1] + 1, fp, 0)
        h = (g[0] + dur, 0, g, 0)
        if h[0] in requested[i]:
            raise _Defer("stall-at-hold-instant")
        free_t[i], free_pos[i] = h[0], h
        return h

    # Per node: the time, the entry the process is running in, and the
    # rank of its next post there.
    t = [0.0] * p
    pos = [(0.0, 1, _SETUP, spawns + i) for i in range(p)]
    rank = [0] * p
    cpu_busy = [0.0] * p
    fpga_busy = [0.0] * p
    net_bytes = 0.0
    m = p - 1

    for step in range(config.iterations_run * nb):
        it, phase = divmod(step, nb)
        if next_at.count(inf) == p and all(map(le, free_t, t)):
            # Every stall granted and every channel free by its node's next
            # request: no mark is left to order, so the fold goes on bare.
            net_bytes += _phases(spec, config, params, t, cpu_busy, fpga_busy, (it, phase))
            break
        if phase == 0:
            owner = layout.iteration_owner(it)
            dests = [w for w in range(p) if w != owner]
            t0, e = t[owner], pos[owner]
            t[owner] = t0 + op1
            cpu_busy[owner] += t[owner] - t0
            pos[owner], rank[owner] = (t[owner], 0, (t0, e[1] + 1, e, rank[owner]), 0), 0
        a, e, r = t[owner], pos[owner], rank[owner]
        if m > 0:
            # The send processes start a step after the owner's entry, in
            # key order.  Wave one's egress grants come a step later, each
            # later one's from the end of the transfer ahead of it on the
            # link; a transfer's timer starts a step after its grant.  Its
            # end posts the queued egress grant, then the put, then the
            # receiver's get if it waits.
            wave: list = []
            wave_start = a
            for start in range(0, m, L):
                c = wave_start + svc
                xs = []
                for j, w in enumerate(dests[start:start + L]):
                    if wave:
                        g = (wave_start, 1, wave[j], 0)
                    else:
                        g = (a, e[1] + 2, (a, e[1] + 1, e, r + start + j), 0)
                    x = (c, 0, (g[0], g[1] + 1, g, 0), 0)
                    xs.append(x)
                    if c > t[w] or (c == t[w] and x > pos[w]):  # it waits for the put
                        t[w], pos[w] = c, (c, 1, x, 2 if start + L + j < m else 1)
                    else:  # the message is there: the get takes a step
                        pos[w] = (t[w], pos[w][1] + 1, pos[w], rank[w])
                    rank[w] = 0
                    net_bytes += block_bytes
                wave = xs
                wave_start = c
            # The last transfer's put ends its send process a step later,
            # whose event fires the owner's all_of a step after that.
            put = (wave_start, 1, wave[-1], 0)
            t[owner], pos[owner] = wave_start, (wave_start, 3, (wave_start, 2, put, 0), 0)
        else:  # all_of([]) resumes the owner one step later
            pos[owner] = (a, e[1] + 1, e, r)
        rank[owner] = 0
        for i in range(p):
            ti, e, r = t[i], pos[i], rank[i]
            if l2:
                e = hold(i, ti, e, r, before)
                ti = e[0]
                fpga_done = ti + fpga_dur
                fpga_busy[i] += fpga_done - ti
                # The job's process starts as the hold's end entry's second
                # post (a queued stall's grant is the first), gets its FPGA a
                # step later and starts its timer; its end posts the key.
                job = (ti, 2, (ti, 1, e, 1), 0)
                key = (fpga_done, 1, (fpga_done, 0, job, 0), 0)
                r = 2
                if after is not None:
                    e = hold(i, ti, e, r, after)
                    ti, r = e[0], 1
            else:  # the process sets its key itself
                fpga_done, key, r = ti, (ti, e[1] + 1, e, r), r + 1
            if l1:
                tc = ti + cpu_dur
                cpu_busy[i] += tc - ti
                e, r = (tc, 0, (ti, e[1] + 1, e, r), 0), 0
                ti = tc
            if key > e:  # the key is processed after the wait: resume there
                ti, e, r = fpga_done, key, 0
            t[i], pos[i], rank[i] = ti, e, r

    for i in range(p):
        drain(i, inf)
    marks.sort(key=itemgetter(0))
    stall_log.extend((mark, phase, at[0]) for at, mark, phase in marks)
    return FwSimResult(
        elapsed=max(max(t), marks[-1][0][0]),  # the last mark is a revert
        iterations_run=config.iterations_run,
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
