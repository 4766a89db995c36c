"""The distributed LU schedule (Section 5.1.3), written once.

The schedule is op-yielding generators (see
:class:`repro.sim.stepped.StepReplay` for the vocabulary) that both
engines run: :class:`~repro.sim.stepped.StepReplay` for the analytic
fast path and :class:`~repro.sim.interpret.DesInterpreter` for the DES.  It models the
paper's schedule at the opMM/superstripe level:

* In iteration ``t`` the owner ``P_{t mod p}`` runs opLU, then the m
  opL/opU pairs, on its processor (atomic routines -- its sends happen
  *between* routines, which is exactly the effect the paper blames for
  the measured-vs-predicted gap);
* after each routine the owner ships the input stripes for up to ``l``
  ready opMMs to the other ``p-1`` nodes (Equation 5's throttle), and
  ships any remainder after the panel completes;
* every worker pipelines each opMM: per superstripe it receives the
  stripe data (T_comm), stages the FPGA's share over the B_d channel
  (T_mem), kicks the FPGA (T_f share) and runs its own gemm share (T_p),
  so the Equation-4 balance emerges from resource contention rather than
  being scripted.  Each job's node-local ops go out as one ``stretch``
  op (a :class:`~repro.sim.analytic.StretchPlan` built once per run),
  which the replay folds into one entry;
* each opMM's partial results go to the block's storage node, whose sink
  process applies opMS; the next iteration's owner blocks on the opMS
  completions its panel needs (the recursion on A_11).

The same schedule runs the baselines: ``b_f = 0`` is the Processor-only
design, ``b_f = b`` the FPGA-only design.  Stripes are aggregated into
``superstripes`` chunks per opMM to bound the op count at scale;
:func:`block_mm_processes` is one cooperative block multiply at true
stripe granularity (Figure 5).

The schedule prices its physical work once per run through the engine's
pricer (see :mod:`repro.sim.interpret`), so neither engine converts
anything per op.

The replay takes the DES's same-instant order step by step (the per-op
step table is in :class:`~repro.sim.stepped.StepReplay`), so the
schedule needs no tie tags: the result sends and the local hand-over to
the sink are plain ``send`` and ``set`` + ``wait`` ops.
"""

from __future__ import annotations

from typing import Iterator

from ...kernels.flops import getrf_flops, trsm_flops
from ...sim.analytic import StretchPlan

__all__ = [
    "block_mm_processes",
    "iteration_jobs",
    "lu_processes",
    "released_after_opl",
    "released_after_opu",
]

_WORD = 8  # bytes per double


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


def lu_processes(config, p: int, price) -> list[tuple[str, Iterator]]:
    """``(name, ops)`` per process in spawn order: ``node{i}``, ``ms_sink{i}``.

    ``price`` turns the run's physical work into op costs, once per run:
    a :class:`~repro.sim.analytic.ReplayCosts` for the replay, or
    :class:`~repro.sim.interpret.Physical` for the DES.
    """
    if p < 2:
        raise ValueError("the distributed LU design needs p >= 2 nodes")
    nb, b, b_f, b_p, S = config.nb, config.b, config.b_f, config.b_p, config.superstripes
    l, kernel = config.l, config.cpu_mm_kernel
    collect, overlap = config.collect_results, config.overlap
    n_iters = nb if config.iterations is None else min(config.iterations, nb)

    # Per-worker, per-opMM sizes (physical: C broadcast, D scattered).
    job_bytes = b * b * _WORD + b * b * _WORD // (p - 1)
    stage_bytes = (b_f * b + b * b // (p - 1)) * _WORD  # FPGA share staged over B_d
    cpu_flops = 2.0 * b_p * b * (b / (p - 1))
    getrf = price.cpu(("dgetrf", getrf_flops(b)))
    trsm = price.cpu(("dtrsm", trsm_flops(b, b)))
    gemm, gemm_full = price.cpu((kernel, cpu_flops / S)), price.cpu((kernel, cpu_flops))
    opms = price.cpu((kernel, float(b * b)))
    stage, stage_full = price.chan(stage_bytes / S), price.chan(stage_bytes)
    # (b/k stripes) x (b_f * b/(p-1) cycles per stripe) per opMM.
    fpga = price.fpga((b_f * b * b / ((p - 1) * config.k), 2.0 * b_f * b * (b / (p - 1))))
    chunk = price.msg(job_bytes / S)
    result = price.msg(b * b * _WORD // (p - 1))  # each worker's E columns

    def workers_of(t: int) -> list[int]:
        owner = t % p
        return [i for i in range(p) if i != owner]

    def owner_iteration(t: int):
        m = nb - t - 1
        owner = t % p
        # The panel reads strip t as updated by iteration t-1's opMS.
        if t > 0 and collect:
            waits = [("ms", t - 1, u, t) for u in range(t, nb)]
            waits += [("ms", t - 1, t, v) for v in range(t + 1, nb)]
            yield ("wait_all", waits)
        yield ("cpu", owner, getrf, ("opLU", t))
        pending: list[tuple[int, int]] = []
        dsts = workers_of(t)

        def ship(limit: int):
            for _ in range(min(limit, len(pending))):
                u, v = pending.pop(0)
                for s in range(S):
                    tag = ("mm", t, u, v, s)
                    yield ("send_batch", [(owner, w, tag) for w in dsts], chunk)

        for j in range(1, m + 1):
            yield ("cpu", owner, trsm, ("opL", t, t + j))
            pending.extend(released_after_opl(t, j))
            yield from ship(l)
            yield ("cpu", owner, trsm, ("opU", t, t + j))
            pending.extend(released_after_opu(t, j))
            yield from ship(l)
        yield from ship(len(pending))

    # One opMM job's node-local ops on its worker, as StretchPlan steps
    # (keys: the S chunk messages, then the FPGA job's key): per
    # superstripe receive the chunk (T_comm), stage the FPGA share
    # (T_mem), kick the FPGA once (T_f) and run the CPU share (T_p).
    # b_f = 0 sets the FPGA key between the receives and the CPU share
    # (no overlap) or after them (overlap), so the plan stops there.
    if overlap:
        steps = []
        for s in range(S):
            steps.append(("wait", s))
            if b_f > 0:
                steps.append(("chan", stage))
                if s == 0:
                    steps.append(("fpga_spawn", fpga))
            if b_p > 0:
                steps.append(("cpu", gemm))
        tail = None
    elif b_f > 0:
        # Ablation: no overlap -- receive and stage everything, then compute.
        steps = [("wait", s) for s in range(S)] + [("chan", stage_full), ("fpga_spawn", fpga)]
        steps += [("cpu", gemm_full)] if b_p > 0 else []
        tail = None
    else:
        steps = [("wait", s) for s in range(S)]
        tail = StretchPlan([("cpu", gemm_full), ("wait", 0)])
    if b_f > 0:
        steps.append(("wait", S))
    plan = StretchPlan(steps, fpga_key=S)

    def job_ops(plan, keys: list, i: int, t: int, u: int, v: int) -> list:
        """The ops ``plan`` stands for, for job ``(t, u, v)`` on worker ``i``."""
        ops = []
        for code, x in plan.steps:
            if code == "wait":
                ops.append(("wait", keys[x]))
            elif code == "chan":
                ops.append(("chan", i, x, ("stage", t, u, v)))
            elif code == "cpu":
                ops.append(("cpu", i, x, ("gemm", t, u, v)))
            else:
                ops.append(("fpga_spawn", i, x, keys[-1], ("mm", t, u, v)))
        return ops

    def worker_iteration(i: int, t: int):
        owner = t % p
        for u, v in iteration_jobs(t, nb):
            fkey = ("fpga", i, t, u, v)
            keys = []
            for s in range(S):
                keys.append((owner, i, ("mm", t, u, v, s)))
            keys.append(fkey)
            # An engine that takes the job's ops over sends True.
            if not plan.durs or not (yield ("stretch", i, plan, keys)):
                yield from job_ops(plan, keys, i, t, u, v)
            if b_f == 0:
                yield ("set", fkey)
                if tail is None:
                    yield ("wait", fkey)
                elif not (yield ("stretch", i, tail, [fkey])):
                    yield from job_ops(tail, [fkey], i, t, u, v)
            if collect:
                dest = min(u, v) % p
                if dest != i:
                    yield ("send", (i, dest, ("ms", t, u, v, i)), result)
                else:
                    # The locally kept part goes to this node's own sink.
                    yield ("set", ("local_ms", i, t, u, v))
                    yield ("wait", ("local_ms", i, t, u, v))

    def ms_sink(i: int):
        """Receives A'_uv parts and applies the opMS subtractions."""
        for t in range(n_iters):
            for u, v in iteration_jobs(t, nb):
                if min(u, v) % p != i:
                    continue
                yield ("wait_all", [
                    ("local_ms", i, t, u, v) if w == i else (w, i, ("ms", t, u, v, w))
                    for w in workers_of(t)
                ])
                yield ("cpu", i, opms, ("opMS", t, u, v))
                yield ("set", ("ms", t, u, v))

    def node_main(i: int):
        for t in range(n_iters):
            if i == t % p:
                yield from owner_iteration(t)
            else:
                yield from worker_iteration(i, t)

    procs = []
    for i in range(p):
        procs.append((f"node{i}", node_main(i)))
        if collect:
            procs.append((f"ms_sink{i}", ms_sink(i)))
    return procs


def block_mm_processes(p: int, b: int, b_f: int, k: int) -> list[tuple[str, Iterator]]:
    """One cooperative ``b x b`` block multiply (Figure 5), as ops.

    Node 0 streams the ``b / k`` stripe pairs; nodes 1..p-1 pipeline
    receive / stage / compute, splitting rows ``b_f : b - b_f`` between
    FPGA and CPU.  Work stays physical: this schedule runs on the DES
    only (its replay is a closed form, :mod:`repro.apps.lu.analytic`).
    """
    S = b // k
    b_p = b - b_f
    stripe_bytes = 2 * b * k * _WORD  # one C column stripe + one D row stripe
    stage_bytes = (b_f * k + b * k / (p - 1)) * _WORD
    fpga = (b_f * (b / (p - 1)) * S, 0.0)
    gemm = ("dgemm", 2.0 * b_p * k * (b / (p - 1)))  # per stripe

    def sender():
        for s in range(S):
            yield ("send_batch", [(0, w, ("stripe", s)) for w in range(1, p)], stripe_bytes)

    def worker(i: int):
        started = False
        for s in range(S):
            yield ("wait", (0, i, ("stripe", s)))
            if b_f > 0:
                yield ("chan", i, stage_bytes, ("stage", s))
                if not started:
                    yield ("fpga_spawn", i, fpga, ("fpga", i), ("mm", i))
                    started = True
            if b_p > 0:
                yield ("cpu", i, gemm, ("gemm", s))
        if started:
            yield ("wait", ("fpga", i))

    return [("sender", sender())] + [(f"worker{i}", worker(i)) for i in range(1, p)]
