"""Analytic no-contention fast path: exact schedule replay without a DES.

Most points in the paper's sweep grids are *uncontended*: every resource
grant in the discrete-event simulation is either immediate or ordered by
strict FIFO arrival, so the makespan is a deterministic function of the
partition/machine parameters and can be computed by replaying the
schedule's arithmetic directly -- same floating-point operations, same
order -- without event objects, generator-driven processes or a calendar
queue.  The result is **bitwise identical** to the DES on every point
the fast path accepts, at a fraction of the cost.

Two layers live here:

* :class:`Replay` -- a chronological replay engine for the LU pipeline,
  which queues on resources.  It keeps per-resource FIFO queues and a
  single time-ordered heap, but no event/process objects, and folds an
  LU worker's node-local opMM pipeline into one heap entry per stretch
  (:class:`StretchPlan`).  The MM ring and the FW runs FW's closed form
  hands over replay on :class:`repro.sim.stepped.StepReplay` alone.
  A built-in *ambiguity detector* refuses (raises
  :class:`FastPathUnsupported`) whenever same-timestamp acquisitions of
  one FIFO queue from different tie classes meet and any of them has to
  wait -- the situation in which the DES outcome depends on its
  intra-timestamp micro-ordering.  Everything else is order-independent
  or ordered by a written rule:

  - grants that all succeed immediately commute;
  - float ``max`` is a selection, not an arithmetic blend;
  - acquisitions at *distinct* timestamps are ordered by time alone;
  - same-timestamp acquisitions of *one* tie class (one process spawning
    a batch of transfers, or the result sends of one LU job) arrive in a
    fixed documented order in both engines, so FIFO service order
    matches by induction.

  The tie classes are checked by the differential tests, not proved.
  A refusal (reason ``ambiguous-tie``) is only ``Replay``'s signal to
  hand the schedule, like one whose stretch fold defers, to
  :class:`~repro.sim.stepped.StepReplay`, which takes the DES's
  same-instant order step by step and refuses nothing (see
  :func:`repro.apps.engines.replay_schedule`); it is no
  ``fastpath.fallback`` reason.

* Mode resolution -- ``fast_path`` arguments on the ``simulate_*``
  entry points accept ``"auto"`` (use the fast path when eligible, fall
  back to the DES otherwise), ``"on"`` (raise if ineligible) and
  ``"off"`` (always DES).  ``None`` defers to the process default:
  :func:`set_fast_path_mode`, then the ``REPRO_FAST_PATH`` environment
  variable, then ``"auto"``.

Usage counters land in the process metrics registry so sweeps can report
coverage (see docs/performance.md):

- ``fastpath.points{app,path}`` -- points served per app by
  ``analytic`` vs ``des``;
- ``fastpath.fallback{app,reason}`` -- why points fell back
  (``trace`` / ``monitor`` / ``faults`` / ``node-specs`` /
  ``unsupported-config`` / ``disabled``);
- ``fastpath.deferral{app,reason}`` -- runs whose closed form (FW's
  stall fold, see :mod:`repro.apps.fw.analytic`) or stretch fold (LU,
  reason ``instant``; see :class:`Replay`) handed them to
  :class:`~repro.sim.stepped.StepReplay`; created on the first
  deferral and left out of :func:`fastpath_summary`;
- ``replay.events{engine}`` -- heap entries each replay engine run
  pushed (``replay``: :class:`Replay`'s pushes; ``stepped``:
  :class:`~repro.sim.stepped.StepReplay`'s timers plus same-instant
  entries), read from state the engines keep, with no per-event
  increment (:func:`repro.apps.engines.replay_schedule` adds them);
- ``replay.folded{engine}`` -- the ops a run's stretch folds took over
  without a heap entry each.

Faults fold in: a fault injector whose scenario only scales service
rates for the whole run on every node, plus any number of ``dma_stall``
windows, hands them over as :class:`SteadyRates`.  The replays apply
the factors to ``B_n``, ``F_f`` and ``B_d`` exactly as the DES injector
does.  The LU and MM schedule replays also hold their ``B_d`` channel
queue for each stall window, as the DES injector holds the channel's
grant lock (:func:`repro.apps.engines.replay_schedule`), and FW's closed
form folds the same holds (:func:`repro.apps.fw.analytic.analytic_fw`;
see docs/performance.md).
"""

from __future__ import annotations

import os
from collections import deque
from dataclasses import dataclass
from heapq import heappop, heappush
from itertools import accumulate, count
from typing import Iterable, Optional, Sequence

from ..obs.metrics import REGISTRY

__all__ = [
    "FAST_PATH_ENV_VAR",
    "FAST_PATH_MODES",
    "FastPathUnsupported",
    "FoldDeferred",
    "NOMINAL_RATES",
    "Replay",
    "ReplayCosts",
    "SteadyRates",
    "StretchPlan",
    "fast_path_refusal",
    "fastpath_summary",
    "fault_nodes",
    "note_fallback",
    "note_point",
    "resolve_fast_path",
    "scale_in_order",
    "set_fast_path_mode",
    "try_fast_path",
]

#: Environment variable holding the process-default fast-path mode.
FAST_PATH_ENV_VAR = "REPRO_FAST_PATH"

#: Valid fast-path modes.
FAST_PATH_MODES = ("auto", "on", "off")

_MODE_OVERRIDE: Optional[str] = None


class FastPathUnsupported(Exception):
    """The analytic fast path cannot reproduce this run bitwise.

    ``reason`` is a short category for counters/manifests
    (``ambiguous-tie``, ``monitor``, ``faults``, ...); ``str(exc)``
    carries the full diagnostic.
    """

    def __init__(self, detail: str, reason: str = "ambiguous-tie") -> None:
        super().__init__(detail)
        self.reason = reason


def set_fast_path_mode(mode: Optional[str]) -> Optional[str]:
    """Set the process-default mode (None restores env/``"auto"``).

    Returns the previous override so callers can restore it.
    """
    global _MODE_OVERRIDE
    if mode is not None and mode not in FAST_PATH_MODES:
        raise ValueError(f"fast_path must be one of {FAST_PATH_MODES}, got {mode!r}")
    prev = _MODE_OVERRIDE
    _MODE_OVERRIDE = mode
    return prev


def resolve_fast_path(mode: Optional[str] = None) -> str:
    """The effective mode for a ``fast_path`` argument (see module doc)."""
    raw = mode if mode is not None else _MODE_OVERRIDE
    if raw is None:
        raw = os.environ.get(FAST_PATH_ENV_VAR, "").strip().lower() or "auto"
    if raw not in FAST_PATH_MODES:
        raise ValueError(f"fast_path must be one of {FAST_PATH_MODES}, got {raw!r}")
    return raw


def scale_in_order(value: float, factors: Iterable[float]) -> float:
    """``value`` times each factor in turn: ``(value * f1) * f2``.

    Never a precomputed product: float multiplication is not
    associative, and the DES fault injector and the analytic replays
    must agree bitwise, so both scale through here.
    """
    for factor in factors:
        value *= factor
    return value


def fault_nodes(node: Optional[int], p: int) -> "range | tuple[int, ...]":
    """The node ids a fault aimed at ``node`` hits on a ``p``-node machine.

    ``None`` means every node.  An id outside the machine raises the
    :class:`ValueError` both the DES injector and the folded LU replay
    report.
    """
    if node is None:
        return range(p)
    if not 0 <= node < p:
        raise ValueError(f"fault event targets node {node}, but the machine has p={p}")
    return (node,)


@dataclass(frozen=True)
class SteadyRates:
    """Faults folded into an analytic replay: steady rates and stall windows.

    ``link``, ``clock`` and ``dram`` list one target's factors in the
    order the fault injector applies them (see :func:`scale_in_order`).
    ``stalls`` lists the ``dma_stall`` events (anything with ``at``,
    ``duration`` and ``node``) in :meth:`FaultScenario.expand` order, the
    order the injector spawns its stall processes in.  The LU and MM
    schedule replays model them as FIFO holds on the ``B_d`` channel
    queue, and so does :func:`~repro.apps.fw.analytic.analytic_fw` (the
    batched FW grid takes none).
    """

    link: tuple[float, ...] = ()  # link_slowdown: network bandwidth B_n
    clock: tuple[float, ...] = ()  # fpga_throttle: design clock F_f
    dram: tuple[float, ...] = ()  # dram_contention: FPGA<->DRAM channel B_d
    stalls: tuple = ()  # dma_stall: holds on the B_d channel

    def network_bandwidth(self, b_n: float) -> float:
        """``B_n`` as every send reads it after the link slowdowns."""
        return scale_in_order(b_n, self.link)

    def fpga_clock(self, f_f: float) -> float:
        """The throttled design clock ``F_f`` the FPGA runs cycles at."""
        return scale_in_order(f_f, self.clock)

    def b_d(self, b_d: float) -> float:
        """``B_d`` under DRAM contention.

        The DES fixes the channel at the nominal ``b_d``
        (:meth:`~repro.machine.fpga.FpgaSpec.b_d` of the *nominal* clock)
        when the FPGAs are configured; contention then scales that
        channel and a clock throttle leaves it alone.
        """
        return scale_in_order(b_d, self.dram)


#: No rate faults: every replay's nominal arithmetic.
NOMINAL_RATES = SteadyRates()


class ReplayCosts:
    """Physical work priced as :class:`Replay` op costs for one run.

    Each method evaluates the float arithmetic the DES machine models
    evaluate at request time (``kernel_time``, ``BandwidthChannel``,
    ``FpgaFabric.run_cycles``, ``Interconnect.transfer_time``), on
    ``spec``'s uniform nodes with ``rates`` folded in, so a schedule
    priced here replays bitwise.  ``freq_hz`` is the configured design's
    nominal clock.
    """

    def __init__(self, spec, freq_hz: float, rates: SteadyRates = NOMINAL_RATES) -> None:
        net = spec.network
        self.processor = spec.node.processor
        self.latency = net.latency
        self.b_n = rates.network_bandwidth(net.bandwidth)
        self.freq = rates.fpga_clock(freq_hz)
        self.b_d = rates.b_d(spec.node.fpga.b_d(freq_hz))

    def cpu(self, work: tuple) -> float:
        """``(kernel, flops)`` -> seconds on the CPU lane."""
        return self.processor.kernel_time(*work)

    def chan(self, nbytes: float) -> float:
        """Bytes -> seconds on the ``B_d`` channel (latency 0.0)."""
        return 0.0 + nbytes / self.b_d

    def fpga(self, work: tuple) -> float:
        """``(cycles, flops)`` -> seconds of FPGA time.

        A job of several back-to-back runs, ``(cycles, flops, runs)``,
        refuses with reason ``unsupported-config``: the replay holds the
        FPGA once per job.
        """
        if len(work) > 2:
            raise FastPathUnsupported(
                "multi-run FPGA jobs are DES-only", reason="unsupported-config"
            )
        return work[0] / self.freq

    def msg(self, nbytes: float) -> tuple:
        """Bytes -> ``(svc, size)``; a DES send coerces sizes to int."""
        size = int(nbytes)
        return (self.latency + size / self.b_n, size)


def _eligibility(
    trace: bool,
    node_specs: Optional[list],
    monitor: Optional[object],
    faults: Optional[object],
) -> tuple[Optional[str], Optional[SteadyRates]]:
    """``(refusal reason, fold)``: exactly one of the two is None.

    No injector folds to :data:`NOMINAL_RATES`.  Only injectors that
    offer ``steady_rates()`` can fold; duck-typed stubs with just
    ``install`` always refuse.  The injector is asked only once the
    other kwargs are eligible.
    """
    if trace:
        return "trace", None
    if node_specs is not None:
        return "node-specs", None
    if monitor is not None:
        return "monitor", None
    if faults is None:
        return None, NOMINAL_RATES
    steady_rates = getattr(faults, "steady_rates", None)
    fold = steady_rates() if callable(steady_rates) else None
    return ("faults" if fold is None else None), fold


def fast_path_refusal(
    trace: bool = False,
    node_specs: Optional[list] = None,
    monitor: Optional[object] = None,
    faults: Optional[object] = None,
) -> Optional[str]:
    """Why these ``simulate_*`` kwargs force the DES; None when eligible.

    Traces and monitors observe DES internals the analytic replay does
    not have; heterogeneous ``node_specs`` change per-node rates the
    replays assume uniform.  A fault injector is eligible only when its
    scenario folds into :class:`SteadyRates`: every event a rate fault
    applied at ``t = 0`` on every node for the whole run, or a
    ``dma_stall`` (see :meth:`repro.faults.FaultInjector.steady_rates`);
    any other fault timeline refuses with reason ``faults``.  Stalls pass
    this check; LU's and MM's schedule replays and FW's closed form fold
    them.
    """
    return _eligibility(trace, node_specs, monitor, faults)[0]


def note_point(app: str, path: str) -> None:
    """Count one simulated point served by ``path`` (analytic|des)."""
    REGISTRY.counter("fastpath.points", app=app, path=path).inc()


def note_fallback(app: str, reason: str) -> None:
    """Count one fast-path fallback with its category."""
    REGISTRY.counter("fastpath.fallback", app=app, reason=reason).inc()


def fastpath_summary(registry=None) -> Optional[dict]:
    """Aggregate the fast-path counters for manifests and benchmarks.

    Returns ``{"analytic": n, "des": m, "fallback": {reason: count}}``,
    or ``None`` when no point has been counted (fast-path-unaware run).
    """
    reg = registry if registry is not None else REGISTRY
    out = {"analytic": 0, "des": 0}
    fallback: dict[str, int] = {}
    seen = False
    for item in reg.snapshot():
        name = item.get("name")
        if name == "fastpath.points":
            seen = True
            path = item.get("labels", {}).get("path", "des")
            out[path] = out.get(path, 0) + int(item.get("value", 0))
        elif name == "fastpath.fallback":
            seen = True
            reason = item.get("labels", {}).get("reason", "unknown")
            fallback[reason] = fallback.get(reason, 0) + int(item.get("value", 0))
    if not seen:
        return None
    out["fallback"] = dict(sorted(fallback.items()))
    return out


def try_fast_path(
    app: str,
    solver,
    mode: Optional[str] = None,
    trace: bool = False,
    node_specs: Optional[list] = None,
    monitor: Optional[object] = None,
    faults: Optional[object] = None,
    stall_log: Sequence = (),
):
    """The shared ``fast_path`` hook for the ``simulate_*`` entry points.

    Resolves ``mode``, checks kwargs eligibility, runs ``solver(rates)``
    (returning the analytic result under the folded :class:`SteadyRates`,
    :data:`NOMINAL_RATES` without faults) and records usage counters.
    Returns the analytic result, or ``None`` when the caller must run
    the DES.  With ``mode == "on"`` an ineligible or refused run raises
    :class:`FastPathUnsupported` instead of falling back.  The fold is
    evaluated once per call.

    A folded injector is marked installed only once the replay has
    succeeded (``install_folded``), so a refused replay still hands the
    DES an unused injector.  ``stall_log`` is the list the solver's
    replay filled with its stall grant/release marks (the ``stall`` op
    of :class:`Replay`); it is handed to ``install_folded``.
    """
    mode = resolve_fast_path(mode)
    if mode == "off":
        note_fallback(app, "disabled")
    else:
        reason, fold = _eligibility(trace, node_specs, monitor, faults)
        if reason is None:
            try:
                result = solver(fold)
            except FastPathUnsupported as exc:
                if mode == "on":
                    raise
                reason = exc.reason
            else:
                if faults is not None:
                    faults.install_folded(stall_log)
                note_point(app, "analytic")
                return result
        if mode == "on":
            raise FastPathUnsupported(
                f"fast_path='on' but this {app} run requires the DES ({reason})",
                reason=reason,
            )
        note_fallback(app, reason)
    note_point(app, "des")
    return None


# ----------------------------------------------------------------- engine


class FoldDeferred(Exception):
    """A stretch fold met an order it cannot reproduce (see :class:`Replay`):
    two things at one of its instants whose same-instant order only the
    unfolded replay knows.  The run replays on
    :class:`~repro.sim.stepped.StepReplay`, counted under
    ``fastpath.deferral{app, reason=instant}``."""


class _Q:
    """One FIFO resource queue (link lane, CPU lane, FPGA, DMA channel).

    ``q`` holds waiters only while all ``cap`` slots are taken: a release
    hands its slot straight to the FIFO head, so ``in_use < cap`` means
    a free slot and nobody waiting.  A waiter is ``(dur, kind, a, b)``;
    granted at ``t`` it becomes the heap entry ``(t + dur, t, seq, kind,
    a, b)``, except a transfer waiting for egress (kind None), which
    moves on to its ingress queue.  ``until`` is the end of the latest
    hold granted.  While a stretch folds its node's CPU lane (``fold``),
    ``cap`` is 0, so every request reaches :meth:`Replay._acq`.
    """

    __slots__ = ("cap", "in_use", "q", "last_t", "last_burst", "last_waited", "name", "until",
                 "fold")

    def __init__(self, cap: int, name: str) -> None:
        self.cap = cap
        self.in_use = 0
        self.q: deque = deque()
        self.last_t = -1.0
        self.last_burst: Optional[object] = None
        self.last_waited = False
        self.name = name
        self.until = 0.0
        self.fold: Optional[_Stretch] = None


class StretchPlan:
    """The node-local ops a ``stretch`` op stands for, one plan per run.

    ``steps`` lists ``(code, x)`` per op, all on the stretch's node:
    ``("chan", dur)`` and ``("cpu", dur)`` hold its channel and CPU lane
    for ``dur > 0``; ``("fpga_spawn", dur)`` starts an FPGA job of
    ``dur > 0`` that sets the op's key ``fpga_key``; ``("wait", n)``
    waits on its ``n``-th key.  ``durs`` are the holds' durations in
    order, ``cpu`` tells which are CPU holds, ``before[pos]`` counts the
    holds before step ``pos``, and ``spawn`` is the FPGA step's position
    (``fpga`` its duration), so holds that follow each other are timed by
    one :func:`itertools.accumulate` (the same additions, in order).

    ``at[pos]``, for a hold at ``pos``, is ``(cpu, waits, own, full)``:
    whether it is a CPU hold; the waits after it as ``(position, key)``,
    leaving out the one on the FPGA key when the job is spawned after
    ``pos`` and before it, whose position is ``own`` (else None); and
    :meth:`span` up to the plan's end.
    """

    __slots__ = ("steps", "fpga_key", "durs", "cpu", "before", "spawn", "fpga", "at", "_spans")

    def __init__(self, steps, fpga_key: Optional[int] = None) -> None:
        self.steps = steps = tuple(steps)
        self.fpga_key = fpga_key
        durs: list = []
        cpu: list = []
        before: list = []
        self.spawn = self.fpga = None
        for pos, (code, x) in enumerate(steps):
            before.append(len(durs))
            if code == "chan" or code == "cpu":
                cpu.append(code == "cpu")
                durs.append(x)
            elif code == "fpga_spawn":
                self.spawn, self.fpga = pos, x
        before.append(len(durs))
        self.durs, self.cpu, self.before = tuple(durs), tuple(cpu), tuple(before)
        sp = self.spawn
        self._spans: dict = {}
        self.at: list = [None] * len(steps)
        for j, (code, _) in enumerate(steps):
            if code != "chan" and code != "cpu":
                continue
            waits, own = [], None
            for pos, (code2, x) in enumerate(steps):
                if pos > j and code2 == "wait":
                    if x == fpga_key and sp is not None and j < sp < pos and own is None:
                        own = pos
                    else:
                        waits.append((pos, x))
            self.at[j] = (code == "cpu", tuple(waits), own, self.span(j, len(steps), own))

    def span(self, j: int, stop: int, own: Optional[int]) -> tuple:
        """``(durs, gemms, spawn, reached)`` of the holds from step ``j`` to
        step ``stop``: their durations, the gemms' offsets among them, the
        offset of the hold the FPGA job is spawned after (None: not
        spawned there) and whether its key's wait is reached."""
        span = self._spans.get((j, stop))
        if span is None:
            h0, h1 = self.before[j], self.before[stop]
            sp = self.spawn
            span = self._spans[j, stop] = (
                self.durs[h0:h1], tuple(m - h0 for m in range(h0, h1) if self.cpu[m]),
                self.before[sp] - h0 if sp is not None and j < sp < stop else None,
                own is not None and own < stop)
        return span


#: What :meth:`Replay._fold` is handed for a list not taken over yet, and
#: returns when it declines one.
_TAKE = object()


class _Stretch:
    """One process's steps ``plan.steps[k:j]`` on node ``i``, folded at ``t0``.

    ``keys`` are the ``stretch`` op's keys; the fold stopped at step ``j``
    (a wait on a key not set then) or ran through the plan, and ``after``
    is the op the process yielded after it (None: it finished).  The fold
    records the end ``end``, the instant ``vpt`` at which the unfolded
    replay pushes the entry that resumes the process then and the FPGA job
    spawned (from ``fs`` to ``fe``).  Holds that follow each other keep
    their boundaries in ``ends`` (``ends[m]`` starts hold ``m``), the
    gemms among them as offsets in ``gemms``.  :meth:`Replay._play`
    re-times the steps behind the lane's outside requests ``intr`` (``[t,
    dur, who, start]``) into the virtual instants ``inst`` (hold ends,
    and ``t0`` when the first CPU request is made then), the gemms
    ``owed`` to ``cpu_busy`` as ``(end, start)`` (the first ``paid``
    already added) and ``waits``, whether any CPU hold waited for the
    lane (which is free at ``lane0``); ``owed`` is None until then.
    ``tok`` is the seq of the live end entry, ``root`` that of the first
    (the fold's place in push order).
    """

    fs = fe = intr = owed = None
    paid = 0
    waits = False

    def twin(self, other: "_Stretch") -> bool:
        """The same hold boundaries from the same fold instant, nothing
        re-timed: every entry of each was pushed at the same instant as
        the other's, so the unfolded replay runs the two in fold order at
        every instant."""
        return (self.owed is None and other.owed is None and self.vpt == other.vpt
                and self.fs == other.fs and self.ends == other.ends)


class Replay:
    """Chronological replay of a DES schedule without event objects.

    :func:`repro.apps.engines.replay_schedule` runs LU schedules on it,
    where twin workers share every instant and a step per same-instant
    DES step would cost a fifth of a sweep; every other schedule replays
    on :class:`~repro.sim.stepped.StepReplay` alone.

    Schedules are plain generators yielding *ops* (tuples); the engine
    drives each generator with :meth:`advance` and orders everything on
    one ``(time, push time, seq)`` heap.  The same schedules run on the
    DES through :class:`repro.sim.interpret.DesInterpreter`, which
    documents the key and label conventions; here each op's cost slot
    holds what :class:`ReplayCosts` made of its physical work, and labels
    are ignored.  Supported ops:

    ``("cpu", i, dur, label)``
        Hold node *i*'s CPU lane for ``dur``; busy time accrues as
        ``end - start`` exactly like ``ComputeNode.cpu_run``.
    ``("chan", i, dur, label)``
        Hold node *i*'s DRAM-to-FPGA channel for ``dur``.
    ``("fpga_spawn", i, dur, key, label)``
        Non-blocking FPGA job; sets ``key`` when it completes.
    ``("send", key, (svc, size), tie)``
        One network transfer from ``key[0]`` to ``key[1]`` that sets
        ``key`` on completion; the generator resumes then (mirrors a
        blocking DES send).  ``tie`` tags the transfer's tie class
        (see below).
    ``("send_batch", keys, (svc, size))``
        A burst of concurrent transfers spawned at one instant; the
        generator resumes when all complete (``all_of`` over sends).
    ``("wait", key)`` / ``("wait_all", keys)``
        Block until the named completion events are set.
    ``("set", key)``
        Set a completion event immediately.
    ``("stretch", i, plan, keys)``
        The ops a :class:`StretchPlan` stands for, on node *i*, with the
        keys they wait on and set.  Sent None (every engine that only
        steps the process), the process goes on to yield those ops one by
        one; sent True, it skips them, and the engine runs them itself.
        The DES takes no step for the op.  It promises that nothing else
        uses node *i*'s channel and FPGA but stall windows, and that the
        process waits for an FPGA job's key before it spawns another.
        This engine takes the ops over and folds them (see below).
    ``("stall", i, dur, mark)``
        A ``dma_stall`` window: hold node *i*'s channel for ``dur`` in
        FIFO order with the schedule's own holds.  Like the DES fault
        process it is logged one step after its grant (``apply``) and
        right after its release (``revert``), as ``(mark, phase, t)``
        entries in :attr:`marks`; the generator is not resumed.

    The ambiguity detector lives in :meth:`_acq`: same-timestamp
    acquisitions of one queue are allowed only if all are granted
    immediately or all share one *tie class* (the same ``send_batch``
    burst, or an explicit ``tie`` tag whose FIFO order the schedule
    reproduces by construction).  Once two classes have met at an
    instant, no later acquisition at it may wait: comparing each
    acquisition with the previous one alone let a third, waiting one
    through after two granted ones of different classes.  Any other
    same-timestamp contention raises :class:`FastPathUnsupported`
    (``ambiguous-tie``) -- only a signal: the caller replays the schedule
    on :class:`~repro.sim.stepped.StepReplay` (the DES's order, one queue
    entry per same-instant step), which refuses nothing, so refusals
    cost accuracy nothing and no run falls back for them.  The tie
    classes are checked by the differential tests, not proved.  The
    detector sees queue acquisitions only: it does not check the order
    in which stall windows log their marks, which the tests compare
    with ``StepReplay``'s on LU's default-model campaign draws.

    **Stretches.**  At a ``stretch`` op :meth:`_fold` takes the plan's
    ops over and times them in closed form, up to the first wait on a
    key not set yet: holds that follow each other in one
    :func:`itertools.accumulate`, the FPGA job from its spawn, and the
    wait on its key.  It pushes one ``"E"`` entry for the instant the
    process would resume, at that wait or at the op after the plan (a
    send or a ``set``); that entry resumes it there, and a
    wait's key, once set, resumes the fold (the ``("fold", ...)`` op, an
    internal one).  An FPGA job whose key the stretch does not reach
    stays a real ``"F"`` entry, and a later stretch of the job waits for
    it as for its own.  The folded holds are *virtual*: they are never
    pushed, and ``cpu_busy`` adds them in the order their entries would
    have popped.  The lane's, channel's and FPGA's ``last_t`` /
    ``last_burst`` / ``last_waited`` are left as they were: every
    folded acquisition asks before the stretch's end, and the detector
    reads them only for an acquisition at the instant of the last one,
    so they read as if the folded acquisitions had happened.
    Unfolded, an entry's place at its instant is its push time, then its
    push order; the heap key ``(time, push time, seq)`` sorts the same,
    and an end entry carries the push time of the entry it stands for
    (the start of the last hold, or the FPGA's end when the process
    waits for it), so it sorts exactly unless another entry has the same
    time and push time.  While a stretch is on, its CPU lane refuses the
    fast grant:

    - another process's CPU request (the LU opMS sink's) is granted
      from the stretch's lane timeline -- inside a virtual hold it waits
      to the hold's end (a ``"C"`` entry pushed at once), in a gap it
      gets the lane then -- and the stretch is re-timed behind it
      (:meth:`_intrude`); its hold's end adds the gemms ``owed`` before
      it first, so ``cpu_busy`` adds up in the order the holds pop
      unfolded;
    - a request or a release at one of the stretch's own instants, where
      the order of the unfolded replay's same-instant steps would
      decide, raises :class:`FoldDeferred` (``instant``), and so does a
      ``"C"``/``"E"``/``"F"`` entry whose time and push time another
      entry shares, unless both are stretches' entries whose order
      :meth:`_before` can tell (twins, :meth:`_Stretch.twin`, pop in fold
      order; others compare the pushes back to their folds);
      :func:`repro.apps.engines.replay_schedule` then replays the run on
      :class:`~repro.sim.stepped.StepReplay`.  A request at the fold's
      own instant where the process asked for the lane too is the
      detector's ambiguous tie, and refuses as it does unfolded.

    While a spawned ``stall`` window is pending, ``stretch`` ops fold
    nothing: the channel may not be promised to the schedule, and the
    process yields its ops one by one.

    The hot paths are inlined for speed.  Heap entries are flat tuples
    ``(time, push time, seq, kind, a, b)`` (a hold's push time is its
    start), dispatched in :meth:`run` (and ops in :meth:`advance`) in
    the order of how often each occurs in the LU sweeps, and a transfer
    is the tuple ``(src, dst, svc, size, key, burst, gen, group)``.
    :meth:`work` reads the run's heap entries and folded ops.
    """

    def __init__(self, p: int, links: int) -> None:
        self.heap: list = []
        self._seq = count(1).__next__  # heap tie-breaker: push order
        self.egress = [_Q(links, f"egress[{i}]") for i in range(p)]
        self.ingress = [_Q(links, f"ingress[{i}]") for i in range(p)]
        self.lane = [_Q(1, f"lane[{i}]") for i in range(p)]
        self.fpga = [_Q(1, f"fpga[{i}]") for i in range(p)]
        self.chan = [_Q(1, f"chan[{i}]") for i in range(p)]
        self.cpu_busy = [0.0] * p
        self.fpga_busy = [0.0] * p
        self.net_bytes = 0.0
        self.events: dict = {}  # key -> completion time
        self.waiters: dict = {}  # key -> [countdown, gen, first op] cells
        self.marks: list = []  # (mark, "apply"|"revert", t) per stall, in order
        self.max_t = 0.0
        self.folded = 0  # ops folded into stretches
        self.spawned = 0  # spawned processes (stall windows) not yet over

    def work(self) -> dict:
        """The run's heap entries (pushes) and folded ops."""
        return {"events": self._seq() - 1, "folded": self.folded}

    # -- queues ---------------------------------------------------------

    def _acq(self, q: _Q, t: float, burst, waiter: tuple) -> bool:
        """Acquire ``q`` at ``t``; True if granted now, else ``waiter`` queues.

        Raises :class:`FastPathUnsupported` on an ambiguous tie: a
        same-timestamp acquisition that waits, or follows one that
        waited, at an instant where two tie classes have met (then DES
        micro-order picks the winner).  Every acquisition at ``q``'s
        previous acquisition instant comes here, and every acquisition
        of a folded queue; the hot paths grant a free queue at a new
        instant inline.
        """
        if q.fold is not None:
            return self._intrude(q, t, waiter)
        wait = q.in_use >= q.cap
        if t == q.last_t:
            if burst is None or burst != q.last_burst:
                if wait or q.last_waited:
                    raise FastPathUnsupported(
                        f"ambiguous same-time contention on {q.name} at t={t!r}"
                    )
                burst = None  # two classes met here: no later tie is safe
            wait = wait or q.last_waited
        q.last_t = t
        q.last_burst = burst
        q.last_waited = wait
        if wait:
            q.q.append(waiter)
            return False
        q.in_use += 1
        return True

    def _grant(self, q: _Q, t: float) -> None:
        """Hand the slot just released on ``q`` at ``t`` to its FIFO head."""
        dur, kind, a, b = q.q.popleft()
        if kind is None:  # a transfer past its egress queue
            self._ingress(a, t)
        else:
            q.until = t + dur
            heappush(self.heap, (t + dur, t, self._seq(), kind, a, b))

    # -- transfers ------------------------------------------------------

    def _send(self, tok: tuple, t: float) -> None:
        """Start transfer ``tok`` at ``t``: egress, then ingress (as
        :meth:`_ingress`, inlined), then the wire."""
        q = self.egress[tok[0]]
        if q.in_use < q.cap and t != q.last_t:
            q.in_use += 1
            q.last_t, q.last_burst, q.last_waited = t, tok[5], False
        elif not self._acq(q, t, tok[5], (None, None, tok, None)):
            return
        q = self.ingress[tok[1]]
        if q.in_use < q.cap and t != q.last_t:
            q.in_use += 1
            q.last_t, q.last_burst, q.last_waited = t, tok[5], False
        elif not self._acq(q, t, tok[5], (tok[2], "x", tok, None)):
            return
        heappush(self.heap, (t + tok[2], t, self._seq(), "x", tok, None))

    def _ingress(self, tok: tuple, t: float) -> None:
        q = self.ingress[tok[1]]
        if q.in_use < q.cap and t != q.last_t:
            q.in_use += 1
            q.last_t, q.last_burst, q.last_waited = t, tok[5], False
        elif not self._acq(q, t, tok[5], (tok[2], "x", tok, None)):
            return
        heappush(self.heap, (t + tok[2], t, self._seq(), "x", tok, None))

    # -- completion events ----------------------------------------------

    def _set(self, key, t: float) -> None:
        self.events[key] = t
        cells = self.waiters.pop(key, None)
        if cells:
            for cell in cells:
                cell[0] -= 1
                if cell[0] == 0:
                    heappush(self.heap, (t, t, self._seq(), "g", cell[1], cell[2]))

    def _wait_keys(self, gen, keys, t: float) -> Optional[float]:
        """Resume time if every key is set; else park ``gen``."""
        events = self.events
        unset = [k for k in keys if k not in events]
        if not unset:
            mx = t
            for k in keys:
                v = events[k]
                if v > mx:
                    mx = v
            return mx
        cell = [len(unset), gen, None]
        waiters = self.waiters
        for k in unset:
            waiters.setdefault(k, []).append(cell)
        return None

    # -- stretches -------------------------------------------------------

    def _fold(self, gen, i: int, t: float, plan: StretchPlan, keys: list, k: int,
              after) -> Optional[tuple]:
        """Fold ``plan``'s steps from ``k`` on, for ``gen`` on node ``i``,
        from ``t`` (see the class doc); returns the op to run unfolded
        next, or None.

        ``after`` is the op ``gen`` yields after the plan's ops, or
        ``_TAKE`` when the plan comes from the ``stretch`` op just
        yielded: then the fold takes the ops over (sends True) only once
        it folds or parks something, and declines (returns ``_TAKE``)
        where the replay's own rules must order what happens at ``t`` -- a
        busy channel or FPGA, a lane waiter, a lane holder ending at
        ``t``, a first hold asking at an instant its queue has already
        seen.  A fold that resumes a plan taken over defers there instead.
        """
        steps, events = plan.steps, self.events
        n = len(steps)
        if k == n:
            return after
        j = k
        code, x = steps[j]
        while code == "wait":
            if keys[x] not in events:  # fold on once it is set
                if after is _TAKE:
                    try:
                        after = gen.send(True)
                    except StopIteration:
                        after = None
                self.waiters.setdefault(keys[x], []).append(
                    [1, gen, ("fold", i, plan, keys, j + 1, after)])
                return None
            j += 1
            if j == n:
                return after  # only waits on keys already set
            code, x = steps[j]
        at = plan.at[j]
        lane, chan = self.lane[i], self.chan[i]
        if (at is None or (lane if at[0] else chan).last_t == t or chan.in_use or lane.q
                or (lane.in_use and lane.until == t)):
            if after is _TAKE:
                return _TAKE
            raise FoldDeferred
        # Up to the first wait whose key is not set; an FPGA job the
        # stretch spawns sets its key, and so does the job's running one.
        running = None
        for pos, x in at[1]:
            if keys[x] not in events:
                if x == plan.fpga_key and self.fpga[i].in_use:
                    running = self.fpga[i].until
                    continue
                durs, gemms, spawn, reached = plan.span(j, pos, at[2])
                stop = pos
                break
        else:
            durs, gemms, spawn, reached = at[3]
            stop = n
        if spawn is not None:
            fpga = self.fpga[i]
            if fpga.in_use or fpga.until > t:
                if after is _TAKE:
                    return _TAKE
                raise FoldDeferred
        if after is _TAKE:
            try:
                after = gen.send(True)
            except StopIteration:
                after = None
        self.folded += stop - k
        rec = _Stretch()
        rec.gen, rec.i, rec.t0, rec.plan, rec.keys, rec.k, rec.j, rec.after = (
            gen, i, t, plan, keys, j, stop, after)
        if running is not None:
            rec.fe = running
        if lane.in_use:  # the lane's holder: a gemm may wait for it
            rec.lane0 = lane.until
            self._play(rec)
        else:
            rec.lane0 = t
            rec.ends = ends = list(accumulate(durs, initial=t))
            rec.gemms = gemms
            rec.end, rec.vpt = ends[-1], ends[-2]
            if spawn is not None:
                rec.fs = fs = ends[spawn]
                rec.fe = fe = fs + plan.fpga
                if reached and fe > rec.end:
                    rec.end = rec.vpt = fe
            elif running is not None and running > rec.end:
                rec.end = rec.vpt = running
        if spawn is not None:
            fs, fe = rec.fs, rec.fe
            self.fpga_busy[i] += fe - fs
            fpga.until = fe
            if not reached:  # the process does not reach the key here: the job's end is real
                fpga.in_use = 1
                heappush(self.heap, (fe, fs, self._seq(), "F", rec, None))
        lane.fold = rec
        lane.cap = 0
        rec.root = rec.tok = seq = self._seq()
        heappush(self.heap, (rec.end, rec.vpt, seq, "E", rec, seq))
        return None

    def _play(self, rec: _Stretch, holds: Optional[list] = None) -> None:
        """Time ``rec``'s steps from ``t0`` one by one, its lane shared
        FIFO with the outside requests in ``intr`` (each gets its start),
        into ``inst`` and ``owed``; ``holds``, when given, collects each
        hold's ``(start, end, waited)``."""
        t0 = t = rec.t0
        free = rec.lane0
        intr = rec.intr or ()
        k, n = 0, len(intr)
        fk = rec.plan.fpga_key
        inst: list = []
        owed: list = []
        vpt, waits = t, False
        for code, x in rec.plan.steps[rec.k:rec.j]:
            if code == "cpu":
                while k < n and intr[k][0] < t:  # asked before this gemm: ahead of it
                    w = intr[k]
                    w[3] = s = w[0] if free <= w[0] else free
                    free = s + w[1]
                    k += 1
                if t == t0:
                    inst.append(t)
                waited = free > t
                waits = waits or waited
                vpt = start = free if waited else t
                t = free = start + x
                owed.append((t, start))
                inst.append(t)
                if holds is not None:
                    holds.append((start, t, waited))
            elif code == "chan":
                vpt = t
                t = t + x
                inst.append(t)
                if holds is not None:
                    holds.append((vpt, t, False))
            elif code == "wait":
                if x == fk and rec.fe is not None and rec.fe > t:  # on the job's FPGA
                    t = vpt = rec.fe
            elif rec.fs is None:  # the FPGA spawn, timed once
                rec.fs, rec.fe = t, t + x
            elif rec.fs != t:  # an outside request moved it
                raise FoldDeferred
        while k < n:
            w = intr[k]
            w[3] = s = w[0] if free <= w[0] else free
            free = s + w[1]
            k += 1
        rec.inst, rec.owed, rec.end, rec.vpt, rec.waits = inst, owed, t, vpt, waits

    def _chain(self, rec: _Stretch, kind: str) -> Optional[list]:
        """The push times of ``rec``'s ``kind`` entry and of the entries
        whose pops pushed it, back to the fold instant.

        A hold granted at its request was pushed when the process resumed,
        at the end of its previous hold; one that waited, when the lane's
        holder released it -- an outside hold that itself waited for a
        virtual one has its place there, any other holder's pop is real,
        and the chain is None.
        """
        holds: list = []
        self._play(rec, holds)
        if kind == "F":  # pushed at the spawn, when the process resumed
            chain, p, rel = [rec.fs], rec.fs, False
        elif rec.vpt == rec.fe:  # pushed when the FPGA job ended
            chain, p, rel = [rec.fe, rec.fs], rec.fs, False
        else:
            p, _, rel = holds[-1]
            chain = [p]
        while True:
            if rel:  # pushed when the lane's holder released it at p
                for w in rec.intr or ():
                    if w[3] + w[1] == p and w[3] != w[0]:
                        break
                else:
                    return None
                p = w[3]
                chain.append(p)
            elif p == rec.t0:
                return chain
            for start, end, rel in reversed(holds):  # the process resumed at p
                if end == p:
                    break
            else:
                return None
            p = start
            chain.append(p)

    def _before(self, a: _Stretch, akind: str, b: _Stretch, bkind: str) -> bool:
        """Whether ``a``'s entry pops before ``b``'s unfolded, where both
        have one time and push time: the pops that pushed them compare the
        same way, back to the folds, which compare in fold order.  Raises
        :class:`FoldDeferred` where that order is not known."""
        if a is not b:
            if akind == bkind and a.twin(b):
                return a.root < b.root
            ca, cb = self._chain(a, akind), self._chain(b, bkind)
            if ca is not None and cb is not None:
                for x, y in zip(ca, cb):
                    if x != y:
                        return x < y
                if len(ca) == len(cb):
                    return a.root < b.root
        raise FoldDeferred

    def _tie(self, t: float, pt: float, kind: str, rec: Optional[_Stretch]) -> None:
        """A folded entry of ``kind`` at ``(t, pt)`` pops: defer unless the
        next entry sorts apart from it, or is a stretch's entry that
        follows it unfolded (:meth:`_before`)."""
        heap = self.heap
        if heap:
            top = heap[0]
            if top[0] == t and top[1] == pt:
                okind, other = top[3], top[4]
                if (rec is None or (okind != "E" and okind != "F")
                        or (okind == "E" and other.tok != top[5])
                        or not self._before(rec, kind, other, okind)):
                    raise FoldDeferred

    def _intrude(self, q: _Q, t: float, waiter: tuple) -> bool:
        """Another process asks for a folded lane at ``t``; True if it
        gets it now (the caller pushes its hold)."""
        rec = q.fold
        intr, end, vpt = rec.intr, rec.end, rec.vpt
        if t == end or (intr and intr[-1][0] == t):
            raise FoldDeferred
        dur, _, i, who = waiter
        w = [t, dur, who, None]
        if intr is None:
            rec.intr = [w]
        else:
            intr.append(w)
        self._play(rec)  # the instants before t stay as they were
        if t == rec.t0 and rec.inst[0] == t:
            # The process asked for the lane at this instant too, so the
            # unfolded replay's detector refuses this request.
            raise FastPathUnsupported(f"ambiguous same-time contention on {q.name} at t={t!r}")
        if t in rec.inst:
            raise FoldDeferred
        if rec.end != end or rec.vpt != vpt:  # re-time the end entry
            rec.tok = seq = self._seq()
            heappush(self.heap, (rec.end, rec.vpt, seq, "E", rec, seq))
        s = w[3]
        q.in_use += 1
        q.until = s + dur
        if s == t:
            return True
        heappush(self.heap, (s + dur, s, self._seq(), "C", i, who))
        return False

    def _released(self, rec: _Stretch, t: float) -> None:
        """An outside hold on ``rec``'s lane ends at ``t``: the gemms
        before it in lane order add their busy time first."""
        if rec.owed is None:
            self._play(rec)
        if t in rec.inst or t == rec.end:
            raise FoldDeferred
        owed, n, i = rec.owed, rec.paid, rec.i
        busy = self.cpu_busy
        while n < len(owed) and owed[n][0] <= t:
            end, start = owed[n]
            busy[i] += end - start
            n += 1
        rec.paid = n

    def _finish(self, rec: _Stretch, t: float, pt: float, tok: int) -> None:
        """``rec``'s end entry pops: its node's queues read as if its holds
        had run, and the process resumes at the op after them."""
        if rec.tok != tok:
            return  # re-timed by an outside request
        heap = self.heap
        if heap and heap[0][0] == t and heap[0][1] == pt:
            self._tie(t, pt, "E", rec)
        i, intr = rec.i, rec.intr
        if intr and intr[-1][3] > t:
            raise FoldDeferred  # an outside request still queued
        lane = self.lane[i]
        lane.fold = None
        lane.cap = 1
        busy = self.cpu_busy
        if rec.owed is None:  # each gemm's end - start, added in order
            ends, b = rec.ends, busy[i]
            for m in rec.gemms:
                b += ends[m + 1] - ends[m]
            busy[i] = b
        else:
            for end, start in rec.owed[rec.paid:]:
                busy[i] += end - start
        gen, plan, j = rec.gen, rec.plan, rec.j
        if j < len(plan.steps):  # stopped at a wait: fold on once its key is set
            op = ("fold", i, plan, rec.keys, j + 1, rec.after)
            key = rec.keys[plan.steps[j][1]]
            if key not in self.events:
                self.waiters.setdefault(key, []).append([1, gen, op])
                return
        else:
            op = rec.after
            if op is None:
                return
        self.advance(gen, t, op)

    # -- generator driver ------------------------------------------------

    def process(self, gen) -> None:
        """Start a schedule process at t = 0."""
        self.advance(gen, 0.0)

    def spawn(self, gen, at: float) -> None:
        """Start ``gen`` (a stall window) at time ``at`` (at once when
        ``at <= 0``); stretches fold nothing until its revert."""
        self.spawned += 1
        if at > 0:
            heappush(self.heap, (at, 0.0, self._seq(), "g", gen, None))
        else:
            self.advance(gen, 0.0)

    def advance(self, gen, t: float, op: Optional[tuple] = None) -> None:
        """Drive ``gen`` from time ``t`` (first running ``op``, when given)
        until it blocks or finishes."""
        step = gen.__next__
        heap, seq = self.heap, self._seq
        while True:
            if op is None:
                try:
                    op = step()
                except StopIteration:
                    return
            code = op[0]
            if code == "send":
                key, (svc, size) = op[1], op[2]
                self._send((key[0], key[1], svc, size, key, op[3], gen, None), t)
                return
            elif code == "stretch":
                if not self.spawned:
                    op = self._fold(gen, op[1], t, op[2], op[3], 0, _TAKE)
                    if op is None:
                        return
                    if op is not _TAKE:
                        continue
            elif code == "send_batch":
                keys = op[1]
                if not keys:  # all_of([]) fires at once: resume one step later
                    heappush(heap, (t, t, seq(), "g", gen, None))
                    return
                svc, size = op[2]
                burst = object()
                group = [len(keys), gen]
                for key in keys:
                    self._send((key[0], key[1], svc, size, key, burst, None, group), t)
                return
            elif code == "fold":  # a stretch taken over goes on
                op = self._fold(gen, op[1], t, op[2], op[3], op[4], op[5])
                if op is None:
                    return
                continue
            elif code == "wait":
                key = op[1]
                done = self.events.get(key)
                if done is None:
                    self.waiters.setdefault(key, []).append([1, gen, None])
                    return
                if done > t:
                    t = done
                    if t > self.max_t:
                        self.max_t = t
            elif code == "cpu":
                i, dur = op[1], op[2]
                q = self.lane[i]
                if q.in_use < q.cap and t != q.last_t:
                    q.in_use += 1
                    q.last_t, q.last_burst, q.last_waited = t, None, False
                elif not self._acq(q, t, None, (dur, "c", i, gen)):
                    return
                q.until = end = t + dur
                heappush(heap, (end, t, seq(), "c", i, gen))
                return
            elif code == "wait_all":
                r = self._wait_keys(gen, op[1], t)
                if r is None:
                    return
                t = r
                if t > self.max_t:
                    self.max_t = t
            elif code == "set":
                self._set(op[1], t)
            elif code == "chan":
                i, dur = op[1], op[2]
                q = self.chan[i]
                if q.in_use < q.cap and t != q.last_t:
                    q.in_use += 1
                    q.last_t, q.last_burst, q.last_waited = t, None, False
                elif not self._acq(q, t, None, (dur, "h", i, gen)):
                    return
                heappush(heap, (t + dur, t, seq(), "h", i, gen))
                return
            elif code == "fpga_spawn":
                i, dur, key = op[1], op[2], op[3]
                q = self.fpga[i]
                if q.in_use < q.cap and t != q.last_t:
                    q.in_use += 1
                    q.last_t, q.last_burst, q.last_waited = t, None, False
                    heappush(heap, (t + dur, t, seq(), "f", i, key))
                elif self._acq(q, t, None, (dur, "f", i, key)):
                    heappush(heap, (t + dur, t, seq(), "f", i, key))
            elif code == "stall":
                _, i, dur, mark = op
                # A queued stall waits with dur 0.0: its grant pushes "s" at the grant instant.
                if self._acq(self.chan[i], t, None, (0.0, "s", i, (dur, mark))):
                    heappush(heap, (t, t, seq(), "s", i, (dur, mark)))
                return
            else:  # pragma: no cover - schedule author error
                raise AssertionError(f"unknown replay op {code!r}")
            op = None

    def run(self) -> float:
        """Drain the heap; returns the makespan (latest time touched).

        Entries pop in time order, so the last one popped is the latest.
        """
        heap, seq, advance, grant = self.heap, self._seq, self.advance, self._grant
        lane, chan, fpga = self.lane, self.chan, self.fpga
        ingress, egress, events, waiters = self.ingress, self.egress, self.events, self.waiters
        net = self.net_bytes
        t = self.max_t
        while heap:
            t, start, _, kind, a, b = heappop(heap)
            if kind == "x":  # transfer wire time ends; a is the transfer
                src, dst, _, size, key, _, gen, group = a
                q = ingress[dst]
                if q.q:
                    grant(q, t)
                else:
                    q.in_use -= 1
                q = egress[src]
                if q.q:
                    grant(q, t)
                else:
                    q.in_use -= 1
                net += size
                events[key] = t
                cells = waiters.pop(key, None)
                if cells:
                    for cell in cells:
                        cell[0] -= 1
                        if cell[0] == 0:
                            heappush(heap, (t, t, seq(), "g", cell[1], cell[2]))
                if gen is not None:
                    advance(gen, t)
                else:
                    group[0] -= 1
                    if group[0] == 0:
                        heappush(heap, (t, t, seq(), "g", group[1], None))
            elif kind == "c" or kind == "C":  # cpu lane hold ends; a is the node, b the process
                if kind == "C":  # granted at a folded hold's end
                    self._tie(t, start, kind, None)
                q = lane[a]
                if q.q:
                    grant(q, t)
                else:
                    q.in_use -= 1
                if q.fold is not None:
                    self._released(q.fold, t)
                self.cpu_busy[a] += t - start
                advance(b, t)
            elif kind == "g":  # generator resume, at op b when given
                advance(a, t, b)
            elif kind == "E":  # a stretch ends; a is the stretch, b its token
                self._finish(a, t, start, b)
            elif kind == "h":  # channel hold ends
                q = chan[a]
                if q.q:
                    grant(q, t)
                else:
                    q.in_use -= 1
                advance(b, t)
            elif kind == "f" or kind == "F":  # fpga job ends
                if kind == "F":  # spawned in a stretch; a is the stretch
                    self._tie(t, start, kind, a)
                    a, b = a.i, a.keys[-1]
                else:
                    self.fpga_busy[a] += t - start
                q = fpga[a]
                if q.q:
                    grant(q, t)
                else:
                    q.in_use -= 1
                self._set(b, t)
            elif kind == "s":  # stall granted: log it, then hold the channel
                dur, mark = b
                self.marks.append((mark, "apply", t))
                heappush(heap, (t + dur, t, seq(), "r", a, mark))
            else:  # "r": stall window ends
                q = chan[a]
                if q.q:
                    grant(q, t)
                else:
                    q.in_use -= 1
                self.marks.append((b, "revert", t))
                self.spawned -= 1
        self.net_bytes = net
        if t > self.max_t:
            self.max_t = t
        return self.max_t
