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

* :class:`Replay` -- a chronological replay engine for schedules that do
  queue on resources (the LU pipeline, the MM ring, and the FW runs
  its closed form hands over).  It keeps per-resource FIFO queues and a
  single time-ordered heap, but no event/process objects.
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
    matches by induction;
  - a ``handoff`` orders the two CPU-lane requests it causes by the DES
    steps each takes (see :class:`Replay`).

  A schedule ``Replay`` refuses as an ambiguous tie replays on
  :class:`repro.sim.stepped.StepReplay`, which takes the DES's
  same-instant order step by step (see
  :func:`repro.apps.engines.replay_schedule`); only what that refuses
  too goes to the DES.

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
  ``ambiguous-tie`` / ``unsupported-config`` / ``disabled``);
- ``fastpath.deferral{app,reason}`` -- runs whose closed form handed
  them to the replay (FW's stall fold, see
  :mod:`repro.apps.fw.analytic`); created on the first deferral and
  left out of :func:`fastpath_summary`.

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
from itertools import count
from typing import Iterable, Optional, Sequence

from ..obs.metrics import REGISTRY

__all__ = [
    "FAST_PATH_ENV_VAR",
    "FAST_PATH_MODES",
    "FastPathUnsupported",
    "NOMINAL_RATES",
    "Replay",
    "ReplayCosts",
    "SteadyRates",
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


class _Q:
    """One FIFO resource queue (link lane, CPU lane, FPGA, DMA channel).

    ``q`` holds waiters only while all ``cap`` slots are taken: a release
    hands its slot straight to the FIFO head, so ``in_use < cap`` means
    a free slot and nobody waiting.  A waiter is ``(dur, kind, a, b)``;
    granted at ``t`` it becomes the heap entry ``(t + dur, seq, kind, a,
    b, t)``, except a transfer waiting for egress (kind None), which
    moves on to its ingress queue.
    """

    __slots__ = ("cap", "in_use", "q", "last_t", "last_burst", "last_waited", "tie", "name")

    def __init__(self, cap: int, name: str) -> None:
        self.cap = cap
        self.in_use = 0
        self.q: deque = deque()
        self.last_t = -1.0
        self.last_burst: Optional[object] = None
        self.last_waited = False
        self.tie: Optional[tuple] = None  # (t, first, second): a handoff's ordered pair
        self.name = name


class Replay:
    """Chronological replay of a DES schedule without event objects.

    Schedules are plain generators yielding *ops* (tuples); the engine
    drives each generator with :meth:`advance` and orders everything on
    one ``(time, seq)`` heap.  The same schedules run on the DES through
    :class:`repro.sim.interpret.DesInterpreter`, which documents the
    key and label conventions; here each op's cost slot holds what
    :class:`ReplayCosts` made of its physical work, and labels are
    ignored.  Supported ops:

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
    ``("handoff", i, key)``
        ``set`` then ``wait`` on ``key``, for a setter on node *i* whose
        ``key`` completes a ``wait_all`` on the same node (the LU worker
        handing its kept part to its own opMS sink).  The two must be
        the only users of node *i*'s CPU lane, and the setter's next op
        a receive or a ``wait_all``; see the tie rule below.
    ``("step",)``
        Resume at the same time one step later, behind every event
        already queued for this instant.  A blocking send takes this
        step inside the DES (its sender resumes on the mailbox put,
        queued behind the other same-instant deliveries), so the
        interpreter runs nothing for it; a schedule yields it after a
        send whose sender's next ops race other nodes' same-instant
        work.
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
    same-timestamp contention raises :class:`FastPathUnsupported` -- the
    caller replays the schedule on :class:`~repro.sim.stepped.StepReplay`
    (the DES's order, one queue entry per same-instant step), so refusals
    cost accuracy nothing.

    The rule for one instant that a ``handoff`` adds counts DES steps
    (each ``succeed``, each yield on an event triggered but not yet
    processed, each ``AllOf`` firing and each mailbox ``get`` costs one
    same-instant step; a step runs after every step queued before it).
    The setter's yield on ``key`` is one step.  The waiter's ``AllOf``
    fires when that step runs, ahead of the setter's own resumption (it
    registered on ``key`` first), and the waiter runs one step later;
    the setter's next CPU request follows at least one step of its own
    (a receive or a ``wait_all``), queued behind the waiter's.  So when
    ``key`` completes the ``wait_all`` of a waiter that parked before
    this instant on keys all set before it, the DES grants the lane to
    the waiter first.  The replay then resumes the setter one step later
    (behind the waiter, which ``set`` already queued) and records the
    pair on the lane; :meth:`_acq` accepts exactly that pair, in that
    order, once.  Otherwise the handoff is a plain ``set`` and ``wait``
    and any collision is judged as usual.

    The hot paths are inlined for speed.  Heap entries are flat tuples
    ``(time, seq, kind, a, b, start)``, dispatched in :meth:`run` in
    the order of how often each kind occurs in the LU sweeps, and a
    transfer is the tuple ``(src, dst, svc, size, key, burst, gen,
    group)``.
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
        self.waiters: dict = {}  # key -> [countdown, gen] cells (+ parked t, keys for wait_all)
        self.marks: list = []  # (mark, "apply"|"revert", t) per stall, in order
        self.max_t = 0.0

    # -- queues ---------------------------------------------------------

    def _acq(self, q: _Q, t: float, burst, waiter: tuple) -> bool:
        """Acquire ``q`` at ``t``; True if granted now, else ``waiter`` queues.

        Raises :class:`FastPathUnsupported` on an ambiguous tie: a
        same-timestamp acquisition that waits, or follows one that
        waited, at an instant where two tie classes have met (then DES
        micro-order picks the winner).  A handoff's recorded pair passes
        in its order.  Every acquisition at ``q``'s previous acquisition
        instant comes here; the hot paths grant a free queue at a new
        instant inline (a CPU lane records the holder in ``last_burst``).
        """
        wait = q.in_use >= q.cap
        if t == q.last_t:
            tie = q.tie
            if tie is not None and tie[0] == t and q.last_burst is tie[1] and waiter[3] is tie[2]:
                q.tie = None  # the handoff's pair, in the order the DES grants it
            elif burst is None or burst != q.last_burst:
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
            heappush(self.heap, (t + dur, self._seq(), kind, a, b, t))

    # -- transfers ------------------------------------------------------

    def _send(self, tok: tuple, t: float) -> None:
        """Start transfer ``tok`` at ``t``: egress, then ingress, then the wire."""
        q = self.egress[tok[0]]
        if q.in_use < q.cap and t != q.last_t:
            q.in_use += 1
            q.last_t, q.last_burst, q.last_waited = t, tok[5], False
        elif not self._acq(q, t, tok[5], (None, None, tok, None)):
            return
        self._ingress(tok, t)

    def _ingress(self, tok: tuple, t: float) -> None:
        q = self.ingress[tok[1]]
        if q.in_use < q.cap and t != q.last_t:
            q.in_use += 1
            q.last_t, q.last_burst, q.last_waited = t, tok[5], False
        elif not self._acq(q, t, tok[5], (tok[2], "x", tok, None)):
            return
        heappush(self.heap, (t + tok[2], self._seq(), "x", tok, None, t))

    # -- completion events ----------------------------------------------

    def _set(self, key, t: float) -> None:
        self.events[key] = t
        cells = self.waiters.pop(key, None)
        if cells:
            for cell in cells:
                cell[0] -= 1
                if cell[0] == 0:
                    heappush(self.heap, (t, self._seq(), "g", cell[1], None, None))

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
        cell = [len(unset), gen, t, keys]
        waiters = self.waiters
        for k in unset:
            waiters.setdefault(k, []).append(cell)
        return None

    def _handoff(self, gen, i: int, key, t: float) -> bool:
        """Set ``key`` at ``t``; True if the setter steps behind its waiter.

        That is when ``key`` completes the ``wait_all`` of its one
        waiter, parked before ``t`` on keys all set before ``t``; node
        ``i``'s CPU lane then records the pair (waiter first).
        """
        cells = self.waiters.get(key)
        self._set(key, t)
        if not cells or len(cells) != 1 or len(cells[0]) != 4:
            return False
        left, waiter, parked, keys = cells[0]
        events = self.events
        if left or parked >= t or any(events[k] >= t for k in keys if k != key):
            return False
        self.lane[i].tie = (t, waiter, gen)
        return True

    # -- generator driver ------------------------------------------------

    def process(self, gen) -> None:
        """Start a schedule process at t = 0."""
        self.advance(gen, 0.0)

    def spawn(self, gen, at: float) -> None:
        """Start ``gen`` at time ``at`` (at once when ``at <= 0``)."""
        if at > 0:
            heappush(self.heap, (at, self._seq(), "g", gen, None, None))
        else:
            self.advance(gen, 0.0)

    def advance(self, gen, t: float) -> None:
        """Drive ``gen`` from time ``t`` until it blocks or finishes."""
        if t > self.max_t:
            self.max_t = t
        step = gen.__next__
        heap, seq = self.heap, self._seq
        while True:
            try:
                op = step()
            except StopIteration:
                return
            code = op[0]
            if code == "wait":
                key = op[1]
                done = self.events.get(key)
                if done is None:
                    self.waiters.setdefault(key, []).append([1, gen])
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
                    q.last_t, q.last_burst, q.last_waited = t, gen, False
                elif not self._acq(q, t, None, (dur, "c", i, gen)):
                    return
                heappush(heap, (t + dur, seq(), "c", i, gen, t))
                return
            elif code == "chan":
                i, dur = op[1], op[2]
                q = self.chan[i]
                if q.in_use < q.cap and t != q.last_t:
                    q.in_use += 1
                    q.last_t, q.last_burst, q.last_waited = t, None, False
                elif not self._acq(q, t, None, (dur, "h", i, gen)):
                    return
                heappush(heap, (t + dur, seq(), "h", i, gen, t))
                return
            elif code == "fpga_spawn":
                i, dur, key = op[1], op[2], op[3]
                q = self.fpga[i]
                if q.in_use < q.cap and t != q.last_t:
                    q.in_use += 1
                    q.last_t, q.last_burst, q.last_waited = t, None, False
                elif not self._acq(q, t, None, (dur, "f", i, key)):
                    continue
                heappush(heap, (t + dur, seq(), "f", i, key, t))
            elif code == "send":
                key, (svc, size) = op[1], op[2]
                self._send((key[0], key[1], svc, size, key, op[3], gen, None), t)
                return
            elif code == "send_batch":
                keys = op[1]
                if not keys:  # all_of([]) fires at once: resume one step later
                    heappush(heap, (t, seq(), "g", gen, None, None))
                    return
                svc, size = op[2]
                burst = object()
                group = [len(keys), gen]
                for key in keys:
                    self._send((key[0], key[1], svc, size, key, burst, None, group), t)
                return
            elif code == "set":
                self._set(op[1], t)
            elif code == "handoff":
                if self._handoff(gen, op[1], op[2], t):
                    heappush(heap, (t, seq(), "g", gen, None, None))
                    return
            elif code == "wait_all":
                r = self._wait_keys(gen, op[1], t)
                if r is None:
                    return
                t = r
                if t > self.max_t:
                    self.max_t = t
            elif code == "step":
                heappush(heap, (t, seq(), "g", gen, None, None))
                return
            elif code == "stall":
                _, i, dur, mark = op
                # A queued stall waits with dur 0.0: its grant pushes "s" at the grant instant.
                if self._acq(self.chan[i], t, None, (0.0, "s", i, (dur, mark))):
                    heappush(heap, (t, seq(), "s", i, (dur, mark), t))
                return
            else:  # pragma: no cover - schedule author error
                raise AssertionError(f"unknown replay op {code!r}")

    def run(self) -> float:
        """Drain the heap; returns the makespan (latest time touched)."""
        heap, seq, advance, grant = self.heap, self._seq, self.advance, self._grant
        lane, chan, fpga = self.lane, self.chan, self.fpga
        while heap:
            t, _, kind, a, b, start = heappop(heap)
            if t > self.max_t:
                self.max_t = t
            if kind == "x":  # transfer wire time ends; a is the transfer
                src, dst, _, size, key, _, gen, group = a
                q = self.ingress[dst]
                if q.q:
                    grant(q, t)
                else:
                    q.in_use -= 1
                q = self.egress[src]
                if q.q:
                    grant(q, t)
                else:
                    q.in_use -= 1
                self.net_bytes += size
                self._set(key, t)
                if gen is not None:
                    advance(gen, t)
                else:
                    group[0] -= 1
                    if group[0] == 0:
                        heappush(heap, (t, seq(), "g", group[1], None, None))
            elif kind == "c":  # cpu lane hold ends; a is the node, b the process
                q = lane[a]
                if q.q:
                    grant(q, t)
                else:
                    q.in_use -= 1
                self.cpu_busy[a] += t - start
                advance(b, t)
            elif kind == "h":  # channel hold ends
                q = chan[a]
                if q.q:
                    grant(q, t)
                else:
                    q.in_use -= 1
                advance(b, t)
            elif kind == "g":  # plain generator resume
                advance(a, t)
            elif kind == "f":  # fpga job ends; b is its completion key
                q = fpga[a]
                if q.q:
                    grant(q, t)
                else:
                    q.in_use -= 1
                self.fpga_busy[a] += t - start
                self._set(b, t)
            elif kind == "s":  # stall granted: log it, then hold the channel
                dur, mark = b
                self.marks.append((mark, "apply", t))
                heappush(heap, (t + dur, seq(), "r", a, mark, t))
            else:  # "r": stall window ends
                q = chan[a]
                if q.q:
                    grant(q, t)
                else:
                    q.in_use -= 1
                self.marks.append((b, "revert", t))
        return self.max_t
