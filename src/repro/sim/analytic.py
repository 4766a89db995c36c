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

* The pieces every replay shares: :class:`ReplayCosts` (an op's work
  priced for one run), :class:`SteadyRates` (faults folded into the
  rates) and :class:`StretchPlan` (the node-local ops a ``stretch`` op
  stands for).  The replay itself is
  :class:`repro.sim.stepped.StepReplay`, which takes the DES's
  same-instant order by construction and refuses nothing; a stretch
  fold that cannot order one of its instants raises
  :class:`FoldDeferred`, and :func:`repro.sim.stepped.replay` starts
  the run over with no fold.

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
  reason ``instant``) could not order an instant, replayed by
  :class:`~repro.sim.stepped.StepReplay` unfolded; created on the first
  deferral and left out of :func:`fastpath_summary`;
- ``replay.events{engine=stepped}`` -- the timers plus same-instant
  entries each :class:`~repro.sim.stepped.StepReplay` run took, read
  from state the engine keeps, with no per-event increment
  (:func:`repro.apps.engines.replay_schedule` adds them);
- ``replay.folded{engine=stepped}`` -- the ops a run's stretch folds
  took over without an entry each.

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
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

from ..obs.metrics import REGISTRY

__all__ = [
    "FAST_PATH_ENV_VAR",
    "FAST_PATH_MODES",
    "FastPathUnsupported",
    "FoldDeferred",
    "NOMINAL_RATES",
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
    (``monitor``, ``faults``, ``unsupported-config``, ...); ``str(exc)``
    carries the full diagnostic.
    """

    def __init__(self, detail: str, reason: str) -> None:
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
    """Physical work priced as replay op costs for one run.

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
    of :class:`~repro.sim.stepped.StepReplay`); it is handed to
    ``install_folded``.
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


# --------------------------------------------------------------- stretches


class FoldDeferred(Exception):
    """A stretch fold met an order it cannot reproduce (see
    :class:`~repro.sim.stepped.StepReplay`): two things at one of its
    instants whose same-instant order only the unfolded steps know.  The
    run replays with no fold, counted under
    ``fastpath.deferral{app, reason=instant}``."""


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
    :meth:`span` up to ``cut[len(steps)]``.  ``cut[stop]`` moves a fold's
    stop back to the first wait on another key than the FPGA's among the
    waits right before it: a message's get there takes a DES step, so
    the fold ends at the hold before it.
    """

    __slots__ = ("steps", "fpga_key", "durs", "cpu", "before", "spawn", "fpga", "at", "cut",
                 "_spans")

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
        self.cut: list = []
        for stop in range(len(steps) + 1):
            cut = m = stop
            while m > 0 and steps[m - 1][0] == "wait":
                m -= 1
                if steps[m][1] != fpga_key:
                    cut = m
            self.cut.append(cut)
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
            self.at[j] = (code == "cpu", tuple(waits), own,
                          self.span(j, self.cut[len(steps)], own))

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
