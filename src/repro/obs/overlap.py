"""Model-vs-measured overlap accounting (the Section 4.5 dashboard).

The paper predicts a hybrid design's latency as ``max{T_tp, T_tf}`` --
the processor-path and FPGA-path totals with all communication and
staging assumed fully overlapped -- and reports that the measured
implementations reach >85% of that bound (~86% for LU, ~96% for FW).
This module turns any simulated run plus its model prediction into an
:class:`OverlapReport` carrying exactly that reconciliation:

* ``overlap_efficiency = predicted_latency / simulated_makespan`` --
  the fraction of the fully-overlapped bound the run achieves (the
  repo's headline ">= 0.85" check), and its exact reciprocal
  ``slowdown_vs_model = simulated_makespan / predicted_latency``;
* per-resource busy time (cpu / fpga / net / dram / sram / mpi),
  aggregated over the per-node trace lanes, with utilisations over the
  simulated window.

Reports are JSON-able and register themselves as gauges so the metrics
exporters pick them up next to the counters.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Optional

from .metrics import MetricsRegistry, REGISTRY

__all__ = ["OverlapReport", "busy_by_resource", "reconcile", "resource_of_lane"]

#: Trace-lane prefixes -> resource classes for the busy-time rollup.
RESOURCE_PREFIXES = ("cpu", "fpga", "dram", "sram", "mpi", "net")


def resource_of_lane(lane: str) -> str:
    """Map a trace lane (``cpu3``, ``net0->``) to its resource class."""
    for prefix in RESOURCE_PREFIXES:
        if lane.startswith(prefix):
            return prefix
    return "other"


def busy_by_resource(trace: Any) -> tuple[dict[str, float], dict[str, int]]:
    """``(busy_seconds, lane_counts)`` per resource class from a trace.

    ``trace`` is a :class:`repro.sim.trace.Trace` (duck-typed so this
    module stays import-light).  Per-lane busy time uses the trace's
    overlap-merging accounting; lanes of the same class sum (p nodes
    contribute p lanes each), and the lane count divides the busy time
    back out when computing mean per-lane utilisation.
    """
    busy: dict[str, float] = {}
    counts: dict[str, int] = {}
    if trace is None:
        return busy, counts
    for lane in trace.lanes():
        res = resource_of_lane(lane)
        busy[res] = busy.get(res, 0.0) + trace.busy_time(lane)
        counts[res] = counts.get(res, 0) + 1
    return busy, counts


@dataclass(frozen=True)
class OverlapReport:
    """One run reconciled against its ``max{T_tp, T_tf}`` prediction."""

    app: str  # "lu" | "fw" | "mm"
    simulated_makespan: float  # measured (simulated) total latency, seconds
    t_tp: float  # model: total processor-path time
    t_tf: float  # model: total FPGA-path time
    predicted_latency: float  # the model's predicted latency
    busy: dict[str, float] = field(default_factory=dict)  # per resource class
    lane_counts: dict[str, int] = field(default_factory=dict)  # lanes per class
    meta: dict[str, Any] = field(default_factory=dict)

    @property
    def overlap_efficiency(self) -> float:
        """Fraction of the ``max{T_tp, T_tf}`` bound the run achieves.

        ~0.97 for FW and ~1.0 for MM; LU lands *above* 1 because the
        serial ``T_tp`` path total overstates its critical path (panel
        and opMM work overlap across nodes).  The repo's headline gate
        is ``>= 0.85``.
        """
        if self.simulated_makespan <= 0:
            return 0.0
        return self.predicted_latency / self.simulated_makespan

    @property
    def slowdown_vs_model(self) -> float:
        """``simulated_makespan / predicted_latency``; the exact
        reciprocal of :attr:`overlap_efficiency`."""
        if self.predicted_latency <= 0:
            return 0.0
        return self.simulated_makespan / self.predicted_latency

    def utilisation(self, resource: str) -> float:
        """Mean per-lane busy fraction of one resource class.

        Busy seconds are aggregated over all lanes of the class (p nodes
        contribute p ``cpu*`` lanes), so the fraction divides by the
        lane count times the window.  The window is the *unextrapolated*
        span the busy time was accumulated over (``meta["window"]`` when
        a truncated run was extrapolated, else the makespan).
        """
        window = self.meta.get("window", self.simulated_makespan)
        lanes = self.lane_counts.get(resource, 1)
        if window <= 0 or lanes < 1:
            return 0.0
        return self.busy.get(resource, 0.0) / (lanes * window)

    def to_dict(self) -> dict[str, Any]:
        """JSON-able form (the ``overlap`` record of the metrics file)."""
        return {
            "kind": "overlap",
            "app": self.app,
            "simulated_makespan": self.simulated_makespan,
            "t_tp": self.t_tp,
            "t_tf": self.t_tf,
            "predicted_latency": self.predicted_latency,
            "overlap_efficiency": self.overlap_efficiency,
            "slowdown_vs_model": self.slowdown_vs_model,
            "busy_seconds": dict(sorted(self.busy.items())),
            "lane_counts": dict(sorted(self.lane_counts.items())),
            "utilisation": {
                res: self.utilisation(res) for res in sorted(self.busy)
            },
            "meta": self.meta,
        }

    def register(self, registry: Optional[MetricsRegistry] = None) -> None:
        """Publish the headline numbers as gauges on ``registry``."""
        reg = registry if registry is not None else REGISTRY
        reg.gauge("overlap.efficiency", app=self.app).set(self.overlap_efficiency)
        reg.gauge("overlap.predicted_latency_s", app=self.app).set(self.predicted_latency)
        reg.gauge("overlap.simulated_makespan_s", app=self.app).set(self.simulated_makespan)
        reg.gauge("overlap.t_tp_s", app=self.app).set(self.t_tp)
        reg.gauge("overlap.t_tf_s", app=self.app).set(self.t_tf)
        for res, busy in self.busy.items():
            reg.gauge("resource.busy_s", app=self.app, resource=res).set(busy)
            reg.gauge("resource.utilisation", app=self.app, resource=res).set(
                self.utilisation(res)
            )

    def summary(self) -> str:
        """One-paragraph human rendering (CLI footers)."""
        util = ", ".join(
            f"{res} {100 * self.utilisation(res):.0f}%"
            for res in ("cpu", "fpga", "net", "dram")
            if res in self.busy
        )
        return (
            f"{self.app}: simulated {self.simulated_makespan:.3f}s vs "
            f"predicted {self.predicted_latency:.3f}s "
            f"(T_tp={self.t_tp:.3f}s, T_tf={self.t_tf:.3f}s) -> "
            f"overlap_efficiency {self.overlap_efficiency:.4f} "
            f"(paper claims >= 0.85); utilisation: {util}"
        )


def reconcile(
    app: str,
    simulated_makespan: float,
    prediction: Any,
    trace: Any = None,
    window: Optional[float] = None,
    registry: Optional[MetricsRegistry] = None,
    **meta: Any,
) -> OverlapReport:
    """Build (and register) an :class:`OverlapReport` for one run.

    ``prediction`` is duck-typed: anything with ``t_tp``/``t_tf``
    attributes (e.g. :class:`repro.core.prediction.Prediction`).  The
    predicted latency is the paper's Section 4.5 bound, literally
    ``max{T_tp, T_tf}`` of the *serial path totals*.  For FW and MM
    (identical, dependence-free phases) that equals the model's refined
    latency exactly; for LU the serial ``T_tp`` overstates the critical
    path -- panels and opMM updates overlap across nodes -- so
    ``overlap_efficiency`` can exceed 1 there.  When the prediction
    carries its own dependence-chained ``latency`` it is preserved as
    ``meta["model_latency"]`` for the finer comparison.  ``window`` is
    the simulated span the trace actually covers, for runs whose
    makespan is extrapolated from a truncated simulation (FW).
    """
    if simulated_makespan < 0:
        raise ValueError(f"negative makespan: {simulated_makespan}")
    t_tp = float(prediction.t_tp)
    t_tf = float(prediction.t_tf)
    model_latency = getattr(prediction, "latency", None)
    if model_latency is not None:
        meta["model_latency"] = float(model_latency)
    if window is not None:
        meta["window"] = window
    busy, lane_counts = busy_by_resource(trace)
    report = OverlapReport(
        app=app,
        simulated_makespan=simulated_makespan,
        t_tp=t_tp,
        t_tf=t_tf,
        predicted_latency=max(t_tp, t_tf),
        busy=busy,
        lane_counts=lane_counts,
        meta=meta,
    )
    report.register(registry)
    return report
