"""The campaign replicate runner.

A campaign cell names an app; :func:`run_replicate` evaluates one
replicate of it -- build the design (:func:`repro.apps.build_design`),
simulate it under the replicate's perturbation scenario, and reduce the
run to a plain result dict, asking the design for its makespan.  Tasks
are plain data and :func:`run_replicate` is module-level, because
replicates cross process boundaries through the
:class:`~repro.parallel.SweepExecutor`.
"""

from __future__ import annotations

from typing import Any

from ..apps import build_design
from ..faults.inject import FaultInjector
from ..faults.scenarios import FaultScenario
from ..obs.metrics import Histogram, MetricsRegistry
from ..sim import ProcessFailure

__all__ = ["CAMPAIGN_BUCKETS", "run_replicate"]

#: Histogram bucket bounds for campaign makespans (simulated seconds,
#: 10 ms .. ~1 day, ~x3 per step).  Wider than the instrument-latency
#: :data:`~repro.obs.metrics.DEFAULT_BUCKETS` because FW makespans run
#: to thousands of simulated seconds.  Shared by every replicate so
#: per-replicate histograms merge.
CAMPAIGN_BUCKETS = (
    1e-2, 3e-2, 1e-1, 3e-1, 1.0, 3.0, 10.0, 30.0,
    1e2, 3e2, 1e3, 3e3, 1e4, 3e4, 1e5,
)


def _makespan_hist(makespan: float) -> dict[str, Any]:
    hist = Histogram("campaign.makespan", {}, buckets=CAMPAIGN_BUCKETS)
    hist.observe(makespan)
    return hist.to_dict()


def run_replicate(task: dict[str, Any]) -> dict[str, Any]:
    """Evaluate one replicate task (module-level for process pools).

    Simulates the app's *nominal* plan under the replicate's fault
    scenario (the campaign measures how the chosen design behaves under
    perturbation -- re-planning per replicate would measure the
    adaptive policies instead, which is :mod:`repro.faults`' job) and
    reconciles the perturbed makespan against the nominal prediction.

    Replicates run untraced: the result keeps only the makespan and the
    overlap reconciliation, neither of which needs a trace, and
    :func:`repro.campaign.explain.run_traced` re-runs a replicate with
    tracing when a regression needs explaining.  Untraced, a replicate
    whose perturbation is steady rate jitter takes the analytic fast
    path with its factors folded in
    (:func:`repro.sim.analytic.fast_path_refusal`).  A stall burst folds
    too, for every app, with the stalls as channel holds: LU's op
    schedule runs on the analytic replay, FW's closed form folds them.
    Any other fault timeline still runs the DES.

    The result carries ``makespan`` (simulated seconds),
    ``overlap_efficiency``, ``predicted_latency`` and ``hist`` (the
    makespan on :data:`CAMPAIGN_BUCKETS`), or ``failed``/``failure`` for
    an aborted replicate; all JSON-able, because results are cached and
    embedded in ledger manifests verbatim.
    """
    design = build_design(task["app"], task.get("preset", "xd1"), task.get("n"), task.get("b"))
    scenario = FaultScenario.from_dict(task["scenario"])
    injector = FaultInjector(scenario) if scenario.has_faults else None
    registry = MetricsRegistry()  # keep replicate gauges off the global registry
    try:
        result = design.simulate(faults=injector)
    except ProcessFailure as exc:
        return {
            "replicate": task.get("replicate"),
            "seed": task.get("seed"),
            "failed": True,
            "failure": {
                "error": str(exc),
                "process": getattr(exc, "process_name", None),
                "time": getattr(exc, "sim_time", None),
            },
        }
    makespan = design.makespan(result)
    report = design.overlap_report(result=result, registry=registry)
    return {
        "replicate": task.get("replicate"),
        "seed": task.get("seed"),
        "failed": False,
        "makespan": makespan,
        "overlap_efficiency": report.overlap_efficiency,
        "predicted_latency": report.predicted_latency,
        "hist": _makespan_hist(makespan),
    }
