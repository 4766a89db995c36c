"""Pluggable replicate runners (the campaign's adapter layer).

A campaign cell names an app; a *runner* knows how to evaluate one
replicate of it -- build the design, simulate it under the replicate's
perturbation scenario, and reduce the run to a plain result dict.  The
indirection keeps the campaign engine app-agnostic: the sparse kernels
and autotuner planned in the roadmap drop in by registering a runner,
without touching enumeration, aggregation or the statistics.

Runners must be importable objects and tasks plain data, because
replicates cross process boundaries through the
:class:`~repro.parallel.SweepExecutor`.  Custom runners registered via
:func:`register_runner` are visible to serial runs and to workers that
import the registering module; the built-in LU/FW design runner is
always available.
"""

from __future__ import annotations

from typing import Any, Protocol

from ..faults.adapt import DEFAULT_SIZES
from ..faults.inject import FaultInjector
from ..faults.scenarios import FaultScenario
from ..machine.presets import ALL_PRESETS
from ..obs.metrics import Histogram, MetricsRegistry
from ..sim import ProcessFailure

__all__ = [
    "CAMPAIGN_BUCKETS",
    "ReplicateRunner",
    "DesignRunner",
    "RUNNERS",
    "build_design",
    "register_runner",
    "resolve_runner",
    "run_replicate",
]

#: Histogram bucket bounds for campaign makespans (simulated seconds,
#: 10 ms .. ~1 day, ~x3 per step).  Wider than the instrument-latency
#: :data:`~repro.obs.metrics.DEFAULT_BUCKETS` because FW makespans run
#: to thousands of simulated seconds.  Shared by every runner so
#: per-replicate histograms merge.
CAMPAIGN_BUCKETS = (
    1e-2, 3e-2, 1e-1, 3e-1, 1.0, 3.0, 10.0, 30.0,
    1e2, 3e2, 1e3, 3e3, 1e4, 3e4, 1e5,
)


class ReplicateRunner(Protocol):
    """One campaign replicate: task dict in, plain result dict out.

    The result must carry ``makespan`` (simulated seconds),
    ``overlap_efficiency``, ``predicted_latency`` and ``hist`` (a
    :meth:`~repro.obs.metrics.Histogram.to_dict` of the makespan on
    :data:`CAMPAIGN_BUCKETS`), or ``failed``/``failure`` for an aborted
    replicate.  Everything must be JSON-able: results are cached
    content-addressed and embedded in ledger manifests verbatim.
    """

    def run(self, task: dict[str, Any]) -> dict[str, Any]: ...  # pragma: no cover


def _makespan_hist(makespan: float) -> dict[str, Any]:
    hist = Histogram("campaign.makespan", {}, buckets=CAMPAIGN_BUCKETS)
    hist.observe(makespan)
    return hist.to_dict()


def build_design(
    app: str, preset: str = "xd1", n: Any = None, b: Any = None
):
    """The app's design object on a machine preset (sizes defaulted).

    The shared construction path of :class:`DesignRunner` and the
    traced re-runs in :mod:`repro.campaign.explain`, so an explanation
    re-simulates exactly the design the campaign replicate ran.
    """
    try:
        spec = ALL_PRESETS[preset]()
    except KeyError:
        raise ValueError(
            f"unknown preset {preset!r}; available: {sorted(ALL_PRESETS)}"
        ) from None
    if app not in DEFAULT_SIZES:
        raise ValueError(f"no design builder for app {app!r}")
    default_n, default_b = DEFAULT_SIZES[app]
    n = int(n or default_n)
    b = int(b or default_b)
    if app == "lu":
        from ..apps.lu.design import LuDesign

        return LuDesign(spec, n, b)
    if app == "fw":
        from ..apps.fw.design import FwDesign

        return FwDesign(spec, n, b)
    raise ValueError(f"no design builder for app {app!r}")


class DesignRunner:
    """The built-in runner for the paper's LU and FW designs.

    Simulates the app's *nominal* plan under the replicate's fault
    scenario (the campaign measures how the chosen design behaves under
    perturbation -- re-planning per replicate would measure the
    adaptive policies instead, which is :mod:`repro.faults`' job) and
    reconciles the perturbed makespan against the nominal prediction.

    Replicates run untraced: the result keeps only the makespan and the
    overlap reconciliation, neither of which needs a trace, and
    :func:`repro.campaign.explain.run_traced` re-runs a replicate with
    tracing when a regression needs explaining.  Untraced, a replicate
    whose perturbation is steady rate jitter alone (no stall burst)
    takes the analytic fast path with its factors folded in
    (:func:`repro.sim.analytic.fast_path_refusal`); stall bursts and
    other fault timelines still run the DES.
    """

    apps = ("lu", "fw")

    def run(self, task: dict[str, Any]) -> dict[str, Any]:
        app = task["app"]
        design = build_design(
            app, task.get("preset", "xd1"), task.get("n"), task.get("b")
        )
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
        makespan = result.total_elapsed if app == "fw" else result.elapsed
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


#: App name -> runner.  Extend via :func:`register_runner`.
RUNNERS: dict[str, ReplicateRunner] = {app: DesignRunner() for app in DesignRunner.apps}


def register_runner(app: str, runner: ReplicateRunner) -> None:
    """Register (or replace) the replicate runner for ``app``.

    Worker processes resolve runners from their own copy of this
    registry, so a custom runner's module must be imported on the
    worker side too (e.g. registered at import time of the package that
    defines it).
    """
    RUNNERS[app] = runner


def resolve_runner(app: str) -> ReplicateRunner:
    try:
        return RUNNERS[app]
    except KeyError:
        raise ValueError(
            f"no campaign runner for app {app!r}; registered: {sorted(RUNNERS)}"
        ) from None


def run_replicate(task: dict[str, Any]) -> dict[str, Any]:
    """Evaluate one replicate task (module-level for process pools)."""
    return resolve_runner(task["app"]).run(task)
