"""Graceful-degradation policies: re-solving the model under faults.

Given a scenario's post-fault steady state, this layer re-derives the
paper's Section 4.1 parameters and re-solves the partition equations --
Eq. (4) ``(b_p, b_f)`` + Eq. (5) ``l`` for LU, Eq. (6) ``(l1, l2)`` for
FW -- against the *perturbed* machine, then simulates the faulted run
with the chosen split and reconciles it against the perturbed
prediction.  One runner serves both apps: the design object re-plans
(``replan``) or re-predicts (``repredict``) its own split on the
perturbed parameters and names its own makespan, so nothing here
branches on the app.  Four policies:

``fail-fast``
    No adaptation, no re-accounting: run the nominal plan, abort on the
    first node failure, and measure the raw inflation against the
    *nominal* prediction.
``degrade-static``
    Keep the nominal partition but recompute the prediction against the
    perturbed parameters -- what the nominal split is *expected* to cost
    on the degraded machine.  Node failures are still fatal.
``repartition``
    Re-solve the Eq. (1)/(2)/(4)/(6) splits on the perturbed parameters
    and run the new split (same node count).  Node failures are still
    fatal -- a rate re-split cannot replace a dead peer.
``exclude-node``
    Remove failed nodes (``with_node_failure``, p -> p - f), re-solve on
    the perturbed parameters at the reduced node count -- redistributing
    the dead node's stripes per the Eq. (5) load-balance rule -- and
    inject only the surviving rate faults.  Without node failures this
    degenerates to ``repartition``.

The adapted runs model the post-recovery steady state: the new split is
in effect from t=0 and the separately-reported ``recovery_latency``
(first fault time + the configured re-planning overhead) quantifies the
detection/re-plan window rather than stretching the makespan.

Attribution: for every run the four Eq. (4)/(6) time terms are evaluated
at the *nominal* partition on nominal vs perturbed parameters; the term
with the largest relative increase names the model term responsible for
the inflation (``t_comm`` -> the Eq. (2)/(4) network term ``D_p/B_n``,
and so on), with a dead node attributed to the Eq. (5) node count.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Optional

from ..apps import build_design
from ..core.parameters import SystemParameters
from ..machine.scenarios import with_node_failure
from ..obs.metrics import MetricsRegistry
from ..sim import ProcessFailure
from .inject import FaultInjector
from .scenarios import FaultScenario

__all__ = [
    "POLICIES",
    "TERM_GLOSS",
    "FaultRunResult",
    "run_with_faults",
]

#: The graceful-degradation policies, least to most adaptive.
POLICIES = ("fail-fast", "degrade-static", "repartition", "exclude-node")

#: Model-term glosses for attribution (keys of the Eq. (4)/(6) terms).
TERM_GLOSS = {
    "t_comm": "Eq. (2)/(4) network term (D_p/B_n)",
    "t_mem": "Eq. (1)/(4) memory-staging term (D_f/B_d)",
    "t_p": "processor compute term (N_p/(O_p F_p))",
    "t_f": "FPGA pipeline term (N_f/(O_f F_f))",
    "p": "Eq. (5) node count p",
}

@dataclass
class FaultRunResult:
    """Everything one (app, scenario, policy) fault run produced."""

    app: str
    preset: str
    scenario: FaultScenario
    policy: str
    p: int
    p_effective: int
    nominal_makespan: float
    nominal_efficiency: float
    nominal_partition: dict[str, Any]
    partition: dict[str, Any]  # the split the faulted run used
    predicted_latency: float  # max{T_tp, T_tf} backing faulted_efficiency
    faulted_makespan: Optional[float] = None
    faulted_efficiency: Optional[float] = None
    failed: bool = False
    failure: Optional[dict[str, Any]] = None
    recovery_latency: Optional[float] = None
    attribution: dict[str, Any] = field(default_factory=dict)
    injected: list[dict[str, Any]] = field(default_factory=list)

    @property
    def makespan_inflation(self) -> Optional[float]:
        """Faulted / nominal makespan (None for aborted runs)."""
        if self.failed or not self.faulted_makespan or self.nominal_makespan <= 0:
            return None
        return self.faulted_makespan / self.nominal_makespan

    @property
    def efficiency_retention(self) -> Optional[float]:
        """Faulted / nominal overlap efficiency (None for aborted runs)."""
        if self.failed or self.faulted_efficiency is None or self.nominal_efficiency <= 0:
            return None
        return self.faulted_efficiency / self.nominal_efficiency

    def to_dict(self) -> dict[str, Any]:
        """JSON-able form (the sweep cache value and ledger payload)."""
        return {
            "app": self.app,
            "preset": self.preset,
            "scenario": self.scenario.to_dict(),
            "policy": self.policy,
            "p": self.p,
            "p_effective": self.p_effective,
            "nominal_makespan": self.nominal_makespan,
            "nominal_efficiency": self.nominal_efficiency,
            "nominal_partition": self.nominal_partition,
            "partition": self.partition,
            "predicted_latency": self.predicted_latency,
            "faulted_makespan": self.faulted_makespan,
            "faulted_efficiency": self.faulted_efficiency,
            "makespan_inflation": self.makespan_inflation,
            "efficiency_retention": self.efficiency_retention,
            "failed": self.failed,
            "failure": self.failure,
            "recovery_latency": self.recovery_latency,
            "attribution": self.attribution,
            "injected": self.injected,
        }


# ------------------------------------------------------------ helpers


def _perturbed_params(params: SystemParameters, scenario: FaultScenario) -> SystemParameters:
    """``params`` under the scenario's steady-state rate factors.

    A clock throttle scales ``F_f`` only: the DMA engine keeps its
    configured streaming rate (matching the injector), so ``B_d`` moves
    only with explicit DRAM contention.
    """
    factors = scenario.rate_factors()
    return params.with_(
        b_n=params.b_n * factors["b_n"],
        f_f=params.f_f * factors["f_f"],
        b_d=params.b_d * factors["b_d"],
    )


def _attribution(
    nominal: Any, perturbed: Any, failed_nodes: tuple[int, ...], p: int
) -> dict[str, Any]:
    """Name the model term responsible for the inflation, from the
    nominal and perturbed partitions of one split."""
    inflation: dict[str, float] = {}
    for name in ("t_p", "t_f", "t_comm", "t_mem"):
        nom, per = getattr(nominal, name), getattr(perturbed, name)
        if nom > 0:
            inflation[name] = per / nom - 1.0
        else:
            inflation[name] = 0.0
    if failed_nodes:
        inflation["p"] = p / (p - len(failed_nodes)) - 1.0
    term = max(inflation, key=lambda k: inflation[k])
    if inflation[term] <= 1e-12:
        term = None
    return {
        "term": term,
        "gloss": TERM_GLOSS.get(term, "") if term else "no model term degraded",
        "inflation": inflation,
    }


def _failure_info(exc: ProcessFailure) -> dict[str, Any]:
    return {
        "error": str(exc),
        "process": getattr(exc, "process_name", None),
        "time": getattr(exc, "sim_time", None),
        "lane": getattr(exc, "lane", None),
    }


def _aborted(result: FaultRunResult, failure: dict[str, Any]) -> FaultRunResult:
    result.failed = True
    result.failure = failure
    result.faulted_makespan = failure.get("time")
    result.faulted_efficiency = None
    return result


# ------------------------------------------------------------ the runner


def run_with_faults(
    app: str,
    scenario: FaultScenario | dict,
    policy: str = "repartition",
    *,
    preset: str = "xd1",
    n: Optional[int] = None,
    b: Optional[int] = None,
    k: Optional[int] = None,
    sim_overrides: Optional[dict[str, Any]] = None,
    replan_latency: float = 0.0,
) -> FaultRunResult:
    """One fault run: nominal baseline, perturbed re-plan, faulted run.

    Simulates the app twice -- nominally, then under the scenario with
    the policy's partition -- and reconciles both against their model
    predictions, so the result carries makespan inflation, overlap-
    efficiency retention, recovery latency and the model-term
    attribution.  ``app`` is ``"lu"`` or ``"fw"`` (MM supports raw
    injection via ``MmDesign.simulate(faults=...)`` but has no
    Eq.-based re-partitioning policy).  ``k`` is the FPGA's PE array
    size (the device's own by default).  One runner serves both apps:
    the design re-plans (:meth:`~repro.apps.lu.LuDesign.replan`) or
    re-predicts (:meth:`~repro.apps.lu.LuDesign.repredict`) its own
    split on the perturbed parameters.
    """
    if isinstance(scenario, dict):
        scenario = FaultScenario.from_dict(scenario)
    if policy not in POLICIES:
        raise ValueError(f"unknown policy {policy!r}; expected one of {POLICIES}")
    base = build_design(app, preset, n, b, k=k)
    over = dict(sim_overrides or {})
    registry = MetricsRegistry()  # keep fault-run gauges off the global registry
    # Untraced: the result keeps only the baseline's makespan, efficiency
    # and predicted latency, so it may run on the fast path.
    nominal = base.overlap_report(base.simulate(**over), registry=registry)
    perturbed = _perturbed_params(base.params, scenario)
    static = base.repredict(perturbed)
    failed_nodes = scenario.failed_nodes()
    p = base.spec.p
    result = FaultRunResult(
        app=app,
        preset=preset,
        scenario=scenario,
        policy=policy,
        p=p,
        p_effective=p,
        nominal_makespan=nominal.simulated_makespan,
        nominal_efficiency=nominal.overlap_efficiency,
        nominal_partition=base.partition_params(),
        partition=base.partition_params(),
        predicted_latency=nominal.predicted_latency,
        recovery_latency=_recovery(scenario, policy, replan_latency),
        attribution=_attribution(base.plan.partition, static.plan.partition, failed_nodes, p),
    )

    run, run_scenario = base, scenario
    try:
        if policy == "degrade-static":
            run = static
        elif policy == "repartition":
            run = base.replan(perturbed)
        elif policy == "exclude-node":
            spec = base.spec
            for node_id in failed_nodes:
                spec = with_node_failure(spec, node_id)
            survivors = type(base)(spec, base.n, base.b, base.k)  # re-validates the layout
            run = survivors.replan(_perturbed_params(survivors.params, scenario))
            run_scenario = scenario.without_node_failures()
            result.p_effective = spec.p
        result.partition = run.partition_params()
    except ValueError as exc:
        return _aborted(result, {"error": str(exc), "stage": "replan"})

    injector = FaultInjector(run_scenario, fail_fast=(policy != "exclude-node"))
    # Traced only when a node failure can abort the run: the trace is
    # read solely for the failure's last active lane, and a node failure
    # never folds, so every other scenario may take the fast path.
    try:
        faulted = run.simulate(
            trace=bool(run_scenario.failed_nodes()), faults=injector, **over
        )
    except ProcessFailure as exc:
        result.injected = injector.injected
        return _aborted(result, _failure_info(exc))
    result.injected = injector.injected
    report = run.overlap_report(faulted, registry=registry)
    result.faulted_makespan = report.simulated_makespan
    result.predicted_latency = report.predicted_latency
    result.faulted_efficiency = report.overlap_efficiency
    return result


def _recovery(scenario: FaultScenario, policy: str, replan_latency: float) -> Optional[float]:
    if policy not in ("repartition", "exclude-node") or not scenario.has_faults:
        return None
    first = scenario.first_fault_time()
    return (first or 0.0) + replan_latency
