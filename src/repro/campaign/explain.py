"""Root-cause explanation of flagged campaign cells (paired re-runs).

When :func:`repro.campaign.stats.compare_campaigns` flags a cell, the
verdict says *that* the distribution moved; this module says *why*.
For each flagged cell it

1. picks one representative replicate present on both sides (the
   completed replicate whose current-side makespan sits closest to the
   current median -- lowest index on ties, so the choice is
   deterministic),
2. reconstructs that replicate's exact task from each manifest -- the
   cell's base scenario (campaign throttle already folded in), the
   SHA-256 sub-seed ``derive_seed(spec.seed, cell_key, replicate)`` and
   the perturbation draw it pins -- so both sides re-simulate precisely
   what the campaign measured, seeded identically when the two
   campaigns share a master seed,
3. re-runs both sides under full tracing and reduces each to a
   critical path, per-lane busy times and per-activity busy times, and
4. diffs the pair into a ranked blame manifest via
   :func:`repro.obs.explain.build_explain` -- per-resource chain delta
   glossed with the paper's Eq (1)/(2)/(4)/(6) terms, per-phase delta,
   and the concrete lanes that moved.

Everything is a pure function of the two manifests, so explaining the
same pair twice yields bitwise-identical manifests, and explaining a
campaign against itself yields nothing (no flagged cells).
"""

from __future__ import annotations

from typing import Any, Iterable, Optional

from ..apps import build_design
from ..faults.inject import FaultInjector
from ..faults.scenarios import FaultScenario
from ..obs.critical_path import classify_label, critical_path
from ..obs.explain import build_explain
from .perturb import PerturbationModel
from .seeds import derive_seed
from .stats import DEFAULT_ALPHA, DEFAULT_EFFECT, compare_campaigns

__all__ = [
    "pick_replicate",
    "replicate_task",
    "run_traced",
    "explain_cell",
    "explain_comparison",
]


def _samples_by_replicate(cell: dict[str, Any]) -> dict[int, float]:
    """Replicate index -> makespan sample (failed replicates absent).

    Cells aggregate results in replicate order with failed replicates
    dropped from ``samples`` and listed in ``failed_replicates``, so
    zipping the surviving indices against the samples recovers the map.
    """
    total = int(cell.get("replicates") or 0)
    failed = set(cell.get("failed_replicates") or ())
    completed = [r for r in range(total) if r not in failed]
    samples = [float(v) for v in (cell.get("makespan") or {}).get("samples") or []]
    return dict(zip(completed, samples))


def pick_replicate(
    baseline_cell: dict[str, Any], current_cell: dict[str, Any]
) -> int:
    """The replicate to re-run: completed on both sides, nearest the
    current median (lowest index on ties -- deterministic)."""
    base_map = _samples_by_replicate(baseline_cell)
    cur_map = _samples_by_replicate(current_cell)
    shared = sorted(set(base_map) & set(cur_map))
    if not shared:
        raise ValueError("no replicate completed on both sides of the cell")
    median = (current_cell.get("makespan") or {}).get("median")
    if median is None:
        return shared[0]
    return min(shared, key=lambda r: (abs(cur_map[r] - float(median)), r))


def replicate_task(
    manifest: dict[str, Any], key: str, replicate: int
) -> dict[str, Any]:
    """Reconstruct one replicate's task dict from a campaign manifest.

    The cell's stored ``scenario`` is the base scenario with the
    campaign-wide FPGA throttle already folded in, and the perturbation
    model plus master seed live in the manifest's ``spec`` -- so the
    sub-seed and the concrete draw both re-derive exactly as
    :func:`repro.campaign.core.campaign_tasks` produced them.
    """
    spec = manifest.get("spec") or {}
    cell = manifest["cells"][key]
    base = FaultScenario.from_dict(cell["scenario"])
    sub_seed = derive_seed(int(spec.get("seed", 0)), key, replicate)
    concrete = PerturbationModel.from_dict(spec.get("perturb") or {}).sample(
        sub_seed, base=base
    )
    task: dict[str, Any] = {
        "kind": "campaign_replicate",
        "app": cell["app"],
        "preset": cell.get("preset", "xd1"),
        "cell": key,
        "scenario_name": cell["scenario"].get("name") or "nominal",
        "replicate": replicate,
        "seed": sub_seed,
        "scenario": concrete.to_dict(),
    }
    sizes = spec.get("sizes") or {}
    if cell["app"] in sizes:
        n, b = sizes[cell["app"]]
        task["n"], task["b"] = int(n), int(b)
    return task


def run_traced(task: dict[str, Any]) -> dict[str, Any]:
    """One replicate under full tracing, reduced for the blame diff.

    Unlike :func:`~repro.campaign.runner.run_replicate` (which keeps
    only the makespan), this keeps the whole trace and reduces it to
    the three views :func:`repro.obs.explain.build_explain` diffs:
    critical path, per-lane busy time, per-activity busy time.
    """
    design = build_design(
        task["app"], task.get("preset", "xd1"), task.get("n"), task.get("b")
    )
    scenario = FaultScenario.from_dict(task["scenario"])
    injector = FaultInjector(scenario) if scenario.has_faults else None
    result = design.simulate(trace=True, faults=injector)
    trace = result.trace
    return {
        "makespan": float(design.makespan(result)),
        "critical_path": critical_path(trace).to_dict(),
        "lanes": {lane: trace.busy_time(lane) for lane in trace.lanes()},
        "activity": trace.busy_by_class(classify_label),
    }


def explain_cell(
    baseline: dict[str, Any],
    current: dict[str, Any],
    key: str,
    *,
    replicate: Optional[int] = None,
    check_cell: Optional[dict[str, Any]] = None,
) -> dict[str, Any]:
    """One cell's explain manifest: re-run the pair, diff, rank blame."""
    try:
        base_cell = baseline["cells"][key]
        cur_cell = current["cells"][key]
    except KeyError:
        raise ValueError(f"cell {key!r} is not present in both manifests") from None
    rep = pick_replicate(base_cell, cur_cell) if replicate is None else int(replicate)
    base_task = replicate_task(baseline, key, rep)
    cur_task = replicate_task(current, key, rep)
    return build_explain(
        cell=key,
        app=cur_cell["app"],
        preset=cur_cell.get("preset", "xd1"),
        scenario_name=cur_task["scenario_name"],
        replicate=rep,
        seeds={"baseline": base_task["seed"], "current": cur_task["seed"]},
        baseline=run_traced(base_task),
        current=run_traced(cur_task),
        check=check_cell,
    )


def explain_comparison(
    baseline: dict[str, Any],
    current: dict[str, Any],
    *,
    comparison: Optional[dict[str, Any]] = None,
    cells: Optional[Iterable[str]] = None,
    alpha: float = DEFAULT_ALPHA,
    effect_threshold: float = DEFAULT_EFFECT,
) -> list[dict[str, Any]]:
    """Explain manifests for every flagged cell of a campaign check.

    ``comparison`` reuses an existing ``campaign_check`` document (so
    ``campaign check --explain`` explains exactly what it flagged);
    otherwise one is computed here.  ``cells`` overrides the selection
    (explain those cells whether or not they failed).  A check with no
    flagged cells -- e.g. a campaign against itself -- explains
    nothing and returns ``[]``.
    """
    if comparison is None:
        comparison = compare_campaigns(
            baseline, current, alpha=alpha, effect_threshold=effect_threshold
        )
    keys = sorted(cells) if cells is not None else list(comparison.get("flagged") or ())
    checked = comparison.get("cells") or {}
    return [
        explain_cell(baseline, current, key, check_cell=checked.get(key))
        for key in keys
    ]
