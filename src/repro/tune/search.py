"""Successive-halving search with local refinement and Pareto extraction.

Every feasible point is evaluated once; the later rungs re-rank those
exact values under the DES budget:

1. **Rung 0 (analytic).**  Every feasible point in the space is scored
   through the process fast-path mode -- the analytic fast path where
   eligible (bitwise identical to the DES), the DES where it refuses
   (docs/performance.md).  So each rung-0 value *is* the DES value.
2. **Rung 1 (DES).**  The top ``1/eta`` of rung 0 (clipped so the
   refinement pass keeps part of the budget) is re-ranked on its rung-0
   values; the ranking picks the incumbent.
3. **Refinement rungs.**  Axis-adjacent neighbours of the incumbent are
   re-ranked the same way while budget remains and the incumbent keeps
   moving -- hill-climbing on the grid around the survivor.
4. **Resilience rung (optional).**  The strongest survivors are probed
   under a seeded fault scenario (their own partition held fixed,
   policy ``degrade-static``), adding a third Pareto objective:
   overlap-efficiency retention under faults.

Rungs 1 and up keep the ``des`` name, budget and counters
(``evals["des"]``, ``tune.evals.des``) of the full-fidelity rung they
stand for, so the manifest reads as if each survivor had been simulated
again; no simulation runs for them.

Determinism contract (same as :mod:`repro.campaign`): tasks are
enumerated parent-side, results reassembled by index, rankings break
ties on canonical point JSON, the resilience scenario derives from the
master seed -- so serial and ``--jobs N`` runs of one spec produce
bitwise-identical manifests, and the DES budget counts *scheduled*
evaluations (not cache misses) so warm caches change wall-clock only,
never the search trajectory.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Any, Optional

from ..campaign.seeds import derive_seed
from ..faults.scenarios import build_scenario
from ..obs.metrics import REGISTRY
from ..parallel import (ResultCache, SweepExecutor, as_cache, cached_map, executor_for,
                        sweep_telemetry)
from ..parallel.grid import canonical_json
from .evaluate import objectives_for, point_task, resilience_task, run_tune_task
from .pareto import DEFAULT_SENSES, pareto_front
from .space import SearchSpace

__all__ = [
    "TUNE_MANIFEST_SCHEMA",
    "TuneSpec",
    "run_tune",
    "load_manifest",
]

#: Version of the tune-manifest document layout (independent of the
#: ledger's envelope schema, which versions entries).
TUNE_MANIFEST_SCHEMA = 1


@dataclass(frozen=True)
class TuneSpec:
    """The full, serializable description of one guided search."""

    space: SearchSpace
    seed: int = 0
    #: Keep the top ``1/eta`` of the analytic rung for DES promotion.
    eta: int = 4
    #: Total full-fidelity DES evaluations allowed (halving rung plus
    #: refinement).  Default: a quarter of the space -- the headline
    #: claim is finding the optimum at <= 25% of the exhaustive cost.
    budget: Optional[int] = None
    #: Neighbourhood radius (axis steps) for local refinement; 0 disables.
    refine: int = 1
    #: Optional fault-scenario name for the resilience objective
    #: (e.g. ``brownout``, ``degraded-link``, ``fpga-throttle``).
    resilience: Optional[str] = None
    #: How many DES survivors to score under faults.
    resilience_keep: int = 2

    def __post_init__(self) -> None:
        if self.eta < 2:
            raise ValueError(f"eta must be >= 2, got {self.eta}")
        if self.budget is not None and self.budget < 1:
            raise ValueError(f"budget must be >= 1, got {self.budget}")
        if self.refine < 0:
            raise ValueError(f"refine must be >= 0, got {self.refine}")
        if self.resilience_keep < 1:
            raise ValueError(f"resilience_keep must be >= 1, got {self.resilience_keep}")

    def effective_budget(self, space_size: int) -> int:
        """The DES-evaluation cap for a space of ``space_size`` points."""
        if self.budget is not None:
            return self.budget
        return max(1, math.ceil(space_size / 4))

    def to_dict(self) -> dict[str, Any]:
        data: dict[str, Any] = {
            "space": self.space.to_dict(),
            "seed": self.seed,
            "eta": self.eta,
            "refine": self.refine,
        }
        if self.budget is not None:
            data["budget"] = self.budget
        if self.resilience:
            data["resilience"] = self.resilience
            data["resilience_keep"] = self.resilience_keep
        return data

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "TuneSpec":
        return cls(
            space=SearchSpace.from_dict(data["space"]),
            seed=int(data.get("seed", 0)),
            eta=int(data.get("eta", 4)),
            budget=data.get("budget"),
            refine=int(data.get("refine", 1)),
            resilience=data.get("resilience"),
            resilience_keep=int(data.get("resilience_keep", 2)),
        )


def _ranked(records: list[dict[str, Any]]) -> list[dict[str, Any]]:
    """Records by descending GFLOPS, canonical point JSON as tiebreak."""
    return sorted(
        records,
        key=lambda r: (-float(r["objectives"]["gflops"]), canonical_json(r["point"])),
    )


def _brief(record: dict[str, Any]) -> dict[str, Any]:
    """The compact (point, gflops) form used inside rung summaries."""
    return {
        "point": dict(record["point"]),
        "gflops": record["objectives"]["gflops"],
    }


def run_tune(
    spec: TuneSpec,
    *,
    jobs: Any = None,
    cache: Any = None,
    telemetry: Optional[dict[str, Any]] = None,
) -> dict[str, Any]:
    """Run the guided search; returns the tune manifest.

    ``jobs``/``cache`` behave as in :func:`repro.campaign.run_campaign`;
    ``telemetry`` (a dict, filled in place) receives executor spans and
    cache statistics -- kept out of the manifest, which must stay
    bitwise-deterministic across worker counts and cache states.
    """
    with executor_for(jobs) as executor:
        return _search(spec, executor, as_cache(cache), telemetry)


def _search(
    spec: TuneSpec,
    executor: SweepExecutor,
    cache: Optional[ResultCache],
    telemetry: Optional[dict[str, Any]],
) -> dict[str, Any]:
    """:func:`run_tune` on a resolved executor and cache."""
    space = spec.space
    grid_size = len(space.grid())
    points = space.points()
    if not points:
        raise ValueError("search space has no feasible points")
    n0 = len(points)
    budget = spec.effective_budget(n0)
    # Evaluations scheduled per fidelity (not cache misses), so a warm
    # cache changes wall-clock only, never the manifest's ``evals``.
    scheduled = {"analytic": 0, "des": 0, "resilience": 0}

    def count(fidelity: str, n: int) -> None:
        scheduled[fidelity] += n
        REGISTRY.counter(f"tune.evals.{fidelity}").inc(n)

    def evaluate(tasks: list[dict[str, Any]], fidelity: str) -> list[Any]:
        count(fidelity, len(tasks))
        computed = 0

        def compute(todo: list[dict[str, Any]]) -> list[Any]:
            nonlocal computed
            computed = len(todo)
            return executor.map(run_tune_task, todo)

        values = cached_map(tasks, compute, cache)
        if cache is not None:
            REGISTRY.counter("tune.cache_hits").inc(len(tasks) - computed)
        return values

    rungs: list[dict[str, Any]] = []
    records: dict[str, dict[str, Any]] = {}

    def record(point: dict[str, Any], value: Any, fidelity: str, rung: int) -> dict[str, Any]:
        rec = {
            "point": dict(point),
            "params": space.params(point),
            "objectives": objectives_for(space, point, value),
            "fidelity": fidelity,
            "rung": rung,
        }
        records[canonical_json(point)] = rec
        return rec

    # -- rung 0: analytic scores for the whole space --------------------
    values = evaluate([point_task(space, pt) for pt in points], "analytic")
    exact = {canonical_json(pt): value for pt, value in zip(points, values)}
    for pt, value in zip(points, values):
        record(pt, value, "analytic", 0)

    def rerank(pts: list[dict[str, Any]], rung: int) -> list[dict[str, Any]]:
        """DES-rung records from the rung-0 values: the fast path returns
        the DES's own value or runs the DES, so no point runs twice.
        Every point re-ranked here is a feasible grid point."""
        count("des", len(pts))
        return [record(pt, exact[canonical_json(pt)], "des", rung) for pt in pts]

    ranked0 = _ranked(list(records.values()))
    # Reserve part of the DES budget for refinement around the incumbent
    # (one round costs at most two neighbours per axis per radius step).
    reserve = min(budget // 2, 2 * spec.refine * len(space.axes)) if spec.refine else 0
    n1 = max(1, min(math.ceil(n0 / spec.eta), budget - reserve, budget))
    REGISTRY.counter("tune.rungs").inc()
    rungs.append(
        {
            "rung": 0,
            "fidelity": "analytic",
            "evaluated": n0,
            "kept": n1,
            "best": _brief(ranked0[0]),
        }
    )

    # -- rung 1: the survivors, re-ranked at full fidelity ---------------
    survivors = [dict(r["point"]) for r in ranked0[:n1]]
    incumbent = _ranked(rerank(survivors, 1))[0]
    REGISTRY.counter("tune.rungs").inc()
    rungs.append(
        {
            "rung": 1,
            "fidelity": "des",
            "evaluated": len(survivors),
            "kept": 1,
            "best": _brief(incumbent),
        }
    )

    # -- refinement rungs: hill-climb the grid around the incumbent ------
    while spec.refine and scheduled["des"] < budget:
        fresh = [
            pt
            for pt in space.neighbors(incumbent["point"], radius=spec.refine)
            if records[canonical_json(pt)]["fidelity"] != "des"
        ][: budget - scheduled["des"]]
        if not fresh:
            break
        batch = rerank(fresh, len(rungs))
        best = _ranked(batch + [incumbent])[0]
        REGISTRY.counter("tune.rungs").inc()
        rungs.append(
            {
                "rung": len(rungs),
                "fidelity": "des",
                "evaluated": len(fresh),
                "kept": 1,
                "best": _brief(best),
            }
        )
        if best is incumbent:
            break
        incumbent = best

    # -- optional resilience rung ----------------------------------------
    senses = {k: v for k, v in DEFAULT_SENSES.items() if k != "resilience"}
    scenario_dict: Optional[dict[str, Any]] = None
    if spec.resilience:
        scenario = build_scenario(
            spec.resilience, seed=derive_seed(spec.seed, "resilience", spec.resilience)
        )
        scenario_dict = scenario.to_dict()
        des_ranked = _ranked([r for r in records.values() if r["fidelity"] == "des"])
        candidates = des_ranked[: spec.resilience_keep]
        values = evaluate(
            [resilience_task(space, r["point"], scenario_dict) for r in candidates],
            "resilience",
        )
        for rec, value in zip(candidates, values):
            rec["resilience"] = dict(value)
            rec["objectives"]["resilience"] = (
                0.0 if value["failed"] else float(value["efficiency_retention"])
            )
        senses = dict(DEFAULT_SENSES)
        REGISTRY.counter("tune.rungs").inc()
        rungs.append(
            {
                "rung": len(rungs),
                "fidelity": "resilience",
                "evaluated": len(candidates),
                "kept": len(candidates),
                "best": _brief(candidates[0]) if candidates else None,
            }
        )

    des_used = scheduled["des"]
    if telemetry is not None:
        telemetry.update(sweep_telemetry(executor, cache))

    # -- Pareto front -----------------------------------------------------
    # With a resilience objective the front is over the fully-scored
    # candidates (all three objectives present); otherwise over every
    # evaluated point (GFLOPS vs slice utilisation).
    if spec.resilience:
        front_rows = [r for r in records.values() if "resilience" in r["objectives"]]
    else:
        front_rows = list(records.values())
    front = pareto_front(front_rows, senses)

    # Every evaluated point (refinement neighbours included) is a member
    # of the feasible grid, so grid order enumerates them all.
    ordered = [records[canonical_json(pt)] for pt in points]
    manifest: dict[str, Any] = {
        "kind": "tune",
        "manifest_schema": TUNE_MANIFEST_SCHEMA,
        "preset": space.machine,
        "app": space.kind,
        "spec": spec.to_dict(),
        "space": {
            "size": n0,
            "grid_size": grid_size,
            "infeasible": grid_size - n0,
            "axes": {name: len(vals) for name, vals in space.axes.items()},
        },
        "budget": {"des": budget, "des_used": des_used},
        "evals": dict(scheduled),
        "exhaustive_des": n0,
        "savings": {
            "des_evals_saved": n0 - des_used,
            "fraction_of_exhaustive": des_used / n0,
        },
        "rungs": rungs,
        "incumbent": {
            "point": dict(incumbent["point"]),
            "params": dict(incumbent["params"]),
            "objectives": dict(incumbent["objectives"]),
            "fidelity": incumbent["fidelity"],
        },
        "objectives": senses,
        "front": [
            {
                "point": dict(r["point"]),
                "objectives": dict(r["objectives"]),
                "fidelity": r["fidelity"],
            }
            for r in front
        ],
        "points": ordered,
    }
    if scenario_dict is not None:
        manifest["scenario"] = scenario_dict
    return manifest


def load_manifest(path: str) -> dict[str, Any]:
    """Load a tune manifest (or a ledger ``tune`` entry) from JSON."""
    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    if not isinstance(data, dict):
        raise ValueError(f"{path}: expected a JSON object")
    if data.get("kind") == "tune" and "front" in data:
        return data
    raise ValueError(f"{path}: not a tune manifest (kind={data.get('kind')!r})")
