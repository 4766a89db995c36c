"""Campaign enumeration, replicated execution, and aggregation.

A *campaign* is a grid of cells -- (app x preset x fault scenario) --
each evaluated ``replicates`` times under seeded randomized
perturbations (:mod:`repro.campaign.perturb`).  Replicates are plain
task dicts fanned out through the shared
:class:`~repro.parallel.SweepExecutor` / :class:`~repro.parallel.ResultCache`
infrastructure, then folded per cell into distribution summaries
(median / IQR / p95 / p99 plus a mergeable
:class:`~repro.obs.metrics.Histogram`) inside a schema-versioned
*campaign manifest* -- the JSON document that enters the run ledger and
that :mod:`repro.campaign.stats` compares across campaigns.

Everything here is deterministic given the spec: sub-seeds derive from
(master seed, cell key, replicate index), perturbations are sampled
parent-side before fan-out, and results are reassembled in task order,
so serial and ``--jobs N`` runs produce bitwise-identical manifests.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Iterable, Optional

from ..faults.scenarios import FaultEvent, FaultScenario
from ..obs.metrics import REGISTRY, Histogram
from ..parallel import as_cache, cached_map, executor_for, sweep_telemetry
from ..sim.analytic import fastpath_summary
from .perturb import PerturbationModel, default_model
from .runner import DesignRunner, run_replicate
from .seeds import derive_seed

__all__ = [
    "MANIFEST_SCHEMA",
    "CampaignSpec",
    "cell_key",
    "campaign_tasks",
    "run_campaign",
    "iter_cells",
    "load_manifest",
    "write_manifest",
]

#: Version of the campaign-manifest document layout (the ``cells`` /
#: ``spec`` structure below).  Independent of the ledger's envelope
#: schema: the ledger versions *entries*, this versions the manifest
#: they embed.
MANIFEST_SCHEMA = 1


@dataclass(frozen=True)
class CampaignSpec:
    """The full, serializable description of one campaign.

    A spec plus a master ``seed`` pins every random draw the campaign
    makes; two runs of the same spec (any ``jobs`` setting) produce the
    same manifest byte for byte.
    """

    apps: tuple[str, ...] = ("lu", "fw")
    preset: str = "xd1"
    #: Optional multi-preset grid; empty means "just :attr:`preset`".
    #: Each app x scenario pair is evaluated once per preset, with its
    #: own cell key (``app@preset/scenario``) and sub-seed stream.  Not
    #: every app runs on every preset (LU needs p >= 2 nodes, FW's
    #: block size must divide its tile) -- callers pick compatible
    #: combinations, the design constructors fail fast otherwise.
    presets: tuple[str, ...] = ()
    scenarios: tuple[FaultScenario, ...] = (FaultScenario(name="nominal"),)
    replicates: int = 20
    seed: int = 0
    perturb: PerturbationModel = field(default_factory=default_model)
    sizes: Optional[dict[str, tuple[int, int]]] = None
    #: Optional persistent FPGA clock factor applied to *every* cell
    #: (e.g. 0.8 = a 20% slower FPGA) -- the knob used to manufacture a
    #: known-regressed campaign for testing the observatory itself.
    throttle_fpga: Optional[float] = None

    def __post_init__(self) -> None:
        if not self.apps:
            raise ValueError("campaign needs at least one app")
        if not self.scenarios:
            raise ValueError("campaign needs at least one scenario")
        if self.replicates < 1:
            raise ValueError(f"replicates must be >= 1, got {self.replicates}")
        if self.throttle_fpga is not None and not 0.0 < self.throttle_fpga <= 1.0:
            raise ValueError(
                f"throttle_fpga must be in (0, 1], got {self.throttle_fpga}"
            )
        if len(set(self.presets)) != len(self.presets):
            raise ValueError(f"duplicate presets: {self.presets}")

    @property
    def effective_presets(self) -> tuple[str, ...]:
        """The preset grid actually enumerated (``presets`` or the single
        ``preset``)."""
        return self.presets or (self.preset,)

    def to_dict(self) -> dict[str, Any]:
        data: dict[str, Any] = {
            "apps": list(self.apps),
            "preset": self.preset,
            "scenarios": [s.to_dict() for s in self.scenarios],
            "replicates": self.replicates,
            "seed": self.seed,
            "perturb": self.perturb.to_dict(),
        }
        if self.presets:
            data["presets"] = list(self.presets)
        if self.sizes:
            data["sizes"] = {app: list(nb) for app, nb in sorted(self.sizes.items())}
        if self.throttle_fpga is not None:
            data["throttle_fpga"] = self.throttle_fpga
        return data

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "CampaignSpec":
        sizes = data.get("sizes")
        return cls(
            apps=tuple(data.get("apps", ("lu", "fw"))),
            preset=data.get("preset", "xd1"),
            presets=tuple(data.get("presets", ())),
            scenarios=tuple(
                FaultScenario.from_dict(s) for s in data.get("scenarios", [{}])
            ),
            replicates=int(data.get("replicates", 20)),
            seed=int(data.get("seed", 0)),
            perturb=PerturbationModel.from_dict(data.get("perturb", {})),
            sizes={app: (int(nb[0]), int(nb[1])) for app, nb in sizes.items()}
            if sizes
            else None,
            throttle_fpga=data.get("throttle_fpga"),
        )


def cell_key(app: str, preset: str, scenario_name: str) -> str:
    """The canonical cell identifier, ``app@preset/scenario``."""
    return f"{app}@{preset}/{scenario_name or 'nominal'}"


def _with_throttle(
    scenario: FaultScenario, throttle: Optional[float]
) -> FaultScenario:
    """The cell's base scenario with the campaign-wide FPGA throttle."""
    if throttle is None or throttle == 1.0:
        return scenario
    events = scenario.events + (
        FaultEvent(kind="fpga_throttle", at=0.0, factor=throttle),
    )
    return FaultScenario(
        name=scenario.name,
        events=events,
        bursts=scenario.bursts,
        seed=scenario.seed,
    )


def campaign_tasks(spec: CampaignSpec) -> list[dict[str, Any]]:
    """The replicate task grid, one canonical picklable dict per run.

    Perturbations are sampled *here*, in the parent, from per-replicate
    sub-seeds; the drawn scenario rides inside the task so the result
    cache keys each replicate by the exact perturbation it simulated.
    """
    tasks: list[dict[str, Any]] = []
    for app in spec.apps:
        if app not in DesignRunner.apps:  # fail fast, before any replicate runs
            raise ValueError(
                f"no campaign runner for app {app!r}; available: {DesignRunner.apps}"
            )
        for preset in spec.effective_presets:
            for scenario in spec.scenarios:
                base = _with_throttle(scenario, spec.throttle_fpga)
                key = cell_key(app, preset, scenario.name)
                for replicate in range(spec.replicates):
                    sub_seed = derive_seed(spec.seed, key, replicate)
                    concrete = spec.perturb.sample(sub_seed, base=base)
                    task: dict[str, Any] = {
                        "kind": "campaign_replicate",
                        "app": app,
                        "preset": preset,
                        "cell": key,
                        "scenario_name": scenario.name or "nominal",
                        "replicate": replicate,
                        "seed": sub_seed,
                        "scenario": concrete.to_dict(),
                    }
                    if spec.sizes and app in spec.sizes:
                        task["n"], task["b"] = spec.sizes[app]
                    tasks.append(task)
    return tasks


def _quantile(ordered: list[float], q: float) -> float:
    """Linear-interpolated quantile of an already-sorted sample."""
    n = len(ordered)
    if n == 1:
        return ordered[0]
    pos = q * (n - 1)
    lo = int(pos)
    frac = pos - lo
    if frac == 0.0 or lo + 1 >= n:
        return ordered[lo]
    return ordered[lo] + (ordered[lo + 1] - ordered[lo]) * frac


def _distribution(samples: list[float], hist: Optional[Histogram]) -> dict[str, Any]:
    """The per-cell distribution summary block.

    Order statistics come from the raw replicate samples (exact);
    the merged histogram travels alongside for cross-campaign merging
    and sparkline rendering.
    """
    if not samples:
        return {
            "samples": [],
            "median": None,
            "q25": None,
            "q75": None,
            "iqr": None,
            "p95": None,
            "p99": None,
            "mean": None,
            "min": None,
            "max": None,
        }
    ordered = sorted(samples)
    q25 = _quantile(ordered, 0.25)
    q75 = _quantile(ordered, 0.75)
    return {
        "samples": samples,
        "median": _quantile(ordered, 0.5),
        "q25": q25,
        "q75": q75,
        "iqr": q75 - q25,
        "p95": _quantile(ordered, 0.95),
        "p99": _quantile(ordered, 0.99),
        "mean": sum(ordered) / len(ordered),
        "min": ordered[0],
        "max": ordered[-1],
    }


def _aggregate_cell(
    app: str,
    preset: str,
    spec: CampaignSpec,
    scenario: FaultScenario,
    results: list[dict[str, Any]],
) -> dict[str, Any]:
    ok = [r for r in results if not r.get("failed")]
    failed = [r for r in results if r.get("failed")]
    makespans = [float(r["makespan"]) for r in ok]
    efficiencies = [float(r["overlap_efficiency"]) for r in ok]
    merged: Optional[Histogram] = None
    for r in ok:
        h = Histogram.from_dict(r["hist"])
        merged = h if merged is None else merged.merge(h)
    cell: dict[str, Any] = {
        "app": app,
        "preset": preset,
        "scenario": _with_throttle(scenario, spec.throttle_fpga).to_dict(),
        "replicates": len(results),
        "completed": len(ok),
        "failures": len(failed),
        "predicted_latency": float(ok[0]["predicted_latency"]) if ok else None,
        "makespan": _distribution(makespans, merged),
        "efficiency": _distribution(efficiencies, None),
    }
    if merged is not None:
        cell["hist"] = merged.to_dict()
    if failed:
        cell["failed_replicates"] = [r.get("replicate") for r in failed]
    return cell


def _simulated_paths() -> dict[str, int]:
    """Points simulated so far by the analytic replay and by the DES."""
    summary = fastpath_summary() or {}
    return {path: summary.get(path, 0) for path in ("analytic", "des")}


def run_campaign(
    spec: CampaignSpec,
    *,
    jobs: Any = None,
    cache: Any = None,
    telemetry: Optional[dict[str, Any]] = None,
) -> dict[str, Any]:
    """Run the campaign; returns the aggregated manifest.

    ``jobs`` is a worker count, ``"auto"``, None (consults
    ``REPRO_PARALLEL``) or an existing :class:`~repro.parallel.
    SweepExecutor`, reused and left open; ``cache`` is anything
    :func:`~repro.parallel.as_cache` takes.  Results come back in task order
    regardless of worker scheduling, so the manifest -- and any ledger
    entry written from it -- is bitwise identical across serial and
    parallel runs of the same spec.

    ``telemetry``, when a dict, is filled in place with run-health
    wall-clock data -- the executor's per-worker spans / queue waits /
    straggler flags (:attr:`~repro.parallel.SweepExecutor.last_telemetry`),
    the cache hit statistics, and under ``replicates`` how many of the
    replicates simulated here took the analytic replay vs the DES (the
    ``fastpath.points`` deltas; cache hits simulate nothing).  It is kept
    *out* of the returned manifest on purpose: manifests are
    deterministic documents, compared bitwise in CI; telemetry goes to
    the ledger's ``workers`` block and the dashboard instead.
    """
    paths_before = _simulated_paths()
    tasks = campaign_tasks(spec)
    cache = as_cache(cache)
    with executor_for(jobs) as executor:
        results = cached_map(tasks, lambda todo: executor.map(run_replicate, todo), cache)
    if telemetry is not None:
        telemetry.update(sweep_telemetry(executor, cache))
        telemetry["replicates"] = {
            path: count - paths_before[path]
            for path, count in _simulated_paths().items()
        }

    # Fold task-ordered results back into cells (same nesting order as
    # campaign_tasks: app -> preset -> scenario -> replicate).
    cells: dict[str, dict[str, Any]] = {}
    cursor = 0
    failures = 0
    for app in spec.apps:
        for preset in spec.effective_presets:
            for scenario in spec.scenarios:
                chunk = results[cursor : cursor + spec.replicates]
                cursor += spec.replicates
                cell = _aggregate_cell(app, preset, spec, scenario, chunk)
                cells[cell_key(app, preset, scenario.name)] = cell
                failures += cell["failures"]
                REGISTRY.counter("campaign.replicates", preset=preset).inc(
                    spec.replicates
                )
                REGISTRY.counter("campaign.cells", preset=preset).inc()

    manifest: dict[str, Any] = {
        "kind": "campaign",
        "manifest_schema": MANIFEST_SCHEMA,
        "preset": spec.preset,
        "spec": spec.to_dict(),
        "replicates": spec.replicates,
        "points": len(tasks),
        "failures": failures,
        "cells": cells,
    }
    if spec.presets:
        manifest["presets"] = list(spec.presets)
    return manifest


def write_manifest(manifest: dict[str, Any], path: str) -> None:
    """Write a manifest as canonical JSON (sorted keys, trailing newline)."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_manifest(path: str) -> dict[str, Any]:
    """Load a campaign manifest (or campaign ledger entry) from JSON.

    Accepts both a bare manifest file written by :func:`write_manifest`
    and a ledger ``campaign`` entry (the entry's embedded ``spec`` /
    ``cells`` are hoisted into manifest shape).
    """
    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    if not isinstance(data, dict):
        raise ValueError(f"{path}: expected a JSON object")
    if data.get("kind") == "campaign" and "cells" in data:
        return data
    raise ValueError(f"{path}: not a campaign manifest (kind={data.get('kind')!r})")


def iter_cells(manifest: dict[str, Any]) -> Iterable[tuple[str, dict[str, Any]]]:
    """(key, cell) pairs in stable sorted order."""
    cells = manifest.get("cells", {})
    for key in sorted(cells):
        yield key, cells[key]
