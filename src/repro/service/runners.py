"""Job kinds: one normalizer and one runner per kind, in one table.

A kind's *normalizer* reduces request params to the idempotent manifest
params :func:`repro.service.jobs.normalize_request` hashes: it holds the
kind's only defaults and validation.  Its *runner* takes those params
plus a :class:`RunnerContext` and returns a JSON-able result document;
it is the only place that builds the ``*_compare`` tasks, fault
scenarios, :class:`~repro.campaign.CampaignSpec` and
:class:`~repro.tune.TuneSpec` of a job.  The CLI's job commands (``lu``,
``fw``, ``faults sweep``, ``campaign run``, ``tune run``) and the server
both go through :func:`run_manifest`, so a CLI result and a service
result for the same params are the same document by construction, and
they share every per-point cache entry.

The table is open: :func:`register_runner` adds new kinds (tests use
throwaway kinds to exercise retry and queue behaviour without paying
for a real simulation); the built-in kinds cannot be replaced.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Optional

from .jobs import JOB_KINDS, JobError

__all__ = [
    "RunnerContext",
    "register_runner",
    "run_manifest",
    "unregister_runner",
]


@dataclass
class RunnerContext:
    """What a runner may use: the executor and cache every kind maps on.

    ``executor`` is the :class:`~repro.parallel.executor.SweepExecutor`
    every kind passes on as its ``jobs=`` (the server's persistent pool,
    reused across jobs so it pays startup once; the CLI's is built per
    command); None lets each sweep build its own from
    ``REPRO_PARALLEL``.  ``cache`` is a :class:`~repro.parallel.cache.
    ResultCache` or None (no cache: the environment is never consulted).
    ``jobs`` is ignored: nothing reads it, and it stays only because
    ``perfbench/make_reference.py`` still sets it.  ``telemetry``, when
    a dict, is filled in place with the wall-clock executor/cache data
    of ``campaign``/``tune`` runs -- never part of the result document.
    """

    executor: Any = None
    cache: Any = None
    jobs: Any = None
    telemetry: Optional[dict[str, Any]] = None


def _cache_arg(ctx: RunnerContext) -> Any:
    # A context with no cache must not silently pick one up from the
    # environment: False forces caching off.
    return ctx.cache if ctx.cache is not None else False


def _require_keys(kind: str, params: dict[str, Any], allowed: tuple[str, ...]) -> None:
    unknown = sorted(set(params) - set(allowed))
    if unknown:
        raise JobError(
            f"unknown parameter(s) {unknown} for job kind {kind!r}; "
            f"allowed: {sorted(allowed)}"
        )


def _as_names(value: Any, what: str) -> list[str]:
    """A list of non-empty names from a list or comma-separated string."""
    if isinstance(value, str):
        value = [part.strip() for part in value.split(",")]
    if not isinstance(value, (list, tuple)) or not value:
        raise JobError(f"{what} must be a non-empty list of names, got {value!r}")
    names = [str(v) for v in value if str(v).strip()]
    if not names:
        raise JobError(f"{what} must be a non-empty list of names, got {value!r}")
    return names


def _optional(value: Any, cast: Callable[[Any], Any]) -> Any:
    return cast(value) if value is not None else None


def _known(names: list[str], table: Any, what: str) -> list[str]:
    unknown = [name for name in names if name not in table]
    if unknown:
        raise JobError(f"unknown {what} {unknown}; expected from {sorted(table)}")
    return names


def _check_designs(apps: list[str], presets: list[str]) -> None:
    """Reject an unknown app or preset at submit, not when the job runs."""
    from ..apps import check_names

    try:
        check_names(apps, presets)
    except ValueError as exc:
        raise JobError(str(exc)) from None


def _scenarios(params: dict[str, Any]) -> list[Any]:
    from ..faults import build_scenario

    return [
        build_scenario(name, factor=params["factor"], seed=params["seed"])
        for name in params["scenarios"]
    ]


# ------------------------------------------------------------------ design

#: Per-app defaults for ``design`` jobs -- the sizes of the CLI's ``lu`` /
#: ``fw`` headline commands, so a default design job shares cache keys
#: with the Figure 9 comparisons.
_DESIGN_DEFAULTS = {
    "lu": {"n": 30000, "b": 3000, "p": 6},
    "fw": {"n": 92160, "b": 256, "p": 6},
    "mm": {"n": 30000, "b": None, "p": 6},
}


def _normalize_design(params: dict[str, Any]) -> dict[str, Any]:
    _require_keys("design", params, ("app", "n", "b", "p"))
    app = str(params.get("app", "lu"))
    if app not in _DESIGN_DEFAULTS:
        raise JobError(f"unknown design app {app!r}; expected one of "
                       f"{sorted(_DESIGN_DEFAULTS)}")
    defaults = _DESIGN_DEFAULTS[app]
    out: dict[str, Any] = {"app": app}
    for key in ("n", "b", "p"):
        value = params.get(key, defaults[key])
        if key == "b" and app == "mm":
            if params.get("b") is not None:
                raise JobError("design app 'mm' takes no block size 'b'")
            continue
        if not isinstance(value, int) or value <= 0:
            raise JobError(f"design parameter {key!r} must be a positive int, "
                           f"got {value!r}")
        out[key] = value
    return out


def _run_design(params: dict[str, Any], ctx: RunnerContext) -> dict[str, Any]:
    from ..experiments import _eval_sim_point, configured

    app = params["app"]
    task: dict[str, Any] = {"kind": f"{app}_compare", "n": params["n"]}
    if app != "mm":
        task["b"] = params["b"]
    if params["p"] != 6:
        # Default-p tasks share cache keys with the fig9 sweeps.
        task["p"] = params["p"]
    with configured(jobs=ctx.executor, cache=_cache_arg(ctx)):
        compare = _eval_sim_point(task)
    return {"kind": "design", "app": app, "task": task, "compare": compare}


# ------------------------------------------------------------------- sweep


def _normalize_sweep(params: dict[str, Any]) -> dict[str, Any]:
    _require_keys("sweep", params, ("experiments",))
    from ..experiments import ALL_EXPERIMENTS

    names = _as_names(params.get("experiments"), "sweep 'experiments'")
    unknown = sorted(set(names) - set(ALL_EXPERIMENTS))
    if unknown:
        raise JobError(f"unknown experiment ids {unknown}; "
                       f"available: {sorted(ALL_EXPERIMENTS)}")
    # Order-insensitive and duplicate-free: results are keyed by name,
    # so ["fig7", "fig5"] is the same job as ["fig5", "fig7"].
    return {"experiments": sorted(set(names))}


def _run_sweep(params: dict[str, Any], ctx: RunnerContext) -> dict[str, Any]:
    from ..experiments import ALL_EXPERIMENTS, configured

    results: dict[str, Any] = {}
    with configured(jobs=ctx.executor, cache=_cache_arg(ctx)):
        for name in params["experiments"]:
            res = ALL_EXPERIMENTS[name]()
            results[name] = {
                "id": res.id,
                "title": res.title,
                "ok": res.ok,
                "checks": dict(res.checks),
                "text": res.text,
            }
    return {"kind": "sweep", "experiments": results}


# ------------------------------------------------------------------ faults


def _normalize_faults(params: dict[str, Any]) -> dict[str, Any]:
    _require_keys("faults", params,
                  ("apps", "scenarios", "policies", "preset", "factor", "seed"))
    from ..faults import POLICIES, SCENARIO_BUILDERS

    policies = _known(_as_names(params.get("policies", ["degrade-static", "repartition"]),
                                "faults 'policies'"), POLICIES, "policies")
    scenarios = params.get(
        "scenarios", ["degraded-link", "dram-contention", "flaky-dma"]
    )
    apps = _as_names(params.get("apps", ["lu", "fw"]), "faults 'apps'")
    preset = str(params.get("preset", "xd1"))
    _check_designs(apps, [preset])
    return {
        "apps": apps,
        "scenarios": _known(_as_names(scenarios, "faults 'scenarios'"), SCENARIO_BUILDERS,
                            "scenarios"),
        "policies": policies,
        "preset": preset,
        "factor": _optional(params.get("factor"), float),
        "seed": int(params.get("seed", 0)),
    }


def _run_faults(params: dict[str, Any], ctx: RunnerContext) -> dict[str, Any]:
    from ..faults import fault_sweep

    results = fault_sweep(
        params["apps"],
        _scenarios(params),
        params["policies"],
        preset=params["preset"],
        jobs=ctx.executor,
        cache=_cache_arg(ctx),
    )
    return {"kind": "faults", "results": results}


# ---------------------------------------------------------------- campaign


def _normalize_campaign(params: dict[str, Any]) -> dict[str, Any]:
    _require_keys("campaign", params,
                  ("apps", "preset", "scenarios", "replicates", "seed", "jitter",
                   "stalls", "throttle_fpga", "factor"))
    from ..faults import SCENARIO_BUILDERS

    replicates = int(params.get("replicates", 20))
    if replicates < 1:
        raise JobError(f"campaign 'replicates' must be >= 1, got {replicates}")
    apps = _as_names(params.get("apps", ["lu", "fw"]), "campaign 'apps'")
    presets = _as_names(params.get("preset", "xd1"), "campaign 'preset'")
    _check_designs(apps, presets)
    return {
        "apps": apps,
        "preset": presets,
        "scenarios": _known(_as_names(params.get("scenarios", ["nominal"]),
                                      "campaign 'scenarios'"), SCENARIO_BUILDERS, "scenarios"),
        "replicates": replicates,
        "seed": int(params.get("seed", 0)),
        "jitter": float(params.get("jitter", 0.05)),
        "stalls": int(params.get("stalls", 4)),
        "throttle_fpga": _optional(params.get("throttle_fpga"), float),
        "factor": _optional(params.get("factor"), float),
    }


def _run_campaign(params: dict[str, Any], ctx: RunnerContext) -> dict[str, Any]:
    from ..campaign import CampaignSpec, PerturbationModel, run_campaign

    presets = params["preset"]
    spec = CampaignSpec(
        apps=tuple(params["apps"]),
        preset=presets[0],
        presets=tuple(presets) if len(presets) > 1 else (),
        scenarios=tuple(_scenarios(params)),
        replicates=params["replicates"],
        seed=params["seed"],
        perturb=PerturbationModel(
            bandwidth_jitter=params["jitter"],
            dram_jitter=params["jitter"],
            clock_jitter=params["jitter"],
            stall_count=params["stalls"],
        ),
        throttle_fpga=params["throttle_fpga"],
    )
    return run_campaign(
        spec, jobs=ctx.executor, cache=_cache_arg(ctx), telemetry=ctx.telemetry
    )


# -------------------------------------------------------------------- tune


def _normalize_space(space: Any) -> Any:
    """A named space stays its name; an ad-hoc one becomes its full grid.

    An ad-hoc ``{kind, machine, fixed, axes}`` object takes ``fixed`` as
    ``{name: value}`` or a list of ``name=value`` strings, and ``axes`` as
    a list of ``name=lo:hi:step`` / ``name=v1,v2`` strings or
    ``[name, values]`` pairs (the normalized form).  Axes stay a list
    because their order is the search order.
    """
    from ..tune import NAMED_SPACES, SearchSpace, parse_axis

    if isinstance(space, str) and space in NAMED_SPACES:
        return space
    if not isinstance(space, dict):
        raise JobError(f"tune 'space' must name a predefined space "
                       f"({sorted(NAMED_SPACES)}) or be an object "
                       f"{{kind, machine, fixed, axes}}, got {space!r}")
    _require_keys("tune", space, ("kind", "machine", "fixed", "axes"))
    try:
        fixed = space.get("fixed") or {}
        if not isinstance(fixed, dict):
            fixed = dict(parse_axis(str(item)) for item in fixed)
            for name, values in fixed.items():
                if len(values) != 1:
                    raise JobError(f"fixed {name!r} must pin exactly one value")
                fixed[name] = values[0]
        axes = [
            parse_axis(item) if isinstance(item, str) else (str(item[0]), item[1])
            for item in space.get("axes") or []
        ]
        parsed = SearchSpace(
            kind=space.get("kind"),
            machine=space.get("machine", "xd1"),
            fixed=fixed,
            axes=dict(axes),
        )
    except (TypeError, IndexError, ValueError) as exc:
        raise JobError(f"bad tune 'space': {exc}") from exc
    out = parsed.to_dict()
    out["axes"] = [[name, values] for name, values in out["axes"].items()]
    return out


def _normalize_tune(params: dict[str, Any]) -> dict[str, Any]:
    _require_keys("tune", params,
                  ("space", "seed", "eta", "budget", "refine", "resilience",
                   "resilience_keep"))
    return {
        "space": _normalize_space(params.get("space")),
        "seed": int(params.get("seed", 0)),
        "eta": int(params.get("eta", 4)),
        "budget": _optional(params.get("budget"), int),
        "refine": int(params.get("refine", 1)),
        "resilience": _optional(params.get("resilience"), str),
        "resilience_keep": int(params.get("resilience_keep", 2)),
    }


def _run_tune(params: dict[str, Any], ctx: RunnerContext) -> dict[str, Any]:
    from ..tune import SearchSpace, TuneSpec, named_space, run_tune

    space = params["space"]
    if isinstance(space, str):
        space = named_space(space)
    else:
        space = SearchSpace(kind=space["kind"], machine=space["machine"],
                            fixed=space["fixed"], axes=dict(space["axes"]))
    spec = TuneSpec(
        space=space,
        seed=params["seed"],
        eta=params["eta"],
        budget=params["budget"],
        refine=params["refine"],
        resilience=params["resilience"],
        resilience_keep=params["resilience_keep"],
    )
    return run_tune(spec, jobs=ctx.executor, cache=_cache_arg(ctx),
                    telemetry=ctx.telemetry)


# ------------------------------------------------------------------- table

Normalizer = Callable[[dict[str, Any]], dict[str, Any]]
Runner = Callable[[dict[str, Any], RunnerContext], Any]

#: kind -> (normalizer, runner): the one job-kind table.
KINDS: dict[str, tuple[Normalizer, Runner]] = {
    "design": (_normalize_design, _run_design),
    "sweep": (_normalize_sweep, _run_sweep),
    "faults": (_normalize_faults, _run_faults),
    "campaign": (_normalize_campaign, _run_campaign),
    "tune": (_normalize_tune, _run_tune),
}


def register_runner(
    kind: str,
    runner: Runner,
    normalizer: Optional[Normalizer] = None,
) -> None:
    """Register ``runner`` (and its request normalizer) for a new job kind.

    ``normalizer`` defaults to the identity reduction (params pass
    through :func:`~repro.parallel.grid.canonical` unchanged).  A
    built-in kind cannot be replaced: its normalizer is its validation.
    """
    if kind in JOB_KINDS:
        raise JobError(f"cannot re-register built-in kind {kind!r}")
    KINDS[kind] = (normalizer if normalizer is not None else dict, runner)


def unregister_runner(kind: str) -> None:
    """Remove a registered kind (test cleanup); built-ins stay."""
    if kind in JOB_KINDS:
        raise JobError(f"cannot unregister built-in kind {kind!r}")
    KINDS.pop(kind, None)


def run_manifest(manifest: dict[str, Any], ctx: RunnerContext) -> Any:
    """Execute one job manifest; returns its JSON-able result document."""
    kind = manifest.get("kind")
    if kind not in KINDS:
        raise JobError(f"no runner registered for job kind {kind!r}")
    return KINDS[kind][1](dict(manifest.get("params") or {}), ctx)
