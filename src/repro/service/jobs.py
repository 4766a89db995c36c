"""Job manifests: normalized, idempotent descriptions of service work.

Every request accepted by the co-design service is reduced to a *job
manifest* -- ``{"kind": <kind>, "params": <normalized params>}`` -- and
addressed by the sha256 of its canonical form (the same
:func:`repro.parallel.grid.canonical` reduction the result cache keys
on).  Normalization fills in every default the runners would apply, so
two requests that *mean* the same work hash to the same key even when
they spell it differently (``{"app": "lu"}`` vs ``{"app": "lu", "n":
30000, "b": 3000, "p": 6}``), and the server can deduplicate them
against in-flight jobs and against warm :class:`~repro.parallel.cache.
ResultCache` entries.

The manifest deliberately excludes *delivery* attributes -- priority,
client identity, wait preferences -- so identical work submitted by two
different clients still collapses to one execution.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Callable, Optional

from ..parallel.grid import canonical, canonical_key

__all__ = [
    "JOB_KINDS",
    "JOB_STATES",
    "Job",
    "JobError",
    "job_key",
    "normalize_request",
    "register_kind",
    "result_payload",
]

#: The job kinds the service ships with (an open registry: tests and
#: extensions add more via :func:`register_kind`).
JOB_KINDS = ("design", "sweep", "faults", "campaign", "tune")

#: Lifecycle states a job moves through.
JOB_STATES = ("queued", "running", "completed", "failed")

#: Per-app defaults for ``design`` jobs -- the same sizes the CLI's
#: ``lu`` / ``fw`` headline commands use, so a default design job shares
#: cache keys with the Figure 9 comparisons.
_DESIGN_DEFAULTS = {
    "lu": {"n": 30000, "b": 3000, "p": 6},
    "fw": {"n": 92160, "b": 256, "p": 6},
    "mm": {"n": 30000, "b": None, "p": 6},
}


class JobError(ValueError):
    """A malformed job request (unknown kind, bad or unknown params)."""


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


def _normalize_faults(params: dict[str, Any]) -> dict[str, Any]:
    _require_keys("faults", params,
                  ("apps", "scenarios", "policies", "preset", "factor", "seed"))
    from ..faults import POLICIES

    policies = _as_names(params.get("policies", ["degrade-static", "repartition"]),
                         "faults 'policies'")
    unknown = [p for p in policies if p not in POLICIES]
    if unknown:
        raise JobError(f"unknown policies {unknown}; expected from {POLICIES}")
    factor = params.get("factor")
    return {
        "apps": _as_names(params.get("apps", ["lu", "fw"]), "faults 'apps'"),
        "scenarios": _as_names(params.get("scenarios", ["degraded-link"]),
                               "faults 'scenarios'"),
        "policies": policies,
        "preset": str(params.get("preset", "xd1")),
        "factor": float(factor) if factor is not None else None,
        "seed": int(params.get("seed", 0)),
    }


def _normalize_campaign(params: dict[str, Any]) -> dict[str, Any]:
    _require_keys("campaign", params,
                  ("apps", "preset", "scenarios", "replicates", "seed", "jitter",
                   "stalls", "throttle_fpga", "factor"))
    replicates = int(params.get("replicates", 20))
    if replicates < 1:
        raise JobError(f"campaign 'replicates' must be >= 1, got {replicates}")
    throttle = params.get("throttle_fpga")
    factor = params.get("factor")
    return {
        "apps": _as_names(params.get("apps", ["lu", "fw"]), "campaign 'apps'"),
        "preset": _as_names(params.get("preset", "xd1"), "campaign 'preset'"),
        "scenarios": _as_names(params.get("scenarios", ["nominal"]),
                               "campaign 'scenarios'"),
        "replicates": replicates,
        "seed": int(params.get("seed", 0)),
        "jitter": float(params.get("jitter", 0.05)),
        "stalls": int(params.get("stalls", 4)),
        "throttle_fpga": float(throttle) if throttle is not None else None,
        "factor": float(factor) if factor is not None else None,
    }


def _normalize_tune(params: dict[str, Any]) -> dict[str, Any]:
    _require_keys("tune", params,
                  ("space", "seed", "eta", "budget", "refine", "resilience",
                   "resilience_keep"))
    from ..tune import NAMED_SPACES

    space = params.get("space")
    if space not in NAMED_SPACES:
        raise JobError(f"tune 'space' must name a predefined space "
                       f"({sorted(NAMED_SPACES)}), got {space!r}")
    budget = params.get("budget")
    resilience = params.get("resilience")
    return {
        "space": str(space),
        "seed": int(params.get("seed", 0)),
        "eta": int(params.get("eta", 4)),
        "budget": int(budget) if budget is not None else None,
        "refine": int(params.get("refine", 1)),
        "resilience": str(resilience) if resilience is not None else None,
        "resilience_keep": int(params.get("resilience_keep", 2)),
    }


#: kind -> normalizer.  Open: :func:`register_kind` extends it (tests
#: register throwaway kinds to exercise retry and queue semantics).
_NORMALIZERS: dict[str, Callable[[dict[str, Any]], dict[str, Any]]] = {
    "design": _normalize_design,
    "sweep": _normalize_sweep,
    "faults": _normalize_faults,
    "campaign": _normalize_campaign,
    "tune": _normalize_tune,
}


def register_kind(
    kind: str,
    normalizer: Optional[Callable[[dict[str, Any]], dict[str, Any]]] = None,
) -> None:
    """Register (or override) the normalizer for a job kind.

    ``normalizer`` defaults to the identity reduction (params pass
    through :func:`canonical` unchanged).  The matching runner is
    registered with :func:`repro.service.runners.register_runner`.
    """
    _NORMALIZERS[kind] = normalizer if normalizer is not None else (lambda p: dict(p))


def unregister_kind(kind: str) -> None:
    """Remove a registered kind (test cleanup); built-ins stay."""
    if kind in JOB_KINDS:
        raise JobError(f"cannot unregister built-in kind {kind!r}")
    _NORMALIZERS.pop(kind, None)


def normalize_request(kind: Any, params: Any) -> dict[str, Any]:
    """A request reduced to its idempotent manifest.

    Raises :class:`JobError` for an unknown kind, unknown parameter
    names, or parameter values the runners would reject.
    """
    if kind not in _NORMALIZERS:
        raise JobError(f"unknown job kind {kind!r}; expected one of "
                       f"{sorted(_NORMALIZERS)}")
    if params is None:
        params = {}
    if not isinstance(params, dict):
        raise JobError(f"job params must be an object, got {type(params).__name__}")
    normalized = _NORMALIZERS[kind](dict(params))
    try:
        normalized = canonical(normalized)
    except TypeError as exc:
        raise JobError(f"job params are not canonicalisable: {exc}") from exc
    return {"kind": str(kind), "params": normalized}


def job_key(manifest: dict[str, Any]) -> str:
    """The content address of a manifest (ledger-style canonical hash)."""
    return canonical_key(manifest)


def result_payload(manifest: dict[str, Any]) -> dict[str, Any]:
    """The :class:`ResultCache` payload addressing a job-level result.

    Wrapped under a ``service_result`` kind so job results can never
    collide with the per-point simulation tasks the same cache stores.
    """
    return {"kind": "service_result", "manifest": manifest}


@dataclass
class Job:
    """One accepted job: manifest, lifecycle state, outcome, telemetry."""

    id: str
    manifest: dict[str, Any]
    key: str
    priority: str = "default"
    client: str = "anonymous"
    state: str = "queued"
    #: How the result was obtained: ``computed`` (ran), ``cache`` (warm
    #: :class:`ResultCache` entry), or None while pending.
    source: Optional[str] = None
    result: Any = None
    result_hash: Optional[str] = None
    error: Optional[str] = None
    #: Executions performed (1 on first-try success; retries add one each).
    attempts: int = 0
    #: Duplicate submissions collapsed onto this job while in flight.
    dedup_count: int = 0
    #: Wall-clock (``time.time``) timestamps, for reporting only.
    created: float = field(default_factory=time.time)
    started: Optional[float] = None
    finished: Optional[float] = None
    #: Append-only progress log served by ``GET /v1/jobs/{id}/events``.
    events: list[dict[str, Any]] = field(default_factory=list)
    #: Job-scoped executor telemetry (the shared pool's last map() spans
    #: tagged with this job's id); wall-clock data, never in manifests.
    telemetry: dict[str, Any] = field(default_factory=dict)
    #: ``time.monotonic`` readings of ``created``/``started``/``finished``:
    #: the durations come from these, so a wall-clock step cannot skew them.
    _mono: dict[str, float] = field(
        default_factory=lambda: {"created": time.monotonic()}, repr=False
    )

    @property
    def kind(self) -> str:
        return str(self.manifest.get("kind"))

    def mark(self, *phases: str) -> None:
        """Stamp ``phases`` (``"started"`` / ``"finished"``) as now."""
        wall, mono = time.time(), time.monotonic()
        for phase in phases:
            setattr(self, phase, wall)
            self._mono[phase] = mono

    def _elapsed(self, start: str, end: str) -> Optional[float]:
        if start not in self._mono or end not in self._mono:
            return None
        return self._mono[end] - self._mono[start]

    @property
    def queue_wait_s(self) -> Optional[float]:
        return self._elapsed("created", "started")

    @property
    def run_s(self) -> Optional[float]:
        return self._elapsed("started", "finished")

    @property
    def done(self) -> bool:
        return self.state in ("completed", "failed")

    def add_event(self, event: str, **fields: Any) -> dict[str, Any]:
        record = {"event": event, "job": self.id, "ts": time.time(), **fields}
        self.events.append(record)
        return record

    def status(self, include_result: bool = True) -> dict[str, Any]:
        """The JSON status document served by ``GET /v1/jobs/{id}``."""
        out: dict[str, Any] = {
            "id": self.id,
            "kind": self.kind,
            "key": self.key,
            "state": self.state,
            "priority": self.priority,
            "client": self.client,
            "source": self.source,
            "result_hash": self.result_hash,
            "attempts": self.attempts,
            "dedup_count": self.dedup_count,
            "created": self.created,
            "queue_wait_s": self.queue_wait_s,
            "run_s": self.run_s,
            "events": len(self.events),
        }
        if self.error is not None:
            out["error"] = self.error
        if self.telemetry:
            out["telemetry"] = self.telemetry
        if include_result and self.state == "completed":
            out["result"] = self.result
        return out
