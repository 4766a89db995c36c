"""Job manifests: normalized, idempotent descriptions of service work.

Every request accepted by the co-design service is reduced to a *job
manifest* -- ``{"kind": <kind>, "params": <normalized params>}`` -- and
addressed by the sha256 of its canonical form (the same
:func:`repro.parallel.grid.canonical` reduction the result cache keys
on).  Each kind's normalizer (:mod:`repro.service.runners`) fills in
every default its runner would apply, so two requests that *mean* the
same work hash to the same key even when they spell it differently
(``{"app": "lu"}`` vs ``{"app": "lu", "n": 30000, "b": 3000, "p": 6}``),
and the server can deduplicate them against in-flight jobs and against
warm :class:`~repro.parallel.cache.ResultCache` entries.

The manifest deliberately excludes *delivery* attributes -- priority,
client identity, wait preferences -- so identical work submitted by two
different clients still collapses to one execution.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Optional

from ..parallel.grid import canonical, canonical_key

__all__ = [
    "JOB_KINDS",
    "JOB_STATES",
    "Job",
    "JobError",
    "job_key",
    "normalize_request",
    "result_payload",
]

#: The built-in job kinds (an open table: tests and extensions add more
#: via :func:`repro.service.runners.register_runner`).
JOB_KINDS = ("design", "sweep", "faults", "campaign", "tune")

#: Lifecycle states a job moves through.
JOB_STATES = ("queued", "running", "completed", "failed")


class JobError(ValueError):
    """A malformed job request (unknown kind, bad or unknown params)."""


def normalize_request(kind: Any, params: Any) -> dict[str, Any]:
    """A request reduced to its idempotent manifest.

    Raises :class:`JobError` for an unknown kind, unknown parameter
    names, or parameter values the runners would reject.
    """
    from .runners import KINDS

    if kind not in KINDS:
        raise JobError(f"unknown job kind {kind!r}; expected one of "
                       f"{sorted(KINDS)}")
    if params is None:
        params = {}
    if not isinstance(params, dict):
        raise JobError(f"job params must be an object, got {type(params).__name__}")
    normalized = KINDS[kind][0](dict(params))
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
