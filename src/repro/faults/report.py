"""Resilience reporting over fault-run results and ledger manifests.

A :class:`ResilienceReport` normalises fault runs -- either raw
:meth:`~repro.faults.adapt.FaultRunResult.to_dict` dicts or ``fault_run``
ledger manifests (``LEDGER_SCHEMA = 3``) -- into one row per
(app, scenario, policy) and renders the per-scenario makespan inflation,
overlap-efficiency retention, recovery latency and model-term
attribution.  ``repro faults report`` renders it; like the ``obs
dashboard`` resilience panel, it keeps the latest run per triple.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Any, Iterable, Optional

from ..obs.dashboard import fmt_opt
from ..obs.ledger import RunLedger, fault_run_key, latest_entries

__all__ = ["ResilienceReport"]


@dataclass
class _Row:
    """One normalised fault run."""

    app: str
    scenario: str
    policy: str
    failed: bool
    nominal_makespan: Optional[float]
    faulted_makespan: Optional[float]
    makespan_inflation: Optional[float]
    nominal_efficiency: Optional[float]
    faulted_efficiency: Optional[float]
    efficiency_retention: Optional[float]
    recovery_latency: Optional[float]
    term: Optional[str]
    gloss: str
    failure: Optional[dict[str, Any]]

    @property
    def status(self) -> str:
        return "ABORTED" if self.failed else "ok"

    def to_dict(self) -> dict[str, Any]:
        return {
            "app": self.app,
            "scenario": self.scenario,
            "policy": self.policy,
            "status": self.status,
            "nominal_makespan": self.nominal_makespan,
            "faulted_makespan": self.faulted_makespan,
            "makespan_inflation": self.makespan_inflation,
            "nominal_efficiency": self.nominal_efficiency,
            "faulted_efficiency": self.faulted_efficiency,
            "efficiency_retention": self.efficiency_retention,
            "recovery_latency": self.recovery_latency,
            "attributed_term": self.term,
            "attribution": self.gloss,
            "failure": self.failure,
        }


def _row(run: dict[str, Any]) -> _Row:
    """Normalise one run dict of either shape into a row.

    Ledger manifests nest measurements under ``nominal`` / ``measured``
    / ``resilience``; raw result dicts keep them flat.  The ``kind``
    key distinguishes them.
    """
    attribution = run.get("attribution") or {}
    scenario = run.get("scenario")
    scenario_name = scenario.get("name", "?") if isinstance(scenario, dict) else str(scenario)
    if run.get("kind") == "fault_run":
        nominal = run.get("nominal") or {}
        measured = run.get("measured") or {}
        resilience = run.get("resilience") or {}
        return _Row(
            app=run.get("app", "?"),
            scenario=scenario_name,
            policy=run.get("policy", "?"),
            failed=bool(resilience.get("failed")),
            nominal_makespan=nominal.get("makespan"),
            faulted_makespan=measured.get("makespan"),
            makespan_inflation=resilience.get("makespan_inflation"),
            nominal_efficiency=nominal.get("overlap_efficiency"),
            faulted_efficiency=measured.get("overlap_efficiency"),
            efficiency_retention=resilience.get("efficiency_retention"),
            recovery_latency=resilience.get("recovery_latency"),
            term=attribution.get("term"),
            gloss=attribution.get("gloss", ""),
            failure=resilience.get("failure"),
        )
    return _Row(
        app=run.get("app", "?"),
        scenario=scenario_name,
        policy=run.get("policy", "?"),
        failed=bool(run.get("failed")),
        nominal_makespan=run.get("nominal_makespan"),
        faulted_makespan=run.get("faulted_makespan"),
        makespan_inflation=run.get("makespan_inflation"),
        nominal_efficiency=run.get("nominal_efficiency"),
        faulted_efficiency=run.get("faulted_efficiency"),
        efficiency_retention=run.get("efficiency_retention"),
        recovery_latency=run.get("recovery_latency"),
        term=attribution.get("term"),
        gloss=attribution.get("gloss", ""),
        failure=run.get("failure"),
    )


class ResilienceReport:
    """Per-scenario resilience of the design under a fault campaign."""

    def __init__(self, runs: Iterable[dict[str, Any]]) -> None:
        self.rows = [_row(run) for run in runs]

    @classmethod
    def from_ledger(cls, path: str | Path) -> "ResilienceReport":
        """The latest run per (app, scenario, policy) from a ledger.

        Older entries for the same triple are superseded (the ledger is
        append-only); schema-2 ledgers simply contain no ``fault_run``
        entries and yield an empty report.
        """
        latest = latest_entries(RunLedger(path).entries(), "fault_run", fault_run_key)
        return cls(latest.values())

    def __len__(self) -> int:
        return len(self.rows)

    def summary(self) -> dict[str, Any]:
        """Campaign-level aggregates (the ledger-free digest)."""
        retentions = [r.efficiency_retention for r in self.rows if r.efficiency_retention]
        inflations = [r.makespan_inflation for r in self.rows if r.makespan_inflation]
        return {
            "runs": len(self.rows),
            "aborted": sum(1 for r in self.rows if r.failed),
            "worst_retention": min(retentions) if retentions else None,
            "worst_inflation": max(inflations) if inflations else None,
        }

    def to_dict(self) -> dict[str, Any]:
        return {"rows": [r.to_dict() for r in self.rows], "summary": self.summary()}

    def render_ascii(self) -> str:
        """The report as a fixed-width table plus a summary line."""
        if not self.rows:
            return "no fault runs recorded"
        header = (
            "app",
            "scenario",
            "policy",
            "status",
            "inflation",
            "retention",
            "recovery",
            "attributed to",
        )
        body = []
        for r in sorted(self.rows, key=lambda r: (r.app, r.scenario, r.policy)):
            attributed = r.gloss or (r.term or "-")
            if r.failed and r.failure:
                attributed = (
                    f"aborted: {r.failure.get('process') or r.failure.get('stage') or '?'}"
                    f" @ t={fmt_opt(r.failure.get('time'), '.3f')}"
                )
            body.append(
                (
                    r.app,
                    r.scenario,
                    r.policy,
                    r.status,
                    fmt_opt(r.makespan_inflation, ".3f", "x"),
                    fmt_opt(r.efficiency_retention, ".1%"),
                    fmt_opt(r.recovery_latency, ".3f", "s"),
                    attributed,
                )
            )
        widths = [
            max(len(header[i]), *(len(row[i]) for row in body)) for i in range(len(header))
        ]
        lines = [
            "  ".join(header[i].ljust(widths[i]) for i in range(len(header))),
            "  ".join("-" * w for w in widths),
        ]
        lines += ["  ".join(row[i].ljust(widths[i]) for i in range(len(header))) for row in body]
        s = self.summary()
        lines.append("")
        lines.append(
            f"{s['runs']} run(s), {s['aborted']} aborted; "
            f"worst retention {fmt_opt(s['worst_retention'], '.1%')}, "
            f"worst inflation {fmt_opt(s['worst_inflation'], '.3f', 'x')}"
        )
        return "\n".join(lines)
