"""Paired-run blame diffs: explain a regression as model-term deltas.

The observatory's detection layers (:mod:`repro.obs.fidelity` drift
flags, :mod:`repro.campaign.stats` Mann-Whitney verdicts) say *that* a
cell moved; this module says *why*.  Given the same replicate simulated
under two builds or parameter sets -- each reduced to a makespan, a
critical-path summary (:mod:`repro.obs.critical_path`), per-lane busy
times and per-activity-class busy times -- it diffs the two runs
segment class by segment class and emits a ranked *blame report*:

* ``blame``  -- per-resource critical-path delta, descending, each
  glossed with the paper's Eq (1)/(2)/(4)/(6) term it loads onto
  (:data:`~repro.obs.critical_path.MODEL_TERMS`);
* ``phases`` -- per-activity-class chain delta
  (compute / communication / staging / stall);
* ``lanes``  -- the concrete lanes whose busy time moved most
  (``fpga2``, ``cpu0``, ...), the "which lane stalled" view;
* ``activity`` -- busy lane-seconds per activity class across the whole
  trace (the off-critical-path complement of ``phases``).

The result is an ``explain`` manifest (ledger schema 5, see
:func:`repro.obs.ledger.explain_entry`).  Every field is a pure
function of the two simulated runs, so identically-seeded explanations
are bitwise identical -- wall-clock worker telemetry deliberately stays
out of this document and flows through the metrics registry and the
``workers`` block of ``campaign`` entries instead.

Like the rest of :mod:`repro.obs`, this module imports nothing from the
rest of :mod:`repro` (stdlib only); the campaign-side orchestration
that *produces* the paired runs lives in :mod:`repro.campaign.explain`.
"""

from __future__ import annotations

from typing import Any, Optional

from .critical_path import MODEL_TERMS
from .dashboard import fmt_opt, fmt_s

__all__ = [
    "EXPLAIN_SCHEMA",
    "DEFAULT_MIN_DELTA",
    "blame_resources",
    "phase_deltas",
    "lane_deltas",
    "build_explain",
    "render_explain",
]

#: Version of the ``explain`` manifest layout (the blame/phases/lanes
#: structure below).  Independent of the ledger's envelope schema, like
#: the campaign's ``MANIFEST_SCHEMA``.
EXPLAIN_SCHEMA = 1

#: Relative makespan deltas smaller than this (0.5%) are noise at DES
#: resolution: the explanation is reported but its verdict stays
#: ``inconclusive`` rather than blaming a model term.
DEFAULT_MIN_DELTA = 0.005


def blame_resources(
    baseline: dict[str, float], current: dict[str, float]
) -> list[dict[str, Any]]:
    """Ranked per-resource blame from two ``by_resource`` chain maps.

    One row per resource class seen on either side, sorted by the
    critical-path delta (current - baseline) descending, so the first
    row names the lane that absorbed the regression.  ``share`` is the
    row's fraction of the total *positive* delta (None for rows that
    shrank or when nothing grew); ``term`` is the paper Eq-term gloss.
    """
    rows = []
    grew = sum(
        d for d in (
            current.get(res, 0.0) - baseline.get(res, 0.0)
            for res in set(baseline) | set(current)
        ) if d > 0
    )
    for res in set(baseline) | set(current):
        base = baseline.get(res, 0.0)
        cur = current.get(res, 0.0)
        delta = cur - base
        rows.append(
            {
                "resource": res,
                "baseline_s": base,
                "current_s": cur,
                "delta_s": delta,
                "share": delta / grew if delta > 0 and grew > 0 else None,
                "term": MODEL_TERMS.get(res, MODEL_TERMS["other"]),
            }
        )
    rows.sort(key=lambda r: (-r["delta_s"], r["resource"]))
    return rows


def phase_deltas(
    baseline: dict[str, float], current: dict[str, float]
) -> dict[str, dict[str, float]]:
    """Per-activity-class deltas from two ``by_phase`` (or activity) maps."""
    out: dict[str, dict[str, float]] = {}
    for cls in sorted(set(baseline) | set(current)):
        base = baseline.get(cls, 0.0)
        cur = current.get(cls, 0.0)
        out[cls] = {"baseline_s": base, "current_s": cur, "delta_s": cur - base}
    return out


def lane_deltas(
    baseline: dict[str, float], current: dict[str, float], top: int = 6
) -> list[dict[str, Any]]:
    """The ``top`` concrete lanes whose busy time moved most, by |delta|."""
    rows = []
    for lane in set(baseline) | set(current):
        base = baseline.get(lane, 0.0)
        cur = current.get(lane, 0.0)
        rows.append(
            {"lane": lane, "baseline_s": base, "current_s": cur, "delta_s": cur - base}
        )
    rows.sort(key=lambda r: (-abs(r["delta_s"]), r["lane"]))
    return rows[:top]


def _side(run: dict[str, Any]) -> dict[str, Any]:
    """The per-side summary block embedded in the manifest."""
    cp = run.get("critical_path") or {}
    return {
        "makespan": run.get("makespan"),
        "critical_path": {
            "makespan": cp.get("makespan"),
            "dominant": cp.get("dominant"),
            "dominant_fraction": cp.get("dominant_fraction"),
            "coverage": cp.get("coverage"),
            "by_resource": dict(cp.get("by_resource") or {}),
            "by_phase": dict(cp.get("by_phase") or {}),
        },
    }


def build_explain(
    *,
    cell: str,
    app: str,
    preset: str,
    scenario_name: str,
    replicate: int,
    seeds: dict[str, int],
    baseline: dict[str, Any],
    current: dict[str, Any],
    check: Optional[dict[str, Any]] = None,
    min_delta: float = DEFAULT_MIN_DELTA,
) -> dict[str, Any]:
    """Assemble one ``explain`` manifest from two traced runs.

    ``baseline`` / ``current`` each carry ``makespan`` (the campaign's
    sample metric for the replicate), ``critical_path`` (a
    :meth:`~repro.obs.critical_path.CriticalPathReport.to_dict`),
    ``lanes`` (concrete lane -> busy seconds) and ``activity``
    (activity class -> busy lane-seconds).  ``check`` optionally embeds
    the statistical context that triggered the explanation (the
    ``campaign_check`` cell block).

    The verdict is ``model`` when the makespan grew past ``min_delta``
    and a resource class absorbed the growth (the regression is real
    and the named Eq-term explains it), ``improvement`` for the mirror
    case, and ``inconclusive`` when the paired runs moved less than the
    noise floor -- which is the hint to look at the harness (worker
    telemetry) rather than the model.
    """
    base_cp = baseline.get("critical_path") or {}
    cur_cp = current.get("critical_path") or {}
    blame = blame_resources(
        dict(base_cp.get("by_resource") or {}), dict(cur_cp.get("by_resource") or {})
    )
    base_mk = float(baseline.get("makespan") or 0.0)
    cur_mk = float(current.get("makespan") or 0.0)
    relative = (cur_mk - base_mk) / base_mk if base_mk > 0 else None
    top = blame[0] if blame and blame[0]["delta_s"] > 0 else None
    if relative is not None and relative >= min_delta and top is not None:
        verdict = "model"
    elif relative is not None and relative <= -min_delta:
        verdict = "improvement"
    else:
        verdict = "inconclusive"
    manifest: dict[str, Any] = {
        "kind": "explain",
        "explain_schema": EXPLAIN_SCHEMA,
        "cell": cell,
        "app": app,
        "preset": preset,
        "scenario_name": scenario_name,
        "replicate": replicate,
        "seeds": dict(seeds),
        "baseline": _side(baseline),
        "current": _side(current),
        "delta": {"makespan_s": cur_mk - base_mk, "relative": relative},
        "blame": blame,
        "phases": phase_deltas(
            dict(base_cp.get("by_phase") or {}), dict(cur_cp.get("by_phase") or {})
        ),
        "activity": phase_deltas(
            dict(baseline.get("activity") or {}), dict(current.get("activity") or {})
        ),
        "lanes": lane_deltas(
            dict(baseline.get("lanes") or {}), dict(current.get("lanes") or {})
        ),
        "top_blame": top["resource"] if top else None,
        "top_term": top["term"] if top else None,
        "verdict": verdict,
    }
    if check is not None:
        manifest["check"] = {
            "p_value": check.get("p_value"),
            "median_shift": check.get("median_shift"),
            "verdict": check.get("verdict"),
            "note": check.get("note"),
        }
    return manifest


def render_explain(manifest: dict[str, Any]) -> str:
    """One explain manifest as the CLI / dashboard blame table."""
    delta = manifest.get("delta") or {}
    lines = [
        "explain {cell} (replicate {rep}, scenario {scenario}):".format(
            cell=manifest.get("cell"),
            rep=manifest.get("replicate"),
            scenario=manifest.get("scenario_name"),
        ),
        "  makespan {base} -> {cur}  ({rel})  verdict: {verdict}".format(
            base=fmt_s((manifest.get("baseline") or {}).get("makespan")),
            cur=fmt_s((manifest.get("current") or {}).get("makespan")),
            rel=fmt_opt(delta.get("relative"), "+.2%"),
            verdict=manifest.get("verdict"),
        ),
    ]
    check = manifest.get("check")
    if check:
        lines.append(
            "  flagged by: {verdict} (p={p}, median shift {shift})".format(
                verdict=check.get("verdict"),
                p=fmt_opt(check.get("p_value"), ".4g"),
                shift=fmt_opt(check.get("median_shift"), "+.2%"),
            )
        )
    lines.append("  blame (critical-path delta per resource lane):")
    for row in manifest.get("blame") or []:
        lines.append(
            "    {res:<5} {delta:>+10.4g}s  {share:>5}  {term}".format(
                res=row.get("resource"),
                delta=row.get("delta_s", 0.0),
                share=fmt_opt(row.get("share"), ".0%"),
                term=row.get("term", ""),
            )
        )
    phases = manifest.get("phases") or {}
    if phases:
        ranked = sorted(phases.items(), key=lambda kv: -kv[1].get("delta_s", 0.0))
        lines.append(
            "  phases: "
            + ", ".join(f"{cls} {blk.get('delta_s', 0.0):+.4g}s" for cls, blk in ranked)
        )
    lanes = manifest.get("lanes") or []
    if lanes:
        lines.append(
            "  lanes:  "
            + ", ".join(
                f"{row.get('lane')} {row.get('delta_s', 0.0):+.4g}s" for row in lanes
            )
        )
    top = manifest.get("top_blame")
    if top and manifest.get("verdict") == "model":
        lines.append(f"  -> blame {top}: {manifest.get('top_term')}")
    elif manifest.get("verdict") == "inconclusive":
        lines.append(
            "  -> inconclusive: paired re-runs agree within the noise floor; "
            "check worker telemetry (obs dashboard) for a harness-side cause"
        )
    return "\n".join(lines)
