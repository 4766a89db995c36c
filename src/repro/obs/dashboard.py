"""Dashboard panels for the model-fidelity observatory.

Each panel is built once, by a pure builder over ledger entries, as a
:class:`Panel` whose values are all formatted.  Two renderers draw any
panel: :func:`render_ascii` (terminal / CI logs) through the panel
kind's :class:`AsciiTemplate` of ``str.format`` lines, and
:func:`render_html`, a self-contained page (inline CSS + SVG, no
external assets or scripts) whose one generic table writer is the only
place that escapes ledger values.  Adding a panel takes one builder and
one ASCII template; the HTML needs no code.

The CLI front-end is ``repro-xd1 obs dashboard``; ``campaign run`` /
``tune run`` print :func:`workers_panel` as their ``workers:`` footer.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from html import escape
from string import Formatter
from typing import Any, Optional

from .critical_path import MODEL_TERMS
from .fidelity import DEFAULT_BAND, fidelity_report
from .ledger import fault_run_key, latest_entries

__all__ = [
    "SPARK_LEVELS",
    "Panel",
    "fmt_opt",
    "fmt_s",
    "panel_lines",
    "point_label",
    "render_ascii",
    "render_html",
    "text_sparkline",
    "workers_panel",
]

#: Text sparkline levels, low to high (ASCII-safe for CI logs).
SPARK_LEVELS = " .:-=+*#@"


def text_sparkline(values: list[float], width: int = 24) -> str:
    """An ASCII sparkline of a series (newest values right-aligned)."""
    if not values:
        return ""
    tail = values[-width:]
    lo, hi = min(tail), max(tail)
    span = hi - lo
    if span <= 0:
        return SPARK_LEVELS[len(SPARK_LEVELS) // 2] * len(tail)
    top = len(SPARK_LEVELS) - 1
    return "".join(SPARK_LEVELS[round((v - lo) / span * top)] for v in tail)


def fmt_opt(value: Any, spec: str, suffix: str = "") -> str:
    """``value`` in format ``spec`` plus ``suffix``; ``-`` when absent."""
    return "-" if value is None else format(value, spec) + suffix


def fmt_s(value: Optional[float]) -> str:
    """Seconds to four significant digits, ``-`` when absent."""
    return fmt_opt(value, ".4g", "s")


def point_label(point: dict[str, Any]) -> str:
    """A design point as ``key=value`` pairs in key order."""
    return " ".join(f"{k}={point[k]}" for k in sorted(point))


# ------------------------------------------------------------ panel model


@dataclass(frozen=True)
class Status:
    """A verdict cell; HTML colours it good (``ok``) or critical."""

    text: str
    ok: Optional[bool] = None

    def __format__(self, spec: str) -> str:
        return format(self.text, spec)


@dataclass(frozen=True)
class Spark:
    """A series cell: a text sparkline in ASCII; in HTML an SVG trend
    with a reference line at ``band`` (nothing when ``band`` is None)."""

    values: list[float]
    band: Optional[float] = None

    def __format__(self, spec: str) -> str:
        return format(text_sparkline(self.values), spec)


@dataclass(frozen=True)
class Bar:
    """A share (0..1) as a bar, ``width`` characters at 1 in ASCII (None: no bar)."""

    share: Optional[float]
    width: int

    def __format__(self, spec: str) -> str:
        bar = "" if self.share is None else "#" * max(1, round(self.share * self.width))
        return format(bar, spec)


@dataclass(frozen=True)
class Column:
    """A table column: the row field it shows, its header (default: the
    field) and cell class (``num`` right-aligns, ``lane`` is secondary)."""

    key: str
    header: str = ""
    css: str = ""


@dataclass
class Panel:
    """One dashboard panel, every value formatted.

    ``kind`` selects the ASCII template; the HTML shows ``title``,
    ``note`` and ``columns`` (or ``empty`` when there are no rows);
    ``facts`` are the panel-level values of the ASCII head and tail
    lines; a row's ``details`` are sub-rows drawn under it in ASCII.
    """

    kind: str
    title: str
    note: str
    columns: list[Column]
    rows: list[dict[str, Any]]
    facts: dict[str, Any] = field(default_factory=dict)
    empty: str = ""


@dataclass(frozen=True)
class AsciiTemplate:
    """How :func:`render_ascii` draws one panel kind.

    ``heading`` opens the section (once, above all panels of the kind).
    Each ``head``/``tail`` line is drawn over the panel's facts when
    none of its fields is None.  Each row, and each of a row's
    ``details``, is drawn with the first of ``row``/``detail`` whose
    fields are all set.  ``empty`` is drawn when the panel has no rows;
    ``last`` keeps only the newest rows.
    """

    heading: str = ""
    head: tuple[str, ...] = ()
    row: tuple[str, ...] = ()
    detail: tuple[str, ...] = ()
    tail: tuple[str, ...] = ()
    empty: tuple[str, ...] = ()
    last: Optional[int] = None


_ASCII = {
    "fidelity": AsciiTemplate(
        heading="fidelity (predicted max{T_tp, T_tf} vs simulated makespan):",
        row=("  [{status:<5}] {app}@{preset:<6} latest {latest}  mean {mean}  "
             "range {range}  drift {drift}  n={runs}  |{trend}|",),
        empty=("  ({empty})",),
    ),
    "critical_path": AsciiTemplate(
        heading="critical-path attribution (latest run per app):",
        head=("  {app}@{preset}: dominant {dominant} ({fraction} of makespan, "
              "coverage {coverage}) -- {term}",),
        row=("    {resource:<5} {share:>6}  {bar}",),
    ),
    "resilience": AsciiTemplate(
        heading="resilience (latest fault run per app x scenario x policy):",
        row=("  [{status:<5}] {app} {scenario} / {policy}: {failure}",
             "  [{status:<5}] {app} {scenario} / {policy}: retention {retention}  "
             "inflation {inflation}  attributed to {term}"),
    ),
    "campaign": AsciiTemplate(
        heading="campaigns (per-cell makespan distributions, latest per preset):",
        head=("  preset {preset}: {replicates} replicates x {cells} cells, "
              "{failures} failed replicates",),
        row=("    {cell:<28} median {median}  iqr {iqr}  p95 {p95}  n={replicates}  "
             "|{distribution}|  drift {drift}",),
    ),
    "campaign_check": AsciiTemplate(
        head=("campaign regression check (latest): verdict {verdict}  alpha {alpha}  "
              "effect {effect}  flagged {flagged}",),
        row=("  [{verdict:<4}] {cell}  shift {shift}  p {p}  ({note})",
             "  [{verdict:<4}] {cell}  shift {shift}  p {p}"),
    ),
    "explain": AsciiTemplate(
        heading="regression explanations (latest explain per cell):",
        row=("  {cell}: verdict {verdict}  delta {delta} ({relative})  "
             "replicate {replicate}",),
        detail=("    blame {resource:<5} {delta} (share {share})  {term}",
                "    blame {resource:<5} {delta}  {term}"),
    ),
    "tune": AsciiTemplate(
        heading="guided tuning (latest tune run per app x preset):",
        head=("  {app}@{preset}: incumbent {point} -> {gflops} GFLOPS, "
              "{slices} slices ({fidelity})",
              "    DES evals {used}/{budget} (exhaustive {exhaustive}, "
              "{fraction} of exhaustive)  front {front} points  rungs {rungs}"),
        row=("    front {point:<28} {gflops:>7} GFLOPS  {slices} slices  "
             "retention {retention}  [{fidelity}]",
             "    front {point:<28} {gflops:>7} GFLOPS  {slices} slices  [{fidelity}]"),
    ),
    "service": AsciiTemplate(
        head=("service jobs ({jobs} recorded: {computed} computed, {cache} cache, "
              "{failed} failed; {deduped} in-flight dedups):",),
        row=("  [{outcome:<8}] {job} {kind:<9} wait {wait}  run {run}  "
             "attempts {attempts}  dedup {dedups}  hash {hash}",),
        last=8,
    ),
    "workers": AsciiTemplate(
        heading="sweep worker telemetry (latest campaign):",
        head=("  mode {mode}  workers {workers}  tasks {tasks}  chunks {chunks}  "
              "elapsed {elapsed}",
              "  queue wait mean {wait_mean}s max {wait_max}s  imbalance {imbalance}x  "
              "stragglers: {stragglers}"),
        row=("  {worker} pid {pid}  chunks {chunks}  tasks {tasks}  busy {busy}  |{bar}|",),
        tail=("  replicates: {analytic} analytic, {des} DES ({des_share} on the DES)",
              "  cache: {lookups} lookups, {hits} hits, {misses} misses ({hit_rate})"),
    ),
}


# --------------------------------------------------------------- builders


def _app_preset(entry: dict[str, Any]) -> tuple[str, str]:
    return str(entry.get("app")), str(entry.get("preset"))


def _fidelity_panels(entries: list[dict[str, Any]], band: float) -> list[Panel]:
    rows = []
    for st in fidelity_report(entries, band=band):
        ok = st.latest >= band
        rows.append({
            "series": f"{st.app}@{st.preset}", "app": st.app, "preset": st.preset,
            "status": Status("ok" if ok else "BELOW", ok),
            "latest": f"{st.latest:.4f}", "mean": f"{st.mean:.4f}",
            "range": f"[{st.minimum:.4f}, {st.maximum:.4f}]",
            "drift": f"{st.drift:+.4f}", "runs": str(st.count),
            "trend": Spark(st.efficiencies, band),
        })
    columns = [Column("series"), Column("status"), Column("latest", css="num"),
               Column("mean", css="num"), Column("range", css="num"), Column("drift", css="num"),
               Column("runs", css="num"), Column("trend", "trend (band line = floor)")]
    return [Panel("fidelity", "Prediction fidelity by app × preset", "", columns, rows,
                  empty="no design_run entries yet -- record some runs first")]


def _critical_path_panels(entries: list[dict[str, Any]]) -> list[Panel]:
    latest = latest_entries(entries, "design_run", _app_preset,
                            keep=lambda e: bool(e.get("critical_path")))
    columns = [Column("resource"), Column("time", "chain time", "num"), Column("share", css="num"),
               Column("bar", "share of makespan"), Column("term", "model term", "lane")]
    panels = []
    for (app, preset), entry in sorted(latest.items()):
        cp = entry["critical_path"]
        makespan = cp.get("makespan") or 0.0
        rows = []
        for res, secs in (cp.get("by_resource") or {}).items():
            share = secs / makespan if makespan > 0 else 0.0
            rows.append({
                "resource": res, "time": f"{secs:.4g}s", "share": f"{100 * share:.1f}%",
                "bar": Bar(share if share > 0 else None, 30), "term": MODEL_TERMS.get(res, ""),
            })
        dominant = str(cp.get("dominant", "?"))
        fraction = f"{100 * cp.get('dominant_fraction', 0.0):.1f}%"
        coverage = f"{100 * cp.get('coverage', 0.0):.1f}%"
        note = (f"dominant resource: {dominant} ({fraction} of the makespan; "
                f"chain coverage {coverage})")
        facts = {"app": app, "preset": preset, "dominant": dominant, "fraction": fraction,
                 "coverage": coverage, "term": MODEL_TERMS.get(dominant, "")}
        panels.append(Panel("critical_path", f"{app}@{preset} critical path", note,
                            columns, rows, facts))
    return panels


def _resilience_panels(entries: list[dict[str, Any]]) -> list[Panel]:
    latest = latest_entries(entries, "fault_run", fault_run_key)
    if not latest:
        return []
    rows = []
    for (app, scenario, policy), entry in sorted(latest.items()):
        res = entry.get("resilience") or {}
        attribution = entry.get("attribution") or {}
        failed = bool(res.get("failed"))
        failure = res.get("failure") or {}
        what = str(failure.get("process") or failure.get("stage") or "?")
        rows.append({
            "app": app, "scenario": scenario, "policy": policy,
            "status": Status("ABORT" if failed else "ok", not failed),
            "inflation": fmt_opt(res.get("makespan_inflation"), ".3f", "x"),
            "retention": fmt_opt(res.get("efficiency_retention"), ".1%"),
            "recovery": fmt_opt(res.get("recovery_latency"), ".3f", "s"),
            "failure": what if failed else None,
            "term": str(attribution.get("term") or "-"),
            "gloss": f"aborted: {what}" if failed else str(attribution.get("gloss") or "-"),
        })
    columns = [Column("app"), Column("scenario"), Column("policy"), Column("status"),
               Column("inflation", css="num"), Column("retention", css="num"),
               Column("recovery", css="num"), Column("gloss", "attributed to", "lane")]
    note = "latest fault run per app × scenario × policy (docs/robustness.md)"
    return [Panel("resilience", "Resilience under fault injection", note, columns, rows)]


def _drift(cell: dict, prev_cell: Optional[dict]) -> Status:
    """Relative median shift of a cell vs the previous campaign's cell."""
    cur = (cell.get("makespan") or {}).get("median")
    prev = ((prev_cell or {}).get("makespan") or {}).get("median")
    if cur is None or not prev:
        return Status("      -")  # right-aligned under the arrows
    drift = (cur - prev) / prev
    if drift > 0.001:
        return Status(f"^{drift:+.1%}", ok=False)
    if drift < -0.001:
        return Status(f"v{drift:+.1%}", ok=True)
    return Status(f"={drift:+.1%}")


def _campaign_panels(entries: list[dict[str, Any]]) -> list[Panel]:
    by_preset: dict[str, list[dict]] = {}
    for entry in entries:
        if entry.get("kind") == "campaign" and isinstance(entry.get("cells"), dict):
            by_preset.setdefault(str(entry.get("preset")), []).append(entry)
    columns = [Column("cell"), Column("median", css="num"), Column("iqr", "IQR", "num"),
               Column("p95", css="num"), Column("p99", css="num"), Column("eff", css="num"),
               Column("replicates", css="num"), Column("distribution"), Column("drift")]
    panels = []
    for preset in sorted(by_preset):
        runs = by_preset[preset]
        latest, cells = runs[-1], runs[-1]["cells"]
        prev_cells = (runs[-2].get("cells") or {}) if len(runs) > 1 else {}
        rows = []
        for key in sorted(cells):
            cell = cells[key]
            mk = cell.get("makespan") or {}
            rows.append({
                "cell": key, "median": fmt_s(mk.get("median")), "iqr": fmt_s(mk.get("iqr")),
                "p95": fmt_s(mk.get("p95")), "p99": fmt_s(mk.get("p99")),
                "eff": fmt_opt((cell.get("efficiency") or {}).get("median"), ".4f"),
                "replicates": f"{cell.get('completed', 0)}/{cell.get('replicates', 0)}",
                "distribution": Spark([float(v) for v in mk.get("samples") or []],
                                      mk.get("median")),
                "drift": _drift(cell, prev_cells.get(key)),
            })
        replicates = str(latest.get("replicates"))
        note = (f"{replicates} seeded replicates per cell; drift vs the previous campaign "
                "on this preset (line = cell median)")
        facts = {"preset": preset, "replicates": replicates, "cells": str(len(cells)),
                 "failures": str(latest.get("failures", 0))}
        panels.append(Panel("campaign", f"Campaign distributions ({preset})", note,
                            columns, rows, facts))
    return panels


def _campaign_check_panels(entries: list[dict[str, Any]]) -> list[Panel]:
    check = latest_entries(entries, "campaign_check").get(None)
    if not check:
        return []
    cells = check.get("cells") or {}
    rows = []
    for key in sorted(cells):
        cell = cells[key]
        verdict = str(cell.get("verdict", "?"))
        rows.append({
            "cell": key,
            "verdict": Status("FAIL" if verdict == "fail" else verdict, verdict != "fail"),
            "shift": fmt_opt(cell.get("median_shift"), "+.2%"),
            "p": fmt_opt(cell.get("p_value"), ".4g"),
            "note": str(cell["note"]) if cell.get("note") else None,
        })
    facts = {"verdict": str(check.get("verdict")), "alpha": str(check.get("alpha")),
             "effect": str(check.get("effect_threshold")),
             "flagged": str(len(check.get("flagged") or []))}
    note = ("latest verdict: {verdict} (alpha {alpha}, effect threshold {effect}, "
            "{flagged} flagged)".format(**facts))
    columns = [Column("cell"), Column("verdict"), Column("shift", "median shift", "num"),
               Column("p", "p-value", "num"), Column("note", css="lane")]
    return [Panel("campaign_check", "Campaign regression check", note, columns, rows, facts)]


def _explain_panels(entries: list[dict[str, Any]]) -> list[Panel]:
    latest = latest_entries(entries, "explain", lambda e: str(e["cell"]),
                            keep=lambda e: bool(e.get("cell")))
    if not latest:
        return []
    rows = []
    for key in sorted(latest):
        entry = latest[key]
        manifest = entry.get("explain") or {}
        delta = manifest.get("delta") or {}
        verdict = str(entry.get("verdict", "?"))
        blame = [
            {"resource": str(row.get("resource", "?")),
             "delta": f"{row.get('delta_s', 0.0):+.4g}s",
             "share": None if row.get("share") is None else f"{row['share']:.0%}",
             "term": str(row.get("term", ""))}
            for row in (manifest.get("blame") or [])[:3]
        ]
        top = blame[0] if blame else {}
        rows.append({
            "cell": key, "verdict": Status(verdict, verdict != "model"),
            "delta": fmt_opt(delta.get("makespan_s"), "+.4g", "s"),
            "relative": fmt_opt(delta.get("relative"), "+.2%"),
            "replicate": str(manifest.get("replicate", "?")),
            "top": top.get("resource", "-"), "top_delta": top.get("delta", "-"),
            "term": str(manifest.get("top_term") or ""), "details": blame,
        })
    note = ("latest paired-trace blame diff per cell "
            "(docs/observability.md “Explaining regressions”)")
    columns = [Column("cell"), Column("verdict"), Column("delta", "Δ makespan", "num"),
               Column("relative", css="num"), Column("top", "top blame"),
               Column("top_delta", "lane Δ", "num"), Column("term", "model term", "lane")]
    return [Panel("explain", "Regression explanations", note, columns, rows)]


def _tune_panels(entries: list[dict[str, Any]]) -> list[Panel]:
    latest = latest_entries(entries, "tune", _app_preset,
                            keep=lambda e: bool(e.get("incumbent")))
    panels = []
    for (app, preset), entry in sorted(latest.items()):
        inc = entry.get("incumbent") or {}
        obj = inc.get("objectives") or {}
        budget = entry.get("budget") or {}
        front = entry.get("front") or []
        rows = []
        for row in front:
            robj = row.get("objectives") or {}
            res = robj.get("resilience")
            rows.append({
                "point": point_label(row.get("point") or {}),
                "gflops": f"{robj.get('gflops', 0.0):.2f}",
                "slices": f"{robj.get('slice_utilisation', 0.0):.1%}",
                "retention": None if res is None else f"{res:.1%}",
                "freq": f"{robj.get('freq_mhz', 0.0):.0f}",
                "fidelity": str(row.get("fidelity", "?")),
            })
        facts = {
            "app": app, "preset": preset, "point": point_label(inc.get("point") or {}),
            "gflops": f"{obj.get('gflops', 0.0):.2f}",
            "slices": f"{obj.get('slice_utilisation', 0.0):.1%}",
            "fidelity": str(inc.get("fidelity", "?")),
            "used": str(budget.get("des_used", "?")), "budget": str(budget.get("des", "?")),
            "exhaustive": str(entry.get("exhaustive_des", "?")),
            "fraction": fmt_opt((entry.get("savings") or {}).get("fraction_of_exhaustive"), ".1%"),
            "front": str(len(front)), "rungs": str(len(entry.get("rungs") or [])),
        }
        note = ("incumbent {point} → {gflops} GFLOPS at {slices} slices · DES evals "
                "{used}/{budget} vs exhaustive {exhaustive} ({fraction} of exhaustive) · "
                "docs/performance.md “Guided search”".format(**facts))
        columns = [Column("point", "design point"), Column("gflops", "GFLOPS", "num"),
                   Column("slices", css="num")]
        if any(row["retention"] is not None for row in rows):
            columns.append(Column("retention", css="num"))
        columns += [Column("freq", "freq MHz", "num"), Column("fidelity")]
        panels.append(Panel("tune", f"Guided tuning Pareto front ({app}@{preset})", note,
                            columns, rows, facts))
    return panels


def _service_panels(entries: list[dict[str, Any]]) -> list[Panel]:
    jobs = [e for e in entries if e.get("kind") == "service"]
    if not jobs:
        return []
    rows = []
    for entry in jobs[-20:]:
        outcome, digest = str(entry.get("outcome", "?")), entry.get("result_hash")
        rows.append({
            "job": str(entry.get("job", "?")), "kind": str(entry.get("job_kind", "?")),
            "outcome": Status(outcome, outcome != "failed"),
            "wait": fmt_s(entry.get("queue_wait_s")), "run": fmt_s(entry.get("run_s")),
            "attempts": str(entry.get("attempts", "?")),
            "dedups": str(entry.get("dedup_count", 0)),
            "hash": str(digest)[:12] if digest else "-",
        })
    outcomes = Counter(str(e.get("outcome")) for e in jobs)
    facts = {
        "jobs": str(len(jobs)), "computed": str(outcomes["computed"]),
        "cache": str(outcomes["cache"]), "failed": str(outcomes["failed"]),
        "deduped": str(sum(d for e in jobs if isinstance(d := e.get("dedup_count"), int))),
    }
    kinds = Counter(str(e.get("job_kind", "?")) for e in jobs)
    note = " · ".join([
        "{jobs} jobs recorded · {computed} computed / {cache} from cache / {failed} failed · "
        "{deduped} in-flight dedups".format(**facts),
        *(f"{k}: {n}" for k, n in sorted(kinds.items())),
        "docs/service.md",
    ])
    columns = [Column("job"), Column("kind"), Column("outcome"),
               Column("wait", "queue wait", "num"), Column("run", css="num"),
               Column("attempts", css="num"), Column("dedups", css="num"),
               Column("hash", "result hash")]
    return [Panel("service", "Service jobs", note, columns, rows, facts)]


def workers_panel(workers: dict[str, Any]) -> Panel:
    """The sweep worker telemetry panel of one ``workers`` block: the
    executor's telemetry (per-worker spans, queue waits, imbalance,
    stragglers), the analytic-vs-DES replicate split and cache stats."""
    ex = workers.get("executor") or {}
    per_worker = ex.get("per_worker") or []
    busy_max = max((w.get("busy_s", 0.0) for w in per_worker), default=0.0)
    stragglers = ex.get("stragglers") or []
    rows = []
    for w in per_worker:
        busy = w.get("busy_s", 0.0)
        straggler = w.get("worker") in stragglers
        rows.append({
            "worker": f"w{w.get('worker')}", "pid": str(w.get("pid")),
            "chunks": str(w.get("chunks")), "tasks": str(w.get("tasks")),
            "busy": f"{busy:.3f}s", "bar": Bar(busy / busy_max if busy_max > 0 else None, 24),
            "status": Status("straggler" if straggler else "ok", not straggler),
        })
    facts: dict[str, Any] = {}
    if ex:
        facts.update(mode=str(ex.get("mode", "?")), workers=str(ex.get("workers", "?")),
                     tasks=str(ex.get("tasks", "?")), chunks=str(ex.get("chunks", "?")),
                     elapsed=fmt_opt(ex.get("elapsed_s"), ".3f", "s"))
    wait = ex.get("queue_wait_s") or {}
    if wait:
        facts.update(wait_mean=f"{wait.get('mean', 0.0):.4f}",
                     wait_max=f"{wait.get('max', 0.0):.4f}",
                     imbalance=f"{ex.get('imbalance', 1.0):.2f}",
                     stragglers=", ".join(f"w{i}" for i in stragglers) or "none")
    split = workers.get("replicates") or {}
    analytic, des = split.get("analytic", 0), split.get("des", 0)
    if analytic + des:
        facts.update(analytic=str(analytic), des=str(des),
                     des_share=f"{des / (analytic + des):.0%}")
    cache = workers.get("cache")
    if cache:
        rate = workers.get("cache_hit_rate")
        facts.update(lookups=str(cache.get("lookups", 0)), hits=str(cache.get("hits", 0)),
                     misses=str(cache.get("misses", 0)),
                     hit_rate=fmt_opt(rate, ".1%", " hit rate"))
    # The HTML note is the ASCII fact lines, so the two never disagree.
    template = _ASCII["workers"]
    note = " · ".join(line.strip() for line in _draw(template.head + template.tail, facts))
    columns = [Column("worker"), Column("pid", css="num"), Column("chunks", css="num"),
               Column("tasks", css="num"), Column("busy", css="num"),
               Column("bar", "busy share"), Column("status")]
    return Panel("workers", "Sweep worker telemetry", note, columns, rows, facts,
                 empty="serial run — no worker pool.")


def _workers_panels(entries: list[dict[str, Any]]) -> list[Panel]:
    latest = latest_entries(entries, "campaign",
                            keep=lambda e: isinstance(e.get("workers"), dict)).get(None)
    return [workers_panel(latest["workers"])] if latest and latest["workers"] else []


def _panels(entries: list[dict[str, Any]], band: float) -> list[list[Panel]]:
    """Each panel kind's panels in page order (empty when the ledger has none)."""
    return [_fidelity_panels(entries, band)] + [build(entries) for build in (
        _critical_path_panels, _resilience_panels, _campaign_panels, _campaign_check_panels,
        _explain_panels, _tune_panels, _service_panels, _workers_panels,
    )]


# ------------------------------------------------------------------ ASCII

_FORMATTER = Formatter()


def _draw(templates: tuple[str, ...], values: dict[str, Any], first: bool = False) -> list[str]:
    """``templates`` whose fields are all set (not None) in ``values``,
    formatted -- only the first such one when ``first``."""
    out = []
    for template in templates:
        names = [name for _, name, _, _ in _FORMATTER.parse(template) if name]
        if all(values.get(name) is not None for name in names):
            out.append(template.format(**values))
            if first:
                break
    return out


def panel_lines(panel: Panel) -> list[str]:
    """One panel as ASCII lines, without its section heading."""
    template = _ASCII[panel.kind]
    lines = _draw(template.head, panel.facts)
    rows = panel.rows[-template.last:] if template.last else panel.rows
    for row in rows:
        lines += _draw(template.row, row, first=True)
        for detail in row.get("details", ()):
            lines += _draw(template.detail, detail, first=True)
    if not panel.rows:
        lines += _draw(template.empty, {"empty": panel.empty})
    return lines + _draw(template.tail, panel.facts)


def render_ascii(entries: list[dict[str, Any]], band: float = DEFAULT_BAND) -> str:
    """The terminal dashboard: every panel the ledger has entries for."""
    lines = [
        "model-fidelity observatory",
        f"  ledger entries: {len(entries)}  |  band: overlap_efficiency >= {band:.2f}",
    ]
    for panels in _panels(entries, band):
        if panels:
            heading = _ASCII[panels[0].kind].heading
            lines += ["", heading] if heading else [""]
            for panel in panels:
                lines += panel_lines(panel)
    return "\n".join(lines)


# ------------------------------------------------------------------- HTML

_HTML_STYLE = """
:root {
  --surface: #fcfcfb; --page: #f9f9f7; --ink: #0b0b0b; --ink-2: #52514e;
  --muted: #898781; --grid: #e7e6e3; --series: #2a78d6;
  --good: #0ca30c; --critical: #d03b3b;
}
@media (prefers-color-scheme: dark) {
  :root {
    --surface: #1a1a19; --page: #0d0d0d; --ink: #ffffff; --ink-2: #c3c2b7;
    --muted: #898781; --grid: #383835; --series: #3987e5;
    --good: #0ca30c; --critical: #d03b3b;
  }
}
body { background: var(--page); color: var(--ink); margin: 2rem auto; max-width: 60rem;
       font: 14px/1.5 ui-sans-serif, system-ui, sans-serif; }
h1, h2 { font-weight: 600; } h1 { font-size: 1.3rem; } h2 { font-size: 1.05rem; margin-top: 2rem; }
.sub { color: var(--ink-2); }
table { border-collapse: collapse; width: 100%; background: var(--surface);
        border: 1px solid var(--grid); }
th, td { text-align: left; padding: 0.4rem 0.7rem; border-bottom: 1px solid var(--grid);
         font-variant-numeric: tabular-nums; }
th { color: var(--ink-2); font-weight: 600; font-size: 0.85rem; }
.num { text-align: right; }
.status { font-size: 0.8rem; font-weight: 600; }
.status.ok::before { content: "\\2713 "; } .status.ok { color: var(--good); }
.status.below::before { content: "\\2717 "; } .status.below { color: var(--critical); }
.bar { height: 10px; background: var(--series); border-radius: 0 4px 4px 0; min-width: 2px; }
.bartrack { background: var(--surface); width: 180px; }
.lane { color: var(--ink-2); font-size: 0.85rem; }
svg.spark polyline { fill: none; stroke: var(--series); stroke-width: 2; }
svg.spark line { stroke: var(--grid); stroke-width: 1; }
"""

#: Panel text is plain Unicode; the page keeps its punctuation as named
#: entities so the file stays ASCII.
_ENTITIES = str.maketrans({
    "×": "&times;", "·": "&middot;", "→": "&rarr;", "—": "&mdash;",
    "“": "&ldquo;", "”": "&rdquo;", "Δ": "&Delta;",
})


def _text(value: Any) -> str:
    """A value as escaped HTML text (``-`` when absent)."""
    return escape("-" if value is None else str(value)).translate(_ENTITIES)


def _spark_svg(values: list[float], band: float, width: int = 140, height: int = 32) -> str:
    """Inline SVG sparkline of one efficiency series with the band line."""
    if not values:
        return ""
    tail = values[-24:]
    lo = min(tail + [band]) - 1e-9
    hi = max(tail + [band]) + 1e-9
    pad = 0.08 * (hi - lo)
    lo, hi = lo - pad, hi + pad

    def y(v: float) -> float:
        return height - 3 - (v - lo) / (hi - lo) * (height - 6)

    if len(tail) == 1:
        xs = [width / 2]
    else:
        xs = [3 + i * (width - 6) / (len(tail) - 1) for i in range(len(tail))]
    points = " ".join(f"{x:.1f},{y(v):.1f}" for x, v in zip(xs, tail))
    band_y = y(band)
    return (
        f'<svg class="spark" width="{width}" height="{height}" role="img" '
        f'aria-label="efficiency trend, {len(tail)} runs">'
        f'<line x1="0" y1="{band_y:.1f}" x2="{width}" y2="{band_y:.1f}"/>'
        f'<polyline points="{points}"/>'
        + (f'<circle cx="{xs[-1]:.1f}" cy="{y(tail[-1]):.1f}" r="3" fill="var(--series)"/>')
        + "</svg>"
    )


def _td(value: Any, css: str) -> str:
    if isinstance(value, Status):
        state = {True: " ok", False: " below", None: ""}[value.ok]
        return f'<td class="status{state}">{_text(value.text)}</td>'
    if isinstance(value, Bar):
        bar = ("" if value.share is None else
               f'<div class="bar" style="width:{max(2, round(value.share * 180))}px"></div>')
        return f'<td class="bartrack">{bar}</td>'
    if isinstance(value, Spark):
        svg = "" if value.band is None else _spark_svg(value.values, value.band)
        return f"<td>{svg}</td>"
    return f'<td class="{css}">{_text(value)}</td>' if css else f"<td>{_text(value)}</td>"


def _html_panel(panel: Panel) -> str:
    out = f"<h2>{_text(panel.title)}</h2>"
    if panel.note:
        out += f'<p class="sub">{_text(panel.note)}</p>'
    if panel.empty and not panel.rows:
        return out + f'<p class="sub">{_text(panel.empty)}</p>'
    head = "".join(
        ("<th class='num'>" if c.css == "num" else "<th>") + f"{_text(c.header or c.key)}</th>"
        for c in panel.columns
    )
    body = "".join(
        "<tr>" + "".join(_td(row.get(c.key), c.css) for c in panel.columns) + "</tr>"
        for row in panel.rows
    )
    return out + f"<table><thead><tr>{head}</tr></thead><tbody>{body}</tbody></table>"


def render_html(
    entries: list[dict[str, Any]],
    band: float = DEFAULT_BAND,
    title: str = "Model-fidelity observatory",
) -> str:
    """The self-contained HTML dashboard page."""
    panels = "\n".join(
        _html_panel(panel) for kind in _panels(entries, band) for panel in kind
    )
    return f"""<!DOCTYPE html>
<html lang="en">
<head>
<meta charset="utf-8">
<title>{_text(title)}</title>
<style>{_HTML_STYLE}</style>
</head>
<body>
<h1>{_text(title)}</h1>
<p class="sub">{len(entries)} ledger entries &middot; fidelity band: overlap_efficiency &ge; {band:.2f}
(the paper's Section 4.5 &ldquo;&gt;85% of max{{T_tp, T_tf}}&rdquo; claim)</p>
{panels}
</body>
</html>
"""
