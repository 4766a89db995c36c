"""Terminal rendering of campaign manifests and check verdicts.

Plain strings for the CLI (``repro campaign report`` / ``check``); the
persistent dashboards (ASCII and HTML, fed from the run ledger) live in
:mod:`repro.obs.dashboard`.
"""

from __future__ import annotations

from typing import Any, Iterable, Optional

from ..analysis.figures import box_plot, line_chart
from ..analysis.series import Series
from ..obs.dashboard import SPARK_LEVELS, fmt_opt, fmt_s
from .core import iter_cells

__all__ = [
    "render_manifest",
    "render_check",
    "render_figures",
    "render_timeline",
    "sparkline",
]

_VERDICT_MARK = {"pass": "ok", "warn": "WARN", "fail": "FAIL"}


def sparkline(counts: list[float]) -> str:
    """Map bucket counts to a fixed-alphabet ASCII sparkline."""
    if not counts:
        return ""
    peak = max(counts)
    if peak <= 0:
        return " " * len(counts)
    top = len(SPARK_LEVELS) - 1
    out = []
    for c in counts:
        level = 0 if c <= 0 else max(1, round(c / peak * top))
        out.append(SPARK_LEVELS[level])
    return "".join(out)


def _trim_spark(hist: Optional[dict[str, Any]]) -> str:
    """Sparkline over the occupied bucket span (plus one margin bucket)."""
    if not hist:
        return ""
    counts = [float(c) for c in hist.get("bucket_counts") or []]
    occupied = [i for i, c in enumerate(counts) if c > 0]
    if not occupied:
        return ""
    lo = max(0, occupied[0] - 1)
    hi = min(len(counts), occupied[-1] + 2)
    return sparkline(counts[lo:hi])


def render_manifest(manifest: dict[str, Any]) -> str:
    """One campaign manifest as an aligned per-cell summary table."""
    lines = [
        "campaign: preset={preset} replicates={replicates} points={points} "
        "failures={failures} seed={seed}".format(
            preset=manifest.get("preset"),
            replicates=manifest.get("replicates"),
            points=manifest.get("points"),
            failures=manifest.get("failures"),
            seed=(manifest.get("spec") or {}).get("seed"),
        )
    ]
    rows = []
    for key, cell in iter_cells(manifest):
        mk = cell.get("makespan") or {}
        eff = cell.get("efficiency") or {}
        rows.append(
            (
                key,
                fmt_s(mk.get("median")),
                fmt_s(mk.get("iqr")),
                fmt_s(mk.get("p95")),
                fmt_s(mk.get("p99")),
                fmt_opt(eff.get("median"), ".4g"),
                f"{cell.get('completed', 0)}/{cell.get('replicates', 0)}",
                _trim_spark(cell.get("hist")),
            )
        )
    header = ("cell", "median", "iqr", "p95", "p99", "eff", "ok", "dist")
    widths = [
        max(len(header[i]), *(len(r[i]) for r in rows)) if rows else len(header[i])
        for i in range(len(header))
    ]
    lines.append("  ".join(h.ljust(widths[i]) for i, h in enumerate(header)).rstrip())
    for row in rows:
        lines.append(
            "  ".join(col.ljust(widths[i]) for i, col in enumerate(row)).rstrip()
        )
    return "\n".join(lines)


def render_check(comparison: dict[str, Any]) -> str:
    """One campaign_check document as a per-cell verdict table."""
    lines = [
        "campaign check: verdict={verdict} alpha={alpha:g} effect={effect:g} "
        "flagged={flagged}".format(
            verdict=comparison.get("verdict"),
            alpha=comparison.get("alpha", 0.0),
            effect=comparison.get("effect_threshold", 0.0),
            flagged=len(comparison.get("flagged") or []),
        )
    ]
    cells = comparison.get("cells") or {}
    for key in sorted(cells):
        cell = cells[key]
        shift = cell.get("median_shift")
        arrow = "=" if shift is None else ("^" if shift > 0 else "v" if shift < 0 else "=")
        lines.append(
            "  [{mark:>4}] {key}  shift={shift} {arrow}  p={p}  "
            "median {base} -> {cur}{note}".format(
                mark=_VERDICT_MARK.get(cell.get("verdict"), "?"),
                key=key,
                shift=fmt_opt(shift, "+.2%"),
                arrow=arrow,
                p=fmt_opt(cell.get("p_value"), ".4g"),
                base=fmt_s(cell.get("baseline_median")),
                cur=fmt_s(cell.get("median")),
                note=f"  ({cell['note']})" if cell.get("note") else "",
            )
        )
    missing = comparison.get("missing") or {}
    for side in ("baseline_only", "current_only"):
        for key in missing.get(side, []):
            lines.append(f"  [WARN] {key}  ({side.replace('_', ' ')})")
    return "\n".join(lines)


def render_figures(manifest: dict[str, Any], width: int = 46) -> str:
    """The campaign's distribution figure: one box-whisker row per cell.

    All cells share one scale, so the figure answers "which cells are
    slow, and which are *spread out*" at a glance; the exact numbers
    stay in :func:`render_manifest`'s table.
    """
    labels, stats = [], []
    for key, cell in iter_cells(manifest):
        labels.append(key)
        stats.append(cell.get("makespan") or {})
    return box_plot(
        labels,
        stats,
        "campaign makespan distributions (per cell, min [q25 M q75] max)",
        width=width,
        unit="s",
    )


def render_timeline(entries: Iterable[dict[str, Any]]) -> str:
    """Median-makespan trend per cell over successive campaign runs.

    ``entries`` are campaign manifests (or ledger ``campaign`` entries),
    oldest first -- typically every ``campaign`` entry of a ledger.  The
    x axis is the run index, so the figure stays deterministic for
    pinned-timestamp ledgers.
    """
    curves: dict[str, Series] = {}
    for i, entry in enumerate(entries):
        for key, cell in iter_cells(entry):
            median = (cell.get("makespan") or {}).get("median")
            if median is None:
                continue
            curves.setdefault(key, Series(label=key)).append(float(i), float(median))
    if not curves:
        return "campaign makespan timeline\n(no data)"
    return line_chart(
        [curves[k] for k in sorted(curves)],
        "campaign makespan timeline (median per campaign run)",
        y_label="makespan s",
        x_label="campaign run index",
    )
