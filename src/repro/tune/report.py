"""Human-readable rendering of tune manifests (``tune report``)."""

from __future__ import annotations

from typing import Any

from ..analysis import pareto_plot, table
from ..analysis.report import percent
from ..obs.dashboard import point_label

__all__ = ["render_tune", "front_rows"]


def front_rows(manifest: dict[str, Any]) -> list[list[Any]]:
    """Table rows for the manifest's Pareto front (report + dashboard)."""
    has_res = "resilience" in manifest.get("objectives", {})
    rows = []
    for entry in manifest.get("front", []):
        obj = entry["objectives"]
        row = [
            point_label(entry["point"]),
            f"{obj['gflops']:.2f}",
            percent(obj["slice_utilisation"]),
            f"{obj.get('freq_mhz', 0):.0f}",
            entry.get("fidelity", "?"),
        ]
        if has_res:
            row.insert(3, percent(obj["resilience"]) if obj.get("resilience") is not None else "-")
        rows.append(row)
    return rows


def render_tune(manifest: dict[str, Any]) -> str:
    """The full ASCII report for one tune manifest."""
    spec = manifest.get("spec", {})
    space = manifest.get("space", {})
    lines = [
        f"tune: {manifest.get('app')}@{manifest.get('preset')} "
        f"space={space.get('size')} feasible points "
        f"(grid {space.get('grid_size')}, {space.get('infeasible')} infeasible), "
        f"seed={spec.get('seed')}",
    ]
    rung_rows = []
    for rung in manifest.get("rungs", []):
        best = rung.get("best") or {}
        rung_rows.append(
            [
                rung.get("rung"),
                rung.get("fidelity"),
                rung.get("evaluated"),
                rung.get("kept"),
                point_label(best.get("point", {})),
                f"{best.get('gflops', 0):.2f}" if best else "-",
            ]
        )
    lines.append(
        table(
            ["rung", "fidelity", "evaluated", "kept", "best point", "GFLOPS"],
            rung_rows,
            title="Successive-halving rungs",
        )
    )
    inc = manifest.get("incumbent", {})
    obj = inc.get("objectives", {})
    lines.append(
        f"incumbent: {point_label(inc.get('point', {}))} -> "
        f"{obj.get('gflops', 0):.2f} GFLOPS, "
        f"{percent(obj.get('slice_utilisation', 0))} slices, "
        f"{obj.get('freq_mhz', 0):.0f} MHz ({inc.get('fidelity')})"
    )
    budget = manifest.get("budget", {})
    savings = manifest.get("savings", {})
    lines.append(
        f"DES budget: {budget.get('des_used')}/{budget.get('des')} used; "
        f"exhaustive sweep would need {manifest.get('exhaustive_des')} "
        f"({percent(savings.get('fraction_of_exhaustive', 1.0))} of exhaustive, "
        f"{savings.get('des_evals_saved')} DES evals saved)"
    )
    has_res = "resilience" in manifest.get("objectives", {})
    headers = ["design point", "GFLOPS", "slices", "F MHz", "fidelity"]
    if has_res:
        headers.insert(3, "resilience")
    lines.append(
        table(headers, front_rows(manifest), title="Pareto front")
    )
    pts = [
        (r["objectives"]["slice_utilisation"], r["objectives"]["gflops"])
        for r in manifest.get("points", [])
    ]
    front = [
        (r["objectives"]["slice_utilisation"], r["objectives"]["gflops"])
        for r in manifest.get("front", [])
    ]
    lines.append(
        pareto_plot(
            pts,
            front,
            "Pareto front: throughput vs FPGA area",
            x_label="slice utilisation",
            y_label="GFLOPS",
        )
    )
    return "\n".join(lines)
