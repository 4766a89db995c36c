"""Tests for the dashboard renderers (repro.obs.dashboard)."""

from html.parser import HTMLParser
from pathlib import Path

import pytest

from repro.obs.dashboard import render_ascii, render_html, text_sparkline


def _entry(app="lu", preset="xd1", efficiency=0.9, seq=1, critical_path=None):
    entry = {
        "kind": "design_run",
        "schema": 2,
        "seq": seq,
        "app": app,
        "preset": preset,
        "measured": {"overlap_efficiency": efficiency},
    }
    if critical_path is not None:
        entry["critical_path"] = critical_path
    return entry


_CP = {
    "makespan": 10.0,
    "dominant": "cpu",
    "dominant_fraction": 0.7,
    "coverage": 0.98,
    "by_resource": {"cpu": 7.0, "fpga": 2.8, "idle": 0.2},
    "segments": 5,
    "top_segments": [],
}


def test_text_sparkline():
    assert text_sparkline([]) == ""
    flat = text_sparkline([1.0, 1.0, 1.0])
    assert len(flat) == 3 and len(set(flat)) == 1
    varied = text_sparkline([0.0, 1.0])
    assert varied[0] == " " and varied[-1] == "@"
    assert len(text_sparkline(list(range(100)), width=24)) == 24


def test_render_ascii_fidelity_and_critical_path():
    entries = [
        _entry(efficiency=0.90, seq=1),
        _entry(efficiency=0.95, seq=2, critical_path=_CP),
        _entry("fw", efficiency=0.80, seq=3),  # below band
    ]
    out = render_ascii(entries, band=0.85)
    assert "model-fidelity observatory" in out
    assert "[ok   ] lu@xd1" in out
    assert "[BELOW] fw@xd1" in out
    assert "dominant cpu" in out
    assert "processor path T_p" in out  # model-term gloss
    assert "70.0%" in out  # cpu share bar line


def test_render_ascii_empty_ledger():
    out = render_ascii([])
    assert "no design_run entries" in out


def test_render_html_self_contained():
    entries = [_entry(efficiency=0.95, seq=1, critical_path=_CP)]
    html = render_html(entries, band=0.85)
    assert html.startswith("<!DOCTYPE html>")
    assert "lu@xd1" in html
    assert "<svg" in html  # trend sparkline
    assert "critical path" in html
    assert "dominant resource" in html
    # self-contained: no external fetches of any kind
    assert "http://" not in html and "https://" not in html
    assert "<script" not in html
    # dark mode ships with the page
    assert "prefers-color-scheme: dark" in html


def test_render_html_escapes_entry_values():
    html = render_html([_entry(app="<b>evil</b>", efficiency=0.9)])
    assert "<b>evil</b>" not in html
    assert "&lt;b&gt;evil&lt;/b&gt;" in html


def _fault_entry(app="lu", scenario="degraded-link", policy="repartition",
                 failed=False, retention=0.985, seq=10):
    resilience = {
        "makespan_inflation": None if failed else 1.012,
        "efficiency_retention": None if failed else retention,
        "recovery_latency": None if failed else 0.0,
        "failed": failed,
        "failure": {"process": "fault:node_failure@1", "time": 0.05} if failed else None,
    }
    return {
        "kind": "fault_run", "schema": 3, "seq": seq, "app": app, "preset": "xd1",
        "scenario": {"name": scenario, "seed": 0, "events": [], "bursts": []},
        "policy": policy,
        "measured": {"makespan": 10.2, "overlap_efficiency": 1.08},
        "nominal": {"makespan": 10.0, "overlap_efficiency": 1.1},
        "resilience": resilience,
        "attribution": {"term": "t_comm", "gloss": "Eq. (2)/(4) network term (D_p/B_n)"},
    }


def test_render_ascii_resilience_section():
    entries = [
        _entry(efficiency=0.95, seq=1),
        _fault_entry(seq=2),
        _fault_entry(policy="fail-fast", failed=True, seq=3),
    ]
    out = render_ascii(entries, band=0.85)
    assert "resilience (latest fault run" in out
    assert "[ok   ] lu degraded-link / repartition" in out
    assert "retention 98.5%" in out
    assert "attributed to t_comm" in out
    assert "[ABORT] lu degraded-link / fail-fast: fault:node_failure@1" in out


def test_render_ascii_without_fault_entries_has_no_resilience_section():
    out = render_ascii([_entry(efficiency=0.95)], band=0.85)
    assert "resilience" not in out


def test_render_html_resilience_table():
    entries = [_fault_entry(), _fault_entry(policy="fail-fast", failed=True, seq=11)]
    html = render_html(entries, band=0.85)
    assert "Resilience under fault injection" in html
    assert "degraded-link" in html
    assert "98.5%" in html
    assert "aborted: fault:node_failure@1" in html
    # latest entry per (app, scenario, policy) wins
    newer = _fault_entry(retention=0.5, seq=12)
    html2 = render_html(entries + [newer], band=0.85)
    assert "50.0%" in html2 and "98.5%" not in html2


# ------------------------------------------------------------- campaigns


def _campaign_entry(seq=20, preset="xd1", median=100.0, samples=None):
    samples = samples if samples is not None else [99.0, 100.0, 101.0]
    return {
        "kind": "campaign",
        "schema": 5,
        "seq": seq,
        "preset": preset,
        "replicates": len(samples),
        "failures": 0,
        "cells": {
            f"lu@{preset}/nominal": {
                "app": "lu",
                "preset": preset,
                "replicates": len(samples),
                "completed": len(samples),
                "failures": 0,
                "makespan": {
                    "samples": samples,
                    "median": median,
                    "iqr": 1.0,
                    "p95": max(samples),
                    "p99": max(samples),
                },
                "efficiency": {"median": 1.1},
            }
        },
    }


def _check_entry(seq=30, verdict="fail"):
    return {
        "kind": "campaign_check",
        "schema": 5,
        "seq": seq,
        "verdict": verdict,
        "alpha": 0.05,
        "effect_threshold": 0.02,
        "flagged": ["lu@xd1/nominal"] if verdict == "fail" else [],
        "cells": {
            "lu@xd1/nominal": {
                "verdict": verdict,
                "p_value": 0.002,
                "median_shift": 0.21 if verdict == "fail" else 0.0,
                "note": "significant slowdown (+21.0% median)" if verdict == "fail" else None,
            }
        },
    }


def test_render_ascii_campaign_panel_with_drift():
    older = _campaign_entry(seq=20, median=100.0)
    newer = _campaign_entry(seq=21, median=121.0, samples=[120.0, 121.0, 122.0])
    out = render_ascii([older, newer], band=0.85)
    assert "campaigns (per-cell makespan distributions" in out
    assert "lu@xd1/nominal" in out
    assert "median 121s" in out  # the latest campaign wins
    assert "drift ^+21.0%" in out  # vs the previous campaign


def test_render_ascii_campaign_check_section():
    out = render_ascii([_campaign_entry(), _check_entry()], band=0.85)
    assert "campaign regression check (latest): verdict fail" in out
    assert "[FAIL] lu@xd1/nominal  shift +21.00%  p 0.002" in out


def test_render_ascii_without_campaigns_has_no_campaign_section():
    out = render_ascii([_entry(efficiency=0.95)], band=0.85)
    assert "campaign" not in out


def _explain_ledger_entry(seq=40, cell="lu@xd1/nominal", verdict="model"):
    return {
        "kind": "explain",
        "schema": 5,
        "seq": seq,
        "cell": cell,
        "app": "lu",
        "verdict": verdict,
        "top_blame": "fpga",
        "explain": {
            "kind": "explain",
            "cell": cell,
            "replicate": 2,
            "verdict": verdict,
            "top_term": "FPGA compute T_f (Eqs. 1, 2, 4, 6)",
            "delta": {"makespan_s": 21.5, "relative": 0.215},
            "blame": [
                {
                    "resource": "fpga",
                    "delta_s": 20.0,
                    "share": 0.93,
                    "term": "FPGA compute T_f (Eqs. 1, 2, 4, 6)",
                },
                {"resource": "cpu", "delta_s": 1.5, "share": 0.07, "term": "CPU compute"},
            ],
        },
    }


def _workers_block(mode="parallel"):
    return {
        "executor": {
            "mode": mode,
            "workers": 2,
            "tasks": 8,
            "chunks": 4,
            "elapsed_s": 0.25,
            "per_worker": [
                {"worker": 0, "pid": 10, "chunks": 2, "tasks": 4, "busy_s": 0.10},
                {"worker": 1, "pid": 11, "chunks": 2, "tasks": 4, "busy_s": 0.21},
            ],
            "queue_wait_s": {"max": 0.02, "mean": 0.01},
            "imbalance": 1.35,
            "stragglers": [1],
        },
        "cache": {"lookups": 8, "hits": 6, "misses": 2},
        "cache_hit_rate": 0.75,
    }


def test_render_ascii_explain_panel():
    older = _explain_ledger_entry(seq=40, verdict="inconclusive")
    newer = _explain_ledger_entry(seq=41)  # same cell: newest wins
    out = render_ascii([_campaign_entry(), older, newer], band=0.85)
    assert "regression explanations (latest explain per cell):" in out
    assert "lu@xd1/nominal: verdict model  delta +21.5s (+21.50%)" in out
    assert "blame fpga  +20s (share 93%)  FPGA compute T_f (Eqs. 1, 2, 4, 6)" in out
    assert "inconclusive" not in out


def test_render_ascii_worker_panel():
    entry = dict(_campaign_entry(), workers=_workers_block())
    out = render_ascii([entry], band=0.85)
    assert "sweep worker telemetry (latest campaign):" in out
    assert "mode parallel  workers 2  tasks 8  chunks 4" in out
    assert "stragglers: w1" in out


def test_render_html_explain_and_worker_sections():
    entry = dict(_campaign_entry(), workers=_workers_block())
    html = render_html([entry, _explain_ledger_entry()], band=0.85)
    assert "Regression explanations" in html
    assert "Sweep worker telemetry" in html
    assert "FPGA compute T_f" in html
    assert "Explaining regressions" in html  # doc cross-link


def test_render_html_campaign_tables():
    older = _campaign_entry(seq=20, median=100.0)
    newer = _campaign_entry(seq=21, median=121.0, samples=[120.0, 121.0, 122.0])
    html = render_html([older, newer, _check_entry(seq=30)], band=0.85)
    assert "Campaign distributions (xd1)" in html
    assert "Campaign regression check" in html
    assert "+21.0%" in html  # drift arrow against the previous campaign
    assert "fail" in html
    assert "<svg" in html  # sample sparkline rendered


# ------------------------------------------------------------- escaping

_SCRIPT = "<script>alert(1)</script>"


def _service_ledger_entry():
    return {
        "kind": "service", "schema": 7, "seq": 50, "app": "service",
        "job": "j-000001", "job_kind": "design", "outcome": "computed",
        "queue_wait_s": 0.01, "run_s": 0.2, "attempts": 1, "dedup_count": 0,
        "result_hash": "ab" * 32,
    }


def _campaign_with_workers():
    return dict(_campaign_entry(), workers=_workers_block())


def _tune_ledger_entry():
    point = {"point": {"b_f": 800}, "fidelity": "des",
             "objectives": {"gflops": 26.2, "slice_utilisation": 0.75, "freq_mhz": 141.0}}
    return {
        "kind": "tune", "schema": 7, "seq": 60, "app": "block_mm", "preset": "xd1",
        "budget": {"des": 8, "des_used": 6}, "exhaustive_des": 32,
        "savings": {"fraction_of_exhaustive": 0.1875},
        "incumbent": point, "front": [point], "rungs": [],
    }


@pytest.mark.parametrize(
    "make, path",
    [
        (_service_ledger_entry, ("attempts",)),
        (_service_ledger_entry, ("dedup_count",)),
        (_check_entry, ("alpha",)),
        (_check_entry, ("effect_threshold",)),
        (_campaign_entry, ("replicates",)),
        (_campaign_entry, ("cells", "lu@xd1/nominal", "replicates")),
        (_campaign_entry, ("cells", "lu@xd1/nominal", "completed")),
        (_campaign_with_workers, ("workers", "executor", "per_worker", 0, "worker")),
        (_campaign_with_workers, ("workers", "executor", "per_worker", 0, "pid")),
        (_campaign_with_workers, ("workers", "executor", "per_worker", 0, "tasks")),
        (_campaign_with_workers, ("workers", "executor", "per_worker", 0, "chunks")),
        (_tune_ledger_entry, ("budget", "des_used")),
        (_tune_ledger_entry, ("budget", "des")),
        (_tune_ledger_entry, ("exhaustive_des",)),
    ],
    ids=lambda v: "/".join(map(str, v)) if isinstance(v, tuple) else None,
)
def test_render_html_escapes_every_ledger_field(make, path):
    """A ledger value never reaches the page as markup, whichever field
    carries it."""
    entry = make()
    target = entry
    for step in path[:-1]:
        target = target[step]
    target[path[-1]] = _SCRIPT
    html = render_html([entry], band=0.85)
    assert "<script" not in html
    assert "&lt;script&gt;" in html


# ---------------------------------------------------------------- golden

_GOLDEN = Path(__file__).parent / "golden"


def test_cli_dashboard_matches_golden(capsys):
    """Every panel and branch of the ASCII dashboard, byte for byte, on a
    fixture ledger that holds every kind the dashboard reads."""
    from repro.cli import main

    rc = main(["obs", "dashboard", "--ledger", str(_GOLDEN / "dashboard_ledger.jsonl")])
    assert rc == 0
    golden = (_GOLDEN / "dashboard.txt").read_text(encoding="utf-8")
    assert capsys.readouterr().out == golden


class _Headings(HTMLParser):
    """Every ``<h2>`` title and ``<th>`` column header, in page order."""

    def __init__(self):
        super().__init__()
        self.found, self.tag, self.text = [], None, ""

    def handle_starttag(self, tag, attrs):
        if tag in ("h2", "th"):
            self.tag, self.text = tag, ""

    def handle_data(self, data):
        if self.tag:
            self.text += data

    def handle_endtag(self, tag):
        if tag == self.tag:
            self.found.append(f"{tag}: {self.text}")
            self.tag = None


def test_html_dashboard_keeps_golden_titles_and_headers():
    """The HTML page of the fixture ledger has the golden panel titles and
    table headers, in order."""
    from repro.obs import RunLedger

    parser = _Headings()
    parser.feed(render_html(RunLedger(_GOLDEN / "dashboard_ledger.jsonl").entries()))
    golden = (_GOLDEN / "dashboard_headings.txt").read_text(encoding="utf-8")
    assert parser.found == golden.splitlines()
