"""Unified observability layer: metrics, spans, exporters, overlap accounting.

The instrumentation substrate for the whole reproduction:

* :mod:`repro.obs.metrics` -- a process-wide :class:`MetricsRegistry`
  of labelled counters / gauges / histograms (:data:`REGISTRY`);
* :mod:`repro.obs.tracing` -- wall-clock :class:`Span`/:class:`Tracer`
  records for the harness side, with a zero-overhead disabled mode;
* :mod:`repro.obs.export` -- Chrome ``trace_event`` JSON (open in
  ``chrome://tracing`` or Perfetto), metrics JSON-lines, and plain-text
  summaries;
* :mod:`repro.obs.overlap` -- reconciliation of simulated runs against
  the model's ``max{T_tp, T_tf}`` prediction (``overlap_efficiency``,
  the paper's ">85% of prediction" claim as a first-class metric);
* :mod:`repro.obs.ledger` -- the append-only, schema-versioned run
  ledger (one manifest line per instrumented run);
* :mod:`repro.obs.fidelity` -- cross-run prediction-error analysis over
  the ledger (drift detection, band gating, entry diffing);
* :mod:`repro.obs.critical_path` -- attribution of a simulated makespan
  to resource segments (which Eq. (1)-(6) term bound the run);
* :mod:`repro.obs.explain` -- paired-trace regression explanation:
  diff two critical paths into a blame-ranked ``explain`` manifest
  (which lane grew, which model term it loads onto);
* :mod:`repro.obs.dashboard` -- the dashboard panels (fidelity,
  critical path, resilience, campaigns, checks, explanations, tuning,
  service, workers), each built once from ledger entries and drawn as
  ASCII or as a self-contained HTML page;
* :mod:`repro.obs.console` -- the BrokenPipe-safe CLI writer.

This package imports nothing from the rest of :mod:`repro`, so any
layer -- the DES core's monitor, the partition solvers, the sweep
executor -- can depend on it without cycles.  Schema documentation
lives in ``docs/observability.md``.
"""

from .console import SafeWriter, safe_print
from .critical_path import (
    CriticalPathReport,
    classify_label,
    critical_path,
    from_chrome_trace,
)
from .dashboard import render_ascii, render_html
from .explain import (
    DEFAULT_MIN_DELTA,
    EXPLAIN_SCHEMA,
    blame_resources,
    build_explain,
    lane_deltas,
    phase_deltas,
    render_explain,
)
from .export import (
    METRICS_SCHEMA,
    chrome_trace_events,
    metrics_summary,
    read_metrics_jsonl,
    write_chrome_trace,
    write_metrics_jsonl,
)
from .fidelity import (
    DEFAULT_BAND,
    FidelityStat,
    check as fidelity_check,
    diff_entries,
    fidelity_report,
    render_diff,
)
from .ledger import (
    LEDGER_SCHEMA,
    LedgerError,
    RunLedger,
    bench_entry,
    campaign_check_entry,
    campaign_entry,
    current_git_sha,
    design_run_entry,
    entries_from_metrics,
    experiments_entry,
    explain_entry,
    fault_run_entry,
    service_entry,
    tune_entry,
)
from .metrics import REGISTRY, Counter, Gauge, Histogram, MetricsRegistry, get_registry
from .overlap import OverlapReport, busy_by_resource, reconcile
from .tracing import NULL_TRACER, NullTracer, Span, Tracer, get_tracer, set_tracer

__all__ = [
    "Counter",
    "CriticalPathReport",
    "DEFAULT_BAND",
    "DEFAULT_MIN_DELTA",
    "EXPLAIN_SCHEMA",
    "FidelityStat",
    "Gauge",
    "Histogram",
    "LEDGER_SCHEMA",
    "LedgerError",
    "METRICS_SCHEMA",
    "MetricsRegistry",
    "NULL_TRACER",
    "NullTracer",
    "OverlapReport",
    "REGISTRY",
    "RunLedger",
    "SafeWriter",
    "Span",
    "Tracer",
    "bench_entry",
    "blame_resources",
    "build_explain",
    "busy_by_resource",
    "campaign_check_entry",
    "campaign_entry",
    "chrome_trace_events",
    "classify_label",
    "critical_path",
    "current_git_sha",
    "design_run_entry",
    "diff_entries",
    "entries_from_metrics",
    "experiments_entry",
    "explain_entry",
    "fault_run_entry",
    "fidelity_check",
    "fidelity_report",
    "from_chrome_trace",
    "get_registry",
    "get_tracer",
    "lane_deltas",
    "metrics_summary",
    "phase_deltas",
    "read_metrics_jsonl",
    "reconcile",
    "render_ascii",
    "render_diff",
    "render_explain",
    "render_html",
    "safe_print",
    "service_entry",
    "set_tracer",
    "tune_entry",
    "write_chrome_trace",
    "write_metrics_jsonl",
]
