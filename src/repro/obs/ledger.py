"""Append-only, schema-versioned run ledger (``LEDGER_SCHEMA = 7``).

Every instrumented run -- an LU/FW/MM design run, an experiments sweep,
a ``bench_perf_regression`` baseline check, a fault-injection run, a
statistical campaign, a campaign regression check, a regression
*explanation* (paired-trace blame diff), a guided-search *tune* run
(successive-halving manifest with its Pareto front) or a co-design
*service* job (queue wait, run time, dedup/cache outcome) -- can
append one *manifest* line to a JSON-lines ledger file.  A manifest records everything needed
to compare runs across commits and machines: git SHA, machine preset,
the partition decisions ``(b_p, b_f, l)`` / ``(l1, l2)`` / ``(m_f, r)``,
the model prediction ``max{T_tp, T_tf}``, the simulated makespan,
``overlap_efficiency``, per-resource utilisation, DES throughput, and a
critical-path attribution summary.

The ledger is the persistence layer of the model-fidelity observatory:
:mod:`repro.obs.fidelity` analyses prediction-error series across
entries, and :mod:`repro.obs.dashboard` renders them.  Schema
documentation lives in ``docs/observability.md``.

Like the rest of :mod:`repro.obs`, this module imports nothing from the
rest of :mod:`repro` (stdlib only).
"""

from __future__ import annotations

import fcntl
import functools
import json
import os
import subprocess
from datetime import datetime, timezone
from pathlib import Path
from typing import Any, Callable, Iterable, Optional

__all__ = [
    "LEDGER_SCHEMA",
    "LedgerError",
    "RunLedger",
    "current_git_sha",
    "design_run_entry",
    "entries_from_metrics",
    "experiments_entry",
    "fault_run_key",
    "latest_entries",
    "bench_entry",
    "fault_run_entry",
    "campaign_entry",
    "campaign_check_entry",
    "explain_entry",
    "tune_entry",
    "service_entry",
]

#: Current ledger schema version.  Schema 1 was the metrics-file format
#: (``METRICS_SCHEMA``); the ledger introduced the cross-run manifest as
#: schema 2; schema 3 added the ``fault_run`` kind (resilience manifests
#: from :mod:`repro.faults`); schema 4 adds the ``campaign`` and
#: ``campaign_check`` kinds (replicated-scenario distribution manifests
#: and statistical regression verdicts from :mod:`repro.campaign`);
#: schema 5 adds the ``explain`` kind (paired-trace blame manifests from
#: :mod:`repro.obs.explain` / :mod:`repro.campaign.explain`) and the
#: optional ``workers`` telemetry block on ``campaign`` entries;
#: schema 6 adds the ``tune`` kind (guided-search manifests from
#: :mod:`repro.tune`: successive-halving rungs, the incumbent design
#: and the Pareto front over GFLOPS / slice utilisation / resilience);
#: schema 7 adds the ``service`` kind (co-design-as-a-service job
#: manifests from :mod:`repro.service`: job id/kind, dedup and cache
#: outcome, queue wait, run time, attempts, result hash).
#: Entries written by older schemas remain readable:
#: :meth:`RunLedger.entries` accepts any ``schema <= 7``.  Bump on
#: breaking changes to the entry layout.
LEDGER_SCHEMA = 7

#: Entry kinds the observatory understands.  ``design_run`` entries feed
#: the fidelity analysis, ``fault_run`` entries feed the resilience
#: report, ``campaign``/``campaign_check``/``explain`` entries feed the
#: campaign observatory, ``tune`` entries feed the autotuner's Pareto
#: panel, ``service`` entries feed the job-server panel; the others are
#: audit records.
ENTRY_KINDS = (
    "design_run", "experiments", "bench", "fault_run", "campaign",
    "campaign_check", "explain", "tune", "service",
)

#: Environment override for :func:`current_git_sha` (useful in CI and
#: in tests where the checkout SHA is not the interesting identity).
GIT_SHA_ENV_VAR = "REPRO_GIT_SHA"

#: Environment override for entry timestamps.  CI's bitwise-determinism
#: gate writes the same sweep twice and compares the ledgers byte for
#: byte; pinning the timestamp removes the one legitimately varying
#: field.
LEDGER_TS_ENV_VAR = "REPRO_LEDGER_TS"

#: First tail window :meth:`RunLedger.append` reads for the last line's
#: ``seq`` (a service line is ~460 bytes); doubled while it holds no
#: whole line.
_TAIL_BYTES = 4096


class LedgerError(ValueError):
    """A ledger file or entry violates the schema."""


def current_git_sha(cwd: Optional[str | Path] = None) -> str:
    """The current git commit SHA, or ``"unknown"`` outside a checkout.

    ``REPRO_GIT_SHA`` overrides the lookup entirely (no subprocess) and
    is checked on every call; otherwise ``git rev-parse HEAD`` runs once
    per process for each ``cwd``.
    """
    env = os.environ.get(GIT_SHA_ENV_VAR)
    if env:
        return env
    return _git_sha(str(cwd) if cwd is not None else None)


@functools.lru_cache(maxsize=None)
def _git_sha(cwd: Optional[str]) -> str:
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=cwd,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    sha = proc.stdout.strip()
    return sha if proc.returncode == 0 and sha else "unknown"


def _utc_now_iso() -> str:
    env = os.environ.get(LEDGER_TS_ENV_VAR)
    if env:
        return env
    return datetime.now(timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ")


class RunLedger:
    """An append-only JSON-lines ledger of run manifests.

    One entry per line; ``append`` assigns the schema version, a
    monotonically increasing ``seq`` and a UTC timestamp, and writes the
    line with one ``write`` in append mode.  Existing lines are never
    rewritten.  ``seq`` comes from the file's last line alone, read
    under an exclusive ``flock`` held until the line is written, so an
    append costs the same on a long ledger as on a short one and two
    processes sharing one file never hand out the same ``seq``.
    """

    def __init__(self, path: str | Path) -> None:
        self.path = Path(path)
        if self.path.is_dir():
            self.path = self.path / "ledger.jsonl"

    # -- write ----------------------------------------------------------

    def append(self, entry: dict[str, Any]) -> dict[str, Any]:
        """Append one entry; fills ``schema``/``seq``/``ts``; returns it.

        Raises :class:`LedgerError` naming the byte offset, and writes
        nothing, when the file's last line is torn (no final newline) or
        malformed; malformed earlier lines do not block appends.
        """
        kind = entry.get("kind")
        if kind not in ENTRY_KINDS:
            raise LedgerError(f"unknown ledger entry kind {kind!r}; expected one of {ENTRY_KINDS}")
        entry = dict(entry)
        entry["schema"] = LEDGER_SCHEMA
        entry.setdefault("ts", _utc_now_iso())
        flags = os.O_RDWR | os.O_APPEND | os.O_CREAT
        try:
            fd = os.open(self.path, flags, 0o666)
        except FileNotFoundError:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            fd = os.open(self.path, flags, 0o666)
        try:
            fcntl.flock(fd, fcntl.LOCK_EX)  # released by close
            entry["seq"] = self._last_seq(fd) + 1
            line = json.dumps(entry, sort_keys=True).encode("utf-8") + b"\n"
            while line:
                line = line[os.write(fd, line):]
        finally:
            os.close(fd)
        return entry

    def _last_seq(self, fd: int) -> int:
        """The ``seq`` of the file's last non-blank line (0 when none),
        read from a tail window that doubles only while it holds no
        complete line."""
        size = os.fstat(fd).st_size
        if not size:
            return 0
        window = _TAIL_BYTES
        while True:
            start = max(0, size - window)
            tail = os.pread(fd, size - start, start)
            torn = not tail.endswith(b"\n")
            end = len(tail) if torn else len(tail.rstrip())
            cut = tail.rfind(b"\n", 0, end)
            if cut >= 0 or start == 0:
                break
            window *= 2
        offset = start + cut + 1
        if torn:
            raise LedgerError(f"{self.path}: byte {offset}: torn last line (no final newline)")
        if not end:
            return 0
        try:
            seq = json.loads(tail[cut + 1:end])["seq"]
        except (ValueError, TypeError, KeyError) as exc:
            raise LedgerError(f"{self.path}: byte {offset}: malformed last line ({exc!r})") from exc
        if not isinstance(seq, int):
            raise LedgerError(f"{self.path}: byte {offset}: malformed last line (seq {seq!r})")
        return seq

    # -- read -----------------------------------------------------------

    def entries(
        self, app: Optional[str] = None, kind: Optional[str] = None
    ) -> list[dict[str, Any]]:
        """All entries in append order, optionally filtered by app/kind.

        Raises :class:`LedgerError` naming the line for malformed JSON
        or a schema version newer than this reader understands.
        """
        if not self.path.is_file():
            return []
        out: list[dict[str, Any]] = []
        with open(self.path, "r", encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, 1):
                line = line.strip()
                if not line:
                    continue
                try:
                    entry = json.loads(line)
                except json.JSONDecodeError as exc:
                    raise LedgerError(f"{self.path}:{lineno}: malformed ledger line ({exc})") from exc
                if not isinstance(entry, dict):
                    raise LedgerError(f"{self.path}:{lineno}: ledger line is not an object")
                schema = entry.get("schema")
                if not isinstance(schema, int) or schema > LEDGER_SCHEMA:
                    raise LedgerError(
                        f"{self.path}:{lineno}: unsupported ledger schema {schema!r} "
                        f"(this reader understands <= {LEDGER_SCHEMA})"
                    )
                if app is not None and entry.get("app") != app:
                    continue
                if kind is not None and entry.get("kind") != kind:
                    continue
                out.append(entry)
        return out

    def resolve(self, ref: str | int) -> dict[str, Any]:
        """One entry by reference: a ``seq`` number, a negative index
        from the end (``-1`` is the latest), or ``"latest"``."""
        entries = self.entries()
        if not entries:
            raise LedgerError(f"ledger {self.path} is empty")
        if ref == "latest":
            return entries[-1]
        try:
            num = int(ref)
        except (TypeError, ValueError):
            raise LedgerError(f"bad entry reference {ref!r}: expected a seq number, "
                              f"a negative index, or 'latest'") from None
        if num < 0:
            try:
                return entries[num]
            except IndexError:
                raise LedgerError(f"index {num} out of range ({len(entries)} entries)") from None
        for entry in entries:
            if entry.get("seq") == num:
                return entry
        raise LedgerError(f"no entry with seq {num} in {self.path}")

    def __len__(self) -> int:
        return len(self.entries())


# ------------------------------------------------------------- readers


def latest_entries(
    entries: Iterable[dict[str, Any]],
    kind: str,
    key: Callable[[dict[str, Any]], Any] = lambda entry: None,
    keep: Callable[[dict[str, Any]], bool] = lambda entry: True,
) -> dict[Any, dict[str, Any]]:
    """The newest ``kind`` entry per ``key(entry)`` among those ``keep``
    accepts, keys in first-seen order; the default key keeps the single
    newest entry, under ``None``."""
    out: dict[Any, dict[str, Any]] = {}
    for entry in entries:
        if entry.get("kind") == kind and keep(entry):
            out[key(entry)] = entry
    return out


def fault_run_key(entry: dict[str, Any]) -> tuple[str, str, str]:
    """A ``fault_run`` entry's (app, scenario name, policy) identity."""
    scenario = entry.get("scenario") or {}
    return str(entry.get("app")), str(scenario.get("name", "?")), str(entry.get("policy"))


# ------------------------------------------------------------- builders


def _header(
    kind: str, app: Any, source: str, git_sha: Optional[str], note: Optional[str]
) -> dict[str, Any]:
    """The fields every entry kind starts with (``note`` only when given)."""
    entry = {
        "kind": kind,
        "app": app,
        "source": source,
        "git_sha": git_sha if git_sha is not None else current_git_sha(),
    }
    if note:
        entry["note"] = note
    return entry


def design_run_entry(
    overlap_record: dict[str, Any],
    *,
    preset: Optional[str] = None,
    source: str = "cli",
    git_sha: Optional[str] = None,
    des: Optional[dict[str, Any]] = None,
    critical_path: Optional[dict[str, Any]] = None,
    note: Optional[str] = None,
) -> dict[str, Any]:
    """A ``design_run`` manifest from one metrics-file overlap record.

    ``overlap_record`` is the ``kind == "overlap"`` dict written by
    :meth:`repro.obs.overlap.OverlapReport.to_dict` (meta carries the
    run parameters and the design's partition decisions).
    """
    if overlap_record.get("kind") != "overlap":
        raise LedgerError(f"not an overlap record: kind={overlap_record.get('kind')!r}")
    meta = overlap_record.get("meta") or {}
    params = {
        key: meta[key] for key in ("n", "b", "p", "iterations_run") if meta.get(key) is not None
    }
    predicted = {
        "t_tp": overlap_record.get("t_tp"),
        "t_tf": overlap_record.get("t_tf"),
        "latency": overlap_record.get("predicted_latency"),
    }
    if meta.get("model_latency") is not None:
        predicted["model_latency"] = meta["model_latency"]
    measured = {
        "makespan": overlap_record.get("simulated_makespan"),
        "overlap_efficiency": overlap_record.get("overlap_efficiency"),
        "slowdown_vs_model": overlap_record.get("slowdown_vs_model"),
    }
    if meta.get("gflops") is not None:
        measured["gflops"] = meta["gflops"]
    entry = {
        **_header("design_run", overlap_record.get("app"), source, git_sha, note),
        "preset": preset or "xd1",
        "params": params,
        "partition": dict(meta.get("partition") or {}),
        "predicted": predicted,
        "measured": measured,
        "utilisation": dict(overlap_record.get("utilisation") or {}),
    }
    if des:
        entry["des"] = dict(des)
    if critical_path:
        entry["critical_path"] = dict(critical_path)
    return entry


def _des_stats(records: Iterable[dict[str, Any]], app: str) -> dict[str, Any]:
    """DES counters for ``app`` from metrics records (events, throughput)."""
    out: dict[str, Any] = {}
    for rec in records:
        if rec.get("labels", {}).get("app") != app:
            continue
        name = rec.get("name")
        if name == "des.events_fired":
            out["events_fired"] = rec.get("value")
        elif name == "des.events_per_s":
            out["events_per_s"] = rec.get("value")
    return out


def entries_from_metrics(
    records: list[dict[str, Any]],
    *,
    preset: Optional[str] = None,
    source: str = "cli",
    git_sha: Optional[str] = None,
    critical_paths: Optional[dict[str, dict[str, Any]]] = None,
    note: Optional[str] = None,
) -> list[dict[str, Any]]:
    """``design_run`` manifests for every overlap record in a metrics file.

    ``records`` is the list from :func:`repro.obs.export.read_metrics_jsonl`;
    the header's ``preset`` (when recorded there) seeds the default.
    ``critical_paths`` maps app name -> critical-path summary dict (as
    produced by :meth:`repro.obs.critical_path.CriticalPathReport.to_dict`).
    """
    header = next((r for r in records if r.get("kind") == "header"), {})
    preset = preset or header.get("preset") or "xd1"
    entries = []
    for rec in records:
        if rec.get("kind") != "overlap":
            continue
        app = rec.get("app")
        entries.append(
            design_run_entry(
                rec,
                preset=preset,
                source=source,
                git_sha=git_sha,
                des=_des_stats(records, app) or None,
                critical_path=(critical_paths or {}).get(app),
                note=note,
            )
        )
    if not entries:
        raise LedgerError("no overlap records in metrics file; run with --metrics-out first")
    return entries


def experiments_entry(
    results: Iterable[tuple[str, bool]],
    *,
    sim_points: Optional[int] = None,
    preset: str = "xd1",
    source: str = "cli",
    git_sha: Optional[str] = None,
    note: Optional[str] = None,
    fast_path: Optional[dict[str, Any]] = None,
) -> dict[str, Any]:
    """An ``experiments`` manifest: which reproduction checks passed.

    ``fast_path`` (optional) records analytic fast-path coverage for the
    run: ``{"analytic": n, "des": m, "fallback": {reason: count}}`` as
    produced by :func:`repro.sim.analytic.fastpath_summary`.
    """
    checks = {name: bool(ok) for name, ok in results}
    entry = {
        **_header("experiments", "experiments", source, git_sha, note),
        "preset": preset,
        "checks": checks,
        "passed": sum(checks.values()),
        "failed": sum(1 for ok in checks.values() if not ok),
    }
    if sim_points is not None:
        entry["sim_points"] = sim_points
    if fast_path is not None:
        entry["fast_path"] = fast_path
    return entry


def fault_run_entry(
    result: dict[str, Any],
    *,
    preset: Optional[str] = None,
    source: str = "cli",
    git_sha: Optional[str] = None,
    note: Optional[str] = None,
) -> dict[str, Any]:
    """A ``fault_run`` manifest from one fault-run result dict.

    ``result`` is the dict from
    :meth:`repro.faults.adapt.FaultRunResult.to_dict` (this module stays
    stdlib-only, so it takes the plain dict rather than the object).
    The manifest separates the nominal baseline, the faulted measurement
    and the resilience summary so the dashboard and ``repro faults
    report`` can consume it without re-deriving anything.
    """
    for key in ("app", "scenario", "policy"):
        if not result.get(key):
            raise LedgerError(f"fault-run result is missing {key!r}")
    scenario = result["scenario"]
    if not isinstance(scenario, dict) or not scenario.get("name"):
        raise LedgerError("fault-run result's scenario must be a dict with a name")
    return {
        **_header("fault_run", result["app"], source, git_sha, note),
        "preset": preset or result.get("preset") or "xd1",
        "scenario": dict(scenario),
        "policy": result["policy"],
        "p": result.get("p"),
        "p_effective": result.get("p_effective"),
        "partition": dict(result.get("partition") or {}),
        "predicted": {"latency": result.get("predicted_latency")},
        "nominal": {
            "makespan": result.get("nominal_makespan"),
            "overlap_efficiency": result.get("nominal_efficiency"),
        },
        "measured": {
            "makespan": result.get("faulted_makespan"),
            "overlap_efficiency": result.get("faulted_efficiency"),
        },
        "resilience": {
            "makespan_inflation": result.get("makespan_inflation"),
            "efficiency_retention": result.get("efficiency_retention"),
            "recovery_latency": result.get("recovery_latency"),
            "failed": bool(result.get("failed")),
            "failure": result.get("failure"),
        },
        "attribution": dict(result.get("attribution") or {}),
    }


def bench_entry(
    outcomes: dict[str, dict[str, Any]],
    *,
    tolerance: Optional[float] = None,
    source: str = "bench",
    git_sha: Optional[str] = None,
    note: Optional[str] = None,
) -> dict[str, Any]:
    """A ``bench`` manifest: one baseline-check outcome per benchmark.

    ``outcomes`` maps bench name -> ``{"measured": ..., "baseline": ...,
    "status": "ok" | "regression" | "stale-baseline"}``.
    """
    statuses = {o.get("status") for o in outcomes.values()}
    entry = {
        **_header("bench", "bench", source, git_sha, note),
        "outcomes": outcomes,
        "ok": "regression" not in statuses,
    }
    if tolerance is not None:
        entry["tolerance"] = tolerance
    return entry


def campaign_entry(
    manifest: dict[str, Any],
    *,
    source: str = "cli",
    git_sha: Optional[str] = None,
    note: Optional[str] = None,
    workers: Optional[dict[str, Any]] = None,
) -> dict[str, Any]:
    """A ``campaign`` manifest: per-cell makespan distributions.

    ``manifest`` is the dict produced by
    :func:`repro.campaign.run_campaign` (this module stays stdlib-only,
    so it takes the plain dict): a ``spec`` block (apps, preset,
    scenarios, replicates, master seed, perturbation model) and a
    ``cells`` map keyed by ``app@preset/scenario`` holding each cell's
    replicate samples, merged histogram and median/IQR/p95/p99 summary.

    ``workers`` optionally attaches executor telemetry for the run (the
    :attr:`repro.parallel.SweepExecutor.last_telemetry` dict plus cache
    stats and the analytic-vs-DES replicate split): per-worker spans,
    queue waits, imbalance and stragglers.
    It rides on the ledger entry only -- never inside the campaign
    manifest itself, which must stay bitwise-deterministic.
    """
    if manifest.get("kind") != "campaign":
        raise LedgerError(f"not a campaign manifest: kind={manifest.get('kind')!r}")
    for key in ("spec", "cells"):
        if not isinstance(manifest.get(key), dict):
            raise LedgerError(f"campaign manifest is missing {key!r}")
    spec = manifest["spec"]
    entry = {
        **_header("campaign", "campaign", source, git_sha, note),
        "preset": spec.get("preset") or "xd1",
        "manifest_schema": manifest.get("manifest_schema"),
        "spec": dict(spec),
        "cells": dict(manifest["cells"]),
        "replicates": manifest.get("replicates"),
        "points": manifest.get("points"),
        "failures": manifest.get("failures"),
    }
    if workers:
        entry["workers"] = dict(workers)
    return entry


def campaign_check_entry(
    comparison: dict[str, Any],
    *,
    source: str = "cli",
    git_sha: Optional[str] = None,
    note: Optional[str] = None,
) -> dict[str, Any]:
    """A ``campaign_check`` manifest: statistical regression verdicts.

    ``comparison`` is the dict from
    :func:`repro.campaign.compare_campaigns`: per-cell Mann-Whitney
    p-values, median shifts and pass/warn/fail verdicts for a campaign
    against a baseline campaign.
    """
    if manifest_kind := comparison.get("kind"):
        if manifest_kind != "campaign_check":
            raise LedgerError(
                f"not a campaign comparison: kind={manifest_kind!r}"
            )
    if not isinstance(comparison.get("cells"), dict):
        raise LedgerError("campaign comparison is missing 'cells'")
    return {
        **_header("campaign_check", "campaign", source, git_sha, note),
        "preset": comparison.get("preset") or "xd1",
        "verdict": comparison.get("verdict"),
        "alpha": comparison.get("alpha"),
        "effect_threshold": comparison.get("effect_threshold"),
        "cells": dict(comparison["cells"]),
        "flagged": list(comparison.get("flagged") or ()),
    }


def tune_entry(
    manifest: dict[str, Any],
    *,
    source: str = "cli",
    git_sha: Optional[str] = None,
    note: Optional[str] = None,
    workers: Optional[dict[str, Any]] = None,
) -> dict[str, Any]:
    """A ``tune`` manifest: one guided design-space search.

    ``manifest`` is the dict produced by :func:`repro.tune.run_tune`
    (this module stays stdlib-only, so it takes the plain dict): the
    search spec, rung-by-rung successive-halving summary, DES budget
    accounting, the incumbent design and the Pareto front over
    {GFLOPS, FPGA slice utilisation, resilience-under-faults}.  The
    incumbent and front are hoisted so dashboards index them without
    descending into the embedded manifest.

    ``workers`` optionally attaches executor/cache telemetry for the
    run; like campaign entries, it rides on the ledger entry only --
    the manifest itself stays bitwise-deterministic.
    """
    if manifest.get("kind") != "tune":
        raise LedgerError(f"not a tune manifest: kind={manifest.get('kind')!r}")
    for key in ("spec", "incumbent", "front", "rungs"):
        if key not in manifest:
            raise LedgerError(f"tune manifest is missing {key!r}")
    entry = {
        **_header("tune", manifest.get("app"), source, git_sha, note),
        "preset": manifest.get("preset") or "xd1",
        "manifest_schema": manifest.get("manifest_schema"),
        "spec": dict(manifest["spec"]),
        "space": dict(manifest.get("space") or {}),
        "budget": dict(manifest.get("budget") or {}),
        "evals": dict(manifest.get("evals") or {}),
        "exhaustive_des": manifest.get("exhaustive_des"),
        "savings": dict(manifest.get("savings") or {}),
        "incumbent": dict(manifest["incumbent"]),
        "front": list(manifest["front"]),
        "rungs": list(manifest["rungs"]),
        "objectives": dict(manifest.get("objectives") or {}),
    }
    if manifest.get("scenario") is not None:
        entry["scenario"] = dict(manifest["scenario"])
    if workers:
        entry["workers"] = dict(workers)
    return entry


def explain_entry(
    manifest: dict[str, Any],
    *,
    source: str = "cli",
    git_sha: Optional[str] = None,
    note: Optional[str] = None,
) -> dict[str, Any]:
    """An ``explain`` manifest: a paired-trace blame diff for one cell.

    ``manifest`` is the dict from
    :func:`repro.obs.explain.build_explain`: one flagged replicate
    re-simulated under both builds, the two critical paths diffed per
    resource class / activity phase / concrete lane, each delta glossed
    with the paper Eq-term it loads onto, plus the verdict (``model`` /
    ``improvement`` / ``inconclusive``).  The manifest is embedded
    verbatim -- it is already deterministic and self-contained -- with
    the cell identity hoisted so dashboards can index without descending.
    """
    if manifest.get("kind") != "explain":
        raise LedgerError(f"not an explain manifest: kind={manifest.get('kind')!r}")
    for key in ("cell", "blame", "verdict"):
        if key not in manifest:
            raise LedgerError(f"explain manifest is missing {key!r}")
    return {
        **_header("explain", manifest.get("app"), source, git_sha, note),
        "preset": manifest.get("preset") or "xd1",
        "cell": manifest["cell"],
        "verdict": manifest.get("verdict"),
        "top_blame": manifest.get("top_blame"),
        "explain": dict(manifest),
    }


def service_entry(
    record: dict[str, Any],
    *,
    source: str = "service",
    git_sha: Optional[str] = None,
    note: Optional[str] = None,
) -> dict[str, Any]:
    """A ``service`` manifest: one finished co-design-service job.

    ``record`` is the plain dict the server builds for each job (this
    module stays stdlib-only, so it never imports :mod:`repro.service`):
    ``job`` (id), ``job_kind`` (design/sweep/faults/campaign/tune/...),
    ``outcome`` (``computed`` -- the runner executed, ``cache`` -- a warm
    :class:`ResultCache` entry answered instantly, or ``failed``),
    ``key`` (the manifest's canonical hash), ``priority``, ``client``,
    ``queue_wait_s``, ``run_s``, ``attempts``, ``dedup_count`` (in-flight
    duplicates collapsed onto this execution) and ``result_hash``.
    Timing fields are wall-clock telemetry; the identity of the work
    lives entirely in ``key``/``result_hash``.
    """
    for key in ("job", "job_kind", "outcome"):
        if not record.get(key):
            raise LedgerError(f"service record is missing {key!r}")
    outcome = record["outcome"]
    if outcome not in ("computed", "cache", "failed"):
        raise LedgerError(
            f"service outcome must be computed/cache/failed, got {outcome!r}"
        )
    entry = {
        **_header("service", "service", source, git_sha, note),
        "job": record["job"],
        "job_kind": record["job_kind"],
        "outcome": outcome,
        "key": record.get("key"),
        "priority": record.get("priority"),
        "client": record.get("client"),
        "queue_wait_s": record.get("queue_wait_s"),
        "run_s": record.get("run_s"),
        "attempts": record.get("attempts"),
        "dedup_count": record.get("dedup_count"),
        "result_hash": record.get("result_hash"),
    }
    if record.get("error"):
        entry["error"] = record["error"]
    return entry
