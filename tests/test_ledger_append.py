"""The run ledger's write path: tail-read ``seq``, byte-stable lines,
shared-file safety, the corrupt-line rule and the once-per-process git
SHA (repro.obs.ledger)."""

import json
import multiprocessing
import subprocess
from pathlib import Path

import pytest

import repro.obs.ledger as ledger_mod
from repro.obs import (
    LedgerError,
    RunLedger,
    bench_entry,
    campaign_entry,
    design_run_entry,
    experiments_entry,
    explain_entry,
    fault_run_entry,
    service_entry,
)

_GOLDEN = Path(__file__).parent / "golden" / "ledger_appends.jsonl"


def _service_record(seq, outcome="computed", error=None):
    return {
        "job": f"j-{seq:06d}", "job_kind": "design", "outcome": outcome,
        "key": f"{seq:064x}", "priority": "default", "client": "bench",
        "queue_wait_s": 0.001 * seq, "run_s": 0.05, "attempts": 1,
        "dedup_count": 0, "result_hash": f"{seq:064x}", "error": error,
    }


def _golden_entries():
    """One append of every common kind, built with ``git_sha`` left to the
    environment (so ``REPRO_GIT_SHA`` pins it)."""
    overlap = {
        "kind": "overlap", "app": "lu", "t_tp": 10.0, "t_tf": 4.0,
        "predicted_latency": 10.0, "simulated_makespan": 11.25,
        "overlap_efficiency": 0.888888, "slowdown_vs_model": 1.125,
        "utilisation": {"cpu": 0.8, "fpga": 0.3},
        "meta": {"n": 30000, "b": 3000, "p": 6, "gflops": 18.5,
                 "partition": {"b_p": 1920, "b_f": 1080}},
    }
    fault = {
        "app": "fw", "preset": "xd1", "policy": "repartition", "p": 6,
        "p_effective": 5,
        "scenario": {"name": "degraded-link", "seed": 3, "events": [], "bursts": []},
        "partition": {"l1": 8, "l2": 4}, "predicted_latency": 2.5,
        "nominal_makespan": 2.6, "nominal_efficiency": 0.96,
        "faulted_makespan": 3.1, "faulted_efficiency": 0.8,
        "makespan_inflation": 1.19, "efficiency_retention": 0.83,
        "recovery_latency": 0.0, "failed": False, "failure": None,
        "attribution": {"term": "t_comm", "inflation": {}},
    }
    campaign = {
        "kind": "campaign", "manifest_schema": 1,
        "spec": {"apps": ["lu"], "preset": "xd1", "replicates": 2, "seed": 7},
        "cells": {"lu@xd1/nominal": {"makespan": {"samples": [9.9, 10.1],
                                                   "median": 10.0}}},
        "replicates": 2, "points": 2, "failures": 0,
    }
    explain = {
        "kind": "explain", "app": "lu", "preset": "xd1", "cell": "lu@xd1/nominal",
        "blame": [{"resource": "fpga", "delta_s": 2.9}], "top_blame": "fpga",
        "verdict": "model",
    }
    return [
        design_run_entry(overlap, source="ci", note="µ-arch run"),
        experiments_entry([("fig5", True), ("fig9-lu", False)], sim_points=40,
                          fast_path={"analytic": 38, "des": 2, "fallback": {"trace": 2}}),
        bench_entry({"timeouts": {"measured": 1e6, "baseline": 9.5e5, "status": "ok"}},
                    tolerance=0.02),
        fault_run_entry(fault),
        campaign_entry(campaign, workers={"executor": {"mode": "serial", "tasks": 2}}),
        explain_entry(explain),
        service_entry(_service_record(1)),
        service_entry(_service_record(2, outcome="cache")),
        service_entry(_service_record(3, outcome="failed", error="boom \"quoted\"")),
        # A caller-set timestamp survives; caller-set schema/seq are replaced.
        dict(service_entry(_service_record(4)), ts="2020-02-02T00:00:00Z",
             schema=1, seq=99),
    ]


@pytest.fixture
def pinned(monkeypatch):
    monkeypatch.setenv("REPRO_GIT_SHA", "0123456789abcdef0123456789abcdef01234567")
    monkeypatch.setenv("REPRO_LEDGER_TS", "1970-01-01T00:00:00Z")


def _fill(path: Path, lines: int) -> None:
    """``lines`` whole service entries, written directly (no appends)."""
    with open(path, "w", encoding="utf-8") as fh:
        for seq in range(1, lines + 1):
            entry = dict(service_entry(_service_record(seq), git_sha="0" * 40),
                         schema=7, seq=seq, ts="2026-01-01T00:00:00Z")
            fh.write(json.dumps(entry, sort_keys=True) + "\n")


# ------------------------------------------------------------ golden bytes


def test_appends_reproduce_golden_bytes(tmp_path, pinned):
    """Ledger lines are byte-identical to those the full-parse writer
    produced (fixture captured before the tail-read append)."""
    ledger = RunLedger(tmp_path / "l.jsonl")
    for entry in _golden_entries():
        ledger.append(entry)
    assert (tmp_path / "l.jsonl").read_bytes() == _GOLDEN.read_bytes()


# --------------------------------------------------------- O(1) append gate


def test_append_parses_only_the_last_line(tmp_path, monkeypatch):
    """On a 3,000-line ledger, ``append`` decodes one line and never
    reads the whole file (counted, not timed)."""
    path = tmp_path / "l.jsonl"
    _fill(path, 3000)
    loads = []
    real_loads = json.loads
    monkeypatch.setattr(ledger_mod.json, "loads",
                        lambda s, *a, **k: loads.append(s) or real_loads(s, *a, **k))

    def no_entries(self, *args, **kwargs):
        raise AssertionError("append must not call RunLedger.entries")

    monkeypatch.setattr(RunLedger, "entries", no_entries)
    entry = RunLedger(path).append(service_entry(_service_record(3001), git_sha="x"))
    assert entry["seq"] == 3001
    assert len(loads) <= 1


def test_tail_window_grows_for_a_long_last_line(tmp_path):
    path = tmp_path / "l.jsonl"
    ledger = RunLedger(path)
    ledger.append(experiments_entry([("fig5", True)], git_sha="x"))
    big = ledger.append(experiments_entry([("fig5", True)], git_sha="x",
                                          note="x" * 50_000))
    after = ledger.append(experiments_entry([("fig5", True)], git_sha="x"))
    assert (big["seq"], after["seq"]) == (2, 3)
    assert [e["seq"] for e in ledger.entries()] == [1, 2, 3]


def test_seq_continues_after_blank_trailing_lines(tmp_path):
    path = tmp_path / "l.jsonl"
    _fill(path, 5)
    with open(path, "a", encoding="utf-8") as fh:
        fh.write("\n  \n")
    assert RunLedger(path).append(service_entry(_service_record(6), git_sha="x"))["seq"] == 6


# ----------------------------------------------------- corrupt-line rule


def test_torn_last_line_blocks_append_and_writes_nothing(tmp_path):
    path = tmp_path / "l.jsonl"
    _fill(path, 3)
    with open(path, "a", encoding="utf-8") as fh:
        fh.write('{"kind": "service", "seq": 4, "tr')  # torn: no newline
    before = path.read_bytes()
    offset = before.rindex(b"\n") + 1
    with pytest.raises(LedgerError, match=rf"l\.jsonl: byte {offset}: .*last line"):
        RunLedger(path).append(service_entry(_service_record(4), git_sha="x"))
    assert path.read_bytes() == before


def test_malformed_last_line_blocks_append(tmp_path):
    path = tmp_path / "l.jsonl"
    _fill(path, 2)
    with open(path, "a", encoding="utf-8") as fh:
        fh.write("{not json\n")
    before = path.read_bytes()
    offset = before.rindex(b"\n", 0, len(before) - 1) + 1
    with pytest.raises(LedgerError, match=rf"byte {offset}: malformed last line"):
        RunLedger(path).append(service_entry(_service_record(3), git_sha="x"))
    assert path.read_bytes() == before


def test_malformed_earlier_line_does_not_block_append(tmp_path):
    path = tmp_path / "l.jsonl"
    _fill(path, 3)
    lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
    lines[1] = "{not json\n"
    path.write_text("".join(lines), encoding="utf-8")
    ledger = RunLedger(path)
    entry = ledger.append(service_entry(_service_record(4), git_sha="x"))
    assert entry["seq"] == 4
    with pytest.raises(LedgerError, match=r"l\.jsonl:2: malformed"):
        ledger.entries()


# ------------------------------------------------------ shared-file safety


def _append_many(path: str, worker: int, count: int) -> None:
    ledger = RunLedger(path)
    for i in range(count):
        ledger.append(experiments_entry([(f"w{worker}-{i}", True)], git_sha="x"))


def test_two_processes_never_share_a_seq(tmp_path):
    path = str(tmp_path / "l.jsonl")
    ctx = multiprocessing.get_context("spawn")
    procs = [ctx.Process(target=_append_many, args=(path, w, 200)) for w in range(2)]
    for proc in procs:
        proc.start()
    for proc in procs:
        proc.join(timeout=120)
        assert proc.exitcode == 0
    entries = RunLedger(path).entries()
    assert [e["seq"] for e in entries] == list(range(1, 401))


# ----------------------------------------------------------- git SHA cache


def test_git_sha_runs_git_once_per_process(monkeypatch):
    monkeypatch.delenv("REPRO_GIT_SHA", raising=False)
    ledger_mod._git_sha.cache_clear()
    calls = []
    real_run = subprocess.run

    def counting_run(*args, **kwargs):
        calls.append(args)
        return real_run(*args, **kwargs)

    monkeypatch.setattr(ledger_mod.subprocess, "run", counting_run)
    try:
        shas = {service_entry(_service_record(i))["git_sha"] for i in range(1, 101)}
    finally:
        ledger_mod._git_sha.cache_clear()
    assert len(calls) <= 1
    assert len(shas) == 1


def test_git_sha_env_wins_without_a_subprocess(monkeypatch):
    ledger_mod._git_sha.cache_clear()
    calls = []
    monkeypatch.setattr(ledger_mod.subprocess, "run",
                        lambda *a, **k: calls.append(a))
    monkeypatch.setenv("REPRO_GIT_SHA", "feedface")
    assert {service_entry(_service_record(i))["git_sha"] for i in range(1, 101)} == {
        "feedface"}
    monkeypatch.setenv("REPRO_GIT_SHA", "beefcafe")  # checked on every call
    assert ledger_mod.current_git_sha() == "beefcafe"
    assert calls == []
