"""The ``faults`` CLI flow end to end: the determinism gate and the report.

Two identical seeded LU+FW fault sweeps, with the ledger's git SHA and
timestamp pinned, must write byte-identical ledgers and result files;
``faults report`` then renders the resilience table and its JSON form
from the first ledger.
"""

from __future__ import annotations

import json

import pytest

from repro.cli import main

#: Identical sweeps must write identical ledgers.
PINNED_ENV = {"REPRO_GIT_SHA": "0" * 40, "REPRO_LEDGER_TS": "1970-01-01T00:00:00Z"}

SWEEP = ["faults", "sweep", "--apps", "lu,fw",
         "--scenarios", "degraded-link,dram-contention,flaky-dma",
         "--policies", "degrade-static,repartition", "--seed", "7"]


@pytest.fixture(scope="module")
def sweeps(tmp_path_factory):
    """Run A and run B of one seeded sweep: (ledger, results) each."""
    root = tmp_path_factory.mktemp("faults")
    runs = []
    with pytest.MonkeyPatch.context() as mp:
        for name, value in PINNED_ENV.items():
            mp.setenv(name, value)
        mp.delenv("REPRO_CACHE", raising=False)
        for run in ("a", "b"):
            ledger, results = root / f"ledger_{run}.jsonl", root / f"results_{run}.json"
            assert main([*SWEEP, "--ledger", str(ledger), "--out", str(results)]) == 0
            runs.append((ledger, results))
    return runs


def test_identical_sweeps_write_byte_identical_ledgers_and_results(sweeps):
    (ledger_a, results_a), (ledger_b, results_b) = sweeps
    assert ledger_a.read_bytes() == ledger_b.read_bytes()
    assert results_a.read_bytes() == results_b.read_bytes()
    assert len(json.loads(results_a.read_text())) == 12


def test_resilience_report_renders_from_the_ledger(sweeps, capsys):
    (ledger, _), _ = sweeps
    capsys.readouterr()
    assert main(["faults", "report", "--ledger", str(ledger)]) == 0
    text = capsys.readouterr().out
    for name in ("degraded-link", "dram-contention", "flaky-dma", "repartition"):
        assert name in text
    assert main(["faults", "report", "--ledger", str(ledger), "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["summary"]["runs"] == 12
