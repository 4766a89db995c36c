"""The ``tune`` CLI flow end to end: determinism, the DES budget, the
resilience rung, the report and the dashboard's Pareto panel.

One seeded guided search over the fig5 (b, f) grid runs serially (with a
ledger) and with four workers; the manifests must be byte-identical and
the search must stay within its DES budget, at most a quarter of the
exhaustive cost.
"""

from __future__ import annotations

import contextlib
import io
import json
import re

import pytest

from repro.cli import main

#: Identical searches must write identical manifests and ledgers.
PINNED_ENV = {"REPRO_GIT_SHA": "0" * 40, "REPRO_LEDGER_TS": "1970-01-01T00:00:00Z"}

SEARCH = ["tune", "run", "--space", "fig5-bf", "--seed", "7", "--cache", "off"]


@pytest.fixture(autouse=True)
def _pinned_ledger(monkeypatch):
    for name, value in PINNED_ENV.items():
        monkeypatch.setenv(name, value)


def _cli(capsys, *argv):
    capsys.readouterr()
    assert main(list(argv)) == 0
    return capsys.readouterr().out


@pytest.fixture(scope="module")
def searches(tmp_path_factory):
    """Run A (serial, ledger; its stdout) and run B (four workers)."""
    root = tmp_path_factory.mktemp("tune")
    ledger = root / "ledger.jsonl"
    with pytest.MonkeyPatch.context() as mp:
        for name, value in PINNED_ENV.items():
            mp.setenv(name, value)
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert main([*SEARCH, "--out", str(root / "a.json"),
                         "--ledger", str(ledger)]) == 0
        assert main([*SEARCH, "--jobs", "4", "--out", str(root / "b.json")]) == 0
    return root / "a.json", root / "b.json", ledger, out.getvalue()


def test_serial_run_prints_the_pareto_front(searches):
    assert "Pareto front" in searches[3]


def test_serial_and_parallel_manifests_are_byte_identical(searches):
    a, b, _, _ = searches
    assert a.read_bytes() == b.read_bytes()


def test_guided_search_stays_within_a_quarter_of_exhaustive(searches):
    manifest = json.loads(searches[0].read_text())
    used, cap = manifest["budget"]["des_used"], manifest["budget"]["des"]
    exhaustive = manifest["exhaustive_des"]
    assert used <= cap
    assert used <= 0.25 * exhaustive
    assert manifest["savings"]["fraction_of_exhaustive"] <= 0.25


def test_codesign_space_with_a_resilience_rung(tmp_path, capsys):
    out = _cli(capsys, "tune", "run", "--space", "mm-codesign", "--seed", "7",
               "--resilience", "degraded-link", "--cache", "off",
               "--out", str(tmp_path / "codesign.json"))
    assert "resilience" in out


def test_report_and_dashboard_render_from_the_ledger(searches, tmp_path, capsys):
    ledger = searches[2]
    _cli(capsys, "tune", "report", "--ledger", str(ledger))
    page = tmp_path / "dashboard.html"
    out = _cli(capsys, "obs", "dashboard", "--ledger", str(ledger), "--html", str(page))
    assert "guided tuning" in out
    html = page.read_text()
    assert "Guided tuning Pareto front" in html
    assert not re.search(r"<script|https?://", html)
