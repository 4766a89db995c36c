"""The ``campaign`` CLI flow end to end: determinism, gates and renderings.

One seeded LU+FW campaign runs serially (with a ledger) and with two
workers; the manifests must be byte-identical and ``campaign check``
must pass with nothing flagged.  The same module pins the non-XD1 preset
cell names, the replicate split between the analytic replay and the DES,
the figures heading and a self-contained dashboard page with its
campaign panels.
"""

from __future__ import annotations

import re

import pytest

from repro.cli import main


#: Identical campaigns must write identical ledgers and manifests.
PINNED_ENV = {"REPRO_GIT_SHA": "0" * 40, "REPRO_LEDGER_TS": "1970-01-01T00:00:00Z"}


def _pin(mp):
    for name, value in PINNED_ENV.items():
        mp.setenv(name, value)


@pytest.fixture(autouse=True)
def _pinned_ledger(monkeypatch):
    _pin(monkeypatch)


def _cli(capsys, *argv):
    capsys.readouterr()
    assert main(list(argv)) == 0
    return capsys.readouterr().out


def _campaign(capsys, *extra):
    return _cli(capsys, "campaign", "run", "--replicates", "3", "--seed", "7",
                "--cache", "off", *extra)


@pytest.fixture(scope="module")
def seeded(tmp_path_factory):
    """Run A (serial, ledger) and run B (two workers) of one seeded campaign."""
    root = tmp_path_factory.mktemp("campaign")
    ledger = root / "ledger.jsonl"
    common = ["campaign", "run", "--apps", "lu,fw", "--scenarios", "degraded-link",
              "--replicates", "3", "--seed", "7", "--cache", "off"]
    with pytest.MonkeyPatch.context() as mp:
        _pin(mp)
        assert main([*common, "--out", str(root / "a.json"), "--ledger", str(ledger)]) == 0
        assert main([*common, "--jobs", "2", "--out", str(root / "b.json")]) == 0
    return root / "a.json", root / "b.json", ledger


def test_serial_and_parallel_manifests_are_byte_identical(seeded):
    a, b, _ = seeded
    assert a.read_bytes() == b.read_bytes()


def test_check_against_own_baseline_passes_with_nothing_flagged(seeded, capsys):
    a, b, ledger = seeded
    out = _cli(capsys, "campaign", "check", "--baseline", str(a), "--manifest", str(b),
               "--ledger", str(ledger))
    assert "verdict=pass" in out
    assert "flagged=0" in out


def test_non_xd1_preset_cells(capsys):
    out = _campaign(capsys, "--apps", "lu", "--preset", "xt3,rasc", "--replicates", "2")
    assert "lu@xt3/nominal" in out
    assert "lu@rasc/nominal" in out
    out = _campaign(capsys, "--apps", "fw", "--preset", "src", "--replicates", "2")
    assert "fw@src/nominal" in out


@pytest.mark.parametrize(
    "extra,split",
    [
        # Jitter alone folds for both apps.
        (("--stalls", "0"), "replicates: 6 analytic, 0 DES"),
        # The default model's stall burst folds for LU and FW too.
        ((), "replicates: 6 analytic, 0 DES"),
    ],
)
def test_replicate_split_between_replay_and_des(capsys, extra, split):
    assert split in _campaign(capsys, "--apps", "lu,fw", *extra)


def test_figures_and_dashboard_render(seeded, tmp_path, capsys):
    a, b, ledger = seeded
    # The dashboard's regression panel reads a check entry from the ledger.
    _cli(capsys, "campaign", "check", "--baseline", str(a), "--manifest", str(b),
         "--ledger", str(ledger))
    figures = tmp_path / "figures.txt"
    _cli(capsys, "campaign", "figures", "--manifest", str(a), "--ledger", str(ledger),
         "--out", str(figures))
    assert "campaign makespan distributions" in figures.read_text()
    page = tmp_path / "dashboard.html"
    out = _cli(capsys, "obs", "dashboard", "--ledger", str(ledger), "--html", str(page))
    assert "campaigns (per-cell makespan distributions" in out
    assert "campaign regression check" in out
    assert not re.search(r"<script|https?://", page.read_text())
