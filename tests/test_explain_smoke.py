"""The regression-explain flow end to end through the CLI.

Two seeded LU+FW campaigns run once per module: a baseline and one with
a 20% slower FPGA clock.  ``campaign check --explain`` must fail the
check and blame the FPGA for both cells, in the printed tables and in
the blame manifests it writes; re-explaining must reproduce those
manifests byte for byte; a campaign checked against itself explains
nothing; and the dashboard over the resulting ledger shows the explain
and worker-telemetry panels in a self-contained HTML page.
"""

from __future__ import annotations

import contextlib
import io
import json
import re

import pytest

from repro.cli import main

#: Explain manifests must then be a pure function of the two campaigns.
PINNED_ENV = {"REPRO_GIT_SHA": "0" * 40, "REPRO_LEDGER_TS": "1970-01-01T00:00:00Z"}


@contextlib.contextmanager
def _pinned_env():
    with pytest.MonkeyPatch.context() as mp:
        for name, value in PINNED_ENV.items():
            mp.setenv(name, value)
        yield


def _run(*argv) -> tuple[int, str]:
    """``main(argv)``'s exit code and stdout."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = main([str(arg) for arg in argv])
    return rc, out.getvalue()


@pytest.fixture(scope="module")
def root(tmp_path_factory):
    path = tmp_path_factory.mktemp("explain")
    common = ["campaign", "run", "--apps", "lu,fw", "--replicates", "4", "--seed", "7",
              "--cache", "off", "--ledger", path / "ledger.jsonl"]
    with _pinned_env():
        assert _run(*common, "--out", path / "baseline.json")[0] == 0
        assert _run(*common, "--throttle-fpga", "0.8", "--out", path / "throttled.json")[0] == 0
    return path


@pytest.fixture(autouse=True)
def _pinned():
    with _pinned_env():
        yield


def _check(root, manifest: str, explain_out: str, *extra) -> tuple[int, str]:
    return _run("campaign", "check", "--baseline", root / "baseline.json",
                "--manifest", root / manifest, "--explain",
                "--explain-out", root / explain_out, *extra)


@pytest.fixture(scope="module")
def checked(root):
    """The throttled campaign checked, explained and ledgered once."""
    with _pinned_env():
        return _check(root, "throttled.json", "explains.json", "--ledger", root / "ledger.jsonl")


def test_check_fails_and_blames_the_fpga_for_both_cells(checked):
    rc, out = checked
    assert rc == 1, "expected the throttled campaign to fail the check"
    assert "explain lu@xd1/nominal" in out
    assert "explain fw@xd1/nominal" in out
    assert sum("-> blame fpga: FPGA compute" in line for line in out.splitlines()) == 2


def test_blame_manifests_rank_the_fpga_lane_first(root, checked):
    docs = json.loads((root / "explains.json").read_text())
    assert [d["cell"] for d in docs] == ["fw@xd1/nominal", "lu@xd1/nominal"], docs
    for d in docs:
        assert d["verdict"] == "model", d["cell"]
        assert d["top_blame"] == "fpga", d["cell"]
        assert d["blame"][0]["resource"] == "fpga", d["cell"]


def test_re_explaining_is_bitwise_identical(root, checked):
    _check(root, "throttled.json", "explains_b.json")
    assert (root / "explains_b.json").read_bytes() == (root / "explains.json").read_bytes()


def test_self_check_explains_nothing(root):
    _, out = _check(root, "baseline.json", "explains_self.json")
    assert "nothing to explain" in out
    assert (root / "explains_self.json").read_text().rstrip("\n") == "[]"


def test_dashboard_shows_explain_and_worker_panels(root, checked):
    html = root / "dashboard.html"
    rc, out = _run("obs", "dashboard", "--ledger", root / "ledger.jsonl", "--html", html)
    assert rc == 0
    assert "regression explanations" in out
    assert "sweep worker telemetry" in out
    page = html.read_text()
    assert "Regression explanations" in page
    assert "Sweep worker telemetry" in page
    assert not re.search(r"<script|https?://", page), "dashboard is not self-contained"
