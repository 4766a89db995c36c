"""The ``serve``/``client`` text paths, end to end against a real server process.

``repro-xd1 serve`` runs as a subprocess on an ephemeral port; the
``client`` subcommands run through :func:`repro.cli.main` and their
printed status lines are what is asserted: compute then cache hit with
the same ``result_hash``, an in-flight duplicate collapsing onto the
paused original, the queue counters of that ladder, and a clean SIGTERM
drain with one ledger line per finished job.  A campaign job fetched over
HTTP must equal ``campaign run --json`` byte for byte, and the dashboard
must render the service panel from the server's ledger as a
self-contained page.
"""

from __future__ import annotations

import json
import os
import re
import signal
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cli import main
from repro.obs import RunLedger

_SRC = Path(__file__).resolve().parent.parent / "src"

#: Pinned so service ledger entries are reproducible.
PINNED_ENV = {"REPRO_GIT_SHA": "0" * 40, "REPRO_LEDGER_TS": "1970-01-01T00:00:00Z"}


@pytest.fixture
def pinned_env(monkeypatch):
    for name, value in PINNED_ENV.items():
        monkeypatch.setenv(name, value)


@pytest.fixture
def server(tmp_path):
    """A ``serve --port 0 --jobs 1`` process: yields (address, proc, ledger)."""
    ledger = tmp_path / "ledger.jsonl"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(_SRC), os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.Popen(
        [sys.executable, "-u", "-m", "repro.cli", "serve", "--port", "0", "--jobs", "1",
         "--cache", str(tmp_path / "cache"), "--ledger", str(ledger)],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True, env=env,
    )
    try:
        line = ""
        while "listening on" not in line:
            line = proc.stdout.readline()
            assert line, "server exited before listening"
        port = re.search(r"listening on 127\.0\.0\.1:(\d+)$", line.rstrip()).group(1)
        yield f"127.0.0.1:{port}", proc, ledger
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait(timeout=30)
        proc.stdout.close()


def _client(addr, capsys, *argv) -> tuple[int, str]:
    rc = main(["client", "--server", addr, *argv])
    return rc, capsys.readouterr().out


def _field(out: str, name: str) -> str:
    return re.search(rf"\b{name}=(\S+)", out).group(1)


def _job_id(out: str) -> str:
    return out.split()[1]


def test_serve_and_client_text_paths(server, capsys):
    addr, proc, ledger = server
    design = ["submit", "design", "--param", "app=lu", "--param", "n=6000",
              "--param", "b=1200"]

    # A design job computes; the resubmit is served from the result cache.
    rc, first = _client(addr, capsys, *design, "--wait")
    assert rc == 0
    assert _field(first, "state") == "completed"
    assert _field(first, "source") == "computed"
    rc, cached = _client(addr, capsys, *design)
    assert rc == 0
    assert _field(cached, "source") == "cache"
    assert _field(cached, "result_hash") == _field(first, "result_hash")

    # A sweep job (fig5) completes.
    rc, sweep = _client(addr, capsys, "submit", "sweep", "--param", "experiments=fig5",
                        "--wait")
    assert rc == 0
    assert _field(sweep, "state") == "completed"

    # An in-flight duplicate collapses onto the paused original.
    assert _client(addr, capsys, "pause") == (0, "paused\n")
    held = ["submit", "design", "--param", "app=lu", "--param", "n=4800",
            "--param", "b=1200"]
    rc, queued = _client(addr, capsys, *held)
    assert rc == 0
    assert _field(queued, "state") == "queued"
    rc, dup = _client(addr, capsys, *held)
    assert rc == 0
    assert "deduped=true" in dup
    assert _job_id(dup) == _job_id(queued)
    assert _client(addr, capsys, "resume") == (0, "resumed\n")
    rc, waited = _client(addr, capsys, "wait", _job_id(queued))
    assert rc == 0
    assert _field(waited, "state") == "completed"

    # The queue counters prove the dedup/cache ladder.
    rc, text = _client(addr, capsys, "queue")
    assert rc == 0
    queue = json.loads(text)
    assert queue["queued"] == 0
    counters = queue["counters"]
    assert counters["submitted"] == 5
    assert counters["deduped"] == 1
    assert counters["cache_hit"] == 1
    assert counters["completed"] == 4
    assert counters["failed"] == 0

    # SIGTERM drains the queue and exits 0; every finished job is ledgered.
    proc.send_signal(signal.SIGTERM)
    assert proc.wait(timeout=60) == 0
    tail = proc.stdout.read()
    assert "shutting down: draining queue" in tail
    assert "service stopped cleanly" in tail
    jobs = [e["job"] for e in RunLedger(ledger).entries(kind="service")]
    assert sorted(jobs) == sorted({_job_id(o) for o in (first, cached, sweep, queued)})


def test_campaign_job_over_http_equals_campaign_run(pinned_env, server, capsys, tmp_path):
    addr, _proc, ledger = server
    rc, out = _client(addr, capsys, "submit", "campaign", "--param", 'apps=["lu"]',
                      "--param", "replicates=3", "--param", "seed=7", "--wait")
    assert rc == 0
    assert "state=completed" in out
    job = next(line.split()[1] for line in out.splitlines() if line.split()[:1] == ["job"])
    rc, served = _client(addr, capsys, "result", job)
    assert rc == 0
    assert main(["campaign", "run", "--apps", "lu", "--replicates", "3", "--seed", "7",
                 "--cache", "off", "--json"]) == 0
    assert served == capsys.readouterr().out  # bitwise, as `cmp` would check

    # The dashboard renders the service panel from the server's ledger.
    html = tmp_path / "dashboard.html"
    assert main(["obs", "dashboard", "--ledger", str(ledger), "--html", str(html)]) == 0
    assert "service jobs" in capsys.readouterr().out
    page = html.read_text(encoding="utf-8")
    assert "Service jobs" in page
    assert not re.search(r"<script|https?://", page), "dashboard is not self-contained"
