"""The observability flow end to end through the CLI.

The paper-preset ``lu`` and ``fw`` commands run once per module with a
result cache, metrics and a Chrome trace; both must print the cache
footer, and a warm ``lu`` re-run must replay its comparison with no
misses.  Both runs are then recorded in a ledger whose HTML dashboard
must be self-contained (no ``<script``, no external URL).
"""

from __future__ import annotations

import contextlib
import io
import re

import pytest

from repro.cli import main
from repro.obs import get_tracer, set_tracer


def _run(*argv) -> tuple[int, str]:
    """``main(argv)``'s exit code and stdout."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = main([str(arg) for arg in argv])
    return rc, out.getvalue()


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    """Cold traced ``lu``/``fw`` runs, then a warm ``lu``, in a scratch cwd."""
    root = tmp_path_factory.mktemp("obs")
    prev = get_tracer()  # instrumented runs install a live tracer
    with pytest.MonkeyPatch.context() as mp:
        mp.chdir(root)
        mp.setenv("REPRO_GIT_SHA", "0" * 40)
        out = {
            app: _run(app, "--cache", ".repro_cache",
                      "--metrics-out", f"artifacts/{app}_metrics.jsonl",
                      "--trace-out", f"artifacts/{app}_trace.json")
            for app in ("lu", "fw")
        }
        out["lu-warm"] = _run("lu", "--cache", ".repro_cache")
        for app in ("lu", "fw"):
            assert _run("obs", "ledger", "record", "--source", "ci",
                        "--metrics", f"artifacts/{app}_metrics.jsonl",
                        "--trace", f"artifacts/{app}_trace.json",
                        "--ledger", "artifacts/ledger.jsonl")[0] == 0
        out["dashboard"] = _run("obs", "dashboard", "--ledger", "artifacts/ledger.jsonl",
                                "--html", "artifacts/dashboard.html")
    set_tracer(prev)
    return root, out


@pytest.mark.parametrize("app", ["lu", "fw"])
def test_traced_run_goes_through_the_cache(runs, app):
    _, out = runs
    rc, text = out[app]
    assert rc == 0
    assert re.search(r"^cache \.repro_cache:", text, re.M)


def test_warm_run_replays_the_comparison(runs):
    _, out = runs
    rc, text = out["lu-warm"]
    assert rc == 0
    assert re.search(r"^cache \.repro_cache: .* 0 misses", text, re.M)


def test_dashboard_page_is_self_contained(runs):
    root, out = runs
    assert out["dashboard"][0] == 0
    page = (root / "artifacts" / "dashboard.html").read_text()
    assert not re.search(r"<script|https?://", page), "dashboard is not self-contained"
