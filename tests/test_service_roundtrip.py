"""End-to-end round-trips: service results vs the direct CLI path.

The service's promise is that a job's result is *bitwise-identical* to
what the batch CLI computes directly -- the runners wrap the same task
dicts and entry points -- and that the dedup/cache ladder (in-flight
duplicate -> original job id; warm ResultCache entry -> instant
``"source": "cache"`` completion) never changes the answer.
"""

import json

import pytest

from repro.cli import main as cli_main
from repro.experiments import ALL_EXPERIMENTS, _eval_sim_point, configured
from repro.obs import REGISTRY, RunLedger
from repro.service import CodesignServer, ServerThread, ServiceClient


def _server_thread(tmp_path, **kwargs):
    kwargs.setdefault("jobs", 1)
    kwargs.setdefault("cache", tmp_path / "cache")
    kwargs.setdefault("ledger", tmp_path / "ledger.jsonl")
    return ServerThread(CodesignServer(**kwargs))


def test_client_submit_wait_roundtrips_fig5_bitwise(tmp_path, capsys):
    """``repro-xd1 client submit sweep --param experiments=fig5 --wait``
    against an in-process server matches the direct path bitwise."""
    with configured(jobs=1, cache=False):
        direct = ALL_EXPERIMENTS["fig5"]()
    with _server_thread(tmp_path) as st:
        rc = cli_main([
            "client", "--server", f"127.0.0.1:{st.bound_port}",
            "submit", "sweep", "--param", "experiments=fig5",
            "--wait", "--json",
        ])
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
    assert doc["state"] == "completed"
    assert doc["source"] == "computed"
    served = doc["result"]["experiments"]["fig5"]
    # Bitwise-identical: same rendered text, same checks, same pass/fail.
    assert served["text"] == direct.text
    assert served["checks"] == direct.checks
    assert served["ok"] == direct.ok
    assert served["id"] == direct.id


def test_design_job_matches_direct_eval(tmp_path):
    task = {"kind": "lu_compare", "n": 6000, "b": 1200}
    with configured(jobs=1, cache=False):
        direct = _eval_sim_point(task)
    with _server_thread(tmp_path) as st:
        client = ServiceClient(port=st.bound_port)
        doc = client.submit("design", {"app": "lu", "n": 6000, "b": 1200})
        done = client.wait(doc["id"], timeout=120)
    assert done["state"] == "completed"
    assert done["result"]["task"] == task  # default p=6 stays off the task
    assert done["result"]["compare"] == direct


def test_inflight_dedup_then_cache_hit_shares_result_hash(tmp_path):
    """The acceptance ladder: two in-flight submits -> one execution and
    one shared completed job; a third submit after completion is served
    from ResultCache with ``"source": "cache"`` and a
    ``service.jobs.cache_hit`` counter increment."""
    hits_before = REGISTRY.counter("service.jobs.cache_hit", layer="service").value
    params = {"app": "lu", "n": 6000, "b": 1200}
    with _server_thread(tmp_path) as st:
        client = ServiceClient(port=st.bound_port)
        st.pause()  # hold the queue so the first submit stays in flight
        first = client.submit("design", params)
        second = client.submit("design", params)
        assert first["state"] == "queued"
        assert second["id"] == first["id"] and second["deduped"]
        st.resume()
        done = client.wait(first["id"], timeout=120)
        assert done["state"] == "completed"
        assert done["source"] == "computed"
        assert done["attempts"] == 1  # one execution for both submits
        assert done["dedup_count"] == 1
        third = client.submit("design", params)
        assert third["id"] != first["id"]
        assert third["state"] == "completed"
        assert third["source"] == "cache"
        assert third["result_hash"] == done["result_hash"]
        assert third["result"] == done["result"]
        queue = client.queue()
    assert queue["counters"]["submitted"] == 3
    assert queue["counters"]["deduped"] == 1
    assert queue["counters"]["cache_hit"] == 1
    assert queue["counters"]["completed"] == 2
    hits_after = REGISTRY.counter("service.jobs.cache_hit", layer="service").value
    assert hits_after == hits_before + 1
    # The ledger saw both completions with their outcomes.
    entries = RunLedger(tmp_path / "ledger.jsonl").entries(kind="service")
    assert [(e["outcome"], e["dedup_count"]) for e in entries] == [
        ("computed", 1), ("cache", 0),
    ]
    assert entries[0]["result_hash"] == entries[1]["result_hash"]
    assert all(e["schema"] == 7 for e in entries)


def test_warm_cache_survives_server_restart(tmp_path):
    """A fresh server over the same cache directory serves the job from
    cache without executing anything."""
    params = {"app": "lu", "n": 6000, "b": 1200}
    with _server_thread(tmp_path) as st:
        client = ServiceClient(port=st.bound_port)
        doc = client.submit("design", params)
        done = client.wait(doc["id"], timeout=120)
        assert done["source"] == "computed"
    with _server_thread(tmp_path) as st:
        client = ServiceClient(port=st.bound_port)
        doc = client.submit("design", params)
    assert doc["state"] == "completed"
    assert doc["source"] == "cache"
    assert doc["result_hash"] == done["result_hash"]


def test_events_stream_narrates_the_job_lifecycle(tmp_path):
    with _server_thread(tmp_path) as st:
        client = ServiceClient(port=st.bound_port)
        st.pause()
        doc = client.submit("design", {"app": "lu", "n": 6000, "b": 1200})
        dup = client.submit("design", {"app": "lu", "n": 6000, "b": 1200})
        assert dup["deduped"]
        st.resume()
        client.wait(doc["id"], timeout=120)
        events = list(client.events(doc["id"]))
    names = [e["event"] for e in events]
    assert names == ["submitted", "queued", "deduplicated", "started", "completed"]
    assert all(e["job"] == doc["id"] for e in events)
    completed = events[-1]
    assert completed["source"] == "computed"
    assert completed["result_hash"]


def test_dashboard_renders_service_panel(tmp_path):
    from repro.obs import render_ascii, render_html

    with _server_thread(tmp_path) as st:
        client = ServiceClient(port=st.bound_port)
        doc = client.submit("design", {"app": "lu", "n": 6000, "b": 1200})
        client.wait(doc["id"], timeout=120)
        client.submit("design", {"app": "lu", "n": 6000, "b": 1200})
    entries = RunLedger(tmp_path / "ledger.jsonl").entries()
    ascii_out = render_ascii(entries)
    assert "service jobs" in ascii_out
    assert "1 computed, 1 cache" in ascii_out
    assert "j-000001" in ascii_out
    html_out = render_html(entries)
    assert "Service jobs" in html_out
    assert "from cache" in html_out


def test_failed_design_job_reports_model_error(tmp_path):
    """A model-level rejection (bad block size) fails cleanly with the
    original error message, and the failure lands in the ledger."""
    with _server_thread(tmp_path) as st:
        client = ServiceClient(port=st.bound_port)
        doc = client.submit("design", {"app": "lu", "n": 6000, "b": 1250})
        done = client.wait(doc["id"], timeout=120)
        assert done["state"] == "failed"
        assert "b=1250" in done["error"]
        with pytest.raises(Exception, match="failed"):
            client.result(doc["id"])
    entries = RunLedger(tmp_path / "ledger.jsonl").entries(kind="service")
    assert [e["outcome"] for e in entries] == ["failed"]
    assert entries[0]["error"] == done["error"]


#: kind -> (params, the job's own task count read from its result).
_TELEMETRY_JOBS = {
    "design": ({"app": "fw", "n": 7680, "b": 256}, lambda result: 1),
    "campaign": ({"apps": ["lu"], "replicates": 3, "seed": 7},
                 lambda result: result["points"]),
    "faults": ({"apps": ["lu"], "scenarios": ["degraded-link"],
                "policies": ["degrade-static"], "seed": 7},
               lambda result: len(result["results"])),
    # Rung 0 is the search's one map: the DES rungs re-rank its values.
    "tune": ({"space": {"kind": "block_mm", "machine": "xd1",
                        "fixed": {"b": 240, "k": 8}, "axes": ["b_f=0,80,160,240"]}},
             lambda result: result["rungs"][0]["evaluated"]),
}


@pytest.mark.parametrize("kind", sorted(_TELEMETRY_JOBS))
def test_job_scoped_executor_telemetry(tmp_path, kind):
    """Every kind maps on the server's shared executor, so a job's
    telemetry is its own -- tagged with its id, counting its own tasks --
    even right after another job ran."""
    params, own_tasks = _TELEMETRY_JOBS[kind]
    with _server_thread(tmp_path) as st:
        client = ServiceClient(port=st.bound_port)
        first = client.submit("design", {"app": "lu", "n": 6000, "b": 1200})
        client.wait(first["id"], timeout=120)
        doc = client.submit(kind, params)
        done = client.wait(doc["id"], timeout=300)
    assert done["state"] == "completed"
    assert done["telemetry"]["scope"] == done["id"] != first["id"]
    assert done["telemetry"]["mode"] in ("serial", "parallel")
    assert done["telemetry"]["tasks"] == own_tasks(done["result"])


def test_job_that_maps_nothing_has_no_telemetry(tmp_path):
    """table1 evaluates no simulation task, so its sweep job never
    maps; it must not carry the previous job's telemetry."""
    with _server_thread(tmp_path) as st:
        client = ServiceClient(port=st.bound_port)
        first = client.submit("design", {"app": "lu", "n": 6000, "b": 1200})
        assert "telemetry" in client.wait(first["id"], timeout=120)
        doc = client.submit("sweep", {"experiments": ["table1"]})
        done = client.wait(doc["id"], timeout=120)
    assert done["state"] == "completed"
    assert "telemetry" not in done


# ------------------------------------------------- CLI == service, bitwise
#
# Each case: CLI argv, the file flag that receives the CLI's document,
# the job kind and params the service gets, and how to pick the CLI's
# document out of the job result.  The params are spelled differently
# from the flags on purpose (lists vs comma strings, parsed vs raw axes):
# both must normalize to the same manifest.

_ADHOC_AXES = [["k", [2, 4]], ["b_f", "0:3000:600"]]

_CLI_SERVICE_CASES = {
    "faults": (
        ["faults", "sweep", "--apps", "lu,fw", "--scenarios", "degraded-link",
         "--seed", "7", "--cache", "off"],
        "faults", {"apps": ["lu", "fw"], "scenarios": ["degraded-link"], "seed": 7},
        lambda result: result["results"],
    ),
    # No flags at all: the CLI and a bare job share the normalizer's
    # defaults (the three-scenario grid), not two copies of them.
    "faults-defaults": (
        ["faults", "sweep", "--cache", "off"], "faults", {},
        lambda result: result["results"],
    ),
    "campaign-serial": (
        ["campaign", "run", "--apps", "lu", "--replicates", "3", "--seed", "7",
         "--cache", "off"],
        "campaign", {"apps": ["lu"], "replicates": 3, "seed": 7}, None,
    ),
    "campaign-jobs2": (
        ["campaign", "run", "--apps", "lu", "--replicates", "3", "--seed", "7",
         "--cache", "off", "--jobs", "2"],
        "campaign", {"apps": ["lu"], "replicates": 3, "seed": 7}, None,
    ),
    "campaign-throttle": (
        ["campaign", "run", "--apps", "lu,fw", "--replicates", "3", "--seed", "7",
         "--cache", "off", "--throttle-fpga", "0.8"],
        "campaign", {"replicates": 3, "seed": 7, "throttle_fpga": 0.8}, None,
    ),
    "campaign-presets": (
        ["campaign", "run", "--apps", "lu", "--preset", "xd1,xt3", "--replicates",
         "3", "--seed", "7", "--cache", "off"],
        "campaign", {"apps": "lu", "preset": ["xd1", "xt3"], "replicates": 3,
                     "seed": 7}, None,
    ),
    "tune-named": (
        ["tune", "run", "--space", "fig5-bf", "--seed", "7", "--cache", "off"],
        "tune", {"space": "fig5-bf", "seed": 7}, None,
    ),
    "tune-adhoc": (
        ["tune", "run", "--kind", "block_mm", "--fixed", "b=3000", "--axis", "k=2,4",
         "--axis", "b_f=0:3000:600", "--seed", "7", "--cache", "off"],
        "tune", {"space": {"kind": "block_mm", "fixed": {"b": 3000},
                           "axes": _ADHOC_AXES}, "seed": 7}, None,
    ),
}


@pytest.fixture(scope="module")
def cacheless_service():
    with ServerThread(CodesignServer(jobs=1)) as st:
        yield ServiceClient(port=st.bound_port)


def _served(client, kind, params):
    doc = client.wait(client.submit(kind, params)["id"], timeout=300)
    assert doc["state"] == "completed" and doc["source"] == "computed"
    return doc["result"]


def _text(doc):
    return json.dumps(doc, indent=2, sort_keys=True)


@pytest.mark.parametrize("case", sorted(_CLI_SERVICE_CASES))
def test_cli_document_equals_service_result(case, cacheless_service, tmp_path, capsys):
    argv, kind, params, pick = _CLI_SERVICE_CASES[case]
    out = tmp_path / "cli.json"
    assert cli_main([*argv, "--out", str(out)]) == 0
    capsys.readouterr()
    result = _served(cacheless_service, kind, params)
    cli_doc = json.loads(out.read_text(encoding="utf-8"))
    assert _text(cli_doc) == _text(pick(result) if pick else result)


@pytest.mark.parametrize("app, argv, params", [
    ("lu", ["--n", "6000", "--b", "1200"], {"app": "lu", "n": 6000, "b": 1200}),
    ("fw", ["--n", "9216", "--b", "256", "--p", "3"],
     {"app": "fw", "n": 9216, "b": 256, "p": 3}),
])
def test_cli_design_equals_service_result(app, argv, params, cacheless_service,
                                          tmp_path, capsys):
    """``lu``/``fw`` print rather than write a document: the comparison
    they store in ``--cache`` must be the service's, bitwise, and their
    chart must be the service result rendered."""
    from repro.cli import _render_compare
    from repro.parallel import ResultCache

    cache_dir = tmp_path / "cache"
    assert cli_main([app, *argv, "--cache", str(cache_dir)]) == 0
    stdout = capsys.readouterr().out
    result = _served(cacheless_service, "design", params)
    stored = ResultCache(cache_dir).get(result["task"])
    assert stored is not None
    assert _text(stored["value"]) == _text(result["compare"])
    full = {"p": 6, **params}
    assert "\n".join(_render_compare(app, full, result["compare"])) in stdout
