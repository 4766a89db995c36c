"""The service's forked job worker: crash isolation and what a job ships back.

Every job runs in one worker process forked by ``CodesignServer.start``.
A worker that dies is a crash: the job is retried on a freshly forked
worker while the event loop keeps answering.  A job's registry counters
and point-level cache statistics come back with its result, so they read
as they would had the job run in the server process.
"""

import os
import time

from repro.obs import REGISTRY
from repro.parallel import ResultCache
from repro.parallel.executor import SweepExecutor
from repro.service import (
    CodesignServer,
    RunnerContext,
    ServerThread,
    ServiceClient,
    normalize_request,
    register_runner,
    result_payload,
    run_manifest,
    unregister_runner,
)


def test_a_dead_worker_is_retried_on_a_fresh_worker(tmp_path):
    marker = tmp_path / "first-attempt-pid"

    def runner(params, ctx):
        if not marker.exists():
            marker.write_text(str(os.getpid()))
            os._exit(3)
        time.sleep(0.3)  # computing: healthz must still answer
        return {"pid": os.getpid()}

    register_runner("dies-once", runner)
    try:
        server = CodesignServer(jobs=1, retry_backoff_s=0.2)
        with ServerThread(server) as st:
            first_worker = server.worker.pid
            client = ServiceClient(port=st.bound_port)
            doc = client.submit("dies-once", {})
            seen = []  # (job state, healthz status) until the job is done
            while True:
                health = client.healthz()["status"]
                state = client.status(doc["id"])["state"]
                seen.append((state, health))
                if state in ("completed", "failed"):
                    break
                time.sleep(0.01)
            done = client.status(doc["id"])
            events = [e["event"] for e in client.events(doc["id"])]
            queue = client.queue()
            second_worker = server.worker.pid
            listener = os.fstat(server._server.sockets[0].fileno()).st_ino
            worker_fds = [os.readlink(f"/proc/{second_worker}/fd/{fd}")
                          for fd in os.listdir(f"/proc/{second_worker}/fd")]
    finally:
        unregister_runner("dies-once")
    assert done["state"] == "completed"
    assert done["attempts"] == 2
    assert queue["counters"]["retried"] == 1
    assert queue["counters"]["failed"] == 0
    assert events == ["submitted", "queued", "started", "retrying", "completed"]
    # The first attempt died in the worker forked at start; the retry ran
    # in a fresh one, and neither is the server process.
    assert int(marker.read_text()) == first_worker
    assert done["result"]["pid"] == second_worker
    assert len({first_worker, second_worker, os.getpid()}) == 3
    assert all(health == "ok" for _, health in seen)
    assert sum(state == "running" for state, _ in seen) >= 5
    # The retry's worker was forked from a listening server, and let go
    # of the listener it copied.
    assert f"socket:[{listener}]" not in worker_fds


#: Jobs that between them move every counter perfbench reports.
_JOBS = [
    ("design", {"app": "lu", "n": 6000, "b": 1200}),
    ("tune", {"space": {"kind": "block_mm", "machine": "xd1",
                        "fixed": {"b": 240, "k": 8}, "axes": ["b_f=0,80,160,240"]}}),
    ("campaign", {"apps": ["lu"], "replicates": 3, "seed": 7}),
    ("sweep", {"experiments": ["fig5"]}),
    ("sweep", {"experiments": ["fig5", "table1"]}),  # fig5's points: cache hits
]
_COUNTERS = ("fastpath.points", "experiments.sim_points", "tune.evals.analytic",
             "tune.evals.des", "campaign.replicates")


def test_worker_jobs_move_counters_and_cache_stats_as_in_process(tmp_path):
    """Served jobs move the registry counters and the ``/v1/queue`` cache
    block exactly as running their manifests in this process does (with
    the server's job-level cache lookup and store around each)."""
    before = REGISTRY.counter_values(_COUNTERS)
    with ServerThread(CodesignServer(jobs=1, cache=tmp_path / "served")) as st:
        client = ServiceClient(port=st.bound_port)
        for kind, params in _JOBS:
            done = client.wait(client.submit(kind, params)["id"], timeout=300)
            assert done["state"] == "completed" and done["source"] == "computed"
        served_cache = client.queue()["cache"]
    served = REGISTRY.counter_deltas(before, _COUNTERS)

    cache = ResultCache(tmp_path / "direct")
    ctx = RunnerContext(SweepExecutor(1), cache)
    before = REGISTRY.counter_values(_COUNTERS)
    for kind, params in _JOBS:
        manifest = normalize_request(kind, params)
        assert cache.get(result_payload(manifest)) is None
        cache.put(result_payload(manifest), run_manifest(manifest, ctx))
    direct = REGISTRY.counter_deltas(before, _COUNTERS)

    assert {name for name, _labels in direct} == set(_COUNTERS)
    assert served == direct
    assert served_cache == cache.stats
    assert cache.stats["hits"] > 0
