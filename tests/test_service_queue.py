"""Queue, rate-limit, manifest, retry and long-poll semantics of
repro.service."""

import asyncio
import http.client
import json
import threading
import time

import pytest

from repro.service import (
    CodesignServer,
    Job,
    JobError,
    JobQueue,
    RateLimiter,
    ServerThread,
    ServiceClient,
    ServiceError,
    TokenBucket,
    job_key,
    normalize_request,
    register_runner,
    unregister_runner,
)


def _job(jid, priority="default"):
    manifest = {"kind": "design", "params": {"app": "lu", "n": 1, "b": 1, "p": 6}}
    return Job(id=jid, manifest=manifest, key=jid, priority=priority)


# ---------------------------------------------------------------- JobQueue


def test_queue_pops_priority_classes_in_order():
    q = JobQueue()
    q.push(_job("b1", "batch"))
    q.push(_job("d1", "default"))
    q.push(_job("i1", "interactive"))
    q.push(_job("d2", "default"))
    assert [q.pop().id for _ in range(4)] == ["i1", "d1", "d2", "b1"]
    assert q.pop() is None


def test_queue_fifo_within_class_and_counts():
    q = JobQueue()
    for jid in ("a", "b", "c"):
        q.push(_job(jid, "batch"))
    assert len(q) == 3
    assert q.counts() == {"interactive": 0, "default": 0, "batch": 3}
    assert [j.id for j in q.jobs()] == ["a", "b", "c"]
    assert [q.pop().id for _ in range(3)] == ["a", "b", "c"]


def test_queue_rejects_unknown_priority():
    q = JobQueue()
    with pytest.raises(JobError, match="unknown priority"):
        q.push(_job("x", "vip"))


# ------------------------------------------------------------- TokenBucket


def test_token_bucket_burst_then_refill():
    clock = [0.0]
    bucket = TokenBucket(2, 1.0, clock=lambda: clock[0])
    assert bucket.take() == (True, 0.0)
    assert bucket.take() == (True, 0.0)
    ok, retry_after = bucket.take()
    assert not ok and retry_after == pytest.approx(1.0)
    clock[0] = 0.5  # half a token back: still denied, shorter wait
    ok, retry_after = bucket.take()
    assert not ok and retry_after == pytest.approx(0.5)
    clock[0] = 1.0  # a whole token exists again
    assert bucket.take() == (True, 0.0)


def test_token_bucket_caps_at_capacity():
    clock = [0.0]
    bucket = TokenBucket(2, 10.0, clock=lambda: clock[0])
    clock[0] = 100.0  # a long idle period must not bank >capacity tokens
    assert bucket.take()[0] and bucket.take()[0]
    assert not bucket.take()[0]


def test_token_bucket_validates_parameters():
    with pytest.raises(ValueError, match="capacity"):
        TokenBucket(0, 1.0)
    with pytest.raises(ValueError, match="refill"):
        TokenBucket(1, 0.0)


def test_rate_limiter_is_per_client_and_optional():
    clock = [0.0]
    limiter = RateLimiter(1, 1.0, clock=lambda: clock[0])
    assert limiter.allow("alice") == (True, 0.0)
    assert not limiter.allow("alice")[0]
    assert limiter.allow("bob") == (True, 0.0)  # separate bucket
    assert limiter.snapshot()["clients"] == 2
    unlimited = RateLimiter(None)
    assert not unlimited.enabled
    for _ in range(100):
        assert unlimited.allow("anyone") == (True, 0.0)


# ------------------------------------------------------------- job clocks


def test_job_durations_use_the_monotonic_clock(monkeypatch):
    import types

    import repro.service.jobs as jobs

    # The wall clock steps back past ``created``, then far forward.
    wall = iter([500.0, 2000.0])
    mono = iter([10.0, 10.25, 11.0])
    fake = types.SimpleNamespace(time=lambda: next(wall), monotonic=lambda: next(mono))
    monkeypatch.setattr(jobs, "time", fake)
    job = _job("j")
    assert job.queue_wait_s is None and job.run_s is None
    job.mark("started")
    job.mark("finished")
    assert (job.started, job.finished) == (500.0, 2000.0)  # reported as-is
    assert job.started < job.created
    assert job.queue_wait_s == 0.25
    assert job.run_s == 0.75


def test_cache_hit_job_has_zero_run_time():
    job = _job("j")
    job.mark("started", "finished")
    assert job.started == job.finished
    assert job.run_s == 0.0
    assert job.queue_wait_s >= 0.0


# -------------------------------------------------------------- manifests


def test_normalize_request_fills_defaults_for_identical_keys():
    sparse = normalize_request("design", {"app": "lu"})
    explicit = normalize_request("design", {"app": "lu", "n": 30000,
                                            "b": 3000, "p": 6})
    assert sparse == explicit
    assert job_key(sparse) == job_key(explicit)
    different = normalize_request("design", {"app": "lu", "n": 6000, "b": 1200})
    assert job_key(different) != job_key(sparse)


def test_normalize_request_sweep_is_order_insensitive():
    a = normalize_request("sweep", {"experiments": ["fig7", "fig5"]})
    b = normalize_request("sweep", {"experiments": ["fig5", "fig7", "fig5"]})
    c = normalize_request("sweep", {"experiments": "fig5,fig7"})
    assert a == b == c
    assert a["params"]["experiments"] == ["fig5", "fig7"]


def test_normalize_request_rejects_bad_input():
    with pytest.raises(JobError, match="unknown job kind"):
        normalize_request("teleport", {})
    with pytest.raises(JobError, match="unknown parameter"):
        normalize_request("design", {"app": "lu", "sparkle": 1})
    with pytest.raises(JobError, match="unknown design app"):
        normalize_request("design", {"app": "qr"})
    with pytest.raises(JobError, match="positive int"):
        normalize_request("design", {"app": "lu", "n": -5})
    with pytest.raises(JobError, match="unknown experiment ids"):
        normalize_request("sweep", {"experiments": ["fig99"]})
    with pytest.raises(JobError, match="must be an object"):
        normalize_request("design", [1, 2])
    with pytest.raises(JobError, match="must name a predefined space"):
        normalize_request("tune", {"space": "nope"})
    with pytest.raises(JobError, match="bad tune 'space'"):
        normalize_request("tune", {"space": {"kind": "block_mm", "axes": ["k=2,4"]}})
    # Unknown apps, presets and scenarios fail at submit, not when the job runs.
    for kind in ("faults", "campaign"):
        with pytest.raises(JobError, match="unknown app 'mm'"):
            normalize_request(kind, {"apps": ["lu", "mm"]})
        with pytest.raises(JobError, match="unknown scenarios"):
            normalize_request(kind, {"scenarios": ["nope"]})
    with pytest.raises(JobError, match="unknown preset 'vax'"):
        normalize_request("faults", {"preset": "vax"})
    with pytest.raises(JobError, match="unknown preset 'vax'"):
        normalize_request("campaign", {"preset": ["vax"]})


def test_builtin_kinds_cannot_be_replaced():
    """Re-registering a built-in kind would swap its normalizer for the
    identity and silently drop its validation, so it is refused."""
    with pytest.raises(JobError, match="built-in"):
        register_runner("design", lambda params, ctx: {})
    with pytest.raises(JobError, match="built-in"):
        unregister_runner("design")
    with pytest.raises(JobError, match="positive int"):
        normalize_request("design", {"app": "lu", "n": -5})


def test_tune_adhoc_space_normalizes_to_its_grid():
    """Spellings of one ad-hoc space share a key; axis order is kept (it
    is the search order) and a named space stays its bare name."""
    cli = {"kind": "block_mm", "fixed": ["b=3000"], "axes": ["k=2,4", "b_f=0:400:200"]}
    first = normalize_request("tune", {"space": cli})
    space = first["params"]["space"]
    assert space == {"kind": "block_mm", "machine": "xd1", "fixed": {"b": 3000},
                     "axes": [["k", [2, 4]], ["b_f", [0, 200, 400]]]}
    assert normalize_request("tune", {"space": space}) == first
    assert normalize_request("tune", {"space": "fig5-bf"})["params"]["space"] == "fig5-bf"


# ------------------------------------------------- server-level semantics
#
# These use throwaway registered kinds so queue/retry behaviour is
# exercised without paying for a real simulation.


@pytest.fixture
def flaky_kind():
    """A registered kind whose runner fails N times before succeeding."""
    state = {"failures_left": 0, "calls": 0}

    def runner(params, ctx):
        state["calls"] += 1
        if state["failures_left"] > 0:
            state["failures_left"] -= 1
            raise RuntimeError("transient worker crash")
        return {"ok": True, "calls": state["calls"]}

    register_runner("flaky", runner, normalizer=lambda p: dict(p))
    yield state
    unregister_runner("flaky")


def _server(**kwargs):
    kwargs.setdefault("jobs", 1)
    kwargs.setdefault("retry_backoff_s", 0.0)
    return CodesignServer(**kwargs)


def test_retry_recovers_from_transient_crashes(flaky_kind):
    flaky_kind["failures_left"] = 1
    with ServerThread(_server(max_retries=2)) as st:
        client = ServiceClient(port=st.bound_port)
        doc = client.submit("flaky", {"case": "recovers"})
        done = client.wait(doc["id"], timeout=30)
    assert done["state"] == "completed"
    assert done["attempts"] == 2  # first crash + successful retry
    assert done["result"]["ok"] is True


def test_retry_gives_up_after_max_retries(flaky_kind):
    flaky_kind["failures_left"] = 10**9  # always crash
    with ServerThread(_server(max_retries=2)) as st:
        client = ServiceClient(port=st.bound_port)
        doc = client.submit("flaky", {"case": "hopeless"})
        done = client.wait(doc["id"], timeout=30)
        queue = client.queue()
    assert done["state"] == "failed"
    assert "transient worker crash" in done["error"]
    assert done["attempts"] == 3  # initial + 2 retries, then give up
    assert queue["counters"]["retried"] == 2
    assert queue["counters"]["failed"] == 1
    assert flaky_kind["calls"] == 3


def test_duplicate_submit_returns_original_job_id(flaky_kind):
    with ServerThread(_server()) as st:
        client = ServiceClient(port=st.bound_port)
        st.pause()  # hold the worker so the first job stays in flight
        first = client.submit("flaky", {"case": "dup"})
        second = client.submit("flaky", {"case": "dup"})
        other = client.submit("flaky", {"case": "not-a-dup"})
        st.resume()
        done = client.wait(first["id"], timeout=30)
        queue = client.queue()
    assert first["state"] == "queued" and not first["deduped"]
    assert second["id"] == first["id"] and second["deduped"]
    assert other["id"] != first["id"] and not other["deduped"]
    assert done["dedup_count"] == 1
    assert queue["counters"]["deduped"] == 1
    assert queue["counters"]["submitted"] == 3
    assert flaky_kind["calls"] == 2  # dup collapsed: 2 executions for 3 submits


def test_rate_limit_returns_429_with_retry_after(flaky_kind):
    with ServerThread(_server(rate_capacity=2, rate_refill_per_s=0.1)) as st:
        client = ServiceClient(port=st.bound_port, client_id="greedy")
        client.submit("flaky", {"i": 1})
        client.submit("flaky", {"i": 2})
        with pytest.raises(ServiceError) as exc_info:
            client.submit("flaky", {"i": 3})
        # A different client has its own bucket and is still admitted.
        other = ServiceClient(port=st.bound_port, client_id="patient")
        ok = other.submit("flaky", {"i": 4})
    err = exc_info.value
    assert err.status == 429
    assert err.retry_after is not None and err.retry_after > 0
    assert ok["id"]


def test_bad_requests_are_400_not_500(flaky_kind):
    with ServerThread(_server()) as st:
        client = ServiceClient(port=st.bound_port)
        with pytest.raises(ServiceError) as exc_info:
            client.submit("no-such-kind", {})
        assert exc_info.value.status == 400
        with pytest.raises(ServiceError) as exc_info:
            client.submit("design", {"app": "lu", "bogus": 1})
        assert exc_info.value.status == 400
        with pytest.raises(ServiceError) as exc_info:
            client.status("j-999999")
        assert exc_info.value.status == 404
        health = client.healthz()
    assert health["status"] == "ok"


def test_priority_classes_drain_in_order(flaky_kind):
    """With the worker paused, queued jobs drain interactive -> default
    -> batch regardless of submission order."""
    order = []

    def runner(params, ctx):
        order.append(params["tag"])
        return {"tag": params["tag"]}

    register_runner("ordered", runner, normalizer=lambda p: dict(p))
    try:
        with ServerThread(_server()) as st:
            client = ServiceClient(port=st.bound_port)
            st.pause()
            batch = client.submit("ordered", {"tag": "batch"}, priority="batch")
            default = client.submit("ordered", {"tag": "default"})
            inter = client.submit("ordered", {"tag": "interactive"},
                                  priority="interactive")
            assert client.queue()["by_priority"] == {
                "interactive": 1, "default": 1, "batch": 1,
            }
            st.resume()
            for doc in (batch, default, inter):
                client.wait(doc["id"], timeout=30)
    finally:
        unregister_runner("ordered")
    assert order == ["interactive", "default", "batch"]


# -------------------------------------------------------------- long-poll


def _get(port, path, timeout=60):
    """``GET path`` over plain http.client; returns (status, document)."""
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=timeout)
    try:
        conn.request("GET", path)
        resp = conn.getresponse()
        return resp.status, json.loads(resp.read().decode("utf-8"))
    finally:
        conn.close()


class _CountingServer(CodesignServer):
    """A server that records every ``GET /v1/jobs/...`` path it serves."""

    def __init__(self, **kwargs):
        super().__init__(**kwargs)
        self.job_gets = []

    async def _dispatch(self, method, path, query, headers, body, writer):
        if method == "GET" and path.startswith("/v1/jobs/"):
            self.job_gets.append(path)
        return await super()._dispatch(method, path, query, headers, body, writer)


def _until(predicate, timeout=30.0):
    deadline = time.monotonic() + timeout
    while not predicate():
        assert time.monotonic() < deadline, "condition never held"
        time.sleep(0.005)


def test_wait_returns_a_done_job_at_once_and_rejects_bad_values(flaky_kind):
    with ServerThread(_server()) as st:
        client = ServiceClient(port=st.bound_port)
        doc = client.submit("flaky", {"case": "quick"})
        done = client.wait(doc["id"], timeout=30)
        status, again = _get(st.bound_port, f"/v1/jobs/{doc['id']}?wait=30")
        bad_status, bad = _get(st.bound_port, f"/v1/jobs/{doc['id']}?wait=soon")
    assert done["state"] == "completed"
    assert (status, again) == (200, done)  # same document, no hold
    assert bad_status == 400 and "wait" in bad["error"]


def test_wait_times_out_with_the_current_status(flaky_kind):
    with ServerThread(_server()) as st:
        client = ServiceClient(port=st.bound_port)
        st.pause()
        doc = client.submit("flaky", {"case": "held"})
        status, held = _get(st.bound_port, f"/v1/jobs/{doc['id']}?wait=0.05")
        with pytest.raises(TimeoutError, match="still 'queued'"):
            client.wait(doc["id"], timeout=0.1)
        st.resume()
    assert (status, held["state"]) == (200, "queued")


def test_client_wait_needs_one_long_poll_per_job(flaky_kind):
    """A job that finishes while the client waits costs one ``GET`` (two
    at most), counted on the server rather than timed."""
    server = _CountingServer(jobs=1, retry_backoff_s=0.0)
    with ServerThread(server) as st:
        client = ServiceClient(port=st.bound_port)
        st.pause()
        doc = client.submit("flaky", {"case": "long-poll"})
        box = {}
        waiter = threading.Thread(
            target=lambda: box.update(done=client.wait(doc["id"], timeout=60)))
        waiter.start()
        _until(lambda: doc["id"] in server._done)  # the long-poll is open
        st.resume()
        waiter.join(timeout=60)
    assert box["done"]["state"] == "completed"
    assert 1 <= server.job_gets.count(f"/v1/jobs/{doc['id']}") <= 2


def test_stop_releases_pending_long_polls(flaky_kind):
    """``stop(drain=False)`` on a paused server answers an open
    ``?wait=`` at once with the job still ``queued``."""

    async def scenario():
        server = _server()
        await server.start()
        server.pause()
        job, _ = server.submit("flaky", {"case": "stranded"})
        loop = asyncio.get_running_loop()
        poll = loop.run_in_executor(
            None, _get, server.bound_port, f"/v1/jobs/{job.id}?wait=30")
        while job.id not in server._done:  # the long-poll is open
            await asyncio.sleep(0.005)
        t0 = time.monotonic()
        await server.stop(drain=False)
        status, doc = await poll
        return status, doc, time.monotonic() - t0

    status, doc, elapsed = asyncio.run(scenario())
    assert (status, doc["state"]) == (200, "queued")
    assert elapsed < 10  # far below the 30 s hold
