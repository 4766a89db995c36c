"""The co-design job server: asyncio HTTP listener + job worker loop.

A :class:`CodesignServer` binds a plain ``asyncio.start_server`` socket
(no third-party deps; a minimal HTTP/1.1 parser handles the request
framing) and exposes

* ``POST /v1/jobs`` -- submit a job (``{"kind", "params", "priority",
  "client"}``); duplicates of in-flight work return the original job
  id, warm :class:`~repro.parallel.cache.ResultCache` entries complete
  instantly with ``"source": "cache"``, and over-rate clients get a
  ``429`` with ``Retry-After``;
* ``GET /v1/jobs/{id}`` -- status plus the result manifest once done;
  with ``?wait=<s>`` a long-poll that answers as soon as the job is done
  (or after ``min(s, 30)`` seconds, or at shutdown) with the same
  document;
* ``GET /v1/jobs/{id}/events`` -- chunked NDJSON progress stream;
* ``GET /v1/queue`` -- queue depth, per-outcome counters, cache stats;
* ``GET /v1/healthz`` -- liveness;
* ``POST /v1/queue/pause`` / ``POST /v1/queue/resume`` -- admin: hold
  the worker loop (used by tests and the CI smoke to pin jobs in the
  in-flight dedup window deterministically).

One worker coroutine drains the :class:`~repro.service.queue.JobQueue`
(priority classes, FIFO within) and runs each job's blocking runner in
a thread so the event loop keeps serving status requests; the runners
share one persistent :class:`~repro.parallel.executor.SweepExecutor`,
so the process pool pays startup once across all jobs.  Worker crashes
are retried with exponential backoff up to ``max_retries`` before the
job is marked ``failed``.  On shutdown (``stop``, wired to SIGTERM by
``repro-xd1 serve``) the listener closes, the queue drains, and every
completed job has already been appended to the run ledger as a schema-7
``service`` entry.

Everything is exercisable in-process: bind ``port=0`` and read
:attr:`CodesignServer.bound_port`; :class:`ServerThread` runs the whole
loop in a daemon thread for synchronous tests and clients.
"""

from __future__ import annotations

import asyncio
import hashlib
import json
import threading
import time
from typing import Any, Optional
from urllib.parse import parse_qsl, urlsplit

from ..obs.metrics import REGISTRY
from ..parallel.cache import ResultCache
from ..parallel.executor import SweepExecutor
from .jobs import Job, JobError, job_key, normalize_request, result_payload
from .queue import DEFAULT_PRIORITY, PRIORITIES, JobQueue, RateLimiter
from .runners import RunnerContext, run_manifest

__all__ = ["CodesignServer", "ServerThread", "SERVICE_COUNTERS"]

#: The ``service.jobs.*`` counter names published to the metrics
#: registry and reported (per server) by ``GET /v1/queue``.
SERVICE_COUNTERS = (
    "submitted", "deduped", "cache_hit", "completed", "failed", "retried",
)

#: Maximum request head (request line + headers) and body sizes.
_MAX_HEAD = 64 * 1024
_MAX_BODY = 4 * 1024 * 1024

#: Longest a ``GET /v1/jobs/{id}?wait=<s>`` long-poll is held open.
_MAX_WAIT_S = 30.0

#: Poll interval of the event stream (progress records appear within
#: one tick; terminal states close the stream).
_EVENT_POLL_S = 0.02


def _result_hash(result: Any) -> str:
    """A stable content hash of a result document."""
    text = json.dumps(result, sort_keys=True, separators=(",", ":"), default=str)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


class _HttpError(Exception):
    """An error response with a status code (and optional headers)."""

    def __init__(self, status: int, message: str,
                 headers: Optional[dict[str, str]] = None) -> None:
        super().__init__(message)
        self.status = status
        self.headers = headers or {}


def _wait_seconds(raw: str) -> float:
    """A ``?wait=`` value in seconds, clamped to ``[0, _MAX_WAIT_S]``."""
    try:
        wait_s = float(raw)
        if wait_s != wait_s:  # NaN
            raise ValueError(raw)
    except ValueError:
        raise _HttpError(400, f"wait must be a number of seconds, got {raw!r}") from None
    return min(max(wait_s, 0.0), _MAX_WAIT_S)


class CodesignServer:
    """The co-design-as-a-service server (see module docstring).

    Parameters
    ----------
    host, port:
        Listen address; ``port=0`` binds an ephemeral port (read
        :attr:`bound_port` after :meth:`start`) so tests never race on
        fixed ports.
    jobs:
        Worker count for the shared sweep executor (int, ``"auto"`` or
        None for ``REPRO_PARALLEL``).
    cache:
        Result-cache directory or :class:`ResultCache`; None disables
        job-level and point-level caching.
    ledger:
        Run-ledger path; every finished job appends one ``service``
        entry.  None disables ledger recording.
    rate_capacity, rate_refill_per_s:
        Per-client token bucket (burst / sustained rate).  Capacity
        None disables rate limiting.
    max_retries:
        Crashed runners are retried this many times (exponential
        backoff from ``retry_backoff_s``) before the job fails.
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        jobs: Any = None,
        cache: Any = None,
        ledger: Any = None,
        rate_capacity: Optional[float] = None,
        rate_refill_per_s: float = 2.0,
        max_retries: int = 2,
        retry_backoff_s: float = 0.05,
    ) -> None:
        self.host = host
        self.port = port
        self.bound_port: Optional[int] = None
        self.jobs_setting = jobs
        self.executor = SweepExecutor(jobs)
        if isinstance(cache, ResultCache) or cache is None:
            self.cache = cache
        else:
            self.cache = ResultCache(cache)
        if ledger is None:
            self.ledger = None
        else:
            from ..obs.ledger import RunLedger

            self.ledger = ledger if isinstance(ledger, RunLedger) else RunLedger(ledger)
        self.queue = JobQueue()
        self.limiter = RateLimiter(rate_capacity, rate_refill_per_s)
        self.max_retries = int(max_retries)
        self.retry_backoff_s = float(retry_backoff_s)
        self.jobs_by_id: dict[str, Job] = {}
        #: manifest key -> job id for queued/running jobs (the in-flight
        #: dedup index; entries leave it the moment a job finishes).
        self.inflight: dict[str, str] = {}
        #: Per-server outcome counts (the registry mirrors them process
        #: wide, but /v1/queue must report *this* server's history).
        self.counts = {name: 0 for name in SERVICE_COUNTERS}
        self._metrics = {
            name: REGISTRY.counter(f"service.jobs.{name}", layer="service")
            for name in SERVICE_COUNTERS
        }
        self._seq = 0
        self._paused = False
        self._stopping = False
        self._drain = True
        #: ``time.monotonic`` at :meth:`start` (uptime is a duration).
        self.started_at: Optional[float] = None
        self._server: Optional[asyncio.AbstractServer] = None
        self._worker_task: Optional[asyncio.Task] = None
        self._wake: Optional[asyncio.Event] = None
        #: job id -> completion event, created by the first long-poll on
        #: a pending job and set (then dropped) when the job finishes.
        self._done: dict[str, asyncio.Event] = {}

    # ------------------------------------------------------------ lifecycle

    async def start(self) -> "CodesignServer":
        """Bind the listener and start the worker loop."""
        self._wake = asyncio.Event()
        self._server = await asyncio.start_server(
            self._handle_conn, self.host, self.port, limit=_MAX_HEAD
        )
        self.bound_port = self._server.sockets[0].getsockname()[1]
        self.started_at = time.monotonic()
        self._worker_task = asyncio.create_task(self._worker_loop())
        return self

    async def stop(self, drain: bool = True) -> None:
        """Shut down cleanly: close the listener, drain, release workers.

        With ``drain`` (the default, and what the SIGTERM handler uses)
        every queued job still runs to completion -- and therefore lands
        in the ledger -- before the worker loop exits.  Either way every
        pending ``?wait=`` long-poll answers at once with the job's
        current status, so no open connection holds shutdown.
        """
        self._stopping = True
        self._drain = drain
        self._paused = False
        if self._wake is not None:
            self._wake.set()
        for event in self._done.values():  # long-polls answer now
            event.set()
        self._done.clear()
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        if self._worker_task is not None:
            await self._worker_task
            self._worker_task = None
        self.executor.close()

    def pause(self) -> None:
        """Hold the worker loop (queued jobs stay queued)."""
        self._paused = True

    def resume(self) -> None:
        """Release a paused worker loop."""
        self._paused = False
        if self._wake is not None:
            self._wake.set()

    # ------------------------------------------------------------ submission

    def _inc(self, name: str) -> None:
        self.counts[name] += 1
        self._metrics[name].inc()

    def submit(
        self,
        kind: Any,
        params: Any = None,
        *,
        priority: str = DEFAULT_PRIORITY,
        client: str = "anonymous",
    ) -> tuple[Job, bool]:
        """Accept one job request; returns ``(job, deduped)``.

        Raises :class:`JobError` on a malformed request.  Dedup order:
        first against in-flight jobs (same manifest queued or running ->
        the original :class:`Job` comes back), then against the result
        cache (warm entry -> a new job that is already ``completed``
        with ``"source": "cache"``).  Otherwise the job is queued.
        """
        if priority not in PRIORITIES:
            raise JobError(f"unknown priority {priority!r}; expected one of {PRIORITIES}")
        manifest = normalize_request(kind, params)
        key = job_key(manifest)
        self._inc("submitted")
        existing_id = self.inflight.get(key)
        if existing_id is not None:
            job = self.jobs_by_id[existing_id]
            job.dedup_count += 1
            job.add_event("deduplicated", client=str(client))
            self._inc("deduped")
            return job, True
        self._seq += 1
        job = Job(
            id=f"j-{self._seq:06d}",
            manifest=manifest,
            key=key,
            priority=priority,
            client=str(client),
        )
        self.jobs_by_id[job.id] = job
        job.add_event("submitted", kind=job.kind, key=key)
        if self.cache is not None:
            entry = self.cache.get(result_payload(manifest))
            if entry is not None:
                self._inc("cache_hit")
                job.mark("started", "finished")
                self._finish(job, entry["value"], source="cache")
                return job, False
        self.queue.push(job)
        self.inflight[key] = job.id
        job.add_event("queued", priority=priority)
        if self._wake is not None:
            self._wake.set()
        return job, False

    def _finish(self, job: Job, result: Any, *, source: str) -> None:
        job.result = result
        job.result_hash = _result_hash(result)
        job.source = source
        job.state = "completed"
        if job.finished is None:
            job.mark("finished")
        job.add_event("completed", source=source, result_hash=job.result_hash)
        self._inc("completed")
        self._record(job)
        self._notify(job)

    def _fail(self, job: Job, error: str) -> None:
        job.error = error
        job.state = "failed"
        job.mark("finished")
        job.add_event("failed", error=error, attempts=job.attempts)
        self._inc("failed")
        self._record(job)
        self._notify(job)

    def _notify(self, job: Job) -> None:
        """Answer every long-poll waiting on ``job``."""
        event = self._done.pop(job.id, None)
        if event is not None:
            event.set()

    async def _await_done(self, job: Job, wait_s: float) -> None:
        """Return once ``job`` is done, ``wait_s`` has passed, or the
        server stops -- whichever comes first."""
        if job.done or self._stopping or wait_s <= 0:
            return
        event = self._done.setdefault(job.id, asyncio.Event())
        try:
            await asyncio.wait_for(event.wait(), wait_s)
        except asyncio.TimeoutError:
            pass

    def _record(self, job: Job) -> None:
        """Append the job's ``service`` manifest to the run ledger."""
        if self.ledger is None:
            return
        from ..obs.ledger import service_entry

        outcome = "failed" if job.state == "failed" else (job.source or "computed")
        self.ledger.append(
            service_entry(
                {
                    "job": job.id,
                    "job_kind": job.kind,
                    "outcome": outcome,
                    "key": job.key,
                    "priority": job.priority,
                    "client": job.client,
                    "queue_wait_s": job.queue_wait_s,
                    "run_s": job.run_s,
                    "attempts": job.attempts,
                    "dedup_count": job.dedup_count,
                    "result_hash": job.result_hash,
                    "error": job.error,
                },
                source="service",
            )
        )

    # ------------------------------------------------------------ execution

    async def _worker_loop(self) -> None:
        assert self._wake is not None
        while True:
            if self._stopping and (not self._drain or len(self.queue) == 0):
                break
            job = self.queue.pop() if not self._paused else None
            if job is None:
                if self._stopping:
                    break
                self._wake.clear()
                await self._wake.wait()
                continue
            await self._run_job(job)

    async def _run_job(self, job: Job) -> None:
        loop = asyncio.get_running_loop()
        job.state = "running"
        job.mark("started")
        job.add_event("started", queue_wait_s=job.queue_wait_s)
        try:
            while True:
                job.attempts += 1
                try:
                    result = await loop.run_in_executor(None, self._execute, job)
                except JobError as exc:
                    # A bad manifest can never succeed on retry.
                    self._fail(job, str(exc))
                    break
                except Exception as exc:  # noqa: BLE001 - worker crash boundary
                    if job.attempts <= self.max_retries:
                        self._inc("retried")
                        backoff = self.retry_backoff_s * (2 ** (job.attempts - 1))
                        job.add_event("retrying", attempt=job.attempts,
                                      backoff_s=backoff, error=str(exc))
                        await asyncio.sleep(backoff)
                        continue
                    self._fail(job, str(exc))
                    break
                else:
                    job.mark("finished")
                    if self.cache is not None:
                        self.cache.put(result_payload(job.manifest), result)
                    self._finish(job, result, source="computed")
                    break
        finally:
            self.inflight.pop(job.key, None)

    def _execute(self, job: Job) -> Any:
        """Run the job's runner (called in a thread; blocking is fine)."""
        self.executor.scope = job.id
        try:
            ctx = RunnerContext(
                executor=self.executor, cache=self.cache, jobs=self.jobs_setting
            )
            return run_manifest(job.manifest, ctx)
        finally:
            job.telemetry = dict(self.executor.last_telemetry)
            self.executor.scope = None

    # ------------------------------------------------------------ HTTP layer

    async def _handle_conn(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            try:
                head = await reader.readuntil(b"\r\n\r\n")
            except (asyncio.IncompleteReadError, asyncio.LimitOverrunError):
                return
            try:
                method, path, query, headers = self._parse_head(head)
                body = b""
                length = int(headers.get("content-length", "0") or "0")
                if length > _MAX_BODY:
                    raise _HttpError(413, "request body too large")
                if length:
                    body = await reader.readexactly(length)
                await self._dispatch(method, path, query, headers, body, writer)
            except _HttpError as exc:
                self._write_json(writer, exc.status, {"error": str(exc)},
                                 extra_headers=exc.headers)
            except JobError as exc:
                self._write_json(writer, 400, {"error": str(exc)})
            except Exception as exc:  # noqa: BLE001 - connection boundary
                self._write_json(writer, 500, {"error": f"internal error: {exc}"})
            await writer.drain()
        except (ConnectionError, asyncio.IncompleteReadError):
            pass
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except ConnectionError:
                pass

    @staticmethod
    def _parse_head(head: bytes) -> tuple[str, str, dict[str, str], dict[str, str]]:
        try:
            lines = head.decode("latin-1").split("\r\n")
            method, target, _version = lines[0].split(" ", 2)
        except (UnicodeDecodeError, ValueError):
            raise _HttpError(400, "malformed request line") from None
        headers: dict[str, str] = {}
        for line in lines[1:]:
            if not line:
                continue
            name, _, value = line.partition(":")
            headers[name.strip().lower()] = value.strip()
        url = urlsplit(target)
        return method.upper(), url.path, dict(parse_qsl(url.query)), headers

    async def _dispatch(
        self,
        method: str,
        path: str,
        query: dict[str, str],
        headers: dict[str, str],
        body: bytes,
        writer: asyncio.StreamWriter,
    ) -> None:
        if method == "POST" and path == "/v1/jobs":
            return self._post_job(headers, body, writer)
        if method == "POST" and path == "/v1/queue/pause":
            self.pause()
            return self._write_json(writer, 200, {"paused": True})
        if method == "POST" and path == "/v1/queue/resume":
            self.resume()
            return self._write_json(writer, 200, {"paused": False})
        if method == "GET" and path == "/v1/healthz":
            return self._write_json(writer, 200, self.healthz())
        if method == "GET" and path == "/v1/queue":
            return self._write_json(writer, 200, self.queue_stats())
        if method == "GET" and path.startswith("/v1/jobs/"):
            rest = path[len("/v1/jobs/"):]
            if rest.endswith("/events"):
                job = self._job_or_404(rest[: -len("/events")].rstrip("/"))
                return await self._stream_events(job, writer)
            job = self._job_or_404(rest)
            if "wait" in query:
                await self._await_done(job, _wait_seconds(query["wait"]))
            return self._write_json(writer, 200, job.status())
        raise _HttpError(404, f"no route for {method} {path}")

    def _job_or_404(self, job_id: str) -> Job:
        job = self.jobs_by_id.get(job_id)
        if job is None:
            raise _HttpError(404, f"unknown job {job_id!r}")
        return job

    def _post_job(
        self, headers: dict[str, str], body: bytes, writer: asyncio.StreamWriter
    ) -> None:
        if self._stopping:
            raise _HttpError(503, "server is shutting down")
        try:
            request = json.loads(body.decode("utf-8")) if body else {}
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise _HttpError(400, f"request body is not JSON: {exc}") from None
        if not isinstance(request, dict):
            raise _HttpError(400, "request body must be a JSON object")
        client = str(request.get("client") or headers.get("x-client") or "anonymous")
        ok, retry_after = self.limiter.allow(client)
        if not ok:
            raise _HttpError(
                429,
                f"rate limit exceeded for client {client!r}",
                headers={"Retry-After": f"{max(retry_after, 0.001):.3f}"},
            )
        job, deduped = self.submit(
            request.get("kind"),
            request.get("params"),
            priority=request.get("priority") or DEFAULT_PRIORITY,
            client=client,
        )
        response = job.status()
        response["deduped"] = deduped
        self._write_json(writer, 202 if job.state == "queued" else 200, response)

    async def _stream_events(self, job: Job, writer: asyncio.StreamWriter) -> None:
        writer.write(
            b"HTTP/1.1 200 OK\r\n"
            b"Content-Type: application/x-ndjson\r\n"
            b"Transfer-Encoding: chunked\r\n"
            b"Connection: close\r\n\r\n"
        )
        sent = 0
        while True:
            while sent < len(job.events):
                line = json.dumps(job.events[sent], sort_keys=True) + "\n"
                data = line.encode("utf-8")
                writer.write(f"{len(data):x}\r\n".encode("ascii") + data + b"\r\n")
                sent += 1
            await writer.drain()
            if job.done and sent >= len(job.events):
                break
            await asyncio.sleep(_EVENT_POLL_S)
        writer.write(b"0\r\n\r\n")

    @staticmethod
    def _write_json(
        writer: asyncio.StreamWriter,
        status: int,
        payload: Any,
        extra_headers: Optional[dict[str, str]] = None,
    ) -> None:
        reasons = {200: "OK", 202: "Accepted", 400: "Bad Request", 404: "Not Found",
                   413: "Payload Too Large", 429: "Too Many Requests",
                   500: "Internal Server Error", 503: "Service Unavailable"}
        body = json.dumps(payload, sort_keys=True).encode("utf-8")
        head = [f"HTTP/1.1 {status} {reasons.get(status, 'Unknown')}"]
        head.append("Content-Type: application/json")
        head.append(f"Content-Length: {len(body)}")
        for name, value in (extra_headers or {}).items():
            head.append(f"{name}: {value}")
        head.append("Connection: close")
        writer.write(("\r\n".join(head) + "\r\n\r\n").encode("ascii") + body)

    # ------------------------------------------------------------ status

    def healthz(self) -> dict[str, Any]:
        uptime = 0.0 if self.started_at is None else time.monotonic() - self.started_at
        return {
            "status": "ok",
            "uptime_s": uptime,
            "jobs": len(self.jobs_by_id),
            "paused": self._paused,
        }

    def queue_stats(self) -> dict[str, Any]:
        """The ``GET /v1/queue`` document: depth, outcomes, cache health."""
        states = {"queued": 0, "running": 0, "completed": 0, "failed": 0}
        for job in self.jobs_by_id.values():
            states[job.state] = states.get(job.state, 0) + 1
        return {
            "queued": len(self.queue),
            "by_priority": self.queue.counts(),
            "states": states,
            "inflight": len(self.inflight),
            "paused": self._paused,
            "counters": dict(self.counts),
            "rate_limit": self.limiter.snapshot(),
            "cache": self.cache.stats if self.cache is not None else None,
            "executor": {"jobs": self.executor.jobs, "last_mode": self.executor.last_mode},
        }


class ServerThread:
    """Run a :class:`CodesignServer` event loop in a daemon thread.

    The synchronous harness for tests and in-process clients::

        with ServerThread(CodesignServer(cache=tmp)) as srv:
            client = ServiceClient(port=srv.bound_port)
            ...

    ``pause()`` / ``resume()`` / ``submit()`` proxy into the loop
    thread-safely.  ``stop()`` drains the queue before returning.
    """

    def __init__(self, server: CodesignServer) -> None:
        self.server = server
        self._thread: Optional[threading.Thread] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._stop_event: Optional[asyncio.Event] = None
        self._ready = threading.Event()
        self._error: Optional[BaseException] = None

    @property
    def bound_port(self) -> int:
        port = self.server.bound_port
        if port is None:
            raise RuntimeError("server is not started")
        return port

    def start(self) -> "ServerThread":
        self._thread = threading.Thread(
            target=self._run, name="codesign-service", daemon=True
        )
        self._thread.start()
        if not self._ready.wait(timeout=30):
            raise RuntimeError("service thread failed to start in time")
        if self._error is not None:
            raise RuntimeError(f"service failed to start: {self._error}")
        return self

    def _run(self) -> None:
        asyncio.run(self._main())

    async def _main(self) -> None:
        self._loop = asyncio.get_running_loop()
        self._stop_event = asyncio.Event()
        try:
            await self.server.start()
        except BaseException as exc:  # noqa: BLE001 - surfaced to start()
            self._error = exc
            self._ready.set()
            return
        self._ready.set()
        await self._stop_event.wait()
        await self.server.stop(drain=True)

    def _call(self, fn, *args: Any) -> Any:
        if self._loop is None:
            raise RuntimeError("server is not started")
        import concurrent.futures

        future: concurrent.futures.Future = concurrent.futures.Future()

        def runner() -> None:
            try:
                future.set_result(fn(*args))
            except BaseException as exc:  # noqa: BLE001 - crosses threads
                future.set_exception(exc)

        self._loop.call_soon_threadsafe(runner)
        return future.result(timeout=30)

    def pause(self) -> None:
        self._call(self.server.pause)

    def resume(self) -> None:
        self._call(self.server.resume)

    def stop(self) -> None:
        if self._loop is not None and self._stop_event is not None:
            self._loop.call_soon_threadsafe(self._stop_event.set)
        if self._thread is not None:
            self._thread.join(timeout=120)
            self._thread = None

    def __enter__(self) -> "ServerThread":
        return self.start()

    def __exit__(self, *exc: Any) -> None:
        self.stop()
