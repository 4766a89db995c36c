"""A thin synchronous HTTP client for the co-design service.

:class:`ServiceClient` wraps the ``/v1`` API with plain
:mod:`http.client` calls (stdlib only, like the server), so the CLI's
``client`` group -- and any test -- talks to the service exactly the
way an external curl user would.  It adds no semantics of its own
beyond :meth:`wait`, which long-polls ``GET /v1/jobs/{id}?wait=<s>``
until the job reaches a terminal state.
"""

from __future__ import annotations

import http.client
import json
import time
from typing import Any, Iterator, Optional

__all__ = ["ServiceClient", "ServiceError"]


class ServiceError(RuntimeError):
    """A non-2xx response from the service (carries the HTTP status)."""

    def __init__(self, status: int, message: str,
                 headers: Optional[dict[str, str]] = None) -> None:
        super().__init__(f"HTTP {status}: {message}")
        self.status = status
        self.headers = headers or {}

    @property
    def retry_after(self) -> Optional[float]:
        """The ``Retry-After`` delay of a 429, if the server sent one."""
        raw = self.headers.get("retry-after")
        try:
            return float(raw) if raw is not None else None
        except ValueError:  # pragma: no cover - server always sends numbers
            return None


class ServiceClient:
    """Synchronous client for one server (``host``, ``port``)."""

    def __init__(self, host: str = "127.0.0.1", port: int = 8080, *,
                 timeout: float = 300.0, client_id: str = "cli") -> None:
        self.host = host
        self.port = int(port)
        self.timeout = float(timeout)
        self.client_id = client_id

    # ------------------------------------------------------------ transport

    def _request(self, method: str, path: str,
                 payload: Optional[dict[str, Any]] = None, *,
                 wait_s: float = 0.0) -> Any:
        """One request; ``wait_s`` extends the socket timeout by the time
        the server may hold a long-poll."""
        conn = http.client.HTTPConnection(self.host, self.port,
                                          timeout=self.timeout + wait_s)
        try:
            body = json.dumps(payload).encode("utf-8") if payload is not None else None
            headers = {"X-Client": self.client_id}
            if body is not None:
                headers["Content-Type"] = "application/json"
            conn.request(method, path, body=body, headers=headers)
            resp = conn.getresponse()
            raw = resp.read()
            resp_headers = {k.lower(): v for k, v in resp.getheaders()}
            try:
                doc = json.loads(raw.decode("utf-8")) if raw else {}
            except (UnicodeDecodeError, json.JSONDecodeError):
                doc = {"error": raw.decode("utf-8", "replace")}
            if resp.status >= 400:
                raise ServiceError(resp.status,
                                   str(doc.get("error", "request failed")),
                                   headers=resp_headers)
            return doc
        finally:
            conn.close()

    # ------------------------------------------------------------ API

    def submit(self, kind: str, params: Optional[dict[str, Any]] = None, *,
               priority: str = "default") -> dict[str, Any]:
        """``POST /v1/jobs``; returns the job status document."""
        return self._request("POST", "/v1/jobs", {
            "kind": kind,
            "params": params or {},
            "priority": priority,
            "client": self.client_id,
        })

    def status(self, job_id: str) -> dict[str, Any]:
        """``GET /v1/jobs/{id}``."""
        return self._request("GET", f"/v1/jobs/{job_id}")

    def result(self, job_id: str) -> Any:
        """The result document of a completed job (raises otherwise)."""
        doc = self.status(job_id)
        if doc.get("state") == "failed":
            raise ServiceError(500, f"job {job_id} failed: {doc.get('error')}")
        if doc.get("state") != "completed":
            raise ServiceError(409, f"job {job_id} is {doc.get('state')!r}, "
                                    "not completed")
        return doc.get("result")

    def wait(self, job_id: str, *, timeout: float = 600.0) -> dict[str, Any]:
        """Block until the job completes or fails; returns its final status.

        Each request is a ``?wait=`` long-poll for the time left before
        ``timeout``; the server answers the moment the job finishes, or
        with the current status after at most 30 s, and then the next
        long-poll goes out.
        """
        deadline = time.monotonic() + timeout
        while True:
            wait_s = max(deadline - time.monotonic(), 0.0)
            doc = self._request("GET", f"/v1/jobs/{job_id}?wait={wait_s:.3f}",
                                wait_s=wait_s)
            if doc.get("state") in ("completed", "failed"):
                return doc
            if time.monotonic() >= deadline:
                raise TimeoutError(
                    f"job {job_id} still {doc.get('state')!r} after {timeout}s"
                )

    def events(self, job_id: str, *, timeout: float = 600.0) -> Iterator[dict[str, Any]]:
        """Stream the job's NDJSON progress events (terminates when done)."""
        conn = http.client.HTTPConnection(self.host, self.port, timeout=timeout)
        try:
            conn.request("GET", f"/v1/jobs/{job_id}/events",
                         headers={"X-Client": self.client_id})
            resp = conn.getresponse()
            if resp.status >= 400:
                raw = resp.read()
                try:
                    doc = json.loads(raw.decode("utf-8"))
                except (UnicodeDecodeError, json.JSONDecodeError):
                    doc = {"error": "request failed"}
                raise ServiceError(resp.status, str(doc.get("error")))
            # http.client undoes the chunked framing; readline() yields
            # one NDJSON record per line until the stream closes.
            while True:
                line = resp.readline()
                if not line:
                    break
                line = line.strip()
                if line:
                    yield json.loads(line.decode("utf-8"))
        finally:
            conn.close()

    def queue(self) -> dict[str, Any]:
        """``GET /v1/queue``."""
        return self._request("GET", "/v1/queue")

    def healthz(self) -> dict[str, Any]:
        """``GET /v1/healthz``."""
        return self._request("GET", "/v1/healthz")

    def pause(self) -> dict[str, Any]:
        """``POST /v1/queue/pause`` (admin: hold the worker loop)."""
        return self._request("POST", "/v1/queue/pause", {})

    def resume(self) -> dict[str, Any]:
        """``POST /v1/queue/resume``."""
        return self._request("POST", "/v1/queue/resume", {})
