"""Co-design-as-a-service: a job server over the reproduction's engines.

The service layer turns the batch CLI into a long-running server
(ROADMAP open item 1): requests are normalized into idempotent job
manifests (:mod:`~repro.service.jobs`), deduplicated against in-flight
work and the content-addressed result cache, queued by priority class
(:mod:`~repro.service.queue`), and executed by the one job-kind table
the CLI's job commands also run through (:mod:`~repro.service.runners`)
on one shared persistent worker pool.  :mod:`~repro.service.server` is the
stdlib-only asyncio HTTP server; :mod:`~repro.service.client` the thin
synchronous client the CLI ``client`` group uses.

See ``docs/service.md`` for the API reference and job lifecycle.
"""

from .client import ServiceClient, ServiceError
from .jobs import (
    JOB_KINDS,
    JOB_STATES,
    Job,
    JobError,
    job_key,
    normalize_request,
    result_payload,
)
from .queue import DEFAULT_PRIORITY, PRIORITIES, JobQueue, RateLimiter, TokenBucket
from .runners import RunnerContext, register_runner, run_manifest, unregister_runner
from .server import SERVICE_COUNTERS, CodesignServer, ServerThread

__all__ = [
    "CodesignServer",
    "DEFAULT_PRIORITY",
    "JOB_KINDS",
    "JOB_STATES",
    "Job",
    "JobError",
    "JobQueue",
    "PRIORITIES",
    "RateLimiter",
    "RunnerContext",
    "SERVICE_COUNTERS",
    "ServerThread",
    "ServiceClient",
    "ServiceError",
    "TokenBucket",
    "job_key",
    "normalize_request",
    "register_runner",
    "result_payload",
    "run_manifest",
    "unregister_runner",
]
