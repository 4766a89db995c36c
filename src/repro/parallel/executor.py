"""Process-pool fan-out for sweep grids.

:class:`SweepExecutor` maps a point function over a grid of values,
sharding across worker processes when that pays and falling back to a
plain serial loop when it does not (one job, a tiny grid, or a point
function that cannot cross a process boundary).  Results always come
back in input order, so sweeps are bitwise-deterministic regardless of
worker count.

Transport: tasks are submitted as contiguous chunks (one future per
chunk, a few chunks per worker for load balancing) and each worker
serialises its chunk's results with pickle protocol 5 before they cross
the process boundary, so a sweep pays one round-trip per chunk instead
of one per point.

Worker count resolution (first match wins):

1. the ``jobs`` argument,
2. the ``REPRO_PARALLEL`` environment variable (``auto`` = CPU count),
3. serial (1).
"""

from __future__ import annotations

import os
import pickle
import time
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager
from typing import Any, Callable, Iterable, Iterator, Optional, Sequence, TypeVar

from ..obs.metrics import REGISTRY
from ..obs.tracing import get_tracer

__all__ = ["SweepExecutor", "executor_for", "resolve_jobs", "sweep_telemetry"]

T = TypeVar("T")
R = TypeVar("R")

#: Environment variable selecting the default worker count.
PARALLEL_ENV_VAR = "REPRO_PARALLEL"

#: Grids smaller than ``jobs * MIN_POINTS_PER_JOB`` run serially: pool
#: startup (fork + import) costs more than a handful of model solves.
MIN_POINTS_PER_JOB = 2

#: Chunks submitted per worker: enough for load balancing, few enough
#: that per-chunk submission and transport overhead stays negligible.
CHUNKS_PER_WORKER = 4

#: A worker whose busy time exceeds the median by this factor is a
#: straggler (reported in :attr:`SweepExecutor.last_telemetry` and the
#: dashboard's worker panel).
STRAGGLER_FACTOR = 1.5

#: Counters whose worker-side increments are added back into the
#: parent's registry after a parallel map, so a counter delta taken
#: around :meth:`SweepExecutor.map` reads the same serial or parallel
#: (e.g. the campaign's analytic-vs-DES replicate split).
SHIPPED_COUNTERS = ("fastpath.points", "fastpath.fallback", "fastpath.deferral")


def resolve_jobs(jobs: Optional[int | str] = None) -> int:
    """The effective worker count for ``jobs`` (see module docstring)."""
    raw: Any = jobs if jobs is not None else os.environ.get(PARALLEL_ENV_VAR)
    if raw is None:
        return 1
    if isinstance(raw, str):
        raw = raw.strip().lower()
        if raw in ("", "0"):
            return 1
        if raw == "auto":
            return os.cpu_count() or 1
        try:
            raw = int(raw)
        except ValueError:
            raise ValueError(f"invalid jobs value {raw!r}: expected an integer or 'auto'")
    if raw < 0:
        raise ValueError(f"jobs must be >= 0, got {raw}")
    return max(1, int(raw))


def _is_picklable(fn: Callable[..., Any]) -> bool:
    try:
        pickle.dumps(fn)
    except Exception:
        return False
    return True


def _run_chunk(fn: Callable[[Any], Any], chunk: list[Any]) -> bytes:
    """Worker-side chunk evaluation; results travel as one protocol-5 blob.

    Serialising in the worker keeps the result transport a single opaque
    ``bytes`` per chunk (protocol 5 supports out-of-band buffers for
    large payloads), instead of one executor round-trip per point.

    Alongside the results the blob carries a per-chunk worker span --
    pid plus wall-clock start/end (``time.time``, comparable across
    processes on one host) -- which the parent folds into per-worker
    telemetry: queue waits, busy time, imbalance, stragglers.  It also
    carries the chunk's increments of the :data:`SHIPPED_COUNTERS`.
    """
    before = REGISTRY.counter_values(SHIPPED_COUNTERS)
    start = time.time()
    results = [fn(v) for v in chunk]
    end = time.time()
    counters = REGISTRY.counter_deltas(before, SHIPPED_COUNTERS)
    return pickle.dumps(
        {"results": results, "pid": os.getpid(), "start": start, "end": end,
         "counters": counters},
        protocol=5,
    )


class SweepExecutor:
    """Maps point functions over sweep grids, optionally in parallel.

    Parameters
    ----------
    jobs:
        Worker count, ``"auto"``, or None to consult ``REPRO_PARALLEL``.

    The worker pool is created lazily on the first parallel :meth:`map`
    and reused across calls, so repeated sweeps (a whole ``configured()``
    block) pay pool startup once.  Call :meth:`close` (or build the
    executor through :func:`executor_for`, which does) to release the
    workers; a closed executor transparently re-opens the pool if mapped
    again.
    """

    def __init__(self, jobs: Optional[int | str] = None) -> None:
        self.jobs = resolve_jobs(jobs)
        #: How the last map() call ran ("serial" | "parallel"); for tests
        #: and benchmark reporting.
        self.last_mode: str = "serial"
        #: Executor telemetry of the last map() call: mode, task/chunk
        #: counts, per-worker spans (pid, chunks, tasks, busy seconds),
        #: queue-wait stats, busy-time imbalance and straggler worker
        #: indices.  Wall-clock data -- feed it to dashboards and the
        #: ledger's ``workers`` block, never into deterministic
        #: manifests.  Empty until the first map().
        self.last_telemetry: dict[str, Any] = {}
        #: Optional owner tag (e.g. a service job id).  When set, every
        #: map() stamps it into :attr:`last_telemetry` as ``scope`` so a
        #: shared long-lived executor can attribute pool health to the
        #: job that produced it.
        self.scope: Optional[str] = None
        self._pool: Optional[ProcessPoolExecutor] = None

    def close(self) -> None:
        """Shut down the persistent worker pool, if one was started."""
        pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=True)

    def __enter__(self) -> "SweepExecutor":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()

    def __del__(self) -> None:  # pragma: no cover - GC safety net
        try:
            self.close()
        except Exception:
            pass

    def _ensure_pool(self) -> ProcessPoolExecutor:
        if self._pool is None:
            self._pool = ProcessPoolExecutor(max_workers=self.jobs)
        return self._pool

    def map(self, fn: Callable[[T], R], values: Iterable[T]) -> list[R]:
        """``[fn(v) for v in values]``, sharded across workers when useful.

        Results are returned in input order.  Falls back to the serial
        loop when ``jobs <= 1``, when the grid is too small to amortise
        pool startup, or when ``fn`` is not picklable (lambdas/closures).
        """
        items: Sequence[T] = values if isinstance(values, Sequence) else list(values)
        n = len(items)
        tracer = get_tracer()
        if (
            self.jobs <= 1
            or n < self.jobs * MIN_POINTS_PER_JOB
            or n <= 1
            or not _is_picklable(fn)
        ):
            self.last_mode = "serial"
            # Per-task latency is only observable serially; in the pool
            # path tasks run in worker interpreters and we record the
            # batch instead.  Task granularity is a whole simulation, so
            # the two clock reads per task are noise.
            task_hist = REGISTRY.histogram("sweep.task_seconds", mode="serial")
            results = []
            map_start = time.perf_counter()
            with tracer.span("sweep.map", category="sweep", mode="serial", tasks=n):
                for v in items:
                    t0 = time.perf_counter()
                    results.append(fn(v))
                    task_hist.observe(time.perf_counter() - t0)
            REGISTRY.counter("sweep.tasks", mode="serial").inc(n)
            REGISTRY.counter("sweep.maps", mode="serial").inc()
            self.last_telemetry = {
                "mode": "serial",
                "workers": 1,
                "tasks": n,
                "chunks": 0,
                "elapsed_s": time.perf_counter() - map_start,
            }
            if self.scope is not None:
                self.last_telemetry["scope"] = self.scope
            return results
        self.last_mode = "parallel"
        workers = min(self.jobs, n)
        # Chunk so each worker gets a few batches (load balancing) without
        # per-point IPC overhead; one future per chunk, results as a
        # single protocol-5 blob each.
        chunksize = max(1, -(-n // (workers * CHUNKS_PER_WORKER)))
        chunks = [list(items[i : i + chunksize]) for i in range(0, n, chunksize)]
        t0 = time.perf_counter()
        with tracer.span("sweep.map", category="sweep", mode="parallel", tasks=n,
                         workers=workers, chunksize=chunksize):
            pool = self._ensure_pool()
            futures = []
            for chunk in chunks:
                futures.append((pool.submit(_run_chunk, fn, chunk), time.time(), len(chunk)))
            results = []
            spans = []
            for fut, submitted, size in futures:
                payload = pickle.loads(fut.result())
                results.extend(payload["results"])
                REGISTRY.add_counters(payload["counters"])
                spans.append(
                    {
                        "pid": payload["pid"],
                        "start": payload["start"],
                        "end": payload["end"],
                        "queue_wait": max(0.0, payload["start"] - submitted),
                        "tasks": size,
                    }
                )
        elapsed = time.perf_counter() - t0
        self.last_telemetry = self._fold_telemetry(workers, n, spans, elapsed)
        if self.scope is not None:
            self.last_telemetry["scope"] = self.scope
        REGISTRY.counter("sweep.tasks", mode="parallel").inc(n)
        REGISTRY.counter("sweep.maps", mode="parallel").inc()
        REGISTRY.gauge("sweep.workers").max(workers)
        if elapsed > 0:
            # Throughput-derived mean task latency: the per-worker wall
            # share, our utilisation proxy for the pool path.
            REGISTRY.histogram("sweep.task_seconds", mode="parallel").observe(
                elapsed * workers / n
            )
            REGISTRY.gauge("sweep.last_points_per_s").set(n / elapsed)
        return results

    def _fold_telemetry(
        self,
        workers: int,
        tasks: int,
        spans: list[dict[str, Any]],
        elapsed: float,
    ) -> dict[str, Any]:
        """Per-chunk worker spans folded into the pool-health summary.

        Workers are indexed by first-seen pid order (stable for one
        pool); ``imbalance`` is max/mean busy time (1.0 = perfectly
        balanced) and ``stragglers`` lists worker indices whose busy
        time exceeds :data:`STRAGGLER_FACTOR` x the median -- the "this
        wasn't the model, worker 3 stalled" signal for explanations
        whose paired sim re-runs agree.
        """
        per_pid: dict[int, dict[str, Any]] = {}
        wait_hist = REGISTRY.histogram("sweep.queue_wait_seconds")
        for span in spans:
            stats = per_pid.setdefault(
                span["pid"], {"chunks": 0, "tasks": 0, "busy_s": 0.0}
            )
            stats["chunks"] += 1
            stats["tasks"] += span["tasks"]
            stats["busy_s"] += span["end"] - span["start"]
            wait_hist.observe(span["queue_wait"])
        per_worker = [
            {"worker": i, "pid": pid, **per_pid[pid]}
            for i, pid in enumerate(per_pid)
        ]
        busy = sorted(w["busy_s"] for w in per_worker)
        mean_busy = sum(busy) / len(busy) if busy else 0.0
        median_busy = busy[len(busy) // 2] if busy else 0.0
        imbalance = busy[-1] / mean_busy if busy and mean_busy > 0 else 1.0
        stragglers = [
            w["worker"]
            for w in per_worker
            if median_busy > 0 and w["busy_s"] > STRAGGLER_FACTOR * median_busy
        ]
        waits = [s["queue_wait"] for s in spans]
        REGISTRY.gauge("sweep.imbalance").set(imbalance)
        if stragglers:
            REGISTRY.counter("sweep.stragglers").inc(len(stragglers))
        return {
            "mode": "parallel",
            "workers": workers,
            "tasks": tasks,
            "chunks": len(spans),
            "elapsed_s": elapsed,
            "per_worker": per_worker,
            "queue_wait_s": {
                "max": max(waits) if waits else 0.0,
                "mean": sum(waits) / len(waits) if waits else 0.0,
            },
            "imbalance": imbalance,
            "stragglers": stragglers,
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<SweepExecutor jobs={self.jobs}>"


@contextmanager
def executor_for(jobs: Any = None) -> Iterator[SweepExecutor]:
    """The executor a sweep call maps on, from its ``jobs=`` argument.

    An existing :class:`SweepExecutor` (the service's persistent pool) is
    reused and left open; a worker count, ``"auto"`` or None builds one
    that is closed when the block exits.
    """
    if isinstance(jobs, SweepExecutor):
        yield jobs
        return
    with SweepExecutor(jobs) as executor:
        yield executor


def sweep_telemetry(executor: SweepExecutor, cache: Any) -> dict[str, Any]:
    """The run-health block a sweep reports beside its manifest: the
    executor's last-map telemetry and, with a cache, its hit statistics.
    Wall-clock data -- never part of a deterministic manifest."""
    block: dict[str, Any] = {"executor": dict(executor.last_telemetry)}
    if cache is not None:
        block["cache"] = dict(cache.stats)
        block["cache_hit_rate"] = cache.hit_rate
    return block
