"""The job worker: one forked process that runs every service job.

A job's runner is CPU-bound Python.  Run in a thread of the server
process it would hold the GIL that the event loop needs to answer every
other request, so a cache hit would wait behind another client's
simulation.  :class:`JobWorker` runs the runners in one persistent child
process instead, and the loop only awaits the result.

The child is *forked*, not spawned: it inherits the imported modules,
the kind table (so kinds must be registered before the server starts)
and the server's :class:`~repro.service.runners.RunnerContext` -- its
:class:`~repro.parallel.executor.SweepExecutor` (sized by ``--jobs``,
its pool lives in the worker) and its result cache.  Only the manifest
crosses the pipe going in.  Coming back, a job brings what it changed
in the worker's copies of process-wide state, which
:meth:`JobWorker.run` folds into the server's:

* its result, or its error message;
* the executor telemetry of its last map, and the executor's mode;
* the increments of every :data:`~repro.obs.metrics.REGISTRY` counter;
* the :attr:`~repro.parallel.cache.ResultCache.stats` increments of its
  point-level cache lookups and stores.

A worker that dies mid-job (``os._exit``, a signal, the OOM killer)
breaks its pool: :meth:`JobWorker.run` raises ``BrokenProcessPool`` and
forks a fresh worker on its next call.  The worker resets SIGTERM and
SIGINT to their defaults (the inherited handlers would wake the
server's loop instead of stopping the worker), and it exits, killing
its own sweep pool first, as soon as the server process is gone: it
reads a pipe whose only write end the server holds.
"""

from __future__ import annotations

import asyncio
import multiprocessing
import multiprocessing.util
import os
import signal
import threading
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from typing import Any, Optional

from ..obs.metrics import REGISTRY
from .jobs import JobError
from .runners import RunnerContext, run_manifest

__all__ = ["JobWorker"]

#: The worker's context, set once in the worker by :func:`_init`.
_CTX: RunnerContext


def _init(ctx: RunnerContext, death_r: int, death_w: int) -> None:
    """Worker-side set-up, run once right after the fork."""
    global _CTX
    os.close(death_w)  # the server's end: EOF on death_r means it is gone
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    signal.signal(signal.SIGINT, signal.SIG_DFL)
    signal.set_wakeup_fd(-1)
    _CTX = ctx
    # A worker that exits cleanly joins its live children, so its sweep
    # pool must be shut down first, and before multiprocessing's own
    # exit finalizers (priority 10) close the pool's queue feeder.
    multiprocessing.util.Finalize(None, ctx.executor.close, exitpriority=100)
    threading.Thread(target=_exit_with_server, args=(death_r,), daemon=True,
                     name="job-worker-parent-watch").start()


def _exit_with_server(death_r: int) -> None:
    os.read(death_r, 1)  # blocks until the server's end closes
    for child in multiprocessing.active_children():
        child.kill()
    os._exit(1)


def _run(manifest: dict[str, Any], scope: str) -> dict[str, Any]:
    """Worker-side: run one manifest and report what it changed."""
    ctx = _CTX
    executor, cache = ctx.executor, ctx.cache
    counters = REGISTRY.counter_values()
    cache_stats = cache.stats if cache is not None else {}
    executor.scope = scope
    # A job that maps nothing (every point cached) gets no telemetry
    # rather than the previous job's.
    executor.last_telemetry = {}
    result = error = None
    bad_manifest = False
    try:
        result = run_manifest(manifest, ctx)
    except JobError as exc:
        error, bad_manifest = str(exc), True
    except Exception as exc:  # noqa: BLE001 - reported; the server retries
        error = str(exc)
    finally:
        executor.scope = None
    return {
        "result": result,
        "error": error,
        "bad_manifest": bad_manifest,
        "telemetry": dict(executor.last_telemetry),
        "last_mode": executor.last_mode,
        "counters": REGISTRY.counter_deltas(counters),
        "cache": {k: v - cache_stats[k] for k, v in cache.stats.items()}
        if cache is not None else {},
    }


class JobWorker:
    """The server's handle on its one forked job-worker process.

    ``ctx`` is the server's runner context; the worker runs every job on
    its forked copy, and :meth:`run` folds each job's changes back into
    ``ctx.executor``, ``ctx.cache`` and the registry.
    """

    def __init__(self, ctx: RunnerContext) -> None:
        self.ctx = ctx
        #: The live worker's pid, None before :meth:`start` and after a
        #: crash until the next fork.
        self.pid: Optional[int] = None
        self._pool: Optional[ProcessPoolExecutor] = None
        self._death_w: Optional[int] = None

    async def start(self) -> None:
        """Fork the worker and wait until it has answered once."""
        death_r, self._death_w = os.pipe()
        self._pool = ProcessPoolExecutor(
            1,
            mp_context=multiprocessing.get_context("fork"),
            initializer=_init,
            initargs=(self.ctx, death_r, self._death_w),
        )
        try:
            answer = self._pool.submit(os.getpid)  # forks the worker
        finally:
            os.close(death_r)
        self.pid = await asyncio.wrap_future(answer)

    async def run(self, manifest: dict[str, Any], scope: str) -> tuple[Any, dict, Any]:
        """Run ``manifest`` in the worker: ``(result, telemetry, error)``.

        ``error`` is None on success, a :class:`JobError` for a bad
        manifest, or a ``RuntimeError`` carrying the runner's message.
        ``BrokenProcessPool`` is raised when the worker died; the next
        call forks a fresh one.
        """
        try:
            if self._pool is None:
                await self.start()
            done = await asyncio.wrap_future(self._pool.submit(_run, manifest, scope))
        except BrokenProcessPool:
            self._discard()
            raise
        REGISTRY.add_counters(done["counters"])
        if self.ctx.cache is not None:
            self.ctx.cache.add_stats(done["cache"])
        self.ctx.executor.last_mode = done["last_mode"]
        error = done["error"]
        if error is not None:
            error = JobError(error) if done["bad_manifest"] else RuntimeError(error)
        return done["result"], done["telemetry"], error

    def _discard(self) -> None:
        """Shut the pool down, its threads joined (so the next fork copies
        none of them), and close the server's end of the death pipe."""
        pool, self._pool = self._pool, None
        self.pid = None
        if pool is not None:
            pool.shutdown(wait=True)
        if self._death_w is not None:
            os.close(self._death_w)
            self._death_w = None

    def close(self) -> None:
        """Stop the worker: it closes its sweep pool, then exits."""
        self._discard()
