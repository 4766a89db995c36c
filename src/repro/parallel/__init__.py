"""Sweep execution subsystem: parallel fan-out and content-addressed caching.

Every figure/table reproduction, campaign, guided search and fault sweep
is a sweep over independent tasks, and all of them run through the same
three pieces:

* :func:`as_cache` -- the one coercion of a ``cache=`` argument (None
  consults ``REPRO_CACHE``, False or an off spelling disables, True is
  ``.repro_cache/``, a path is that directory, a :class:`ResultCache`
  is itself),
* :func:`cached_map` -- the one loop: look every task up, hand the
  misses to one ``compute`` call in task order, store what it returns,
* :func:`executor_for` -- the one ``jobs=`` spelling: a worker count,
  ``"auto"``, None (consults ``REPRO_PARALLEL``) or an existing
  :class:`SweepExecutor`, which is reused and left open; one built
  from a count is closed when the call returns.

Underneath, :mod:`repro.parallel.grid` holds the canonical hashing of
task payloads (the cache key machinery) and parameter grids,
:mod:`repro.parallel.cache` the content-addressed JSON result cache
keyed on (payload, source-hash salt), and
:mod:`repro.parallel.executor` the process-pool executor with
deterministic result ordering and a serial fallback.
"""

from .cache import ResultCache, as_cache, cache_from_env, cached_map, code_salt
from .executor import SweepExecutor, executor_for, resolve_jobs, sweep_telemetry
from .grid import ParamGrid, canonical, canonical_json, canonical_key

__all__ = [
    "ResultCache",
    "as_cache",
    "cache_from_env",
    "cached_map",
    "SweepExecutor",
    "executor_for",
    "resolve_jobs",
    "sweep_telemetry",
    "ParamGrid",
    "canonical",
    "canonical_json",
    "canonical_key",
    "code_salt",
]
