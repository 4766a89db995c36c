"""Sweep execution subsystem: parallel fan-out and content-addressed caching.

Every figure/table reproduction is a sweep over independent design points;
this package makes those sweeps fast and incremental:

* :mod:`repro.parallel.grid` -- canonical hashing of design-point
  parameters (the cache key machinery) and cartesian parameter grids,
* :mod:`repro.parallel.cache` -- a content-addressed JSON result cache
  under ``.repro_cache/`` keyed on (params, machine, source-hash salt),
* :mod:`repro.parallel.executor` -- a process-pool fan-out executor with
  deterministic result ordering and a serial fallback.

Opt-in knobs: the ``REPRO_PARALLEL`` environment variable or ``--jobs``
CLI flag select worker count; ``REPRO_CACHE`` points the cache somewhere
other than ``.repro_cache/`` (or disables it with ``off``).
"""

from .cache import ResultCache, cache_from_env, code_salt, resolve_cache
from .executor import SweepExecutor, resolve_jobs
from .grid import ParamGrid, canonical, canonical_json, canonical_key

__all__ = [
    "ResultCache",
    "cache_from_env",
    "resolve_cache",
    "SweepExecutor",
    "resolve_jobs",
    "ParamGrid",
    "canonical",
    "canonical_json",
    "canonical_key",
    "code_salt",
]

