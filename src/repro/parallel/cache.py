"""Content-addressed result cache for sweep points.

Results are stored as JSON files under ``.repro_cache/`` (or the path in
the ``REPRO_CACHE`` environment variable), addressed by a sha256 of the
canonical form of the evaluation payload -- typically a dict of
(kind, machine-spec parameters, simulation config) -- salted with
:func:`code_salt`, a hash of the package's own source.  Any code change
therefore moves every key: an entry computed by different model code is
unreachable, never replayed.

Values must be JSON round-trippable.  Floats survive exactly (``json``
serialises via ``repr`` and parses back to the identical double), so
cached sweeps reproduce bit-identical experiment text and checks.
"""

from __future__ import annotations

import functools
import hashlib
import json
import os
import tempfile
from pathlib import Path
from typing import Any, Callable, Optional

from ..obs.metrics import REGISTRY
from ..obs.tracing import get_tracer
from .grid import canonical_json

__all__ = [
    "CODE_SALT", "ResultCache", "as_cache", "cache_from_env", "cached_map", "code_salt",
    "source_salt",
]


def source_salt(package: str | Path) -> str:
    """The sha256 of every ``*.py`` under ``package``: sorted relative
    paths and file bytes, each length-prefixed so no two trees collide."""
    root = Path(package)
    digest = hashlib.sha256()
    for path in sorted(root.rglob("*.py"), key=lambda p: p.relative_to(root).as_posix()):
        rel = path.relative_to(root).as_posix().encode("utf-8")
        data = path.read_bytes()
        digest.update(b"%d:%s%d:" % (len(rel), rel, len(data)))
        digest.update(data)
    return digest.hexdigest()


@functools.cache
def code_salt() -> str:
    """The salt mixed into every cache key (also ``CODE_SALT``): the
    :func:`source_salt` of the ``repro`` package, so a result computed by
    different code can never be replayed.  Computed on first use, so
    importing this module reads no files."""
    return source_salt(Path(__file__).resolve().parent.parent)


def __getattr__(name: str) -> Any:
    if name == "CODE_SALT":
        return code_salt()
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


#: Default cache directory, relative to the current working directory.
DEFAULT_CACHE_DIR = ".repro_cache"

#: Environment variable overriding the cache location ("off"/"0" disables).
CACHE_ENV_VAR = "REPRO_CACHE"

#: Spellings of "no cache" for ``--cache`` and :data:`CACHE_ENV_VAR`.
_OFF = ("", "off", "0", "none", "false")


class ResultCache:
    """A content-addressed JSON store for design-point results.

    Parameters
    ----------
    root:
        Directory holding the cache (created lazily on first write).
    salt:
        Version string mixed into every key; defaults to :func:`code_salt`.

    Entries live at ``<root>/<key[:2]>/<key>.json`` (fan-out over 256
    subdirectories keeps directory listings manageable for large sweeps).
    Writes are atomic (tmp file + rename), so concurrent workers racing
    on the same point at worst both compute it; neither sees a torn file.
    """

    def __init__(
        self, root: str | Path = DEFAULT_CACHE_DIR, salt: Optional[str] = None
    ) -> None:
        self.root = Path(root)
        self.salt = salt if salt is not None else code_salt()
        self.lookups = 0
        self.hits = 0
        self.misses = 0
        self.puts = 0
        self.evictions = 0
        # Mirror the counters into the process registry so cache health
        # shows up in every metrics export without plumbing the instance.
        self._m_hits = REGISTRY.counter("cache.hits", layer="result_cache")
        self._m_misses = REGISTRY.counter("cache.misses", layer="result_cache")
        self._m_puts = REGISTRY.counter("cache.puts", layer="result_cache")
        self._m_evictions = REGISTRY.counter("cache.evictions", layer="result_cache")

    # -- keys -----------------------------------------------------------

    def key_for(self, payload: Any) -> str:
        """The cache key for ``payload`` under this cache's salt."""
        text = f"{self.salt}\n{canonical_json(payload)}"
        return hashlib.sha256(text.encode("utf-8")).hexdigest()

    def _path(self, key: str) -> Path:
        return self.root / key[:2] / f"{key}.json"

    # -- store ----------------------------------------------------------

    def get(self, payload: Any) -> Optional[dict[str, Any]]:
        """The stored entry for ``payload``, or None.  Counts a lookup."""
        self.lookups += 1
        key = self.key_for(payload)
        path = self._path(key)
        try:
            with open(path, "r", encoding="utf-8") as fh:
                entry = json.load(fh)
        except (FileNotFoundError, json.JSONDecodeError):
            self.misses += 1
            self._m_misses.inc()
            return None
        self.hits += 1
        self._m_hits.inc()
        return entry

    def put(self, payload: Any, value: Any) -> None:
        """Store ``value`` for ``payload`` (atomically)."""
        key = self.key_for(payload)
        path = self._path(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        entry = {"salt": self.salt, "payload": canonical_json(payload), "value": value}
        fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=".tmp-", suffix=".json")
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as fh:
                json.dump(entry, fh)
            os.replace(tmp, path)
            self.puts += 1
            self._m_puts.inc()
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise

    # -- maintenance ----------------------------------------------------

    def clear(self) -> int:
        """Delete every entry; returns the number of files removed.

        Each removed file counts as an eviction in :attr:`stats`.
        """
        removed = 0
        if not self.root.is_dir():
            return 0
        for path in self.root.glob("*/*.json"):
            path.unlink()
            removed += 1
        self.evictions += removed
        self._m_evictions.inc(removed)
        return removed

    @property
    def stats(self) -> dict[str, int]:
        """Lookup/hit/miss/put/evict counters since construction."""
        return {
            "lookups": self.lookups,
            "hits": self.hits,
            "misses": self.misses,
            "puts": self.puts,
            "evictions": self.evictions,
        }

    @property
    def hit_rate(self) -> float:
        """Hits per lookup (0.0 before the first lookup)."""
        return self.hits / self.lookups if self.lookups else 0.0

    def footer(self) -> str:
        """One-line run summary for CLI output."""
        return (
            f"cache {self.root}: {self.lookups} lookups, {self.hits} hits "
            f"({100 * self.hit_rate:.0f}%), {self.misses} misses, "
            f"{self.puts} stored, {self.evictions} evicted"
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<ResultCache {self.root} salt={self.salt!r} {self.stats}>"


def cache_from_env() -> Optional[ResultCache]:
    """The cache ``REPRO_CACHE`` names, or None when it is unset or one
    of the off spellings (``off``, ``0``, ``none``, ``false``, empty)."""
    return as_cache(os.environ.get(CACHE_ENV_VAR, False))


def as_cache(value: Any) -> Optional[ResultCache]:
    """The one cache coercion for every ``cache=`` argument and ``--cache``
    flag: None defers to :func:`cache_from_env`, False (or an off
    spelling) disables, True is :data:`DEFAULT_CACHE_DIR`, a
    :class:`ResultCache` is itself, and any other str/path is the cache
    directory."""
    if value is None:
        return cache_from_env()
    if value is False or (isinstance(value, str) and value.strip().lower() in _OFF):
        return None
    if value is True:
        return ResultCache()
    return value if isinstance(value, ResultCache) else ResultCache(value)


def cached_map(
    tasks: list[Any],
    compute: Callable[[list[Any]], list[Any]],
    cache: Optional[ResultCache],
) -> list[Any]:
    """``compute(tasks)``, replaying every task ``cache`` already holds.

    The one cached fan-out of every sweep.  With no cache this is
    ``compute(tasks)``.  Otherwise each task is looked up once, the
    misses go to a single ``compute`` call in task order (so an executor
    sees them together), and each computed value is stored before the
    results come back in task order.  ``compute`` must return one JSON
    round-trippable value per task it is given.
    """
    if cache is None:
        return compute(tasks)
    values: list[Any] = [None] * len(tasks)
    misses: list[int] = []
    with get_tracer().span("cache.lookup_batch", category="cache", tasks=len(tasks)):
        for i, task in enumerate(tasks):
            entry = cache.get(task)
            if entry is None:
                misses.append(i)
            else:
                values[i] = entry["value"]
    if misses:
        got = compute([tasks[i] for i in misses])
        for i, value in zip(misses, got):
            cache.put(tasks[i], value)
            values[i] = value
    return values
