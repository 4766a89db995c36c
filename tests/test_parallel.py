"""Tests for the parallel sweep subsystem: grid canonicalisation, the
content-addressed result cache, the process-pool executor, and the
experiment-level wiring (serial == parallel == warm-cache)."""

from __future__ import annotations

import json
import os

import numpy as np
import pytest

from repro.analysis.series import sweep
from repro.parallel import (
    ParamGrid,
    ResultCache,
    SweepExecutor,
    cache_from_env,
    canonical,
    canonical_json,
    canonical_key,
    resolve_cache,
    resolve_jobs,
)
from repro.parallel.executor import PARALLEL_ENV_VAR
from repro.parallel.cache import CACHE_ENV_VAR, CODE_SALT, source_salt


def _square(x):
    """Module-level so it pickles into worker processes."""
    return x * x


# -----------------------------------------------------------------------
# canonical form / keys
# -----------------------------------------------------------------------


def test_canonical_sorts_mapping_keys():
    assert canonical_json({"b": 1, "a": 2}) == canonical_json({"a": 2, "b": 1})


def test_canonical_handles_numpy_scalars_and_sequences():
    assert canonical(np.float64(1.5)) == 1.5
    assert canonical((1, 2, (3,))) == [1, 2, [3]]


def test_canonical_dataclass_embeds_qualified_name():
    from repro.machine import cray_xd1

    spec = cray_xd1()
    form = canonical(spec)
    assert "__dataclass__" in form
    assert form["__dataclass__"].endswith(spec.__class__.__qualname__)


def test_canonical_rejects_unserialisable_values():
    with pytest.raises(TypeError):
        canonical(object())


def test_canonical_key_is_stable_and_order_insensitive():
    k1 = canonical_key({"kind": "lu", "n": 30000, "b": 3000})
    k2 = canonical_key({"b": 3000, "n": 30000, "kind": "lu"})
    assert k1 == k2
    assert len(k1) == 64  # sha256 hex


def test_canonical_rejects_non_finite_floats():
    for bad in (float("nan"), float("inf"), float("-inf")):
        with pytest.raises(TypeError, match="non-finite float"):
            canonical(bad)
        with pytest.raises(TypeError, match="non-finite float"):
            canonical({"x": bad})
        with pytest.raises(TypeError, match="non-finite float"):
            canonical_json([1.0, bad])
        with pytest.raises(TypeError, match="non-finite float"):
            canonical(np.float64(bad))


def test_param_grid_orders_rightmost_fastest():
    grid = ParamGrid(a=[1, 2], b=[10, 20])
    assert len(grid) == 4
    assert list(grid) == [
        {"a": 1, "b": 10},
        {"a": 1, "b": 20},
        {"a": 2, "b": 10},
        {"a": 2, "b": 20},
    ]


def test_param_grid_dedups_repeated_axis_values():
    # Repeats would silently re-run (or re-hit) the same cache entry.
    grid = ParamGrid(l=[2, 2, 3], b=[100])
    assert len(grid) == 2
    assert list(grid) == [{"l": 2, "b": 100}, {"l": 3, "b": 100}]
    # First occurrence wins, original order otherwise preserved.
    assert ParamGrid(x=[3, 1, 3, 2, 1]).axes["x"] == (3, 1, 2)
    # int 2 and float 2.0 address different cache entries: both kept.
    assert ParamGrid(x=[2, 2.0]).axes["x"] == (2, 2.0)


# -----------------------------------------------------------------------
# result cache
# -----------------------------------------------------------------------


def test_cache_miss_then_hit(tmp_path):
    cache = ResultCache(tmp_path / "cache")
    payload = {"kind": "unit", "x": 3}
    assert cache.get(payload) is None
    cache.put(payload, {"y": 9.5})
    entry = cache.get(payload)
    assert entry is not None and entry["value"] == {"y": 9.5}
    assert cache.stats == {"lookups": 2, "hits": 1, "misses": 1, "puts": 1, "evictions": 0}


def test_cache_salt_invalidation(tmp_path):
    root = tmp_path / "cache"
    old = ResultCache(root, salt="v1")
    old.put({"x": 1}, 42)
    assert ResultCache(root, salt="v1").get({"x": 1})["value"] == 42
    # A bumped salt must never replay entries written under the old one.
    assert ResultCache(root, salt="v2").get({"x": 1}) is None


def test_cached_eval_computes_once(tmp_path):
    cache = ResultCache(tmp_path / "cache")
    calls = []

    def compute():
        calls.append(1)
        return 7.25

    assert cache.cached_eval({"p": 1}, compute) == 7.25
    assert cache.cached_eval({"p": 1}, compute) == 7.25
    assert len(calls) == 1


def test_cache_round_trips_floats_exactly(tmp_path):
    cache = ResultCache(tmp_path / "cache")
    value = {"elapsed": 0.1 + 0.2, "gflops": 1.0 / 3.0}
    cache.put({"p": "floats"}, value)
    assert cache.get({"p": "floats"})["value"] == value


def test_cache_tolerates_corrupt_entries(tmp_path):
    cache = ResultCache(tmp_path / "cache")
    cache.put({"p": 1}, 1)
    path = cache._path(cache.key_for({"p": 1}))
    path.write_text("{not json", encoding="utf-8")
    assert cache.get({"p": 1}) is None


def test_cache_clear_removes_entries(tmp_path):
    cache = ResultCache(tmp_path / "cache")
    cache.put({"p": 1}, 1)
    cache.put({"p": 2}, 2)
    assert cache.clear() == 2
    assert cache.get({"p": 1}) is None


def test_cache_from_env(tmp_path, monkeypatch):
    monkeypatch.delenv(CACHE_ENV_VAR, raising=False)
    assert cache_from_env() is None
    monkeypatch.setenv(CACHE_ENV_VAR, "off")
    assert cache_from_env() is None
    monkeypatch.setenv(CACHE_ENV_VAR, str(tmp_path / "c"))
    cache = cache_from_env()
    assert cache is not None and cache.salt == CODE_SALT


def test_resolve_cache_shares_the_off_spellings(tmp_path, monkeypatch):
    monkeypatch.setenv(CACHE_ENV_VAR, str(tmp_path / "env"))
    for off in ("", "off", "OFF", "0", "none", "false", " off "):
        assert resolve_cache(off) is None
        monkeypatch.setenv(CACHE_ENV_VAR, off)
        assert cache_from_env() is None
    monkeypatch.setenv(CACHE_ENV_VAR, str(tmp_path / "env"))
    assert resolve_cache(None).root == tmp_path / "env"  # unset defers to env
    assert resolve_cache(str(tmp_path / "dir")).root == tmp_path / "dir"


def test_code_salt_is_the_package_source_hash(tmp_path):
    """The salt is the same in a fresh interpreter, equals the hash of
    the package source, and moves when one byte of that source does."""
    import shutil
    import subprocess
    import sys

    import repro

    package = os.path.dirname(repro.__file__)
    out = subprocess.run(
        [sys.executable, "-c", "from repro.parallel.cache import CODE_SALT; print(CODE_SALT)"],
        capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": os.path.dirname(package)},
    )
    assert out.stdout.strip() == CODE_SALT
    assert source_salt(package) == CODE_SALT
    copy = tmp_path / "repro"
    shutil.copytree(package, copy, ignore=shutil.ignore_patterns("__pycache__"))
    assert source_salt(copy) == CODE_SALT
    target = copy / "sim" / "core.py"
    data = bytearray(target.read_bytes())
    data[-1] ^= 1
    target.write_bytes(bytes(data))
    assert source_salt(copy) != CODE_SALT


# -----------------------------------------------------------------------
# executor
# -----------------------------------------------------------------------


def test_resolve_jobs(monkeypatch):
    monkeypatch.delenv(PARALLEL_ENV_VAR, raising=False)
    assert resolve_jobs() == 1
    assert resolve_jobs(4) == 4
    assert resolve_jobs("0") == 1
    assert resolve_jobs("auto") >= 1
    monkeypatch.setenv(PARALLEL_ENV_VAR, "3")
    assert resolve_jobs() == 3
    with pytest.raises(ValueError):
        resolve_jobs("many")
    with pytest.raises(ValueError):
        resolve_jobs(-2)


def test_executor_serial_matches_parallel():
    values = list(range(24))
    expected = [_square(v) for v in values]
    serial = SweepExecutor(jobs=1)
    assert serial.map(_square, values) == expected
    assert serial.last_mode == "serial"
    parallel = SweepExecutor(jobs=2)
    assert parallel.map(_square, values) == expected
    assert parallel.last_mode == "parallel"


def test_executor_falls_back_for_unpicklable_fn():
    ex = SweepExecutor(jobs=2)
    assert ex.map(lambda v: v + 1, list(range(16))) == list(range(1, 17))
    assert ex.last_mode == "serial"


def test_executor_small_grid_stays_serial():
    ex = SweepExecutor(jobs=8)
    assert ex.map(_square, [3]) == [9]
    assert ex.last_mode == "serial"


def test_executor_reuses_pool_across_maps():
    values = list(range(24))
    ex = SweepExecutor(jobs=2)
    try:
        assert ex.map(_square, values) == [_square(v) for v in values]
        pool = ex._pool
        assert pool is not None
        assert ex.map(_square, values) == [_square(v) for v in values]
        assert ex._pool is pool  # same workers, no per-map pool startup
    finally:
        ex.close()
    assert ex._pool is None


def test_executor_close_is_idempotent_and_reopens():
    ex = SweepExecutor(jobs=2)
    ex.close()  # nothing started yet
    assert ex.map(_square, list(range(24))) == [_square(v) for v in range(24)]
    ex.close()
    ex.close()
    # A closed executor transparently restarts its pool when mapped again.
    assert ex.map(_square, list(range(24))) == [_square(v) for v in range(24)]
    ex.close()


def test_executor_context_manager_closes():
    with SweepExecutor(jobs=2) as ex:
        assert ex.map(_square, list(range(24))) == [_square(v) for v in range(24)]
        assert ex._pool is not None
    assert ex._pool is None


def test_run_chunk_round_trips_protocol5():
    import pickle

    from repro.parallel.executor import _run_chunk

    blob = _run_chunk(_square, [2, 3, 4])
    assert isinstance(blob, bytes)
    assert blob[1] == 5  # pickle protocol-5 frame
    payload = pickle.loads(blob)
    assert payload["results"] == [4, 9, 16]
    assert payload["pid"] == os.getpid()
    assert payload["start"] <= payload["end"]


def test_parallel_results_bitwise_equal_serial_floats():
    # Irrational-ish floats must survive the chunked protocol-5 transport
    # bit-for-bit.
    values = [v / 7.0 for v in range(24)]
    serial = SweepExecutor(jobs=1).map(_square, values)
    with SweepExecutor(jobs=2) as ex:
        assert ex.map(_square, values) == serial


def test_sweep_with_executor_is_identical():
    values = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0]
    plain = sweep("curve", values, _square)
    fanned = sweep("curve", values, _square, executor=SweepExecutor(jobs=2))
    assert plain.xs == fanned.xs and plain.ys == fanned.ys


# -----------------------------------------------------------------------
# experiment-level wiring
# -----------------------------------------------------------------------


def test_experiments_serial_parallel_and_cache_agree(tmp_path):
    from repro import experiments as E

    picks = ["fig5", "ablation-partition"]
    root = tmp_path / "cache"

    def run(**kw):
        with E.configured(**kw) as (_, cache):
            results = [E.ALL_EXPERIMENTS[name]() for name in picks]
        return results, cache

    base, _ = run()
    fanned, _ = run(jobs=2, cache=root)
    before = E.SIM_CALLS
    warm, cache = run(cache=root)
    for a, b, c in zip(base, fanned, warm):
        assert a.text == b.text == c.text
        assert a.checks == b.checks == c.checks
    # The warm run must replay >= 90% of sim calls from the cache.
    assert cache.hits / cache.lookups >= 0.9
    assert E.SIM_CALLS == before  # and in fact re-simulated nothing


def test_cache_counts_hits_misses_puts_evictions(tmp_path):
    cache = ResultCache(tmp_path / "c")
    assert cache.get({"x": 1}) is None  # miss
    cache.put({"x": 1}, 41)
    assert cache.get({"x": 1})["value"] == 41  # hit
    assert cache.get({"x": 2}) is None  # miss
    removed = cache.clear()
    assert removed == 1
    assert cache.stats == {
        "lookups": 3,
        "hits": 1,
        "misses": 2,
        "puts": 1,
        "evictions": 1,
    }
    assert cache.hit_rate == pytest.approx(1 / 3)


def test_cache_hit_rate_before_first_lookup():
    assert ResultCache("unused").hit_rate == 0.0


def test_cache_footer_format(tmp_path):
    cache = ResultCache(tmp_path / "c")
    cache.get({"x": 1})
    cache.put({"x": 1}, 1)
    cache.get({"x": 1})
    footer = cache.footer()
    assert str(cache.root) in footer
    assert "2 lookups" in footer
    assert "1 hits (50%)" in footer
    assert "1 misses" in footer
    assert "1 stored" in footer
    assert "0 evicted" in footer


def test_cache_mirrors_counters_into_registry(tmp_path):
    from repro.obs import REGISTRY

    def count(name):
        try:
            return REGISTRY.value(name, layer="result_cache")
        except KeyError:
            return 0.0

    hits0, misses0 = count("cache.hits"), count("cache.misses")
    cache = ResultCache(tmp_path / "c")
    cache.get({"y": 1})
    cache.put({"y": 1}, 2)
    cache.get({"y": 1})
    assert count("cache.hits") == hits0 + 1
    assert count("cache.misses") == misses0 + 1


def test_serial_map_records_telemetry():
    ex = SweepExecutor(jobs=1)
    ex.map(_square, [1.0, 2.0, 3.0])
    t = ex.last_telemetry
    assert t["mode"] == "serial"
    assert t["workers"] == 1
    assert t["tasks"] == 3
    assert t["elapsed_s"] >= 0


def test_parallel_map_records_worker_telemetry():
    with SweepExecutor(jobs=2) as ex:
        ex.map(_square, [v / 3.0 for v in range(24)])
        t = ex.last_telemetry
    assert t["mode"] == "parallel"
    assert t["workers"] == 2
    assert t["tasks"] == 24
    assert t["chunks"] >= 2
    assert sum(w["tasks"] for w in t["per_worker"]) == 24
    assert sum(w["chunks"] for w in t["per_worker"]) == t["chunks"]
    for w in t["per_worker"]:
        assert w["busy_s"] >= 0
    assert t["queue_wait_s"]["max"] >= t["queue_wait_s"]["mean"] >= 0
    assert t["imbalance"] >= 1.0
    assert all(isinstance(i, int) for i in t["stragglers"])


def test_fold_telemetry_flags_stragglers_and_imbalance():
    ex = SweepExecutor(jobs=1)
    spans = [
        {"pid": 10, "start": 0.0, "end": 1.0, "queue_wait": 0.1, "tasks": 4},
        {"pid": 11, "start": 0.0, "end": 1.0, "queue_wait": 0.0, "tasks": 4},
        {"pid": 12, "start": 0.0, "end": 5.0, "queue_wait": 0.3, "tasks": 4},
    ]
    t = ex._fold_telemetry(3, 12, spans, elapsed=5.0)
    assert t["stragglers"] == [2]  # pid 12, 5x the median busy time
    assert t["imbalance"] == pytest.approx(5.0 / (7.0 / 3.0))
    assert t["queue_wait_s"]["max"] == pytest.approx(0.3)
    assert t["queue_wait_s"]["mean"] == pytest.approx(0.4 / 3)
