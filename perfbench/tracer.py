"""Benchmark-owned span tracing around the public calls of each layer.

:func:`install` patches wrappers onto the system's public entry points
(methods on their classes, module functions in every ``repro``
namespace that bound them by name, and the experiment registry), so
nothing under ``src/`` changes.  Each wrapper records one span -- name,
layer, start, end, parent, request id, count -- into a per-thread
buffer kept in memory; :func:`dump` hands every buffer out at the end
of the run.  :func:`self_times` turns spans into per-span self time
(duration minus the time its direct children cover).
"""

from __future__ import annotations

import functools
import importlib
import sys
import threading
from time import perf_counter
from typing import Any, Callable, Optional

# Span record layout (lists, so the wrapper can fill in the end time).
NAME, LAYER, T0, T1, PARENT, RID, COUNT = range(7)

#: Layers in report order; ``harness`` is time no layer span covers.
LAYERS = (
    "experiments", "analytic", "des", "apps", "campaign", "tune",
    "executor", "cache", "ledger", "service", "harness",
)


class _Buffer(threading.local):
    def __init__(self) -> None:
        self.spans: list[list[Any]] = []
        self.stack: list[int] = []
        with _LOCK:
            _BUFFERS.append(self.spans)


_LOCK = threading.Lock()
_BUFFERS: list[list[list[Any]]] = []
_LOCAL = _Buffer()


def open_span(name: str, layer: str, rid: Any = None) -> list[Any]:
    """Start a span on this thread; close it with :func:`close_span`."""
    buf = _LOCAL
    parent = buf.stack[-1] if buf.stack else -1
    span = [name, layer, perf_counter(), 0.0, parent, rid, 0]
    buf.stack.append(len(buf.spans))
    buf.spans.append(span)
    return span


def close_span(span: list[Any]) -> None:
    span[T1] = perf_counter()
    _LOCAL.stack.pop()


def _wrap(fn: Callable, name: str, layer: str,
          rid_of: Optional[Callable] = None,
          after: Optional[Callable] = None) -> Callable:
    """``fn`` recording a span; ``rid_of(args, kwargs)`` names the request,
    ``after(span, result)`` may set the span's request id or count."""

    @functools.wraps(fn)
    def traced(*args: Any, **kwargs: Any) -> Any:
        span = open_span(name, layer, rid_of(args, kwargs) if rid_of else None)
        try:
            result = fn(*args, **kwargs)
        finally:
            close_span(span)
        if after is not None:
            after(span, result)
        return result

    return traced


def _patch_function(module: str, attr: str, name: str, layer: str, **hooks: Any) -> None:
    """Replace ``module.attr`` in every loaded ``repro`` namespace."""
    orig = getattr(importlib.import_module(module), attr)
    wrapper = _wrap(orig, name, layer, **hooks)
    bound = 0
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not (mod_name == "repro" or mod_name.startswith("repro.")):
            continue
        for key, value in list(vars(mod).items()):
            if value is orig:
                setattr(mod, key, wrapper)
                bound += 1
    if not bound:  # pragma: no cover - a renamed entry point
        raise RuntimeError(f"tracer: {module}.{attr} is bound nowhere")


def _patch_method(cls: type, attr: str, name: str, layer: str, **hooks: Any) -> None:
    setattr(cls, attr, _wrap(vars(cls)[attr], name, layer, **hooks))


def _set_count(n_of: Callable[[Any], int]) -> Callable:
    def after(span: list[Any], result: Any) -> None:
        span[COUNT] = n_of(result)
    return after


def install() -> None:
    """Import every traced layer and patch its public calls."""
    from repro import experiments
    from repro.apps.fw import FwDesign
    from repro.apps.lu import LuDesign
    from repro.apps.mm import MmDesign
    from repro.obs.ledger import RunLedger
    from repro.parallel.cache import ResultCache
    from repro.parallel.executor import SweepExecutor
    from repro.service.jobs import job_key
    from repro.service.server import CodesignServer
    from repro.sim.core import Simulator

    for mod in ("repro.campaign", "repro.tune", "repro.service", "repro.faults",
                "repro.apps.lu.analytic", "repro.apps.fw.analytic", "repro.cli"):
        importlib.import_module(mod)

    def manifest_rid(args, kwargs):
        manifest = args[0] if args else kwargs.get("manifest")
        return job_key(manifest)

    def payload_rid(args, kwargs):
        payload = args[1] if len(args) > 1 else kwargs.get("payload")
        if isinstance(payload, dict) and payload.get("kind") == "service_result":
            return job_key(payload["manifest"])
        return None

    def submit_done(span, result):
        span[RID] = result[0].key

    _patch_method(Simulator, "run", "des.run", "des")
    _patch_function("repro.sim.analytic", "try_fast_path", "analytic.try_fast_path",
                    "analytic", after=_set_count(lambda r: int(r is not None)))
    for mod, fn in (("repro.apps.lu.analytic", "analytic_block_mm_batch"),
                    ("repro.apps.fw.analytic", "analytic_fw_batch")):
        _patch_function(mod, fn, "analytic.batch", "analytic", after=_set_count(len))
    for mod, fn in (("repro.apps.lu.simulate", "simulate_lu"),
                    ("repro.apps.lu.simulate", "simulate_block_mm"),
                    ("repro.apps.fw.simulate", "simulate_fw"),
                    ("repro.apps.mm.simulate", "simulate_mm")):
        _patch_function(mod, fn, "apps.simulate", "apps")
    for cls in (LuDesign, FwDesign, MmDesign):
        _patch_method(cls, "overlap_report", "apps.overlap_report", "apps")
    _patch_function("repro.campaign.core", "campaign_tasks", "campaign.tasks", "campaign")
    _patch_function("repro.campaign.runner", "run_replicate", "campaign.replicate", "campaign")
    _patch_function("repro.campaign.core", "run_campaign", "campaign.run", "campaign")
    _patch_function("repro.tune.evaluate", "run_tune_task", "tune.task", "tune")
    _patch_function("repro.tune.search", "run_tune", "tune.run", "tune")
    _patch_method(SweepExecutor, "map", "executor.map", "executor")
    _patch_method(ResultCache, "get", "cache.get", "cache", rid_of=payload_rid,
                  after=_set_count(lambda r: int(r is not None)))
    _patch_method(ResultCache, "put", "cache.put", "cache", rid_of=payload_rid)
    _patch_method(RunLedger, "append", "ledger.append", "ledger",
                  rid_of=lambda a, k: a[1].get("key"))
    _patch_function("repro.obs.ledger", "current_git_sha", "ledger.git_sha", "ledger")
    _patch_function("repro.obs.ledger", "service_entry", "ledger.entry", "ledger",
                    rid_of=lambda a, k: a[0].get("key"))
    _patch_function("repro.service.jobs", "normalize_request", "service.normalize", "service")
    _patch_function("repro.service.runners", "run_manifest", "service.run", "service",
                    rid_of=manifest_rid)
    _patch_method(CodesignServer, "submit", "service.submit", "service", after=submit_done)
    for exp_id, fn in list(experiments.ALL_EXPERIMENTS.items()):
        experiments.ALL_EXPERIMENTS[exp_id] = _wrap(fn, "experiments.run", "experiments")


def dump() -> list[list[list[Any]]]:
    """Every thread's span list."""
    with _LOCK:
        return [list(spans) for spans in _BUFFERS if spans]


def self_times(spans: list[list[Any]]) -> list[tuple[list[Any], float, Any]]:
    """``(span, self seconds, request id)`` for one thread's spans.

    Self time is the span's duration minus its direct children's; the
    request id is the span's own or its nearest ancestor's.
    """
    child = [0.0] * len(spans)
    rids: list[Any] = [None] * len(spans)
    for i, span in enumerate(spans):
        parent = span[PARENT]
        if parent >= 0:
            child[parent] += span[T1] - span[T0]
        own = span[RID]
        rids[i] = own if own is not None or parent < 0 else rids[parent]
    return [(span, span[T1] - span[T0] - child[i], rids[i]) for i, span in enumerate(spans)]
