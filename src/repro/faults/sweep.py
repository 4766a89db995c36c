"""Parallel, cacheable fault-scenario sweeps.

Fault grids -- the cross product of apps x scenarios x policies -- are
embarrassingly parallel and fully deterministic, so they ride the same
infrastructure as the experiment sweeps: tasks are canonical JSON-able
dicts, evaluated through a content-addressed
:class:`~repro.parallel.ResultCache` and fanned out by a
:class:`~repro.parallel.SweepExecutor`.  A scenario's serialized dict
(seed included) is part of the task payload, so a cache entry is keyed
by the exact fault timeline it simulated.
"""

from __future__ import annotations

from typing import Any, Iterable, Optional

from ..parallel import as_cache, cached_map, executor_for
from .adapt import run_with_faults
from .scenarios import FaultScenario

__all__ = ["fault_tasks", "fault_sweep", "run_fault_task"]


def fault_tasks(
    apps: Iterable[str],
    scenarios: Iterable[FaultScenario],
    policies: Iterable[str],
    *,
    preset: str = "xd1",
    sizes: Optional[dict[str, tuple[int, int]]] = None,
) -> list[dict[str, Any]]:
    """The task grid, one canonical picklable dict per fault run."""
    tasks = []
    for app in apps:
        for scenario in scenarios:
            for policy in policies:
                task = {
                    "kind": "fault_run",
                    "app": app,
                    "preset": preset,
                    "scenario": scenario.to_dict(),
                    "policy": policy,
                }
                if sizes and app in sizes:
                    task["n"], task["b"] = sizes[app]
                tasks.append(task)
    return tasks


def run_fault_task(task: dict) -> dict[str, Any]:
    """Evaluate one fault-run task; returns the result dict.

    Module-level (and task contents plain data) so the process-pool
    executor can ship tasks to workers.
    """
    return run_with_faults(
        task["app"],
        task["scenario"],
        task["policy"],
        preset=task["preset"],
        n=task.get("n"),
        b=task.get("b"),
    ).to_dict()


def fault_sweep(
    apps: Iterable[str],
    scenarios: Iterable[FaultScenario],
    policies: Iterable[str],
    *,
    preset: str = "xd1",
    sizes: Optional[dict[str, tuple[int, int]]] = None,
    jobs: Any = None,
    cache: Any = None,
) -> list[dict[str, Any]]:
    """Run the apps x scenarios x policies grid; returns result dicts.

    ``jobs`` is a worker count, ``"auto"``, None (consults
    ``REPRO_PARALLEL``) or an existing :class:`~repro.parallel.
    SweepExecutor`, reused and left open; ``cache`` is anything
    :func:`~repro.parallel.as_cache` takes.  Results come back in
    task-grid order regardless of worker scheduling, so a sweep's
    output -- and any ledger written from it -- is deterministic.
    """
    tasks = fault_tasks(apps, scenarios, policies, preset=preset, sizes=sizes)
    with executor_for(jobs) as executor:
        return cached_map(
            tasks, lambda todo: executor.map(run_fault_task, todo), as_cache(cache)
        )
