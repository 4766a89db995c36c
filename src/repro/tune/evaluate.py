"""Evaluation of tuner design points.

The tuner evaluates every point through the same cached-task layer the
experiments use: each evaluation is a JSON-able task dict (the cache
key) plus a module-level worker function (picklable, so the
process-pool executor can ship it).  Two task shapes exist:

* :func:`point_task` -- one simulation per feasible point, run once at
  rung 0 under the process fast-path mode (default ``auto``: the
  closed-form fast path where eligible, the DES otherwise), exactly as
  the experiment sweeps run -- so under mode ``on`` an ineligible point
  raises ``FastPathUnsupported`` here too.  The fast path is bitwise
  equal to the DES wherever it accepts, so the DES rungs of
  :mod:`repro.tune.search` re-rank these values instead of simulating
  the point again.
* :func:`resilience_task` -- an optional fault-grid probe for front
  candidates: the point's own partition is held fixed (policy
  ``degrade-static``) under a seeded fault scenario and scored by
  overlap-efficiency retention (:mod:`repro.faults`).

Point tasks are evaluated by :func:`repro.experiments.run_sim_task`,
the experiments' own evaluator, and have the experiment sweeps' exact
shape, so the two share cache entries by construction: a tuner run
after ``repro experiments`` starts warm -- and vice versa.

Objectives derived parent-side (no caching needed -- pure arithmetic):
GFLOPS from the simulated latency and FPGA slice utilisation from the
synthesis estimator.
"""

from __future__ import annotations

from typing import Any

from ..experiments import run_sim_task
from .space import SearchSpace

__all__ = ["run_tune_task", "point_task", "resilience_task", "objectives_for"]


def point_task(space: SearchSpace, point: dict[str, Any]) -> dict[str, Any]:
    """The cacheable task dict for one point's simulation."""
    p = space.params(point)
    if space.kind == "block_mm":
        task: dict[str, Any] = {
            "kind": "block_mm",
            "machine": space.machine,
            "b": int(p["b"]),
            "b_f": int(p["b_f"]),
            "k": int(p["k"]),
        }
    elif space.kind == "lu":
        from ..apps.lu import LuSimConfig

        task = {
            "kind": "lu",
            "machine": space.machine,
            "cfg": LuSimConfig(
                n=int(p["n"]), b=int(p["b"]), k=int(p["k"]),
                b_f=int(p["b_f"]), l=int(p["l"]), iterations=1,
            ),
        }
    else:
        from ..apps.fw import FwSimConfig

        task = {
            "kind": "fw",
            "machine": space.machine,
            "cfg": FwSimConfig(
                n=int(p["n"]), b=int(p["b"]), k=int(p["k"]),
                l1=int(p["l1"]), l2=int(p["l2"]), iterations=1,
            ),
        }
    return task


def resilience_task(
    space: SearchSpace, point: dict[str, Any], scenario: dict[str, Any]
) -> dict[str, Any]:
    """The cacheable fault-probe task for one front candidate.

    ``block_mm`` points have no full-app fault policy surface, so they
    are probed through a short (2-block) LU run that reuses the point's
    (b, b_f) split -- the block multiply is LU's co-designed kernel.
    Every probe runs the point's own PE array size ``k``.
    """
    p = space.params(point)
    if space.kind == "fw":
        app, n, b = "fw", int(p["n"]), int(p["b"])
        overrides: dict[str, Any] = {"l1": int(p["l1"]), "l2": int(p["l2"]), "iterations": 1}
    elif space.kind == "lu":
        app, n, b = "lu", int(p["n"]), int(p["b"])
        overrides = {"b_f": int(p["b_f"]), "l": int(p["l"]), "iterations": 1}
    else:
        app, b = "lu", int(p["b"])
        n = 2 * b
        overrides = {"b_f": int(p["b_f"]), "iterations": 1}
    return {
        "kind": "tune_resilience",
        "app": app,
        "machine": space.machine,
        "n": n,
        "b": b,
        "k": int(p["k"]) if "k" in p else None,
        "overrides": overrides,
        "scenario": dict(scenario),
        "policy": "degrade-static",
    }


def run_tune_task(task: dict[str, Any]) -> Any:
    """Evaluate one tuner task; must stay module-level (picklable).

    ``block_mm`` / ``lu`` / ``fw`` tasks go to
    :func:`repro.experiments.run_sim_task` (latency in seconds, or
    ``{"elapsed", "gflops"}``) under the process fast-path mode, which
    under ``on`` raises on an ineligible point; ``tune_resilience``
    probes return a resilience summary dict.
    """
    kind = task["kind"]
    if kind in ("block_mm", "lu", "fw"):
        return run_sim_task(task)
    if kind == "tune_resilience":
        from ..faults import run_with_faults

        result = run_with_faults(
            task["app"],
            task["scenario"],
            task["policy"],
            preset=task["machine"],
            n=task["n"],
            b=task["b"],
            k=task["k"],
            sim_overrides=dict(task["overrides"]),
        )
        return {
            "efficiency_retention": result.efficiency_retention,
            "makespan_inflation": result.makespan_inflation,
            "failed": bool(result.failed),
        }
    raise ValueError(f"unknown tune task kind {kind!r}")


def objectives_for(
    space: SearchSpace, point: dict[str, Any], value: Any
) -> dict[str, float]:
    """Derive the Pareto objectives from a point's simulation value.

    GFLOPS comes from the simulated latency (for ``block_mm``,
    ``2 b^3`` flops over the measured block time); slice utilisation
    from the synthesis estimator at the point's PE count.
    """
    p = space.params(point)
    if space.kind == "block_mm":
        latency = float(value)
        gflops = 2.0 * float(p["b"]) ** 3 / latency / 1e9
    else:
        latency = float(value["elapsed"])
        gflops = float(value["gflops"])
    report = space.synthesis(int(p["k"]))
    return {
        "gflops": gflops,
        "latency": latency,
        "slice_utilisation": report.slice_utilisation,
        "freq_mhz": report.freq_hz / 1e6,
    }
