"""Guided design-space autotuner (successive halving + Pareto fronts).

The paper's core question -- which (p, b, b_f, l, l1:l2, k) partition
is best for a given machine -- is answered elsewhere in this repo by
exhaustive grid sweeps.  This package answers it *guided*: the fast
path scores the whole space once (bitwise the DES's values), successive
halving re-ranks only the top fraction under a DES budget, a
local-refinement pass polishes the incumbent, and an optional
fault-grid rung scores the survivors' resilience.  The output is a
bitwise-deterministic *tune manifest* (schema-6 ``tune`` ledger
entries) carrying the incumbent and the Pareto front over {GFLOPS, FPGA
slice utilisation, resilience}.

* :mod:`repro.tune.space` -- :class:`SearchSpace`: axes over a
  :class:`~repro.parallel.ParamGrid` plus feasibility and synthesis;
* :mod:`repro.tune.evaluate` -- cacheable point and fault-probe tasks;
* :mod:`repro.tune.search` -- :class:`TuneSpec` / :func:`run_tune`;
* :mod:`repro.tune.pareto` -- dominance and front extraction;
* :mod:`repro.tune.report` -- ASCII rendering for ``tune report``.

Documentation lives in ``docs/performance.md`` ("Guided search").
"""

from .evaluate import objectives_for, point_task, resilience_task, run_tune_task
from .pareto import DEFAULT_SENSES, dominates, pareto_front
from .report import front_rows, render_tune
from .search import (
    TUNE_MANIFEST_SCHEMA,
    TuneSpec,
    load_manifest,
    run_tune,
)
from .space import NAMED_SPACES, SPACE_KINDS, SearchSpace, named_space, parse_axis

__all__ = [
    "DEFAULT_SENSES",
    "NAMED_SPACES",
    "SPACE_KINDS",
    "SearchSpace",
    "TUNE_MANIFEST_SCHEMA",
    "TuneSpec",
    "dominates",
    "front_rows",
    "load_manifest",
    "named_space",
    "objectives_for",
    "pareto_front",
    "parse_axis",
    "point_task",
    "render_tune",
    "resilience_task",
    "run_tune",
    "run_tune_task",
]
