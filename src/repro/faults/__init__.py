"""Fault injection and graceful degradation for the co-designed system.

The paper's design methodology assumes nominal Section 4.1 parameters;
this package asks what happens when the machine degrades mid-run -- and
how much of the predicted overlap the design keeps if it re-solves the
partition equations against the degraded parameters:

* :mod:`repro.faults.scenarios` -- composable, serializable, seeded
  fault scenarios (link slowdown, FPGA clock throttle, DRAM contention,
  transient DMA stalls, node failure);
* :mod:`repro.faults.inject` -- the DES injection layer that perturbs a
  live :class:`~repro.machine.system.ReconfigurableSystem`;
* :mod:`repro.faults.adapt` -- the graceful-degradation policies
  (``fail-fast``, ``degrade-static``, ``repartition``, ``exclude-node``)
  that re-solve the Eq. (1)/(2)/(4)/(6) splits on perturbed parameters;
* :mod:`repro.faults.sweep` -- parallel, cacheable fault-grid sweeps;
* :mod:`repro.faults.report` -- the resilience report (makespan
  inflation, overlap-efficiency retention, recovery latency, model-term
  attribution), fed from ``fault_run`` ledger manifests.

Documentation lives in ``docs/robustness.md``.
"""

from .adapt import POLICIES, TERM_GLOSS, FaultRunResult, run_with_faults
from .inject import FaultInjector, NodeFailureError
from .report import ResilienceReport
from .scenarios import (
    FAULT_KINDS,
    RATE_KINDS,
    SCENARIO_BUILDERS,
    FaultEvent,
    FaultScenario,
    StallBurst,
    brownout,
    build_scenario,
    degraded_link,
    dram_contention,
    fpga_clock_throttle,
    node_failure,
    nominal,
    transient_dma_stalls,
)
from .sweep import fault_sweep, fault_tasks, run_fault_task

__all__ = [
    "FAULT_KINDS",
    "FaultEvent",
    "FaultInjector",
    "FaultRunResult",
    "FaultScenario",
    "NodeFailureError",
    "POLICIES",
    "RATE_KINDS",
    "ResilienceReport",
    "SCENARIO_BUILDERS",
    "StallBurst",
    "TERM_GLOSS",
    "brownout",
    "build_scenario",
    "degraded_link",
    "dram_contention",
    "fault_sweep",
    "fault_tasks",
    "fpga_clock_throttle",
    "node_failure",
    "nominal",
    "run_fault_task",
    "run_with_faults",
    "transient_dma_stalls",
]
