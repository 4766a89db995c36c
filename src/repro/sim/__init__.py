"""Discrete-event simulation substrate.

This package is the timing backbone of the reproduction: the
application schedules in :mod:`repro.apps` run either on an analytic
replay (:class:`~repro.sim.stepped.StepReplay`) or, through
:class:`~repro.sim.interpret.DesInterpreter` (which also carries their
MPI messages), as cooperative processes on this engine over the machine
models in :mod:`repro.machine`.
"""

from .analytic import (
    FastPathUnsupported,
    fast_path_refusal,
    fastpath_summary,
    resolve_fast_path,
    set_fast_path_mode,
)
from .core import (
    AllOf,
    Event,
    Process,
    ProcessFailure,
    SimulationError,
    Simulator,
    Timeout,
)
from .monitor import SimMonitor
from .resources import BandwidthChannel, Request, Resource, Store
from .trace import CausalityViolation, Interval, Trace, merge

__all__ = [
    "AllOf",
    "BandwidthChannel",
    "CausalityViolation",
    "Event",
    "FastPathUnsupported",
    "Interval",
    "Process",
    "ProcessFailure",
    "Request",
    "Resource",
    "SimMonitor",
    "SimulationError",
    "Simulator",
    "Store",
    "Timeout",
    "Trace",
    "fast_path_refusal",
    "fastpath_summary",
    "merge",
    "resolve_fast_path",
    "set_fast_path_mode",
]
