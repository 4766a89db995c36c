"""Hybrid blocked Floyd-Warshall design (Section 5.2)."""

from .design import FwDesign
from .functional import FunctionalFwResult, distributed_blocked_fw
from .layout import ColumnBlockLayout
from .simulate import FwSimConfig, FwSimResult, simulate_fw

__all__ = [
    "ColumnBlockLayout",
    "FunctionalFwResult",
    "FwDesign",
    "FwSimConfig",
    "FwSimResult",
    "distributed_blocked_fw",
    "simulate_fw",
]
