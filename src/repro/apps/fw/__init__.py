"""Hybrid blocked Floyd-Warshall design (Section 5.2)."""

from .design import FwDesign
from .layout import ColumnBlockLayout
from .simulate import FwSimConfig, FwSimResult, distributed_blocked_fw, simulate_fw

__all__ = [
    "ColumnBlockLayout",
    "FwDesign",
    "FwSimConfig",
    "FwSimResult",
    "distributed_blocked_fw",
    "simulate_fw",
]
