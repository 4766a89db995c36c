"""Hybrid block-LU decomposition design (Section 5.1)."""

from .design import LuDesign, TABLE1_LATENCIES
from .layout import BlockCyclicLayout
from .simulate import (LuSimConfig, LuSimResult, distributed_block_lu, simulate_block_mm,
                       simulate_lu)
from .taskgraph import build_lu_taskgraph, lu_op_counts

__all__ = [
    "BlockCyclicLayout",
    "LuDesign",
    "LuSimConfig",
    "LuSimResult",
    "TABLE1_LATENCIES",
    "build_lu_taskgraph",
    "distributed_block_lu",
    "lu_op_counts",
    "simulate_block_mm",
    "simulate_lu",
]
