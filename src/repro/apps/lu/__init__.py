"""Hybrid block-LU decomposition design (Section 5.1)."""

from .design import LuDesign, TABLE1_LATENCIES
from .layout import BlockCyclicLayout
from .simulate import (LuSimConfig, LuSimResult, distributed_block_lu, simulate_block_mm,
                       simulate_lu)

__all__ = [
    "BlockCyclicLayout",
    "LuDesign",
    "LuSimConfig",
    "LuSimResult",
    "TABLE1_LATENCIES",
    "distributed_block_lu",
    "simulate_block_mm",
    "simulate_lu",
]
