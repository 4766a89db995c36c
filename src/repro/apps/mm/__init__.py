"""Extension application: distributed hybrid matrix multiplication.

The paper's model targets "a class of applications" of which LU and FW
are the worked examples; this package applies it to the ring-allgather
C = A x B of the authors' earlier ICPADS 2006 paper [22], exercising
Equation (2) (the network-aware flop split) directly.
"""

from .design import MmDesign
from .partition import COL_TILE, MmPartition, mm_row_partition
from .simulate import MmSimConfig, MmSimResult, distributed_ring_mm, simulate_mm

__all__ = [
    "COL_TILE",
    "MmDesign",
    "MmPartition",
    "MmSimConfig",
    "MmSimResult",
    "distributed_ring_mm",
    "mm_row_partition",
    "simulate_mm",
]
