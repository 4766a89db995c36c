"""Functional numerics substrate: the algorithms the designs schedule.

Sequential references for block LU (Section 5.1.1) and blocked
Floyd-Warshall (Section 5.2.1), the BLAS-style kernels they are built
from, flop-count conventions, and validation helpers.
"""

from .blas import gemm, getrf_nopiv, split_lu, trsm_lower_left_unit, trsm_upper_right
from .floyd_warshall import (
    BlockedFwResult,
    blocked_floyd_warshall,
    floyd_warshall_simple,
    fwi,
)
from .graphs import grid_graph, hub_and_spoke, layered_dag, ring_of_cliques
from .flops import (
    fw_block_flops,
    gemm_flops,
    getrf_flops,
    trsm_flops,
)
from .lu import BlockLuResult, block_lu, lu_nopiv
from .validation import (
    lu_residual,
    max_abs_diff,
    random_dd_matrix,
    random_distance_matrix,
    scipy_shortest_paths,
)

__all__ = [
    "BlockLuResult",
    "BlockedFwResult",
    "block_lu",
    "blocked_floyd_warshall",
    "floyd_warshall_simple",
    "fw_block_flops",
    "fwi",
    "gemm",
    "gemm_flops",
    "grid_graph",
    "hub_and_spoke",
    "layered_dag",
    "ring_of_cliques",
    "getrf_flops",
    "getrf_nopiv",
    "lu_nopiv",
    "lu_residual",
    "max_abs_diff",
    "random_dd_matrix",
    "random_distance_matrix",
    "scipy_shortest_paths",
    "split_lu",
    "trsm_flops",
    "trsm_lower_left_unit",
    "trsm_upper_right",
]
