"""Block LU decomposition (Section 5.1.1 of the paper).

Implements the right-looking block algorithm of Choi et al. (the
ScaLAPACK LU, the paper's reference [10]) that the hybrid design
schedules: in iteration ``t`` the panel is factorised (opLU), the block
row/column are solved (opL / opU), and the trailing submatrix receives a
rank-b update (opMM + opMS).

These functions are the *sequential functional reference*: the LU
schedule of :mod:`repro.apps.lu`, run on real blocks by the numerics
interpreter (:func:`~repro.apps.lu.distributed_block_lu`), must produce
the same factors to round-off, and the tests check small-n runs of both
against ``L @ U == A``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .blas import gemm, getrf_nopiv, split_lu, trsm_lower_left_unit, trsm_upper_right
from .flops import gemm_flops, getrf_flops, trsm_flops

__all__ = ["BlockLuResult", "block_lu", "lu_nopiv"]


@dataclass
class BlockLuResult:
    """Outcome of a block LU run: packed factors + operation tallies."""

    lu: np.ndarray  # packed LU (L strictly below diagonal, U on/above)
    block_size: int
    op_counts: dict[str, int] = field(default_factory=dict)
    flops: float = 0.0

    @property
    def factors(self) -> tuple[np.ndarray, np.ndarray]:
        return split_lu(self.lu)


def lu_nopiv(a: np.ndarray) -> BlockLuResult:
    """Unblocked LU (b = n); the small-matrix reference."""
    a = np.asarray(a, dtype=np.float64)
    n = a.shape[0]
    return BlockLuResult(
        lu=getrf_nopiv(a),
        block_size=n,
        op_counts={"opLU": 1, "opL": 0, "opU": 0, "opMM": 0, "opMS": 0},
        flops=getrf_flops(n),
    )


def block_lu(a: np.ndarray, b: int) -> BlockLuResult:
    """Block LU of an n x n matrix with block size ``b`` (n % b == 0).

    Follows the paper's step structure exactly:

    1. opLU: factorise the n' x b panel (diagonal block + column below)
       via Gaussian elimination, yielding L00, L10 and U00;
    2. opU: ``U_01 = (L_00)^{-1} A_01``, one task per block;
    3. opMM + opMS: ``A_11 <- A_11 - L_10 U_01``, one task pair per block.

    (The panel factorisation folds the paper's opL tasks -- forming
    ``L_10 = A_10 U_00^{-1}`` -- into step 1; the tallies count them
    separately, as the paper does.)
    """
    a = np.array(a, dtype=np.float64, copy=True)
    n = a.shape[0]
    if a.shape != (n, n):
        raise ValueError(f"matrix must be square, got {a.shape}")
    if b < 1 or n % b:
        raise ValueError(f"block size b={b} must divide n={n}")
    nb = n // b
    counts = {"opLU": 0, "opL": 0, "opU": 0, "opMM": 0, "opMS": 0}
    flops = 0.0

    for t in range(nb):
        lo = t * b
        hi = lo + b
        # Step 1 (opLU + opL): factorise the diagonal block, then solve
        # for the sub-diagonal blocks of L.
        diag = getrf_nopiv(a[lo:hi, lo:hi])
        a[lo:hi, lo:hi] = diag
        counts["opLU"] += 1
        flops += getrf_flops(b)
        l00, u00 = split_lu(diag)
        for u in range(t + 1, nb):
            rows = slice(u * b, (u + 1) * b)
            a[rows, lo:hi] = trsm_upper_right(u00, a[rows, lo:hi])
            counts["opL"] += 1
            flops += trsm_flops(b, b)
        # Step 2 (opU): solve for the block row of U.
        for v in range(t + 1, nb):
            cols = slice(v * b, (v + 1) * b)
            a[lo:hi, cols] = trsm_lower_left_unit(l00, a[lo:hi, cols])
            counts["opU"] += 1
            flops += trsm_flops(b, b)
        # Step 3 (opMM + opMS): trailing update, one task pair per block.
        for u in range(t + 1, nb):
            rows = slice(u * b, (u + 1) * b)
            for v in range(t + 1, nb):
                cols = slice(v * b, (v + 1) * b)
                update = gemm(a[rows, lo:hi], a[lo:hi, cols])
                counts["opMM"] += 1
                flops += gemm_flops(b, b, b)
                a[rows, cols] -= update
                counts["opMS"] += 1
                flops += b * b  # subtraction, Theta(n^2) per the paper
    return BlockLuResult(lu=a, block_size=b, op_counts=counts, flops=flops)
