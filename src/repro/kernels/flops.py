"""Floating-point operation counts for the kernels in the paper.

These are the counts the paper's GFLOPS figures are computed against
(leading-order terms, the LAPACK/ScaLAPACK convention):

* gemm (m,n,k): ``2 m n k``
* getrf (n x n, no pivoting): ``(2/3) n^3``
* trsm (n x n triangular, n x m right-hand side): ``n^2 m``
* LU of an n x n matrix: ``(2/3) n^3``
* Floyd-Warshall on n vertices: ``2 n^3`` (one add + one compare per
  inner iteration -- the paper counts comparisons as flops, Sec 5.2.3)
"""

from __future__ import annotations

__all__ = [
    "gemm_flops",
    "getrf_flops",
    "trsm_flops",
    "fw_block_flops",
]


def _check_positive(**kwargs: int) -> None:
    for name, value in kwargs.items():
        if value < 0:
            raise ValueError(f"{name} must be non-negative, got {value}")


def gemm_flops(m: int, n: int, k: int) -> float:
    """Multiply-add count of C (m x n) += A (m x k) @ B (k x n)."""
    _check_positive(m=m, n=n, k=k)
    return 2.0 * m * n * k


def getrf_flops(n: int) -> float:
    """LU factorisation of an n x n block without pivoting."""
    _check_positive(n=n)
    return (2.0 / 3.0) * n**3


def trsm_flops(n: int, m: int) -> float:
    """Triangular solve with an n x n factor and an n x m RHS."""
    _check_positive(n=n, m=m)
    return float(n) * n * m


def fw_block_flops(b: int) -> float:
    """Flops of one FWI operation on a b x b block (op1/op21/op22/op3)."""
    _check_positive(b=b)
    return 2.0 * b**3
