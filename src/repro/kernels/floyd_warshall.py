"""Blocked Floyd-Warshall (Section 5.2.1 of the paper).

Implements the blocked all-pairs shortest-paths algorithm of
Venkataraman, Sahni & Mukhopadhyaya (the paper's reference [7]): in
iteration ``t`` the diagonal block is solved (op1), then the pivot block
row and column (op21 / op22), then all remaining blocks (op3) -- each
via the generalised kernel

    FWI(D, A, B):  for kk:  D[i,j] = min(D[i,j], A[i,kk] + B[kk,j]).

These are the sequential functional references that the FW schedule of
:mod:`repro.apps.fw`, run on real blocks by the numerics interpreter
(:func:`~repro.apps.fw.distributed_blocked_fw`), is validated against.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .flops import fw_block_flops

__all__ = [
    "BlockedFwResult",
    "fwi",
    "fwi_inplace",
    "floyd_warshall_simple",
    "blocked_floyd_warshall",
]


def fwi(d: np.ndarray, a: np.ndarray | None = None, b: np.ndarray | None = None) -> np.ndarray:
    """The generalised FW kernel on one block; returns a new array.

    ``a`` / ``b`` default to ``d`` itself (op1).  The pivot loop is
    sequential; within a pivot the update is vectorised, which is valid
    because the pivot row/column are fixed points of their own update
    whenever diagonals are non-negative (no negative cycles).
    """
    d = np.array(d, dtype=np.float64, copy=True)
    a_blk = d if a is None else np.asarray(a, dtype=np.float64)
    b_blk = d if b is None else np.asarray(b, dtype=np.float64)
    n = d.shape[0]
    if d.shape != (n, n) or a_blk.shape != (n, n) or b_blk.shape != (n, n):
        raise ValueError(f"blocks must all be {n} x {n}")
    for kk in range(n):
        np.minimum(d, a_blk[:, kk : kk + 1] + b_blk[kk : kk + 1, :], out=d)
    return d


def fwi_inplace(
    d: np.ndarray,
    a: np.ndarray | None = None,
    b: np.ndarray | None = None,
    scratch: np.ndarray | None = None,
) -> np.ndarray:
    """:func:`fwi` updating ``d`` in place (``d`` may be a matrix view).

    ``d`` must be a writable float64 block; ``a`` / ``b`` default to ``d``
    itself (op1) and must not partially overlap it otherwise.  ``scratch``
    is an optional ``b x b`` float64 buffer reused for the per-pivot sum,
    so a caller sweeping many blocks allocates nothing per call.  Returns
    ``d``.
    """
    if not isinstance(d, np.ndarray) or d.dtype != np.float64:
        raise ValueError("fwi_inplace requires a float64 ndarray target")
    a_blk = d if a is None else np.asarray(a, dtype=np.float64)
    b_blk = d if b is None else np.asarray(b, dtype=np.float64)
    n = d.shape[0]
    if d.shape != (n, n) or a_blk.shape != (n, n) or b_blk.shape != (n, n):
        raise ValueError(f"blocks must all be {n} x {n}")
    if scratch is None:
        scratch = np.empty((n, n), dtype=np.float64)
    elif scratch.shape != (n, n) or scratch.dtype != np.float64:
        raise ValueError(f"scratch must be float64 {n} x {n}")
    for kk in range(n):
        np.add(a_blk[:, kk : kk + 1], b_blk[kk : kk + 1, :], out=scratch)
        np.minimum(d, scratch, out=d)
    return d


def floyd_warshall_simple(d: np.ndarray) -> np.ndarray:
    """Plain (unblocked) Floyd-Warshall; the ground-truth reference."""
    return fwi(d, None, None)


@dataclass
class BlockedFwResult:
    """Outcome of a blocked FW run: distances + operation tallies."""

    dist: np.ndarray
    block_size: int
    op_counts: dict[str, int] = field(default_factory=dict)
    flops: float = 0.0


def blocked_floyd_warshall(d: np.ndarray, b: int) -> BlockedFwResult:
    """Blocked FW on an n x n distance matrix with block size ``b``.

    Entries may be ``inf`` (no edge); weights must be non-negative.
    Follows the three steps of Section 5.2.1 per iteration ``t``:
    op1 on ``D_tt``; op21 on row blocks ``D_tq`` and op22 on column
    blocks ``D_qt``; op3 on all remaining blocks.
    """
    d = np.array(d, dtype=np.float64, copy=True)
    n = d.shape[0]
    if d.shape != (n, n):
        raise ValueError(f"matrix must be square, got {d.shape}")
    if b < 1 or n % b:
        raise ValueError(f"block size b={b} must divide n={n}")
    if np.any(np.diag(d) < 0):
        raise ValueError("negative diagonal entries imply negative cycles")
    nb = n // b
    counts = {"op1": 0, "op21": 0, "op22": 0, "op3": 0}
    flops = 0.0
    # All block updates run in place on views of ``d`` (the a/b operand
    # blocks are always disjoint from the target, or are the target
    # itself in op1), sharing one scratch buffer -- no per-block copies.
    scratch = np.empty((b, b), dtype=np.float64)

    def blk(u: int, v: int) -> tuple[slice, slice]:
        return slice(u * b, (u + 1) * b), slice(v * b, (v + 1) * b)

    for t in range(nb):
        tt = blk(t, t)
        # Step 1: op1 on the diagonal block.
        fwi_inplace(d[tt], scratch=scratch)
        counts["op1"] += 1
        flops += fw_block_flops(b)
        # Step 2: op21 on the pivot block row, op22 on the pivot column.
        for q in range(nb):
            if q == t:
                continue
            tq = blk(t, q)
            fwi_inplace(d[tq], d[tt], None, scratch=scratch)  # rows of D_tt
            counts["op21"] += 1
            flops += fw_block_flops(b)
            qt = blk(q, t)
            fwi_inplace(d[qt], None, d[tt], scratch=scratch)  # columns of D_tt
            counts["op22"] += 1
            flops += fw_block_flops(b)
        # Step 3: op3 on every remaining block.
        for u in range(nb):
            if u == t:
                continue
            for v in range(nb):
                if v == t:
                    continue
                uv = blk(u, v)
                fwi_inplace(d[uv], d[blk(u, t)], d[blk(t, v)], scratch=scratch)
                counts["op3"] += 1
                flops += fw_block_flops(b)
    return BlockedFwResult(dist=d, block_size=b, op_counts=counts, flops=flops)
