"""Partitioning for the distributed matrix-multiplication application.

This application is the paper's "class of matrix computations" beyond
the two worked examples: a ring-allgather ``C = A x B`` across p nodes
(the workload of the authors' earlier ICPADS 2006 paper [22], here
upgraded with the IPPS 2007 model).  Each node owns a row panel of A, B
and C; in each of the p ring steps a node multiplies one ``r x r`` block
of its A panel with the circulating ``r x n`` B panel (``r = n/p``).

The hybrid split assigns ``m_f`` of the panel's ``r`` C-rows to the FPGA
and the rest to the processor, balanced by **Equation (2)** --
``T_p + D_f/B_d + D_p/B_n = T_f`` -- with per-step terms:

* ``N = 2 r^2 n``        flops per step per node,
* ``D_f = (m_f r + r n) b_w``   bytes staged to the FPGA,
* ``D_p = r n b_w``      bytes of ring traffic per step,
* FPGA rate ``O_f F_f = 2 k F_f`` (the PE array sustains one MAC per PE
  per cycle on this shape, as in the LU design).

Because D_f itself depends on m_f, the solve is a short fixed point of
the closed-form Eq. (2) split (it converges in a few iterations; the
B-panel term dominates D_f so the dependence is weak).
"""

from __future__ import annotations

from dataclasses import dataclass

from ...core.parameters import SystemParameters
from ...core.partition import balance_with_network

__all__ = ["COL_TILE", "MmPartition", "mm_row_partition"]

#: Column-tile width of the FPGA's C accumulator (design constant).
COL_TILE = 512


@dataclass(frozen=True)
class MmPartition:
    """The per-step row split of the ring matrix multiplication."""

    n: int
    r: int  # panel rows per node (n / p)
    m_f: int  # C rows per step on the FPGA
    m_p: int  # C rows per step on the processor
    k: int
    t_p: float  # processor compute time per step
    t_f: float  # FPGA compute time per step
    t_mem: float  # D_f / B_d per step
    t_net: float  # D_p / B_n per step
    m_f_exact: float
    sram_words: int  # FPGA-side C working set

    @property
    def step_makespan(self) -> float:
        return max(self.t_p + self.t_mem + self.t_net, self.t_f)


def mm_row_partition(
    n: int, k: int, params: SystemParameters, enforce_sram: bool = True
) -> MmPartition:
    """Solve Eq. (2) for the ring-MM row split ``(m_p, m_f)``."""
    p = params.p
    if n < 1 or n % p:
        raise ValueError(f"p={p} must divide n={n}")
    r = n // p
    if r % k:
        raise ValueError(f"panel height n/p={r} must be a multiple of k={k}")
    flops_per_step = 2.0 * r * r * n
    d_p = float(r) * n * params.b_w
    b_panel_bytes = float(r) * n * params.b_w

    # Fixed point: D_f depends (weakly) on m_f through the A-stripe share.
    m_f = 0.0
    for _ in range(8):
        d_f = (m_f * r) * params.b_w + b_panel_bytes
        split = balance_with_network(flops_per_step, d_f, d_p, params)
        m_f_new = r * (split.n_f / flops_per_step)
        if abs(m_f_new - m_f) < 1e-9 * max(r, 1):
            m_f = m_f_new
            break
        m_f = m_f_new
    m_f_exact = m_f
    m_f_int = int(min(max(m_f_exact, 0.0), float(r)) // k) * k
    if enforce_sram:
        # The FPGA accumulates its C rows in column tiles of COL_TILE,
        # streaming finished tiles back to DRAM (overlapped output
        # transfer, Section 4.2); SRAM must hold one m_f x COL_TILE tile
        # (the same single-buffer convention as the LU design's
        # intermediate-result allocation).
        cap = int((params.sram_words / COL_TILE) // k) * k
        m_f_int = min(m_f_int, max(cap, 0))
    t_f = m_f_int * n * r / (k * params.f_f)
    t_p = 2.0 * (r - m_f_int) * r * n / params.cpu_flops
    t_mem = ((m_f_int * r) * params.b_w + b_panel_bytes) / params.b_d
    t_net = d_p / params.b_n
    return MmPartition(
        n=n,
        r=r,
        m_f=m_f_int,
        m_p=r - m_f_int,
        k=k,
        t_p=t_p,
        t_f=t_f,
        t_mem=t_mem,
        t_net=t_net,
        m_f_exact=m_f_exact,
        sram_words=m_f_int * COL_TILE,
    )
