"""Workload-partition solvers: Equations (1), (2), (4) and (6).

These are the quantitative heart of the paper.  Each solver balances the
processor-side serial path (compute + the data movement that cannot
overlap processor work) against the FPGA's pipeline time, and returns a
small result object carrying both the decision variables and the time
terms, so callers (schedules, benchmarks, tests) can inspect the balance.

Known paper typos handled here (documented in DESIGN.md):

* Eq. (2) as printed divides ``D_f`` by ``B_d * F_f``, which is
  dimensionally inconsistent; the intended term is ``D_f / B_d`` as in
  Eq. (1) and that is what :func:`balance_with_network` implements.
* The Section 6.1 SRAM constraint is printed as ``b_p b/(p-1)`` but the
  SRAM holds the FPGA's intermediate results of size ``b_f b/(p-1)``
  (Figure 3); the constraint is applied to ``b_f``.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..obs.metrics import REGISTRY
from .parameters import SystemParameters

#: Solver-call counters, resolved once at import (hot sweeps call these
#: per design point; the per-call cost must stay one float add).
_SOLVES_BALANCE = REGISTRY.counter("partition.solves", kind="balance")
_SOLVES_LU = REGISTRY.counter("partition.solves", kind="lu_stripe")
_SOLVES_FW = REGISTRY.counter("partition.solves", kind="fw")

__all__ = [
    "FlopSplit",
    "LuStripePartition",
    "FwPartition",
    "balance_flops",
    "balance_with_transfer",
    "balance_with_network",
    "lu_stripe_partition",
    "lu_stripe_times",
    "fw_op_times",
    "fw_partition",
]


# --------------------------------------------------------------------------
# Generic splits (Section 4.2 / 4.3)
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class FlopSplit:
    """Outcome of splitting N flops between processor and FPGA."""

    n_p: float  # flops assigned to the processor
    n_f: float  # flops assigned to the FPGA
    t_p: float  # processor compute time
    t_f: float  # FPGA compute time
    t_transfer: float = 0.0  # D_f / B_d term (Eq. 1)
    t_network: float = 0.0  # D_p / B_n term (Eq. 2)

    @property
    def total(self) -> float:
        return self.n_p + self.n_f

    @property
    def makespan(self) -> float:
        """Completion time under the model's overlap assumptions."""
        return max(self.t_p + self.t_transfer + self.t_network, self.t_f)


def _clamped_split(total_flops: float, fpga_lead: float, params: SystemParameters) -> FlopSplit:
    """Solve ``T_p + fpga_lead = T_f`` for the flop split.

    ``fpga_lead`` is the serial time the processor spends before/besides
    computing (data transfer, network) that the FPGA overlaps.
    """
    if total_flops < 0:
        raise ValueError(f"negative workload: {total_flops}")
    _SOLVES_BALANCE.inc()
    cpu, fpga = params.cpu_flops, params.fpga_flops
    # N_f/fpga - (N - N_f)/cpu = lead  =>  N_f (1/fpga + 1/cpu) = lead + N/cpu
    n_f = (fpga_lead + total_flops / cpu) / (1.0 / fpga + 1.0 / cpu)
    n_f = min(max(n_f, 0.0), total_flops)
    n_p = total_flops - n_f
    return FlopSplit(n_p=n_p, n_f=n_f, t_p=n_p / cpu, t_f=n_f / fpga)


def balance_flops(total_flops: float, params: SystemParameters) -> FlopSplit:
    """The naive split of Section 4.2: choose N_p, N_f so T_p = T_f.

    Ignores data transfer -- kept as the baseline the paper improves on
    (and as the ablation benchmark's strawman).
    """
    return _clamped_split(total_flops, 0.0, params)


def balance_with_transfer(
    total_flops: float, d_f_bytes: float, params: SystemParameters
) -> FlopSplit:
    """Equation (1): ``T_p + D_f/B_d = T_f``.

    ``d_f_bytes`` is the input data streamed from DRAM to the FPGA; the
    processor cannot start until that transfer completes, the FPGA
    overlaps it.
    """
    if d_f_bytes < 0:
        raise ValueError(f"negative transfer size: {d_f_bytes}")
    t_transfer = params.dram_time(d_f_bytes)
    split = _clamped_split(total_flops, t_transfer, params)
    return FlopSplit(
        n_p=split.n_p,
        n_f=split.n_f,
        t_p=split.t_p,
        t_f=split.t_f,
        t_transfer=t_transfer,
    )


def balance_with_network(
    total_flops: float, d_f_bytes: float, d_p_bytes: float, params: SystemParameters
) -> FlopSplit:
    """Equation (2): ``T_p + D_f/B_d + D_p/B_n = T_f``.

    (The printed equation's ``D_f/(B_d * F_f)`` is a typo for
    ``D_f/B_d``; see the module docstring.)
    """
    if d_f_bytes < 0 or d_p_bytes < 0:
        raise ValueError("negative data sizes")
    t_transfer = params.dram_time(d_f_bytes)
    t_network = params.net_time(d_p_bytes)
    split = _clamped_split(total_flops, t_transfer + t_network, params)
    return FlopSplit(
        n_p=split.n_p,
        n_f=split.n_f,
        t_p=split.t_p,
        t_f=split.t_f,
        t_transfer=t_transfer,
        t_network=t_network,
    )


# --------------------------------------------------------------------------
# LU stripe partition (Equation 4, Section 5.1.3)
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class LuStripePartition:
    """The (b_p, b_f) row split of a b x b block multiplication."""

    b: int
    b_p: int
    b_f: int
    k: int
    p: int
    t_p: float  # processor time per stripe
    t_f: float  # FPGA time per stripe
    t_comm: float  # network time per stripe pair (T_comm)
    t_mem: float  # DRAM->FPGA time per stripe (T_mem)
    b_f_exact: float  # continuous solution of Eq. (4) before rounding
    sram_words: int  # intermediate-result footprint on SRAM


def lu_stripe_times(
    b: int, b_f: int, k: int, params: SystemParameters
) -> tuple[float, float, float, float]:
    """The four time terms of Eq. (4) for a given b_f.

    Returns ``(t_p, t_f, t_comm, t_mem)`` for one column-stripe of C and
    row-stripe of D:

    * ``t_comm = 2 b k b_w / B_n``  (ship both stripes to a worker),
    * ``t_mem = (b_f k + b k/(p-1)) b_w / B_d``  (stage the FPGA's share),
    * ``t_p = 2 b_p b k / ((p-1) O_p F_p)``,
    * ``t_f = b_f b / ((p-1) F_f)``.
    """
    p = params.p
    if p < 2:
        raise ValueError(f"the LU design needs p >= 2 nodes, got {p}")
    if not 0 <= b_f <= b:
        raise ValueError(f"b_f={b_f} out of range [0, {b}]")
    b_p = b - b_f
    t_comm = 2.0 * b * k * params.b_w / params.b_n
    t_mem = (b_f * k + b * k / (p - 1)) * params.b_w / params.b_d
    t_p = 2.0 * b_p * b * k / ((p - 1) * params.cpu_flops)
    t_f = b_f * b / ((p - 1) * params.f_f)
    return t_p, t_f, t_comm, t_mem


def lu_stripe_partition(
    b: int, k: int, params: SystemParameters, enforce_sram: bool = True
) -> LuStripePartition:
    """Solve Equation (4) for (b_p, b_f): ``T_f = T_comm + T_mem + T_p``.

    The continuous solution is rounded down to a multiple of ``k`` (the
    PE array consumes rows k at a time) and, if ``enforce_sram``, capped
    so the FPGA's intermediate results ``b_f * b/(p-1)`` words fit the
    node's SRAM allocation.
    """
    p = params.p
    if p < 2:
        raise ValueError(f"the LU design needs p >= 2 nodes, got {p}")
    if b < 1 or k < 1:
        raise ValueError(f"b and k must be positive, got b={b}, k={k}")
    if b % k:
        raise ValueError(f"b={b} must be a multiple of k={k}")
    _SOLVES_LU.inc()
    cpu = params.cpu_flops
    # T_f(b_f) = T_comm + T_mem(b_f) + T_p(b - b_f); linear in b_f:
    #   b_f * [b/((p-1)F_f)]  =  2 b k b_w/B_n
    #                          + (b_f k + b k/(p-1)) b_w / B_d
    #                          + 2 (b - b_f) b k / ((p-1) cpu)
    lhs_coeff = b / ((p - 1) * params.f_f)
    rhs_const = (
        2.0 * b * k * params.b_w / params.b_n
        + (b * k / (p - 1)) * params.b_w / params.b_d
        + 2.0 * b * b * k / ((p - 1) * cpu)
    )
    rhs_coeff = k * params.b_w / params.b_d - 2.0 * b * k / ((p - 1) * cpu)
    denom = lhs_coeff - rhs_coeff
    if denom <= 0:
        # The CPU-side serial path grows with b_f at least as fast as the
        # FPGA pipeline does: every row moved to the FPGA costs more in
        # DRAM staging than it saves in gemm time.  The model's answer is
        # to keep the work on the processor.
        b_f_exact = 0.0
    else:
        b_f_exact = rhs_const / denom
    b_f = int(min(max(b_f_exact, 0.0), float(b)) // k) * k
    if enforce_sram:
        max_words = params.sram_words
        # b_f * b/(p-1) <= sram_words  =>  b_f <= sram_words (p-1) / b
        b_f_cap = int((max_words * (p - 1) / b) // k) * k
        b_f = min(b_f, max(b_f_cap, 0))
    t_p, t_f, t_comm, t_mem = lu_stripe_times(b, b_f, k, params)
    return LuStripePartition(
        b=b,
        b_p=b - b_f,
        b_f=b_f,
        k=k,
        p=p,
        t_p=t_p,
        t_f=t_f,
        t_comm=t_comm,
        t_mem=t_mem,
        b_f_exact=b_f_exact,
        sram_words=b_f * b // (p - 1),
    )


# --------------------------------------------------------------------------
# Floyd-Warshall task split (Equation 6, Section 5.2.3)
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class FwPartition:
    """The (l1, l2) whole-task split of one phase's operations."""

    l1: int  # operations per phase on the processor
    l2: int  # operations per phase on the FPGA
    t_p: float  # per-operation processor time (2 b^3 / O_p F_p)
    t_f: float  # per-operation FPGA time (2 b^3 / (k F_f))
    t_comm: float  # per-phase block exchange (b^2 b_w / B_n)
    t_mem: float  # per-FPGA-op DRAM staging (2 b^2 b_w / B_d)
    l1_exact: float  # continuous solution before rounding

    @property
    def per_phase_ops(self) -> int:
        return self.l1 + self.l2

    @property
    def phase_makespan(self) -> float:
        """Per-phase latency with comm/mem on the CPU-side serial path."""
        return max(self.l1 * self.t_p + self.t_comm + self.l2 * self.t_mem, self.l2 * self.t_f)

    @property
    def cpu_share(self) -> float:
        return self.l1 / self.per_phase_ops if self.per_phase_ops else 0.0


def fw_op_times(b: int, k: int, params: SystemParameters) -> tuple[float, float, float, float]:
    """``(t_p, t_f, t_comm, t_mem)`` for one b x b FW operation.

    Note the FPGA time uses the design's ``2 b^3/(k F_f)`` latency, not
    ``O_f F_f``: the array sustains k flops/cycle (Section 5.2.3).
    """
    if b < 1 or k < 1:
        raise ValueError(f"b and k must be positive, got b={b}, k={k}")
    t_p = 2.0 * b**3 / params.cpu_flops
    t_f = 2.0 * b**3 / (k * params.f_f)
    t_comm = b * b * params.b_w / params.b_n
    t_mem = 2.0 * b * b * params.b_w / params.b_d
    return t_p, t_f, t_comm, t_mem


def fw_partition(n: int, b: int, k: int, params: SystemParameters) -> FwPartition:
    """Solve Equation (6): ``l1 T_p + T_comm + l2 T_mem = l2 T_f``
    subject to ``l1 + l2 = n/(b p)``.

    Rounds l1 to the nearest integer in ``[0, n/(bp)]``.  With the
    paper's parameters (n=18432, b=256, p=6) this yields l1=2, l2=10.
    """
    p = params.p
    if n < 1 or b < 1 or n % b:
        raise ValueError(f"b={b} must divide n={n}")
    total = n // (b * p)
    if total < 1 or n % (b * p):
        raise ValueError(
            f"each node must own an integer number of block columns: "
            f"n/(b*p) = {n}/({b}*{p}) is not a positive integer"
        )
    _SOLVES_FW.inc()
    t_p, t_f, t_comm, t_mem = fw_op_times(b, k, params)
    # l1 (T_p + T_f - T_mem) = total (T_f - T_mem) - T_comm
    effective = t_f - t_mem
    l1_exact = (total * effective - t_comm) / (t_p + effective)
    l1 = int(round(l1_exact))
    l1 = min(max(l1, 0), total)
    return FwPartition(
        l1=l1,
        l2=total - l1,
        t_p=t_p,
        t_f=t_f,
        t_comm=t_comm,
        t_mem=t_mem,
        l1_exact=l1_exact,
    )
