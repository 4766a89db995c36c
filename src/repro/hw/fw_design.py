"""The FPGA Floyd-Warshall design (paper reference [18]).

Models the parallel FPGA all-pairs shortest-paths array of Bondhugula,
Devulapalli, Fernando, Wyckoff & Sadayappan (IPDPS 2006): ``k`` PEs, each
with one double-precision adder and one comparator, computing the
generalised blocked-FW kernel

    FWI(D, A, B):  for kk in 0..b-1:  D[i,j] = min(D[i,j], A[i,kk] + B[kk,j])

on a ``b x b`` tile in ``2 b^3 / k`` clock cycles.  Each PE owns the rows
``i = q (mod k)`` of the tile; an element update costs two cycles (one
through the adder, one through the comparator), giving an effective
throughput of ``k`` flops/cycle even though ``O_f = 2k`` operators exist
-- exactly the accounting the paper uses (Section 5.2.3).

On-chip (BRAM) requirement: ``2 k^2`` words.  Off-chip (SRAM) working set:
``2 b^2`` words.

As with the matrix multiplier, the class both *executes* the kernel
(cycle-counted, on real operands, for validation) and exposes the
closed-form latency used by the timing model.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .devices import FpgaDevice, XC2VP50
from .floating_point import DP_ADDER, DP_COMPARATOR
from .synthesis import DesignSpec, PeSpec, SynthesisReport, max_pes, synthesize

__all__ = ["FW_PE", "FW_DESIGN_SPEC", "FloydWarshallDesign", "fwi_reference"]


#: One FW PE: a DP adder + DP comparator plus row-buffer/mux glue.
FW_PE = PeSpec(
    name="fw_pe",
    cores=(DP_ADDER, DP_COMPARATOR),
    glue_slices=950,  # pivot row/column buffers, min-select, stream routing
    bram_words=16,  # 2k words per PE at k=8 (the 2k^2 total below)
)

#: Full design; frequency coefficients calibrated so k=8 on XC2VP50
#: closes at 120 MHz, the paper's reported implementation point.
FW_DESIGN_SPEC = DesignSpec(
    name="floyd_warshall_array",
    pe=FW_PE,
    fixed_slices=1_800,
    fixed_bram_words=256,
    base_freq_hz=175e6,
    congestion_slope=0.328,
)


def fwi_reference(d: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Sequential reference of the generalised FW kernel (returns new array).

    ``d``, ``a`` and ``b`` may alias (op1: all three the same block); the
    pivot loop is sequential as the algorithm requires.
    """
    d = np.array(d, dtype=np.float64, copy=True)
    a = d if a is None else a
    b = d if b is None else b
    n = d.shape[0]
    for kk in range(n):
        np.minimum(d, a[:, kk : kk + 1] + b[kk : kk + 1, :], out=d)
    return d


@dataclass
class FloydWarshallDesign:
    """A synthesised instance of the FW array on a device."""

    k: int
    freq_hz: float
    device: FpgaDevice
    report: Optional[SynthesisReport] = None

    @classmethod
    def for_device(cls, device: FpgaDevice = XC2VP50, k: Optional[int] = None) -> "FloydWarshallDesign":
        """Synthesise for ``device``; ``k`` defaults to the max that fits."""
        if k is None:
            k = max_pes(FW_DESIGN_SPEC, device)
        report = synthesize(FW_DESIGN_SPEC, device, k)
        return cls(k=k, freq_hz=report.freq_hz, device=device, report=report)

    def __post_init__(self) -> None:
        if self.k < 1:
            raise ValueError(f"k must be >= 1, got {self.k}")
        if self.freq_hz <= 0:
            raise ValueError(f"freq must be positive, got {self.freq_hz}")
        self.total_cycles = 0
        self.total_flops = 0

    # -- design-model parameters -------------------------------------------

    @property
    def ops_per_cycle(self) -> int:
        """O_f: operators available per cycle (adders + comparators)."""
        return 2 * self.k

    @property
    def effective_flops(self) -> float:
        """Sustained rate: 2b^3 ops in 2b^3/k cycles = k * F_f flops/s."""
        return self.k * self.freq_hz

    # -- latency and storage formulas (Section 5.2.3) -------------------------

    def tile_cycles(self, b: int) -> int:
        """Latency of FWI on a b x b tile: ``2 b^3 / k`` cycles."""
        self._check_tile(b)
        return 2 * b**3 // self.k

    def tile_time(self, b: int) -> float:
        """T_f of the paper: ``2 b^3 / (k F_f)`` seconds."""
        return self.tile_cycles(b) / self.freq_hz

    def bram_words_required(self) -> int:
        """On-chip memory: ``2 k^2`` words."""
        return 2 * self.k * self.k

    def sram_words_required(self, b: int) -> int:
        """On-board memory: ``2 b^2`` words."""
        self._check_tile(b)
        return 2 * b * b

    def fits(self, b: int, sram_bytes: int, word_bytes: int = 8) -> bool:
        """Can a b x b tile be staged in the node's allocated SRAM?"""
        return self.sram_words_required(b) * word_bytes <= sram_bytes

    def _check_tile(self, b: int) -> None:
        if b < 1 or b % self.k:
            raise ValueError(f"tile size b={b} must be a positive multiple of k={self.k}")

    # -- behavioural execution ----------------------------------------------

    def run_tile(
        self,
        d: np.ndarray,
        a: Optional[np.ndarray] = None,
        b: Optional[np.ndarray] = None,
    ) -> tuple[np.ndarray, int]:
        """Execute FWI(D, A, B) cycle-by-cycle; returns (result, cycles).

        ``a``/``b`` default to ``d`` (the op1 case).  PE ``q`` owns rows
        ``q, q+k, q+2k, ...``; per pivot, each PE walks its rows
        element-by-element, two cycles per element (add, then compare).
        """
        d = np.array(d, dtype=np.float64, copy=True)
        a_blk = d if a is None else np.asarray(a, dtype=np.float64)
        b_blk = d if b is None else np.asarray(b, dtype=np.float64)
        n = d.shape[0]
        self._check_tile(n)
        if a_blk.shape != (n, n) or b_blk.shape != (n, n):
            raise ValueError("A and B blocks must match D's shape")
        k = self.k
        cycles = 0
        for kk in range(n):
            # Pivot row of B and pivot column of A are loop invariants for
            # this kk (their own updates are fixed points when the diagonal
            # is non-negative -- the standard blocked-FW property).
            for r in range(n // k):
                rows = slice(r * k, (r + 1) * k)  # one row per PE
                for j in range(n):
                    # One element update per PE: 2 cycles (add, compare).
                    cand = a_blk[rows, kk] + b_blk[kk, j]
                    d[rows, j] = np.minimum(d[rows, j], cand)
                    cycles += 2
        flops = 2 * n**3
        self.total_cycles += cycles
        self.total_flops += flops
        return d, cycles
