"""The FPGA matrix-multiplier design (paper reference [21]).

Combines the cycle-level :class:`~repro.hw.pe_array.LinearPEArray` with
the synthesis estimate for a device into a deployable "bitstream" object
that the machine model loads onto a node's FPGA.  Exposes exactly the
quantities the paper's design model needs:

* ``O_f`` -- floating-point operations per cycle (= 2k),
* ``F_f`` -- the design clock from synthesis (130 MHz at k=8 on XC2VP50),
* stripe/block latencies (Section 5.1.3 formulas),
* SRAM working-set requirements (``b_f * b / (p-1)`` words).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .devices import FpgaDevice, XC2VP50
from .floating_point import DP_ADDER, DP_MULTIPLIER
from .pe_array import LinearPEArray, TileResult
from .synthesis import DesignSpec, PeSpec, SynthesisReport, max_pes, synthesize

__all__ = ["MM_PE", "MM_DESIGN_SPEC", "MatrixMultiplyDesign"]


#: One matrix-multiply PE: a DP adder + DP multiplier + accumulation glue.
MM_PE = PeSpec(
    name="mm_pe",
    cores=(DP_ADDER, DP_MULTIPLIER),
    glue_slices=300,
    bram_words=64,  # double-buffered k-wide column/accumulator storage
)

#: Full design: PE array + RapidArray transport interface + SRAM controller.
#: Frequency-model coefficients are calibrated so k=8 on XC2VP50 closes at
#: 130 MHz, the paper's reported implementation point.
MM_DESIGN_SPEC = DesignSpec(
    name="matmul_array",
    pe=MM_PE,
    fixed_slices=1_500,
    fixed_bram_words=512,
    base_freq_hz=175e6,
    congestion_slope=0.263,
)


@dataclass
class MatrixMultiplyDesign:
    """A synthesised instance of the matrix-multiplier on a device."""

    k: int
    freq_hz: float
    device: FpgaDevice
    report: Optional[SynthesisReport] = None

    # -- constructors ------------------------------------------------------

    @classmethod
    def for_device(cls, device: FpgaDevice = XC2VP50, k: Optional[int] = None) -> "MatrixMultiplyDesign":
        """Synthesise for ``device``; ``k`` defaults to the max that fits."""
        if k is None:
            k = max_pes(MM_DESIGN_SPEC, device)
        report = synthesize(MM_DESIGN_SPEC, device, k)
        return cls(k=k, freq_hz=report.freq_hz, device=device, report=report)

    def __post_init__(self) -> None:
        if self.k < 1:
            raise ValueError(f"k must be >= 1, got {self.k}")
        if self.freq_hz <= 0:
            raise ValueError(f"freq must be positive, got {self.freq_hz}")
        self._array = LinearPEArray(self.k)

    # -- design-model parameters -------------------------------------------

    @property
    def ops_per_cycle(self) -> int:
        """O_f of the paper: 2 flops per PE per cycle."""
        return 2 * self.k

    @property
    def peak_flops(self) -> float:
        """O_f * F_f -- the FPGA computing power for this application."""
        return self.ops_per_cycle * self.freq_hz

    # -- latency formulas (Section 5.1.3) ------------------------------------

    def stripe_time(self, b_f: int, b: int, p: int) -> float:
        """T_f for one stripe: multiply ``b_f x k`` by ``k x b/(p-1)``.

        Equals ``b_f * b / ((p-1) * F_f)`` seconds.
        """
        self._check_stripe(b_f, b, p)
        return self._array.stripe_cycles(b_f, b // (p - 1)) / self.freq_hz

    def block_time(self, b_f: int, b: int, p: int) -> float:
        """FPGA share of one full b x b opMM: ``b/k`` stripes."""
        self._check_stripe(b_f, b, p)
        return (b // self.k) * self.stripe_time(b_f, b, p)

    def sram_words_required(self, b_f: int, b: int, p: int) -> int:
        """Intermediate-result storage: ``b_f * b / (p-1)`` words."""
        self._check_stripe(b_f, b, p)
        return b_f * b // (p - 1)

    def _check_stripe(self, b_f: int, b: int, p: int) -> None:
        if p < 2:
            raise ValueError(f"need at least 2 nodes, got p={p}")
        if b % (p - 1):
            raise ValueError(f"b={b} must be divisible by p-1={p - 1}")
        if b_f % self.k or b % self.k:
            raise ValueError(f"b_f={b_f} and b={b} must be multiples of k={self.k}")
        if (b // (p - 1)) % self.k:
            raise ValueError(f"b/(p-1)={b // (p - 1)} must be a multiple of k={self.k}")
        if not 0 <= b_f <= b:
            raise ValueError(f"b_f={b_f} out of range [0, {b}]")

    # -- behavioural execution ----------------------------------------------

    def execute_stripe(self, c_stripe: np.ndarray, d_stripe: np.ndarray) -> TileResult:
        """Run a stripe product on the cycle-level array (for validation)."""
        return self._array.multiply(c_stripe, d_stripe)

    @property
    def array(self) -> LinearPEArray:
        return self._array
