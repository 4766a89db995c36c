"""Synthesis / place-and-route estimator.

Answers, from datasheet resources and core footprints, the two questions
the paper answers by running Xilinx ISE:

1. *How many processing elements (k) fit on a device?*  (Paper: k = 8 on
   the XC2VP50 for both designs.)
2. *What clock frequency does the routed design achieve?*  (Paper:
   130 MHz for the matrix multiplier, 120 MHz for the Floyd-Warshall
   array.)

The area model is linear: ``fixed overhead + k * per-PE cost``, where the
fixed overhead covers the RapidArray transport interface, SRAM
controllers and control FSM.  The frequency model derates each design's
base clock linearly with slice utilisation -- the standard congestion
effect -- with per-design coefficients calibrated against the paper's two
reported implementation points (see DESIGN.md section 2).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .devices import FpgaDevice
from .floating_point import FpCore

__all__ = ["PeSpec", "DesignSpec", "SynthesisReport", "SynthesisError", "synthesize", "max_pes"]


class SynthesisError(ValueError):
    """The requested configuration does not fit on the device."""


@dataclass(frozen=True)
class PeSpec:
    """Resource cost of one processing element."""

    name: str
    cores: tuple[FpCore, ...]
    glue_slices: int = 300  # registers, muxes, local control per PE
    bram_words: int = 0  # on-chip storage per PE (64-bit words)

    @property
    def slices(self) -> int:
        return self.glue_slices + sum(c.slices for c in self.cores)

    @property
    def multipliers(self) -> int:
        return sum(c.multipliers for c in self.cores)

    @property
    def max_freq_hz(self) -> float:
        """A PE can clock no faster than its slowest core."""
        return min(c.max_freq_hz for c in self.cores)


@dataclass(frozen=True)
class DesignSpec:
    """A full FPGA design: a linear array of ``PeSpec`` PEs plus overhead.

    ``base_freq_hz`` and ``congestion_slope`` parameterise the frequency
    derating model ``f = base * (1 - slope * slice_utilisation)``.
    """

    name: str
    pe: PeSpec
    fixed_slices: int
    fixed_bram_words: int
    base_freq_hz: float
    congestion_slope: float

    def slices_for(self, k: int) -> int:
        return self.fixed_slices + k * self.pe.slices

    def multipliers_for(self, k: int) -> int:
        return k * self.pe.multipliers

    def bram_words_for(self, k: int) -> int:
        return self.fixed_bram_words + k * self.pe.bram_words


@dataclass(frozen=True)
class SynthesisReport:
    """Outcome of estimating a design at a given k on a given device."""

    design: str
    device: str
    k: int
    slices_used: int
    slices_available: int
    multipliers_used: int
    bram_words_used: int
    freq_hz: float

    @property
    def slice_utilisation(self) -> float:
        return self.slices_used / self.slices_available

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"{self.design} on {self.device}: k={self.k}, "
            f"{self.slices_used}/{self.slices_available} slices "
            f"({100 * self.slice_utilisation:.1f}%), {self.freq_hz / 1e6:.0f} MHz"
        )


def synthesize(design: DesignSpec, device: FpgaDevice, k: int) -> SynthesisReport:
    """Estimate area and clock of ``design`` with ``k`` PEs on ``device``.

    Raises :class:`SynthesisError` if any resource is exhausted.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    slices = design.slices_for(k)
    mults = design.multipliers_for(k)
    bram = design.bram_words_for(k)
    if slices > device.slices:
        raise SynthesisError(
            f"{design.name} with k={k} needs {slices} slices; {device.name} has {device.slices}"
        )
    if mults > device.multipliers:
        raise SynthesisError(
            f"{design.name} with k={k} needs {mults} multipliers; "
            f"{device.name} has {device.multipliers}"
        )
    if bram > device.bram_words():
        raise SynthesisError(
            f"{design.name} with k={k} needs {bram} BRAM words; "
            f"{device.name} has {device.bram_words()}"
        )
    utilisation = slices / device.slices
    freq = design.base_freq_hz * (1.0 - design.congestion_slope * utilisation)
    freq = min(freq, design.pe.max_freq_hz)
    # Round to the nearest MHz, as a timing constraint would be written.
    freq = round(freq / 1e6) * 1e6
    return SynthesisReport(
        design=design.name,
        device=device.name,
        k=k,
        slices_used=slices,
        slices_available=device.slices,
        multipliers_used=mults,
        bram_words_used=bram,
        freq_hz=freq,
    )


@lru_cache(maxsize=None)
def max_pes(design: DesignSpec, device: FpgaDevice) -> int:
    """Largest k for which the design fits on the device.

    A linear search over :func:`synthesize`; both arguments are frozen
    dataclasses, so the answer is cached per ``(design, device)`` (every
    ``build_design`` asks).  A design that fits nowhere raises each time.
    """
    k = 0
    while True:
        try:
            synthesize(design, device, k + 1)
        except SynthesisError:
            break
        k += 1
        if k > 4096:  # pragma: no cover - guard against bad specs
            raise SynthesisError(f"runaway PE count for {design.name} on {device.name}")
    if k == 0:
        raise SynthesisError(f"{design.name} does not fit on {device.name} even with k=1")
    return k
