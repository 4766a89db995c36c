"""Parameterised floating-point core library.

Models the IEEE-754 double-precision cores of Govindu, Scrofano & Prasanna
("A Library of Parameterizable Floating-Point Cores for FPGAs ...", ERSA
2005) that the paper's VHDL designs instantiate: pipelined adders,
multipliers and comparators.  Each core carries

* a resource footprint (slices, embedded multipliers),
* a pipeline depth, and
* a standalone maximum clock frequency,

which the synthesis estimator combines into per-design area/frequency
figures.  The footprints below are calibrated so that, exactly as the
paper reports, **at most k = 8 processing elements fit on the XC2VP50**
for both the matrix-multiply PE (adder + multiplier) and the
Floyd-Warshall PE (adder + comparator).
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["FpCore", "DP_ADDER", "DP_MULTIPLIER", "DP_COMPARATOR", "CORES", "core_latency"]


@dataclass(frozen=True)
class FpCore:
    """One pipelined floating-point operator.

    Attributes
    ----------
    name:
        Identifier, e.g. ``"dp_add"``.
    operation:
        ``"add"``, ``"mul"`` or ``"cmp"``.
    precision_bits:
        64 for the double-precision cores used throughout the paper.
    pipeline_stages:
        Latency in clock cycles from operand issue to result.
    slices:
        Logic slices consumed.
    multipliers:
        Embedded 18x18 multiplier blocks consumed.
    max_freq_hz:
        Standalone (place-and-route, unconstrained neighbours) clock rate.
    """

    name: str
    operation: str
    precision_bits: int
    pipeline_stages: int
    slices: int
    multipliers: int
    max_freq_hz: float

    def latency_seconds(self, freq_hz: float) -> float:
        """Pipeline fill time at a given design clock."""
        if freq_hz <= 0:
            raise ValueError(f"clock frequency must be positive, got {freq_hz}")
        return self.pipeline_stages / freq_hz


# Double-precision cores (64-bit, IEEE-754, deeply pipelined).
DP_ADDER = FpCore(
    "dp_add", "add", 64, pipeline_stages=12, slices=1_300, multipliers=0, max_freq_hz=180e6
)
DP_MULTIPLIER = FpCore(
    "dp_mul", "mul", 64, pipeline_stages=10, slices=1_100, multipliers=9, max_freq_hz=190e6
)
DP_COMPARATOR = FpCore(
    "dp_cmp", "cmp", 64, pipeline_stages=2, slices=350, multipliers=0, max_freq_hz=250e6
)

CORES: dict[str, FpCore] = {c.name: c for c in (DP_ADDER, DP_MULTIPLIER, DP_COMPARATOR)}


def core_latency(names: list[str], freq_hz: float) -> float:
    """Summed pipeline latency of a chain of cores at ``freq_hz``."""
    return sum(CORES[n].latency_seconds(freq_hz) for n in names)
