"""Memory descriptions: DRAM, on-board SRAM and on-chip BRAM.

A :class:`MemorySpec` is declarative: a node's SRAM capacity feeds the
paper's Section 4.1 parameters (the "8 MB of SRAM" constraint), and the
live FPGA<->DRAM path is the node's B_d channel.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["MemorySpec"]


@dataclass(frozen=True)
class MemorySpec:
    """Declarative description of a memory bank."""

    kind: str  # "dram" | "sram" | "bram"
    capacity_bytes: int
    bandwidth: float  # bytes/s through the port

    def __post_init__(self) -> None:
        if self.kind not in ("dram", "sram", "bram"):
            raise ValueError(f"unknown memory kind {self.kind!r}")
        if self.capacity_bytes <= 0:
            raise ValueError(f"capacity must be positive, got {self.capacity_bytes}")
        if self.bandwidth <= 0:
            raise ValueError(f"bandwidth must be positive, got {self.bandwidth}")
