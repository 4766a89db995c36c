"""The node's on-board SRAM, as the model sees it: a capacity.

A :class:`MemorySpec` is declarative: a node's SRAM capacity feeds the
paper's Section 4.1 parameters (the "8 MB of SRAM" constraint).  Its
bandwidth is not modelled -- the SRAM<->fabric path never binds (see
DESIGN.md, "SRAM<->fabric path") -- and the live FPGA<->DRAM path is the
node's B_d channel.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["MemorySpec"]


@dataclass(frozen=True)
class MemorySpec:
    """Declarative description of a node's SRAM bank."""

    capacity_bytes: int

    def __post_init__(self) -> None:
        if self.capacity_bytes <= 0:
            raise ValueError(f"capacity must be positive, got {self.capacity_bytes}")
