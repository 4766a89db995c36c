"""Machine-model substrate: the simulated reconfigurable computing system.

Replaces the paper's Cray XD1 hardware with parametric models of the
processor, FPGA fabric, memory hierarchy and interconnect, composed into
:class:`~repro.machine.system.ReconfigurableSystem` instances by the
presets in :mod:`repro.machine.presets`.
"""

from .fpga import FpgaFabric, FpgaSpec, NotConfiguredError
from .interconnect import Interconnect, NetworkSpec
from .memory import MemorySpec
from .node import ComputeNode, NodeSpec
from .presets import ALL_PRESETS, cray_xd1, cray_xt3_drc, sgi_rasc, src_map_station
from .processor import OPTERON_2_2GHZ, CalibrationError, ProcessorSpec
from .scenarios import (
    compose,
    with_fpga_dram_bandwidth,
    with_network_bandwidth,
    with_node_failure,
    with_scaled_processor,
    with_sram_capacity,
)
from .system import MachineSpec, ReconfigurableSystem

__all__ = [
    "ALL_PRESETS",
    "CalibrationError",
    "ComputeNode",
    "FpgaFabric",
    "FpgaSpec",
    "Interconnect",
    "MachineSpec",
    "MemorySpec",
    "NetworkSpec",
    "NodeSpec",
    "NotConfiguredError",
    "OPTERON_2_2GHZ",
    "ProcessorSpec",
    "ReconfigurableSystem",
    "compose",
    "cray_xd1",
    "cray_xt3_drc",
    "sgi_rasc",
    "src_map_station",
    "with_fpga_dram_bandwidth",
    "with_network_bandwidth",
    "with_node_failure",
    "with_scaled_processor",
    "with_sram_capacity",
]
