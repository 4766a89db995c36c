"""Machine presets for the systems surveyed in Section 3 of the paper.

:func:`cray_xd1` is the implementation platform and is calibrated exactly
against Section 6.1.  The other presets (Cray XT3 + DRC module, SRC MAP,
SGI RASC RC100) carry the bandwidth/part figures the paper quotes, with
datasheet-level approximations where the paper is silent; they exist so
the design model can *predict* performance across machines (the paper's
Section 4.5 use-case), and are exercised by the preset-sweep ablation
benchmark.
"""

from __future__ import annotations

from ..hw.devices import get_device
from .fpga import FpgaSpec
from .interconnect import NetworkSpec
from .memory import MemorySpec
from .node import NodeSpec
from .processor import OPTERON_2_2GHZ, ProcessorSpec
from .system import MachineSpec

__all__ = ["cray_xd1", "cray_xt3_drc", "src_map_station", "sgi_rasc", "ALL_PRESETS"]

_MB = 1024**2


def cray_xd1(p: int = 6) -> MachineSpec:
    """One chassis of Cray XD1 (the paper's platform), ``p`` compute blades.

    Per blade: a 2.2 GHz Opteron (one of two is used), an XC2VP50, four
    banks of QDR II SRAM (12.8 GB/s aggregate, 8 MB allocated by the
    designs), a 2.8 GB/s RapidArray FPGA->DRAM path, and two 2 GB/s
    links into a non-blocking crossbar.
    """
    node = NodeSpec(
        processor=OPTERON_2_2GHZ,
        fpga=FpgaSpec(
            device=get_device("XC2VP50"),
            dram_link_bandwidth=2.8e9,
        ),
        sram=MemorySpec(capacity_bytes=8 * _MB),
    )
    return MachineSpec(
        name="Cray XD1 (1 chassis)",
        p=p,
        node=node,
        network=NetworkSpec(bandwidth=2e9, latency=1.6e-6, links_per_node=2),
    )


def cray_xt3_drc(p: int = 6) -> MachineSpec:
    """Cray XT3 nodes with DRC Virtex-4 modules (Section 3).

    The DRC module sits in an Opteron socket: up to 64 MB SRAM and a
    6.4 GB/s HyperTransport path to the adjacent Opteron's DRAM.
    Processor calibration reuses the Opteron table (same ISA family).
    """
    node = NodeSpec(
        processor=ProcessorSpec(
            name="AMD Opteron 2.4 GHz",
            clock_hz=2.4e9,
            sustained={k: v * 2.4 / 2.2 for k, v in OPTERON_2_2GHZ.sustained.items()},
        ),
        fpga=FpgaSpec(
            device=get_device("XC4VLX200"),
            dram_link_bandwidth=6.4e9,
        ),
        sram=MemorySpec(capacity_bytes=64 * _MB),
    )
    return MachineSpec(
        name="Cray XT3 + DRC",
        p=p,
        node=node,
        network=NetworkSpec(bandwidth=4e9, latency=2e-6, links_per_node=1),
    )


def src_map_station(p: int = 1) -> MachineSpec:
    """An SRC MAP station (Section 3): two XC2VP100s per MAP processor.

    Modelled as one node per MAP with the larger Virtex-II Pro part; the
    sustained-rate table borrows the Opteron calibration scaled to a
    2.8 GHz Xeon's dgemm ratio (approximate, documented substitution).
    """
    xeon = ProcessorSpec(
        name="Intel Xeon 2.8 GHz",
        clock_hz=2.8e9,
        sustained={k: v * 1.05 for k, v in OPTERON_2_2GHZ.sustained.items()},
    )
    node = NodeSpec(
        processor=xeon,
        fpga=FpgaSpec(
            device=get_device("XC2VP100"),
            dram_link_bandwidth=1.4e9,  # sustained MAP payload bandwidth
        ),
        sram=MemorySpec(capacity_bytes=24 * _MB),
    )
    return MachineSpec(
        name="SRC MAP station",
        p=p,
        node=node,
        network=NetworkSpec(bandwidth=1.4e9, latency=3e-6, links_per_node=1),
    )


def sgi_rasc(p: int = 2) -> MachineSpec:
    """SGI RASC RC100 blades (Section 3): two Virtex-4 LX200s per blade,
    directly attached to shared global memory over NUMAlink."""
    node = NodeSpec(
        processor=ProcessorSpec(
            name="Itanium2 1.5 GHz",
            clock_hz=1.5e9,
            sustained={k: v * 1.1 for k, v in OPTERON_2_2GHZ.sustained.items()},
        ),
        fpga=FpgaSpec(
            device=get_device("XC4VLX200"),
            dram_link_bandwidth=6.4e9,
        ),
        sram=MemorySpec(capacity_bytes=32 * _MB),
    )
    return MachineSpec(
        name="SGI RASC RC100",
        p=p,
        node=node,
        network=NetworkSpec(bandwidth=6.4e9, latency=1e-6, links_per_node=1),
    )


ALL_PRESETS = {
    "xd1": cray_xd1,
    "xt3": cray_xt3_drc,
    "src": src_map_station,
    "rasc": sgi_rasc,
}
