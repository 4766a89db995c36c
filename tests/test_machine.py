"""Tests for the machine models: processor, memory spec, FPGA fabric, node, system."""

import pytest

from repro.hw import FloydWarshallDesign, MatrixMultiplyDesign, get_device
from repro.machine import (
    OPTERON_2_2GHZ,
    CalibrationError,
    ComputeNode,
    FpgaSpec,
    MachineSpec,
    MemorySpec,
    NetworkSpec,
    NodeSpec,
    NotConfiguredError,
    ProcessorSpec,
    ReconfigurableSystem,
    cray_xd1,
)
from repro.sim import Simulator, Trace


# -------------------------------------------------------------- processor


def test_opteron_dgemm_calibration():
    assert OPTERON_2_2GHZ.sustained_flops("dgemm") == pytest.approx(3.9e9)


def test_opteron_table1_oplu_latency():
    """dgetrf on a 3000x3000 block takes 4.9 s (Table 1)."""
    flops = (2.0 / 3.0) * 3000**3
    assert OPTERON_2_2GHZ.kernel_time("dgetrf", flops) == pytest.approx(4.9)


def test_opteron_table1_dtrsm_latency():
    """dtrsm on a 3000x3000 block takes 7.1 s (Table 1)."""
    assert OPTERON_2_2GHZ.kernel_time("dtrsm", 3000**3) == pytest.approx(7.1)


def test_opteron_fw_calibration():
    assert OPTERON_2_2GHZ.sustained_flops("fw") == pytest.approx(190e6)


def test_unknown_kernel_raises():
    with pytest.raises(CalibrationError, match="no calibration"):
        OPTERON_2_2GHZ.sustained_flops("fft")


def test_with_rate_overrides():
    p2 = OPTERON_2_2GHZ.with_rate("fft", 1e9)
    assert p2.sustained_flops("fft") == 1e9
    assert OPTERON_2_2GHZ is not p2


def test_processor_validation():
    with pytest.raises(ValueError):
        ProcessorSpec("x", clock_hz=0)
    with pytest.raises(ValueError):
        ProcessorSpec("x", clock_hz=1e9, sustained={"k": -1.0})
    with pytest.raises(ValueError):
        OPTERON_2_2GHZ.kernel_time("dgemm", -5)


# ----------------------------------------------------------------- memory


def test_memory_spec_validation():
    with pytest.raises(ValueError):
        MemorySpec(capacity_bytes=0)


# ---------------------------------------------------------------- FPGA


def make_node(sim):
    spec = cray_xd1().node
    return ComputeNode(sim, spec, 0)


def test_fpga_requires_configuration():
    sim = Simulator()
    node = make_node(sim)
    with pytest.raises(NotConfiguredError):
        _ = node.fpga.freq_hz
    with pytest.raises(RuntimeError, match="not configured"):
        _ = node.b_d


def test_fpga_configure_sets_bd():
    sim = Simulator()
    node = make_node(sim)
    node.configure_fpga(MatrixMultiplyDesign.for_device())
    assert node.b_d == pytest.approx(1.04e9)  # Section 6.1 value
    node2 = make_node(Simulator())
    node2.configure_fpga(FloydWarshallDesign.for_device())
    assert node2.b_d == pytest.approx(960e6)


def test_fpga_rejects_design_for_other_device():
    sim = Simulator()
    node = make_node(sim)
    wrong = MatrixMultiplyDesign.for_device(get_device("XC4VLX200"), k=8)
    with pytest.raises(ValueError, match="synthesised for"):
        node.configure_fpga(wrong)


def test_fpga_run_cycles_time_and_trace():
    sim = Simulator()
    sim.trace = Trace()
    node = make_node(sim)
    node.configure_fpga(MatrixMultiplyDesign.for_device())

    def proc(sim):
        yield from node.fpga.run_cycles(130e6, label="stripe")

    sim.process(proc(sim))
    assert sim.run() == pytest.approx(1.0)  # 130e6 cycles at 130 MHz
    assert node.fpga.busy_time == pytest.approx(1.0)
    (iv,) = sim.trace.by_category("fpga0")
    assert iv.label == "stripe"
    assert iv.meta["cycles"] == 130e6


def test_fpga_serialises_work():
    sim = Simulator()
    node = make_node(sim)
    node.configure_fpga(MatrixMultiplyDesign.for_device())
    ends = []

    def job(sim, cycles):
        yield from node.fpga.run_cycles(cycles)
        ends.append(sim.now)

    sim.process(job(sim, 130e6))
    sim.process(job(sim, 130e6))
    sim.run()
    assert ends == [pytest.approx(1.0), pytest.approx(2.0)]


# ------------------------------------------------------------------- node


def test_cpu_run_uses_sustained_rate():
    sim = Simulator()
    sim.trace = Trace()
    node = make_node(sim)

    def proc(sim):
        yield from node.cpu_run("dgemm", 3.9e9, label="gemm")

    sim.process(proc(sim))
    assert sim.run() == pytest.approx(1.0)
    assert node.cpu_busy_time == pytest.approx(1.0)
    (iv,) = sim.trace.by_category("cpu0")
    assert iv.label == "gemm"
    assert iv.meta["flops"] == 3.9e9


def test_cpu_lane_is_exclusive():
    sim = Simulator()
    node = make_node(sim)
    ends = []

    def job(sim):
        yield from node.cpu_run("dgemm", 3.9e9)  # 1 s
        ends.append(sim.now)

    sim.process(job(sim))
    sim.process(job(sim))
    sim.run()
    assert ends == [pytest.approx(1.0), pytest.approx(2.0)]


def test_dram_to_fpga_is_bd_limited():
    sim = Simulator()
    node = make_node(sim)
    node.configure_fpga(MatrixMultiplyDesign.for_device())

    def proc(sim):
        yield from node.dram_to_fpga(1.04e9)

    sim.process(proc(sim))
    assert sim.run() == pytest.approx(1.0)


# ----------------------------------------------------------------- system


def test_xd1_preset_shape():
    spec = cray_xd1()
    assert spec.p == 6
    assert spec.network.bandwidth == 2e9
    assert spec.network.links_per_node == 2
    assert spec.node.sram.capacity_bytes == 8 * 2**20


def test_parameters_match_section_6_1():
    spec = cray_xd1()
    params = spec.parameters("dgemm", MatrixMultiplyDesign.for_device())
    assert params.p == 6
    assert params.o_f == 16
    assert params.f_f == pytest.approx(130e6)
    assert params.cpu_flops == pytest.approx(3.9e9)
    assert params.b_d == pytest.approx(1.04e9)
    assert params.b_n == pytest.approx(2e9)
    fw_params = spec.parameters("fw", FloydWarshallDesign.for_device())
    assert fw_params.f_f == pytest.approx(120e6)
    assert fw_params.b_d == pytest.approx(960e6)
    assert fw_params.cpu_flops == pytest.approx(190e6)


def test_system_builds_nodes_and_network():
    sysm = ReconfigurableSystem(cray_xd1())
    assert len(sysm.nodes) == 6
    assert sysm.network.p == 6
    assert sysm.trace is not None


def test_machine_spec_validation():
    with pytest.raises(ValueError):
        MachineSpec("bad", 0, cray_xd1().node, NetworkSpec(bandwidth=1e9))


def test_network_spec_validation():
    with pytest.raises(ValueError):
        NetworkSpec(bandwidth=0)
    with pytest.raises(ValueError):
        NetworkSpec(bandwidth=1e9, latency=-1)
    with pytest.raises(ValueError):
        NetworkSpec(bandwidth=1e9, links_per_node=0)


def test_fpga_spec_validation():
    with pytest.raises(ValueError):
        FpgaSpec(get_device("XC2VP50"), dram_link_bandwidth=0)
