"""Coverage for smaller public API surfaces across the package."""

import pytest

from repro import __version__
from repro.apps.fw import FwDesign
from repro.apps.lu import LuDesign
from repro.core import FlopSplit, Prediction, SystemParameters
from repro.hw import MatrixMultiplyDesign
from repro.machine import ReconfigurableSystem, cray_xd1
from repro.sim import Trace


def test_version_string():
    assert __version__.count(".") == 2


# ------------------------------------------------------------------- sim


def test_gantt_respects_lane_order():
    tr = Trace()
    tr.record("zeta", "x", 0.0, 1.0)
    tr.record("alpha", "y", 0.0, 1.0)
    text = tr.gantt(width=10, lanes=["zeta", "alpha"])
    lines = text.splitlines()
    assert lines[0].startswith("zeta")
    assert lines[1].startswith("alpha")


# --------------------------------------------------------------- machine


def test_fpga_run_negative_cycles_rejected():
    system = ReconfigurableSystem(cray_xd1())
    node = system.nodes[0]
    node.configure_fpga(MatrixMultiplyDesign.for_device())
    with pytest.raises(ValueError):
        list(node.fpga.run_cycles(-1))


def test_cpu_run_negative_flops_rejected():
    system = ReconfigurableSystem(cray_xd1())
    with pytest.raises(ValueError, match="negative"):
        list(system.nodes[0].cpu_run("dgemm", -1.0))


# ------------------------------------------------------------------ core


def test_flop_split_total_and_makespan():
    split = FlopSplit(n_p=10.0, n_f=20.0, t_p=1.0, t_f=4.0, t_transfer=0.5)
    assert split.total == 30.0
    assert split.makespan == 4.0


def test_prediction_gflops_zero_latency():
    pred = Prediction(latency=0.0, t_tp=0.0, t_tf=0.0, useful_flops=1.0)
    assert pred.gflops == 0.0


def test_parameters_sram_words():
    params = SystemParameters(p=1, o_f=1, f_f=1e6, cpu_flops=1e9, b_d=1e9, b_n=1e9, sram_bytes=80)
    assert params.sram_words == 10


# --------------------------------------------------------------- facades


def test_lu_design_config_overrides():
    design = LuDesign(cray_xd1(), n=6000, b=3000)
    cfg = design.config(b_f=800, l=1, superstripes=2)
    assert cfg.b_f == 800 and cfg.l == 1 and cfg.superstripes == 2
    default = design.config()
    assert default.b_f == design.plan.partition.b_f


def test_fw_design_config_overrides():
    design = FwDesign(cray_xd1(), n=18432, b=256)
    cfg = design.config(l1=5)
    assert cfg.l1 == 5 and cfg.l2 == 7


def test_lu_design_without_table1():
    """At a non-3000 block size the plan falls back to model-derived
    panel latencies rather than the measured Table 1 numbers."""
    design = LuDesign(cray_xd1(), n=12000, b=1200)
    assert design.plan.nb == 10
    assert design.plan.balance.l >= 1


def test_comparison_properties():
    design = FwDesign(cray_xd1(), n=18432, b=256)
    cmp = design.compare()
    assert cmp.speedup_vs_cpu == cmp.hybrid.gflops / cmp.cpu_only.gflops
    assert 0 < cmp.fraction_of_predicted <= 1.0


def test_lu_superstripe_granularity_robust():
    """Coarser or finer event aggregation must not change the simulated
    time materially (the aggregation is a modelling convenience)."""
    from repro.apps.lu import LuSimConfig, simulate_lu

    spec = cray_xd1()
    times = {}
    for s in (2, 4, 8):
        cfg = LuSimConfig(n=12000, b=3000, k=8, b_f=1080, l=3, superstripes=s)
        times[s] = simulate_lu(spec, cfg).elapsed
    assert max(times.values()) / min(times.values()) < 1.03
