"""DES determinism and app-level failure injection."""

import numpy as np
import pytest

from repro.apps.fw import FwSimConfig, simulate_fw
from repro.apps.lu import LuSimConfig, distributed_block_lu, simulate_lu
from repro.apps.mm import MmSimConfig, simulate_mm
from repro.core import CoordinationGuard, HazardError
from repro.kernels import random_dd_matrix
from repro.machine import cray_xd1


# ---------------------------------------------------------------- determinism


@pytest.fixture(scope="module")
def spec():
    return cray_xd1()


def test_lu_simulation_deterministic(spec):
    cfg = LuSimConfig(n=12000, b=3000, k=8, b_f=1080, l=3)
    a = simulate_lu(spec, cfg)
    b = simulate_lu(spec, cfg)
    assert a.elapsed == b.elapsed
    assert a.cpu_busy == b.cpu_busy
    assert a.network_bytes == b.network_bytes


def test_fw_simulation_deterministic(spec):
    cfg = FwSimConfig(n=18432, b=256, k=8, l1=2, l2=10, iterations=1)
    assert simulate_fw(spec, cfg).elapsed == simulate_fw(spec, cfg).elapsed


def test_mm_simulation_deterministic(spec):
    cfg = MmSimConfig(n=12000, k=8, m_f=1000)
    assert simulate_mm(spec, cfg).elapsed == simulate_mm(spec, cfg).elapsed


def test_traces_identical_across_runs(spec):
    cfg = FwSimConfig(n=6144, b=256, k=8, l1=1, l2=3, iterations=1)
    t1 = simulate_fw(spec, cfg, trace=True).trace
    t2 = simulate_fw(spec, cfg, trace=True).trace
    assert [(iv.category, iv.label, iv.start, iv.end) for iv in t1.intervals] == [
        (iv.category, iv.label, iv.start, iv.end) for iv in t2.intervals
    ]


# ------------------------------------------------------------ fault injection


class GrantDroppingGuard(CoordinationGuard):
    """A faulty coordination layer that loses all permission grants --
    models the processor forgetting to signal the FPGA (Section 4.4's
    failure mode)."""

    def grant(self, region: str, to_actor: str) -> None:
        pass  # the handshake never happens


def test_lost_grants_are_caught_as_hazards():
    """Running the real distributed LU schedule through a coordination
    layer that drops grants must trip the guard on the first cross-device
    read -- demonstrating the protocol is load-bearing, not decorative."""
    a = random_dd_matrix(24, np.random.default_rng(0))
    with pytest.raises(HazardError, match="ungranted-read"):
        distributed_block_lu(a, b=6, p=4, b_f=4, k=2, guard=GrantDroppingGuard())


def test_lost_grants_recorded_when_not_enforcing():
    a = random_dd_matrix(24, np.random.default_rng(0))
    guard = GrantDroppingGuard(enforce=False)
    distributed_block_lu(a, b=6, p=4, b_f=4, k=2, guard=guard)
    assert not guard.clean
    assert all(v.kind == "ungranted-read" for v in guard.violations)
    assert len(guard.violations) > 10  # every cross-device read tripped


def test_fw_schedule_also_depends_on_grants():
    from repro.apps.fw import distributed_blocked_fw
    from repro.kernels import random_distance_matrix

    d = random_distance_matrix(16, np.random.default_rng(1))
    with pytest.raises(HazardError):
        distributed_blocked_fw(d, b=4, p=2, l1=1, guard=GrantDroppingGuard())
