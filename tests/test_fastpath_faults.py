"""Differential tests: steady rate faults folded into the analytic replay.

A fault injector whose scenario only scales ``B_n``, ``F_f`` and ``B_d``
for the whole run on every node folds into the analytic fast path
(:class:`repro.sim.analytic.SteadyRates`).  The folded replay must be
**bitwise** identical to the DES with the injector installed -- every
``*SimResult`` field compared with ``==`` -- and must leave the same
injection log.  Every other fault timeline still falls back to the DES
with reason ``faults``.
"""

from __future__ import annotations

import dataclasses

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.apps.fw import FwSimConfig, simulate_fw
from repro.apps.lu import LuSimConfig, simulate_lu
from repro.apps.mm.simulate import MmSimConfig, simulate_mm
from repro.campaign import CampaignSpec, PerturbationModel
from repro.campaign.core import campaign_tasks
from repro.campaign.runner import DesignRunner
from repro.faults import (
    FaultEvent,
    FaultInjector,
    FaultScenario,
    StallBurst,
    degraded_link,
    node_failure,
)
from repro.faults.scenarios import RATE_KINDS
from repro.machine import ALL_PRESETS
from repro.obs.metrics import REGISTRY
from repro.sim import ProcessFailure
from repro.sim.analytic import FastPathUnsupported, set_fast_path_mode


@pytest.fixture(autouse=True)
def _no_mode_override():
    """Tests must not leak a process-default fast-path mode."""
    prev = set_fast_path_mode(None)
    yield
    set_fast_path_mode(prev)


def _lu(spec):
    return simulate_lu, LuSimConfig(n=9000, b=3000, k=8, b_f=1080, l=1)


def _fw(spec):
    return simulate_fw, FwSimConfig(n=128 * 2 * spec.p, b=128, k=8, l1=1, l2=1)


def _mm(spec):
    return simulate_mm, MmSimConfig(n=256 * spec.p, k=8, m_f=64)


APPS = {"lu": _lu, "fw": _fw, "mm": _mm}

#: (app, preset) pairs: every app on XD1, plus LU/MM on a non-XD1 machine.
POINTS = [("lu", "xd1"), ("fw", "xd1"), ("mm", "xd1"), ("lu", "xt3"), ("mm", "rasc")]

#: Rate factors on both sides of 1 (slowdowns and what-if speedups).
factors = st.floats(min_value=0.5, max_value=1.5, allow_nan=False)
rate_events = st.lists(
    st.builds(lambda kind, f: FaultEvent(kind=kind, factor=f), st.sampled_from(RATE_KINDS),
              factors),
    min_size=1,
    max_size=5,
)


def _folded_and_des(app, preset, scenario):
    """(analytic result, analytic log, DES result, DES log) for one point."""
    spec = ALL_PRESETS[preset]()
    simulate, cfg = APPS[app](spec)
    folded, des = FaultInjector(scenario), FaultInjector(scenario)
    try:
        ana = simulate(spec, cfg, faults=folded, fast_path="on")
    except FastPathUnsupported as exc:
        assert exc.reason == "ambiguous-tie"
        return None
    ref = simulate(spec, cfg, faults=des, fast_path="off")
    return ana, folded.injected, ref, des.injected


def _assert_bitwise(ana, ref):
    assert type(ana) is type(ref)
    for field in dataclasses.fields(ref):
        assert getattr(ana, field.name) == getattr(ref, field.name), field.name


@pytest.mark.parametrize("app,preset", POINTS)
@given(events=rate_events)
@settings(max_examples=12, deadline=None)
def test_folded_rate_faults_match_the_des_bitwise(app, preset, events):
    out = _folded_and_des(app, preset, FaultScenario(name="drawn", events=tuple(events)))
    assume(out is not None)
    ana, ana_log, ref, ref_log = out
    _assert_bitwise(ana, ref)
    assert ana_log == ref_log


@pytest.mark.parametrize("app", ["lu", "fw", "mm"])
@given(throttle=st.floats(min_value=0.5, max_value=0.95), jitter=factors)
@settings(max_examples=8, deadline=None)
def test_stacked_throttle_and_clock_jitter_apply_in_sequence(app, throttle, jitter):
    # A campaign-wide throttle_fpga plus a replicate's clock jitter:
    # (F_f * throttle) * jitter is not always F_f * (throttle * jitter).
    scenario = FaultScenario(
        name="stacked",
        events=(
            FaultEvent(kind="fpga_throttle", factor=throttle),
            FaultEvent(kind="dram_contention", factor=jitter),
            FaultEvent(kind="fpga_throttle", factor=jitter),
        ),
    )
    out = _folded_and_des(app, "xd1", scenario)
    assume(out is not None)
    ana, ana_log, ref, ref_log = out
    _assert_bitwise(ana, ref)
    assert ana_log == ref_log


@pytest.mark.parametrize("seed", range(3))
def test_jitter_only_campaign_replicates_match_the_des(seed):
    spec = CampaignSpec(apps=("lu", "fw"), replicates=3, seed=seed,
                        perturb=PerturbationModel(stall_count=0), throttle_fpga=0.8)
    runner = DesignRunner()
    for task in campaign_tasks(spec):
        before = _points(task["app"], "analytic")
        folded = runner.run(task)
        assert _points(task["app"], "analytic") == before + 1
        set_fast_path_mode("off")
        try:
            assert runner.run(task) == folded
        finally:
            set_fast_path_mode(None)


# -----------------------------------------------------------------------
# refusal: anything but a steady whole-run rate fault needs the DES
# -----------------------------------------------------------------------


def _points(app, path):
    try:
        return REGISTRY.value("fastpath.points", app=app, path=path)
    except KeyError:
        return 0.0


def _fallbacks(app, reason):
    try:
        return REGISTRY.value("fastpath.fallback", app=app, reason=reason)
    except KeyError:
        return 0.0


UNFOLDABLE = {
    "burst": FaultScenario(
        name="burst", events=(FaultEvent(kind="link_slowdown", factor=0.9),),
        bursts=(StallBurst(count=2, window=0.01, mean_duration=1e-4),), seed=3,
    ),
    "windowed": degraded_link(0.5, at=0.0, duration=0.01),
    "timed": degraded_link(0.5, at=0.01),
    "per-node": FaultScenario(
        name="per-node", events=(FaultEvent(kind="dram_contention", node=1, factor=0.5),)
    ),
    "node-failure": node_failure(node=1, at=1e-3),
}


@pytest.mark.parametrize("app", ["lu", "fw", "mm"])
@pytest.mark.parametrize("name", sorted(UNFOLDABLE))
def test_unfoldable_scenarios_fall_back_with_reason_faults(app, name):
    spec = ALL_PRESETS["xd1"]()
    simulate, cfg = APPS[app](spec)
    injector = FaultInjector(UNFOLDABLE[name])
    assert injector.steady_rates() is None
    before = _fallbacks(app, "faults")
    try:
        simulate(spec, cfg, faults=injector, fast_path="auto")
    except ProcessFailure:
        assert name == "node-failure"
    assert _fallbacks(app, "faults") == before + 1
    assert injector.system is not None  # the DES installed it
    with pytest.raises(FastPathUnsupported) as exc:
        simulate(spec, cfg, faults=FaultInjector(UNFOLDABLE[name]), fast_path="on")
    assert exc.value.reason == "faults"


def test_steady_rates_keep_expand_order_per_target():
    scenario = FaultScenario(
        name="mixed",
        events=(
            FaultEvent(kind="fpga_throttle", factor=0.8),
            FaultEvent(kind="link_slowdown", factor=1.2),
            FaultEvent(kind="fpga_throttle", factor=0.9),
        ),
    )
    rates = FaultInjector(scenario).steady_rates()
    assert rates.clock == (0.8, 0.9)
    assert rates.link == (1.2,)
    assert rates.dram == ()
    # B_d comes from the nominal clock; only DRAM contention scales it.
    assert rates.b_d(130e6, 3.2e9) == min(8.0 * 130e6, 3.2e9)
