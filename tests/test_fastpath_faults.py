"""Differential tests: faults folded into the analytic replay.

A fault injector whose scenario only scales ``B_n``, ``F_f`` and ``B_d``
for the whole run on every node folds into the analytic fast path
(:class:`repro.sim.analytic.SteadyRates`); LU, FW and MM additionally
fold ``dma_stall`` windows as FIFO holds on their schedule replay's B_d
channel queue.  The folded replay must be **bitwise** identical to the
DES with the injector installed -- every ``*SimResult`` field compared
with ``==`` -- and must leave the same injection log.  Every other fault
timeline still falls back to the DES with reason ``faults``.
"""

from __future__ import annotations

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps.fw import FwSimConfig, simulate_fw
from repro.apps.lu import LuSimConfig, simulate_lu
from repro.apps.mm.simulate import MmSimConfig, simulate_mm
from repro.hw.mm_design import MatrixMultiplyDesign
from repro.campaign import CampaignSpec, PerturbationModel
from repro.campaign.core import campaign_tasks
from repro.campaign.runner import run_replicate
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
    ana = simulate(spec, cfg, faults=folded, fast_path="on")
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
    ana, ana_log, ref, ref_log = _folded_and_des(
        app, preset, FaultScenario(name="drawn", events=tuple(events)))
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
    ana, ana_log, ref, ref_log = _folded_and_des(app, "xd1", scenario)
    _assert_bitwise(ana, ref)
    assert ana_log == ref_log


@pytest.mark.parametrize("seed", range(3))
def test_jitter_only_campaign_replicates_match_the_des(seed):
    spec = CampaignSpec(apps=("lu", "fw"), replicates=3, seed=seed,
                        perturb=PerturbationModel(stall_count=0), throttle_fpga=0.8)
    for task in campaign_tasks(spec):
        before = _points(task["app"], "analytic")
        folded = run_replicate(task)
        assert _points(task["app"], "analytic") == before + 1
        set_fast_path_mode("off")
        try:
            assert run_replicate(task) == folded
        finally:
            set_fast_path_mode(None)


# -----------------------------------------------------------------------
# refusal: anything but steady whole-run rate faults needs the DES
# (stalls fold)
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


def _deferrals(app):
    """Runs a closed form handed to the replay, over every reason."""
    return sum(item["value"] for item in REGISTRY.snapshot()
               if item["name"] == "fastpath.deferral" and item["labels"]["app"] == app)


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
    if name == "burst":
        # Stall windows fold: every app's schedule replay models them.
        assert len(injector.steady_rates().stalls) == 2
        assert _stall_outcome(app, spec, cfg, UNFOLDABLE[name]) == "folded"
        return
    else:
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


# -----------------------------------------------------------------------
# LU, FW and MM fold dma_stall windows into the replay's channel queue
# -----------------------------------------------------------------------

LU_PRESETS = ("xd1", "xt3", "rasc")
FW_PRESETS = ("xd1", "xt3", "rasc", "src")
MM_PRESETS = ("xd1", "xt3", "rasc", "src")


def _stall_bursts(p, horizon=20.0, longest=3.0):
    """Bursts starting in ``[0, horizon]``, long stalls up to ``longest``."""
    return st.lists(
        st.builds(
            StallBurst,
            count=st.integers(1, 8),
            start=st.one_of(st.just(0.0), st.floats(0.0, horizon)),
            window=st.floats(1e-3, 1.0),
            # Short stalls as in the default model, plus long ones that
            # reach the critical path and move the makespan.
            mean_duration=st.one_of(st.floats(1e-5, 1e-2), st.floats(1e-2, longest)),
            node=st.one_of(st.none(), st.integers(0, p - 1)),
        ),
        min_size=1,
        max_size=2,
    )


@st.composite
def lu_stall_points(draw):
    preset = draw(st.sampled_from(LU_PRESETS))
    spec = ALL_PRESETS[preset]()
    b, k = 3000, 8
    cfg = LuSimConfig(
        n=draw(st.sampled_from((6000, 9000))),
        b=b,
        k=k,
        b_f=draw(st.sampled_from((0, 360, 1080, 2000, b))),
        l=draw(st.integers(0, 3)),
        superstripes=draw(st.integers(1, 6)),
        overlap=draw(st.booleans()),
        collect_results=draw(st.booleans()),
    )
    return spec, cfg, _drawn_scenario(draw, _stall_bursts(spec.p))


def _drawn_scenario(draw, bursts):
    return FaultScenario(
        name="drawn",
        events=tuple(draw(st.lists(
            st.builds(lambda kind, f: FaultEvent(kind=kind, factor=f),
                      st.sampled_from(RATE_KINDS), factors),
            max_size=3,
        ))),
        bursts=tuple(draw(bursts)),
        seed=draw(st.integers(0, 2**31 - 1)),
    )


@st.composite
def fw_stall_points(draw):
    preset = draw(st.sampled_from(FW_PRESETS))
    spec = ALL_PRESETS[preset]()
    cols = draw(st.integers(1, 4))  # n/(bp): ops per node per phase
    l1 = draw(st.integers(0, cols))
    cfg = FwSimConfig(
        n=128 * cols * spec.p,
        b=128,
        k=8,
        l1=l1,
        l2=cols - l1,
        overlap=draw(st.booleans()),
        iterations=draw(st.sampled_from((1, None))),
    )
    # FW runs here last ~0.1-2 s of simulated time.
    return spec, cfg, _drawn_scenario(draw, _stall_bursts(spec.p, horizon=1.0, longest=0.2))


@st.composite
def mm_stall_points(draw):
    preset = draw(st.sampled_from(MM_PRESETS))
    spec = ALL_PRESETS[preset]()
    k = MatrixMultiplyDesign.for_device(spec.node.fpga.device).k
    r = draw(st.sampled_from((240, 480)))  # panel rows: multiples of every k
    steps = r // k  # FPGA row blocks per panel; both baselines drawn often
    cfg = MmSimConfig(
        n=r * spec.p,
        k=k,
        m_f=k * draw(st.one_of(st.sampled_from((0, steps)), st.integers(0, steps))),
        overlap=draw(st.booleans()),
    )
    # MM runs here last ~0.004-1.5 s of simulated time.
    return spec, cfg, _drawn_scenario(draw, _stall_bursts(spec.p, horizon=1.0, longest=0.2))


def _stall_outcome(app, spec, cfg, scenario):
    """"folded" after a bitwise match with the DES, or "refused".

    A refusal passes only as an ambiguous tie, and only once the DES
    has run the point in its place.
    """
    simulate = APPS[app](spec)[0]
    injector = FaultInjector(scenario)
    analytic = _points(app, "analytic")
    ties = _fallbacks(app, "ambiguous-tie")
    got = simulate(spec, cfg, faults=injector, fast_path="auto")
    if _points(app, "analytic") == analytic:
        assert _fallbacks(app, "ambiguous-tie") == ties + 1
        assert injector.system is not None  # the DES ran instead
        return "refused"
    assert injector.system is None
    des = FaultInjector(scenario)
    ref = simulate(spec, cfg, faults=des, fast_path="off")
    _assert_bitwise(got, ref)
    assert injector.injected == des.injected
    return "folded"


def test_lu_stall_bursts_match_the_des_bitwise():
    outcomes = []

    @given(point=lu_stall_points())
    @settings(max_examples=60, deadline=None, database=None)
    def check(point):
        outcomes.append(_stall_outcome("lu", *point))

    check()
    # The suite must not pass by refusing: most draws fold.
    assert outcomes.count("folded") >= 0.6 * len(outcomes), outcomes


def test_fw_stall_bursts_match_the_des_bitwise():
    outcomes = []

    @given(point=fw_stall_points())
    @settings(max_examples=60, deadline=None, database=None)
    def check(point):
        before = _deferrals("fw")
        outcome = _stall_outcome("fw", *point)
        # The closed form serves the run unless it counts a deferral.
        path = "deferral" if _deferrals("fw") > before else "closed-form"
        assert outcome == "folded" or path == "deferral"
        outcomes.append((outcome, path))

    check()
    # The suite must not pass by refusing: most draws fold.
    assert [o for o, _ in outcomes].count("folded") >= 0.6 * len(outcomes), outcomes
    # Stalls at drawn instants never meet a hold's: no draw defers.
    assert all(path == "closed-form" for _, path in outcomes), outcomes


def test_mm_stall_bursts_match_the_des_bitwise():
    outcomes = []

    @given(point=mm_stall_points())
    @settings(max_examples=60, deadline=None, database=None)
    def check(point):
        outcomes.append(_stall_outcome("mm", *point))

    check()
    # The suite must not pass by refusing: most draws fold.
    assert outcomes.count("folded") >= 0.6 * len(outcomes), outcomes


def test_mm_same_instant_stall_grants_keep_the_des_order():
    # Every node's stall queues behind its step-1 staging hold, and the
    # six holds end at one instant: the grants are logged in the order
    # the holds started, which follows the ring's blocking sends.
    spec = ALL_PRESETS["xd1"]()
    cfg = MmSimConfig(n=1440, k=8, m_f=8, overlap=False)
    scenario = FaultScenario(
        name="queued",
        events=(FaultEvent(kind="dram_contention", factor=0.5),) * 2,
        bursts=(StallBurst(count=1, window=0.8125, mean_duration=0.0078125),),
        seed=1,
    )
    assert _stall_outcome("mm", spec, cfg, scenario) == "folded"


@pytest.mark.parametrize("l1,events,instant", [
    # On node 1 a short stall reverts as its hold is requested, and the
    # revert's timer runs before the request: both nodes' holds are
    # granted at their requests and end together.
    (1, (
        FaultEvent(kind="dma_stall", at=1e-4, duration=0.05, node=1),
        FaultEvent(kind="dma_stall", at=1e-4, duration=0.05, node=2),
        FaultEvent(kind="dma_stall", at=0.07244739720287659, duration=2.0**-20, node=1),
        FaultEvent(kind="dma_stall", at=0.072449350877193, duration=1e-3, node=1),
        FaultEvent(kind="dma_stall", at=0.072449350877193, duration=1e-3, node=2),
    ), 0.07272141754385966),
    # A stall ends node 2's FPGA job as its pivot lands: its get takes a
    # step, so node 1, woken by the put, asks for its channel first.
    (0, (
        FaultEvent(kind="dma_stall", at=0.02241448687719298, duration=0.008867882666666669,
                   node=2),
        FaultEvent(kind="dma_stall", at=0.040704, duration=1e-3, node=1),
        FaultEvent(kind="dma_stall", at=0.040704, duration=1e-3, node=2),
    ), 0.040840702877192991),
], ids=["abutting", "on-the-pivot"])
def test_fw_same_instant_stall_grants_keep_the_des_order(l1, events, instant):
    # Nodes 1 and 2's holds end together, and the stalls queued behind
    # them are granted in the order the DES started the holds' timers:
    # node 1's first.
    spec = ALL_PRESETS["xd1"]()
    cfg = FwSimConfig(n=1536, b=128, k=8, l1=l1, l2=2 - l1)
    scenario = FaultScenario(name="together", events=events)
    assert _stall_outcome("fw", spec, cfg, scenario) == "folded"
    log = FaultInjector(scenario)
    simulate_fw(spec, cfg, faults=log, fast_path="on")
    together = [(e["node"], e["phase"]) for e in log.injected if e["t"] == instant]
    assert together == [(1, "apply"), (2, "apply")]


@pytest.mark.parametrize("app,cfg", [
    ("mm", MmSimConfig(n=1440, k=8, m_f=8)),
    ("fw", FwSimConfig(n=128 * 2 * 6, b=128, k=8, l1=2, l2=0, aggregate_ops=False)),
])
def test_only_lu_replays_on_replay(app, cfg):
    # An MM stall run and an FW per-op stall run replay on StepReplay
    # alone: Replay counts no event.
    spec = ALL_PRESETS["xd1"]()
    scenario = FaultScenario(name="stall", bursts=(StallBurst(count=2, window=0.1),), seed=1)
    names = ("replay.events",)
    before = REGISTRY.counter_values(names)
    assert _stall_outcome(app, spec, cfg, scenario) == "folded"
    deltas = REGISTRY.counter_deltas(before, names)
    assert ("replay.events", (("engine", "replay"),)) not in deltas
    assert deltas[("replay.events", (("engine", "stepped"),))] > 0


#: Default-model campaign replicates (4-stall burst over every node plus
#: B_n/B_d/F_f jitter) at fixed seeds.
CAMPAIGN_SEEDS = tuple(range(8))


def _default_model_replicates_fold_and_match_the_des(app, preset, sizes=None):
    spec = CampaignSpec(apps=(app,), presets=(preset,), replicates=len(CAMPAIGN_SEEDS),
                        seed=11, sizes=sizes)
    tasks = campaign_tasks(spec)
    folded = 0
    for task in tasks:
        scenario = FaultScenario.from_dict(task["scenario"])
        assert scenario.bursts  # the default model always stalls
        before = _points(app, "analytic")
        deferrals = _deferrals(app)
        got = run_replicate(task)
        folded += _points(app, "analytic") - before
        # No replicate defers: FW's closed form serves every one itself.
        assert _deferrals(app) == deferrals
        set_fast_path_mode("off")
        try:
            assert run_replicate(task) == got
        finally:
            set_fast_path_mode(None)
    assert folded == len(tasks)


@pytest.mark.parametrize("preset", ["xd1", "xt3"])
def test_default_model_lu_replicates_fold_and_match_the_des(preset):
    _default_model_replicates_fold_and_match_the_des("lu", preset)


#: FW's default b = 256 is no multiple of the XT3 design's k = 33.
FW_SIZES = {"xd1": None, "xt3": {"fw": (12672, 264)}}


@pytest.mark.parametrize("preset", ["xd1", "xt3"])
def test_default_model_fw_replicates_fold_and_match_the_des(preset):
    _default_model_replicates_fold_and_match_the_des("fw", preset, FW_SIZES[preset])


@pytest.mark.parametrize("at", [0.0, 2.5])
def test_explicit_stalls_on_one_node_fold(at):
    # at == 0 holds the channel before any schedule op; at > 0 waits.
    spec = ALL_PRESETS["xd1"]()
    _, cfg = _lu(spec)
    scenario = FaultScenario(
        name="explicit",
        events=(
            FaultEvent(kind="dma_stall", at=at, duration=0.5, node=2),
            FaultEvent(kind="dma_stall", at=at + 0.25, duration=0.5, node=2),
            FaultEvent(kind="dram_contention", factor=0.9),
        ),
    )
    assert _stall_outcome("lu", spec, cfg, scenario) == "folded"


def test_folded_stall_log_has_grant_and_release_times():
    spec = ALL_PRESETS["xd1"]()
    _, cfg = _lu(spec)
    scenario = FaultScenario(
        name="queued",
        events=(
            FaultEvent(kind="link_slowdown", factor=0.9),
            FaultEvent(kind="dma_stall", at=1.0, duration=0.5, node=1),
            FaultEvent(kind="dma_stall", at=1.25, duration=0.5, node=1),
        ),
    )
    injector = FaultInjector(scenario)
    simulate_lu(spec, cfg, faults=injector, fast_path="on")
    log = [(e["kind"], e["phase"], e["node"], e["t"]) for e in injector.injected]
    # The second stall queues behind the first: granted at its release.
    assert log == [
        ("link_slowdown", "apply", None, 0.0),
        ("dma_stall", "apply", 1, 1.0),
        ("dma_stall", "revert", 1, 1.5),
        ("dma_stall", "apply", 1, 1.5),
        ("dma_stall", "revert", 1, 2.0),
    ]


def test_same_instant_stall_marks_keep_the_des_order():
    # Node 1's stall ends exactly when node 2's starts (1.0 + 0.5 == 1.5).
    # The DES logs node 1's revert first: node 2's apply waits one event
    # step for its lock grant, which the replay mirrors.
    spec = ALL_PRESETS["xd1"]()
    _, cfg = _lu(spec)
    scenario = FaultScenario(
        name="abutting",
        events=(
            FaultEvent(kind="dma_stall", at=1.0, duration=0.5, node=1),
            FaultEvent(kind="dma_stall", at=1.5, duration=0.5, node=2),
        ),
    )
    assert _stall_outcome("lu", spec, cfg, scenario) == "folded"


@pytest.mark.parametrize("mode", ["auto", "off"])
def test_stall_on_a_missing_node_raises_like_install(mode):
    spec = ALL_PRESETS["xd1"]()
    _, cfg = _lu(spec)
    scenario = FaultScenario(
        name="bad-node", bursts=(StallBurst(count=1, node=spec.p),)
    )
    with pytest.raises(ValueError, match=f"targets node {spec.p}, but the machine has p="):
        simulate_lu(spec, cfg, faults=FaultInjector(scenario), fast_path=mode)


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
    assert rates.b_d(1.04e9) == 1.04e9
