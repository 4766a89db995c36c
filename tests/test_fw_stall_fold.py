"""FW's closed form folds ``dma_stall`` windows bitwise, in the DES's order.

:func:`repro.apps.fw.analytic.analytic_fw` treats each node's ``B_d``
channel as a FIFO queue of holds and stalls and orders the stall marks by
their DES positions; a stall requested at the instant its node requests
or releases a hold defers to the replay, counted under
``fastpath.deferral``.  Every check here compares the closed form with
:func:`repro.apps.engines.replay_schedule` on the same schedule, which
replays FW on :class:`repro.sim.stepped.StepReplay` in the DES's
same-instant order, and runs no DES (``tests/test_fastpath_faults.py``
holds the DES side), so the suite can draw many points.

Run as a script, it compares the closed form with the DES itself -- every
result field and the fault injector's log -- over a fixed-seed set of the
stall shapes drawn below and an "abutting" family (two nodes' stalls
queued behind holds that end together, after a stall reverting at one
node's hold request) on xd1, xt3, rasc and src::

    PYTHONPATH=src python tests/test_fw_stall_fold.py
"""

from __future__ import annotations

from math import inf

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.apps import build_design
from repro.apps.engines import replay_schedule
from repro.apps.fw import FwSimConfig
from repro.apps.fw.analytic import analytic_fw
from repro.apps.fw.schedule import fw_processes
from repro.campaign import CampaignSpec
from repro.campaign.core import campaign_tasks
from repro.faults import FaultEvent, FaultInjector, FaultScenario, StallBurst
from repro.faults.scenarios import RATE_KINDS
from repro.hw.fw_design import FloydWarshallDesign
from repro.machine import ALL_PRESETS
from repro.obs.metrics import REGISTRY
from repro.sim.analytic import FastPathUnsupported, ReplayCosts, fault_nodes
from repro.sim.stepped import StepReplay

FW_PRESETS = ("xd1", "xt3", "rasc", "src")


def _design(spec, cfg):
    return FloydWarshallDesign.for_device(spec.node.fpga.device, k=cfg.k)


def _deferrals() -> float:
    return sum(item["value"] for item in REGISTRY.snapshot()
               if item["name"] == "fastpath.deferral")


def _run(run):
    """``(result, stall log)``, or the refusal reason the run raised."""
    log: list = []
    try:
        return run(log), log
    except FastPathUnsupported as exc:
        return exc.reason, None


def _fold_matches_replay(spec, cfg, scenario, design=None) -> bool:
    """Assert the closed form equals the replay; True if it deferred."""
    design = design or _design(spec, cfg)
    rates = FaultInjector(scenario).steady_rates()
    before = _deferrals()
    got, got_log = _run(lambda log: analytic_fw(spec, cfg, design, rates, log))
    deferred = _deferrals() > before
    ref, ref_log = _run(lambda log: replay_schedule(
        spec, design.freq_hz, rates,
        lambda price: fw_processes(cfg, spec.p, design.tile_cycles(cfg.b), price), log,
        app="fw",
    ))
    if isinstance(ref, str):  # the replay refuses only ties the fold defers
        assert deferred and got == ref
        return deferred
    for field in ("elapsed", "cpu_busy", "fpga_busy", "network_bytes"):
        assert getattr(got, field) == ref[field], field
    folded = FaultInjector(scenario).install_folded(got_log)
    replayed = FaultInjector(scenario).install_folded(ref_log)
    assert folded.injected == replayed.injected
    return deferred


def _probed(i, ops, probes):
    """Node ``i``'s ops with a ``set`` before and after each channel hold."""
    for op in ops:
        if op[0] == "chan":
            probes.append(i)
            n = len(probes)
            yield ("set", ("request", n))
            yield op
            yield ("set", ("release", n))
        else:
            yield op


def _hold_instants(spec, cfg, design, rates) -> list[tuple[float, int, str]]:
    """``(instant, node, "request" | "release")`` of every hold in a
    replay of the schedule with ``rates``' stalls, in time order."""
    engine = StepReplay(spec.p, spec.network.links_per_node)
    for event in rates.stalls:
        for i in fault_nodes(event.node, spec.p):
            engine.spawn(iter([("stall", i, event.duration, None)]), event.at)
    probes: list[int] = []
    price = ReplayCosts(spec, design.freq_hz, rates)
    for i, (_, ops) in enumerate(fw_processes(cfg, spec.p, design.tile_cycles(cfg.b), price)):
        engine.process(_probed(i, ops, probes))
    engine.run()
    return sorted((t, probes[key[1] - 1], key[0]) for key, t in engine.events.items()
                  if key[0] in ("request", "release"))


factors = st.floats(min_value=0.5, max_value=1.5, allow_nan=False)


@st.composite
def fold_points(draw):
    """A FW point, a scenario, and where (if anywhere) a stall is pinned.

    ``pin`` None draws stall bursts only: short stalls, and long ones in
    narrow windows that queue behind each other (overlapping chains).
    ``"instant"`` adds a stall at a hold's request or release instant in
    the run with those bursts, which must defer; ``"revert"`` one whose
    revert lands on such an instant, which must not.
    """
    spec = ALL_PRESETS[draw(st.sampled_from(FW_PRESETS))]()
    cols = draw(st.integers(1, 4))
    l1 = draw(st.one_of(st.just(cols), st.integers(0, cols)))  # l1 = cols: l2 = 0
    cfg = FwSimConfig(
        n=128 * cols * spec.p, b=128, k=8, l1=l1, l2=cols - l1,
        overlap=draw(st.booleans()), iterations=draw(st.sampled_from((1, None))),
    )
    events = tuple(draw(st.lists(
        st.builds(lambda kind, f: FaultEvent(kind=kind, factor=f),
                  st.sampled_from(RATE_KINDS), factors),
        max_size=3,
    )))
    bursts = tuple(draw(st.lists(
        st.builds(
            StallBurst,
            count=st.integers(1, 12),
            start=st.one_of(st.just(0.0), st.floats(0.0, 1.0)),
            window=st.one_of(st.floats(1e-4, 1e-2), st.floats(1e-3, 1.0)),
            mean_duration=st.one_of(st.floats(1e-5, 1e-2), st.floats(1e-2, 0.2)),
            node=st.one_of(st.none(), st.integers(0, spec.p - 1)),
        ),
        max_size=2,
    )))
    seed = draw(st.integers(0, 2**31 - 1))
    pin = draw(st.sampled_from((None, None, "instant", "revert")))
    if pin is None:
        assume(bursts)
    else:
        rates = FaultInjector(FaultScenario(name="rates", events=events, bursts=bursts,
                                            seed=seed)).steady_rates()
        instants = _hold_instants(spec, cfg, _design(spec, cfg), rates)
        assume(instants)
        at, node, _ = draw(st.sampled_from(instants))
        duration = draw(st.sampled_from((2.0 ** -20, 2.0 ** -12, 2.0 ** -7, 0.05)))
        if pin == "revert":
            instant, at = at, at - duration
            assume(at > 0 and at + duration == instant)
        # A stall changes nothing before its own instant: the pinned one
        # still meets the hold it was drawn at.
        events += (FaultEvent(kind="dma_stall", at=at, duration=duration, node=node),)
    scenario = FaultScenario(name="drawn", events=events, bursts=bursts, seed=seed)
    return spec, cfg, scenario, pin


def test_stalled_fw_folds_like_the_replay_bitwise():
    outcomes = []

    @given(point=fold_points())
    @settings(max_examples=300, deadline=None, database=None)
    def check(point):
        spec, cfg, scenario, pin = point
        deferred = _fold_matches_replay(spec, cfg, scenario)
        assert deferred == (pin == "instant")
        outcomes.append((pin, deferred))

    check()
    assert {pin for pin, _ in outcomes} == {None, "instant", "revert"}


def test_owner_and_receiver_grants_at_one_instant_keep_the_des_order():
    # Both nodes' stall chains run back to back, so each node's hold
    # queues behind a stall, and the two stalls revert together (node
    # 0's first).  Their holds end together too, and the stalls queued
    # behind them are granted in the order the reverts started the
    # holds' timers: node 0 (the owner) first, although the pivot wave
    # wakes the receiver (node 1) before the owner.
    spec = ALL_PRESETS["rasc"]()
    cfg = FwSimConfig(n=1024, b=128, k=8, l1=0, l2=4)
    scenario = FaultScenario(
        name="trap",
        events=(FaultEvent(kind="link_slowdown", factor=1.4219897414811844),),
        bursts=(
            StallBurst(7, 0, 0.5, 0.0068872972668362975),
            StallBurst(5, 0, 0.0723344393264681, 0.007308944176172761),
        ),
        seed=222,
    )
    assert not _fold_matches_replay(spec, cfg, scenario)
    log: list = []
    analytic_fw(spec, cfg, _design(spec, cfg), FaultInjector(scenario).steady_rates(), log)
    together = [(node, phase) for (_, node), phase, t in log if t == 0.03208947647452672]
    assert together == [(0, "apply"), (1, "apply")]


def test_a_hold_requested_as_a_stall_reverts_finds_the_channel_free():
    # Long stalls delay nodes 1 and 2 alike past the next pivot, so each
    # finds the pivot there as its CPU op ends and asks for its channel
    # in the get's step, at one instant.  On node 1 a short stall
    # reverts at that instant: the revert is a timer, which the DES runs
    # before any step, so the hold finds the channel free as node 2's
    # does.  Both holds end together, and the last two stalls queue
    # behind them in the order the long stalls started the two nodes'
    # timers: node 1's first.
    spec = ALL_PRESETS["xd1"]()
    cfg = FwSimConfig(n=1536, b=128, k=8, l1=1, l2=1)
    scenario = FaultScenario(name="abutting", events=(
        FaultEvent(kind="dma_stall", at=1e-4, duration=0.05, node=1),
        FaultEvent(kind="dma_stall", at=1e-4, duration=0.05, node=2),
        FaultEvent(kind="dma_stall", at=0.07244739720287659, duration=2.0**-20, node=1),
        FaultEvent(kind="dma_stall", at=0.072449350877193, duration=1e-3, node=1),
        FaultEvent(kind="dma_stall", at=0.072449350877193, duration=1e-3, node=2),
    ))
    assert not _fold_matches_replay(spec, cfg, scenario)


@pytest.mark.parametrize("l1,delay_at,delay,after", [
    # Node 2's CPU op started its timer long before the pivot transfer
    # did, so it ends first: node 2 reaches its wait first and is woken
    # by the put like node 1, in wave order, so node 1's next stall is
    # granted first.
    (1, 0.044691179087719295, 0.00020240799999999073, 0.0673),
    # Node 2's FPGA job started its timer after the transfer: the pivot
    # is there when node 2 reaches its wait, and its get takes a step,
    # so node 1, woken by the put itself, asks for its channel first and
    # its stall is granted first.
    (0, 0.02241448687719298, 0.008867882666666669, 0.040704),
])
def test_a_receiver_done_as_its_pivot_lands(l1, delay_at, delay, after):
    # A stall on node 2 ends its phase 1 exactly when phase 2's pivot
    # reaches it, and a stall on nodes 1 and 2 then queues behind their
    # next holds, which end together.
    spec = ALL_PRESETS["xd1"]()
    cfg = FwSimConfig(n=1536, b=128, k=8, l1=l1, l2=2 - l1)
    scenario = FaultScenario(name="on-the-pivot", events=(
        FaultEvent(kind="dma_stall", at=delay_at, duration=delay, node=2),
        FaultEvent(kind="dma_stall", at=after, duration=1e-3, node=1),
        FaultEvent(kind="dma_stall", at=after, duration=1e-3, node=2),
    ))
    assert not _fold_matches_replay(spec, cfg, scenario)


def test_per_op_runs_with_stalls_keep_the_replay():
    # Per-op FW runs with FPGA work are DES-only: the replay refuses
    # their multi-run FPGA jobs, and the closed form hands them over.
    spec = ALL_PRESETS["xd1"]()
    cfg = FwSimConfig(n=128 * 2 * spec.p, b=128, k=8, l1=1, l2=1, aggregate_ops=False)
    scenario = FaultScenario(name="stall", bursts=(StallBurst(count=2, window=0.1),), seed=1)
    rates = FaultInjector(scenario).steady_rates()
    before = _deferrals()
    with pytest.raises(FastPathUnsupported) as exc:
        analytic_fw(spec, cfg, _design(spec, cfg), rates, [])
    assert exc.value.reason == "unsupported-config"
    assert _deferrals() == before


#: FW's default b = 256 is no multiple of the XT3 design's k = 33.
FW_SIZES = {"xd1": None, "xt3": {"fw": (12672, 264)}}


def test_default_model_replicates_fold_without_the_replay():
    # 150 default-model replicates per preset: none defers, and every
    # one equals the replay bitwise.
    deferred = runs = 0
    for preset, sizes in FW_SIZES.items():
        campaign = CampaignSpec(apps=("fw",), presets=(preset,), replicates=150, seed=7,
                                sizes=sizes)
        for task in campaign_tasks(campaign):
            fw = build_design("fw", preset, task.get("n"), task.get("b"))
            scenario = FaultScenario.from_dict(task["scenario"])
            deferred += _fold_matches_replay(fw.spec, fw.config(), scenario, fw.design)
            runs += 1
    assert runs == 300
    assert deferred == 0


#: The abutting family's splits: (l1, l2, overlap).
ABUT_SPLITS = ((1, 1, True), (0, 2, True), (1, 2, False), (2, 1, True))


def _abutting(spec, cfg, design, frac):
    """The shape of ``test_a_hold_requested_as_a_stall_reverts_finds_the_channel_free``
    on any machine: a stall of ``frac`` of the stall-free run from t =
    1e-4 on nodes 1 and 2 (every node of a smaller machine), a short stall
    on the first that reverts exactly at its first hold request after
    them, and a stall on each of the nodes in the middle of that hold.
    None where the run has no such hold."""
    nodes = (1, 2) if spec.p > 2 else tuple(range(spec.p))
    long = frac * analytic_fw(spec, cfg, design).elapsed
    events = tuple(FaultEvent(kind="dma_stall", at=1e-4, duration=long, node=i) for i in nodes)
    rates = FaultInjector(FaultScenario(name="long", events=events)).steady_rates()
    holds = [(kind, t) for t, i, kind in _hold_instants(spec, cfg, design, rates)
             if i == nodes[0] and t > 1e-4 + long]
    request = next((t for kind, t in holds if kind == "request"), None)
    release = next((t for kind, t in holds if kind == "release" and t > (request or inf)), None)
    if release is None:
        return None
    short = 2.0 ** -20
    mid = request + (release - request) / 2
    events += (FaultEvent(kind="dma_stall", at=request - short, duration=short, node=nodes[0]),)
    events += tuple(FaultEvent(kind="dma_stall", at=mid, duration=4 * (release - request),
                               node=i) for i in nodes)
    return FaultScenario(name="abutting", events=events)


if __name__ == "__main__":  # pragma: no cover
    import sys
    import time

    from repro.apps.fw import simulate_fw

    began = time.perf_counter()
    shapes = []

    @given(point=fold_points())
    @settings(max_examples=1000, derandomize=True, database=None, deadline=None)
    def draw(point):
        shapes.append(point[:3])

    draw()
    drawn = len(shapes)
    for preset in FW_PRESETS:
        spec = ALL_PRESETS[preset]()
        for l1, l2, overlap in ABUT_SPLITS:
            cfg = FwSimConfig(n=128 * (l1 + l2) * spec.p, b=128, k=8, l1=l1, l2=l2,
                              overlap=overlap)
            for frac in (0.25, 0.5):
                scenario = _abutting(spec, cfg, _design(spec, cfg), frac)
                if scenario is not None:
                    shapes.append((spec, cfg, scenario))
    deferred = differ = 0
    for spec, cfg, scenario in shapes:
        before = _deferrals()
        fast, des = FaultInjector(scenario), FaultInjector(scenario)
        got = simulate_fw(spec, cfg, faults=fast, fast_path="on")
        deferred += _deferrals() > before
        if (got != simulate_fw(spec, cfg, faults=des, fast_path="off")
                or fast.injected != des.injected):
            differ += 1
            print(f"differs from the DES: {spec.name} {cfg} {scenario}")
    print(f"{len(shapes)} FW stall shapes ({drawn} drawn, {len(shapes) - drawn} abutting): "
          f"{deferred} deferred, {differ} differ from the DES "
          f"({time.perf_counter() - began:.1f} s)")
    sys.exit(1 if differ else 0)
