"""Engine-level differential suite: one op schedule, two engines.

Hypothesis draws small random op schedules (``p`` from 2 to 4; CPU,
channel, FPGA spawn + wait, send and send-batch ops with matching
receives, and event ``set`` ops with matching waits; a send batch may
be empty) and runs each through
:class:`repro.sim.stepped.StepReplay` and through
:class:`repro.sim.interpret.DesInterpreter` on a live machine:
makespan, per-node CPU and FPGA busy time and network bytes must be
bitwise equal on every one.  Work comes from a small set of sizes so
that same-time ties are common.

Several processes may share a node, so CPU lanes, channels and FPGAs
see same-time contention between processes, as the LU owner and opMS
sink do.  Messages and events only flow from lower to higher process
ids and sends never wait on their receiver, so every drawn schedule is
deadlock-free.  On default-model LU campaign replicates (stall bursts
and rate jitter) on xd1, xt3 and rasc, the replay must equal the DES in
every result field and stall mark.

Hand-built ``stretch`` schedules (an LU worker's opMM job folded into
one entry) hold the fold bitwise equal to the DES where another process
asks for the worker's CPU lane inside a gemm or in a stage gap, where
one asks at a folded instant (the run replays unfolded, counted), where
twin workers end their stretches at one instant, and where a chunk
arrives mid-stretch.

Run as a script, it compares every point of the LU domain the
Hypothesis test below samples, fast path against DES, in every result
field, and counts the runs whose fold deferred::

    PYTHONPATH=src python tests/test_engine_differential.py
"""

from __future__ import annotations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.apps import build_design
from repro.apps.engines import replay_schedule
from repro.apps.lu import LuSimConfig, simulate_lu
from repro.campaign import CampaignSpec
from repro.campaign.core import campaign_tasks
from repro.faults import FaultInjector, FaultScenario
from repro.hw.mm_design import MatrixMultiplyDesign
from repro.machine import ReconfigurableSystem, cray_xd1
from repro.obs.metrics import REGISTRY
from repro.sim.analytic import NOMINAL_RATES, ReplayCosts, StretchPlan, set_fast_path_mode
from repro.sim.interpret import DesInterpreter, Physical
from repro.sim.stepped import StepReplay

#: Physical work per kind of cost; the drawn ops index into these.
WORK = {
    "cpu": [("dgemm", 1e9), ("dgemm", 2e9)],
    "chan": [2.8e6, 5.6e6],
    "fpga": [(1e5, 0.0), (2e5, 0.0)],
    "msg": [2e6, 4e6],
}
#: Which table each op's cost slot (index 2) reads.
TABLE = {"cpu": "cpu", "chan": "chan", "fpga_spawn": "fpga", "send": "msg", "send_batch": "msg"}


@st.composite
def schedules(draw):
    """``(p, nodes, programs)``: process ``j`` runs ``programs[j]`` on
    node ``nodes[j]``; work slots hold table indices."""
    p = draw(st.integers(2, 4))
    nodes = draw(st.lists(st.integers(0, p - 1), min_size=2, max_size=5))
    programs: list[list[tuple]] = [[] for _ in nodes]
    receives: list[list[tuple]] = [[] for _ in nodes]
    for j, i in enumerate(nodes):
        prog = programs[j]
        later = range(j + 1, len(nodes))
        peers = [r for r in later if nodes[r] != i]
        kinds = ["cpu", "chan", "fpga", "send_batch", "set"] + (["send"] if peers else [])
        for n, kind in enumerate(draw(st.lists(st.sampled_from(kinds), max_size=6))):
            w = draw(st.integers(0, 1))
            label = (kind, j, n)
            if kind == "cpu":
                prog.append(("cpu", i, w, label))
            elif kind == "chan":
                prog.append(("chan", i, w, label))
            elif kind == "fpga":
                key = ("fpga", j, n)
                prog.append(("fpga_spawn", i, w, key, label))
                receives[j].append((len(prog), key))  # wait after the spawn
            elif kind == "send":
                r = draw(st.sampled_from(peers))
                key = (i, nodes[r], ("m", j, n))
                prog.append(("send", key, w))
                receives[r].append((0, key))
            elif kind == "set":
                key = ("ev", j, n)
                prog.append(("set", key))
                for r in draw(st.lists(st.sampled_from(later), unique=True)) if later else []:
                    receives[r].append((0, key))
            else:
                rs = draw(st.lists(st.sampled_from(peers), unique=True)) if peers else []
                keys = [(i, nodes[r], ("b", j, n, r)) for r in rs]
                prog.append(("send_batch", keys, w))
                for r, key in zip(rs, keys):
                    receives[r].append((0, key))
    # Insert every receive at a drawn position (never before its spawn),
    # some as single waits and the rest as one trailing wait_all.
    for j, prog in enumerate(programs):
        gathered = []
        for earliest, key in receives[j]:
            if draw(st.booleans()):
                gathered.append(key)
            else:
                prog.insert(draw(st.integers(earliest, len(prog))), ("wait", key))
        if gathered:
            prog.append(("wait_all", gathered))
    return p, nodes, programs


def _priced(programs, price):
    """Each op's table index replaced by its work, priced by ``price``."""
    tables = {kind: [getattr(price, kind)(w) for w in work] for kind, work in WORK.items()}
    return [
        [op[:2] + (tables[TABLE[op[0]]][op[2]],) + op[3:] if op[0] in TABLE else op
         for op in prog]
        for prog in programs
    ]


def _replay(spec, design, programs, start="process"):
    """The programs on :class:`StepReplay`, each started with ``start``
    (``"process"``, or ``"spawn"`` as a fault injector's stall)."""
    engine = StepReplay(spec.p, spec.network.links_per_node)
    for ops in _priced(programs, ReplayCosts(spec, design.freq_hz)):
        if start == "process":
            engine.process(iter(ops))
        else:
            engine.spawn(iter(ops), 0.0)
    return engine.run(), engine.cpu_busy, engine.fpga_busy, engine.net_bytes


def _des(spec, design, programs):
    system = ReconfigurableSystem(spec, trace=False)
    system.configure_fpgas(lambda: design)
    des = DesInterpreter(system)
    for j, ops in enumerate(_priced(programs, Physical)):
        des.spawn(f"proc{j}", iter(ops))
    elapsed = system.run()
    return (
        elapsed,
        [nd.cpu_busy_time for nd in system.nodes],
        [nd.fpga.busy_time for nd in system.nodes],
        system.network.bytes_moved,
    )


@given(schedules())
@settings(max_examples=300, deadline=None)
def test_stepped_replay_matches_des_bitwise(schedule):
    p, _nodes, programs = schedule
    spec = cray_xd1(p=p)
    design = MatrixMultiplyDesign.for_device(spec.node.fpga.device, k=8)
    assert _replay(spec, design, programs) == _des(spec, design, programs)


def test_an_empty_send_batch_resumes_its_process():
    # all_of([]) fires at once on the DES; the replay must not park the
    # process forever (the single-node FW broadcast is such a batch).
    spec = cray_xd1(p=2)
    design = MatrixMultiplyDesign.for_device(spec.node.fpga.device, k=8)
    programs = [[("send_batch", [], 0), ("cpu", 0, 1, ("cpu", 0, 1))],
                [("cpu", 1, 0, ("cpu", 1, 0))]]
    replayed = _replay(spec, design, programs)
    assert replayed == _des(spec, design, programs)
    assert replayed[1][0] > 0.0  # node 0 ran its op after the batch


def _handoff_programs():
    """Node 0's worker ends a gemm and passes its part to node 0's sink
    (a ``set`` and a ``wait`` on ``local``), whose other part arrived
    earlier; both then ask for node 0's CPU lane.  The sink's ``ms``
    releases node 1's last op."""
    local = ("local",)
    return [
        [("send_batch", [(1, 0, ("r",)), (1, 0, ("c",))], 0), ("wait", ("ms",)),
         ("cpu", 1, 1, ("tail",))],
        [("wait_all", [local, (1, 0, ("r",))]), ("cpu", 0, 0, ("opMS",)), ("set", ("ms",))],
        [("cpu", 0, 1, ("gemm", 0)), ("set", local), ("wait", local),
         ("wait", (1, 0, ("c",))), ("cpu", 0, 0, ("gemm", 1))],
    ]


def test_a_local_handoff_replays_as_the_des_orders_it():
    """Who gets node 0's lane first is the DES's step order (``Replay``,
    with its tie classes, could not tell and refused): the replay grants
    it to the sink first, as the DES does."""
    spec = cray_xd1(p=2)
    design = MatrixMultiplyDesign.for_device(spec.node.fpga.device, k=8)
    programs = _handoff_programs()
    replayed, des, deferrals, _ = _stretch_runs(2, programs)
    assert replayed == des
    assert deferrals == 0
    gemm, opms = (ReplayCosts(spec, design.freq_hz).cpu(WORK["cpu"][w]) for w in (1, 0))
    assert replayed[0] == gemm + opms + gemm  # node 1's tail follows the sink's opMS


def _same_lu(a, b) -> bool:
    return (a.elapsed, a.cpu_busy, a.fpga_busy, a.network_bytes) == (
        b.elapsed, b.cpu_busy, b.fpga_busy, b.network_bytes)


@given(
    p=st.sampled_from([2, 3, 4, 6]),
    nb=st.integers(2, 10),
    b_f=st.sampled_from([0, 1080, 3000]),
    l=st.integers(0, 5),
    overlap=st.booleans(),
)
@settings(max_examples=40, deadline=None)
@example(p=4, nb=5, b_f=0, l=2, overlap=True)  # a service design's CPU-only baseline
def test_lu_replay_matches_des_bitwise(p, nb, b_f, l, overlap):
    """Random LU points: every point replays and equals the DES in every
    result field (CPU-only, hybrid and FPGA-only, with and without
    overlap).  The whole domain (4 x 9 x 3 x 6 x 2 points) is checked
    exhaustively by running this file as a script."""
    spec = cray_xd1(p=p)
    config = LuSimConfig(n=3000 * nb, b=3000, k=8, b_f=b_f, l=l, overlap=overlap)
    assert _same_lu(simulate_lu(spec, config, fast_path="on"),
                    simulate_lu(spec, config, fast_path="off"))


def test_the_stepped_replay_orders_a_met_wait_as_the_des_does():
    """Reduced from the FPGA-only ``ablation-overlap`` points: at one
    instant a send takes one of node 3's two ingress links, then two more
    ask, and the second must wait.  The DES resumes the first sender one
    step after its first transfer ends (its mailbox put), behind the two
    senders woken by the messages that arrived just before, and makes it
    wait.  ``Replay``'s tie classes, which compared an acquisition with
    the previous one only, let the inline order through (makespan
    0.5148237... against the DES's 0.5158253...).  ``StepReplay``
    replays it equal to the DES whether its processes are started or
    spawned at t = 0 -- a spawned process (a fault injector's stall)
    starts at step 1 of t = 0 too, in start order, as the DES starts
    it."""
    spec = cray_xd1(p=4)
    design = MatrixMultiplyDesign.for_device(spec.node.fpga.device, k=8)
    programs = [
        [("send", (2, 1, ("m", 1)), 0)],
        [("send", (2, 1, ("m", 2)), 0)],
        [("send", (0, 2, ("a",)), 0), ("send", (0, 3, ("x",)), 0), ("cpu", 0, 1, ("cpu",))],
        [("wait", (2, 1, ("m", 1))), ("send", (1, 3, ("y", 1)), 0)],
        [("wait", (2, 1, ("m", 2))), ("send", (1, 3, ("y", 2)), 0)],
    ]
    des = _des(spec, design, programs)
    assert des[0] == 0.5158253128205128
    assert _replay(spec, design, programs, start="spawn") == des
    assert _replay(spec, design, programs) == des


def test_twin_gemms_ending_at_one_instant_replay_as_the_des_orders_them():
    """Nodes 3 and 4 end twin gemms (started at one instant) at t =
    754.248...; both then send to node 5, whose one free ingress link the
    DES grants to node 4.  ``StepReplay`` starts those timers in the DES's
    order and does the same (the inline order granted node 3 and ended
    at 2109.5133 against the DES's 2109.5231)."""
    spec = cray_xd1(p=6)
    config = LuSimConfig(n=36000, b=3000, k=8, b_f=0, l=1)
    fast = simulate_lu(spec, config, fast_path="on")
    assert fast.elapsed == 2109.5230755691346
    assert _same_lu(fast, simulate_lu(spec, config, fast_path="off"))


def test_the_lu_design_grid_runs_on_the_replay():
    """The service's LU ``design`` grid -- n = 6000..24000 step 3000 on
    p = 3, 4 and 6 -- counts no DES point over its 63 runs (hybrid,
    CPU-only and FPGA-only), and every comparison equals the DES's."""
    points = REGISTRY.counter("fastpath.points", app="lu", path="des")
    prev = set_fast_path_mode(None)
    try:
        for n in range(6000, 24001, 3000):
            for p in (3, 4, 6):
                before = points.value
                fast = build_design("lu", n=n, b=3000, p=p).compare()
                assert points.value == before, (n, p)
                set_fast_path_mode("off")
                des = build_design("lu", n=n, b=3000, p=p).compare()
                set_fast_path_mode(None)
                for run in ("hybrid", "cpu_only", "fpga_only"):
                    assert _same_lu(getattr(fast, run), getattr(des, run)), (n, p, run)
    finally:
        set_fast_path_mode(prev)


#: Default-model LU replicates per preset.
LU_DRAWS = 20


@pytest.mark.parametrize("preset", ["rasc", "xd1", "xt3"])
def test_default_model_lu_replicates_replay_as_the_stepped_replay(preset):
    """On default-model campaign replicates (a stall burst over every
    node plus rate jitter) the replay equals the DES in every result
    field and stall mark.  ``Replay``'s checked tie classes handed every
    two-node RASC replicate over at its first same-instant lane
    contention; the one replay takes the DES's order."""
    campaign = CampaignSpec(apps=("lu",), presets=(preset,), replicates=LU_DRAWS, seed=5)
    for task in campaign_tasks(campaign):
        lu = build_design("lu", preset, task.get("n"), task.get("b"))
        runs = []
        for mode in ("on", "off"):
            faults = FaultInjector(FaultScenario.from_dict(task["scenario"]))
            got = simulate_lu(lu.spec, lu.config(), lu.design, faults=faults, fast_path=mode)
            runs.append((got.elapsed, got.cpu_busy, got.fpga_busy, got.network_bytes,
                         faults.injected))
        assert runs[0] == runs[1], task


# -----------------------------------------------------------------------
# stretches: a worker's node-local ops folded into one heap entry
# -----------------------------------------------------------------------


def _stretch_program(ops, price):
    """Process ``ops`` (table indices priced by ``price``), where a
    ``("stretch", i, steps, keys)`` op carries :class:`StretchPlan` steps
    whose last key is the FPGA job's: an engine that sends True takes
    them over, any other gets them one by one."""
    tables = {kind: [getattr(price, kind)(w) for w in work] for kind, work in WORK.items()}
    for op in ops:
        if op[0] != "stretch":
            yield op[:2] + (tables[TABLE[op[0]]][op[2]],) + op[3:] if op[0] in TABLE else op
            continue
        _, i, steps, keys = op
        priced = [(code, x if code == "wait" else tables[TABLE[code]][x])
                  for code, x in steps]
        if (yield ("stretch", i, StretchPlan(priced, fpga_key=len(keys) - 1), keys)):
            continue
        for code, x in priced:
            if code == "wait":
                yield ("wait", keys[x])
            elif code == "fpga_spawn":
                yield ("fpga_spawn", i, x, keys[-1], ("fpga",))
            else:
                yield (code, i, x, (code,))


def _stretch_runs(p, programs):
    """``(replayed, des, deferrals, folded)``: the programs through
    :func:`replay_schedule` and on the DES, with the replay's
    ``fastpath.deferral`` and ``replay.folded`` increments."""
    spec = cray_xd1(p=p)
    design = MatrixMultiplyDesign.for_device(spec.node.fpga.device, k=8)
    names = ("fastpath.deferral", "replay.folded")
    before = REGISTRY.counter_values(names)
    fields = replay_schedule(
        spec, design.freq_hz, NOMINAL_RATES,
        lambda price: [(f"proc{j}", _stretch_program(ops, price)) for j, ops in enumerate(programs)],
        [], app="lu")
    deltas = REGISTRY.counter_deltas(before, names)
    count = {name: sum(v for key, v in deltas.items() if key[0] == name) for name in names}
    system = ReconfigurableSystem(spec, trace=False)
    system.configure_fpgas(lambda: design)
    des = DesInterpreter(system)
    for j, ops in enumerate(programs):
        des.spawn(f"proc{j}", _stretch_program(ops, Physical))
    elapsed = system.run()
    replayed = (fields["elapsed"], fields["cpu_busy"], fields["fpga_busy"],
                fields["network_bytes"])
    des_fields = (elapsed, [nd.cpu_busy_time for nd in system.nodes],
                  [nd.fpga.busy_time for nd in system.nodes], system.network.bytes_moved)
    return replayed, des_fields, count["fastpath.deferral"], count["replay.folded"]


#: One opMM-like job of worker node 1: chunk 0, stage, FPGA, gemm, then
#: the FPGA's key, and the result to node 0.
_C0, _C1, _FK = (0, 1, ("c", 0)), (0, 1, ("c", 1)), ("fpga", 1)
_JOB = [("stretch", 1, [("wait", 0), ("chan", 0), ("fpga_spawn", 0), ("cpu", 0), ("wait", 1),
                        ("chan", 0), ("cpu", 0), ("wait", 2)], [_C0, _C1, _FK]),
        ("send", (1, 0, ("r",)), 0)]


def _sink(wait_for):
    """Node 1's other CPU user: one opMS-like hold once ``wait_for`` holds."""
    return wait_for + [("cpu", 1, 0, ("opMS",))]


@pytest.mark.parametrize("where", ["gemm", "stage-gap"])
def test_an_outside_lane_request_refolds_the_stretch_as_the_des_orders_it(where):
    """The sink asks for node 1's lane while the worker's job is folded:
    inside a gemm it waits for the gemm's end, in the stage gap before it
    it gets the lane at once and the gemm queues behind it.  Either way
    the stretch is re-timed, ``cpu_busy`` adds up in lane order, and the
    run folds with no deferral."""
    # Node 0's chunks leave at t = 0; the sink's trigger, a message of
    # 2e6 bytes, arrives mid-stage (1.0016 ms) or, after a 0.2564 s hold
    # on node 0, inside the worker's first gemm.
    trigger = [("send", (0, 1, ("m",)), 0)]
    owner = ([("send_batch", [_C0, _C1], 0)] + (trigger if where == "stage-gap" else [])
             + ([("cpu", 0, 0, ("x",))] + trigger if where == "gemm" else [])
             + [("wait", (1, 0, ("r",)))])
    programs = [owner, _JOB, _sink([("wait", (0, 1, ("m",)))])]
    replayed, des, deferrals, folded = _stretch_runs(2, programs)
    assert replayed == des
    assert (deferrals, folded) == (0, 7)


def test_an_outside_request_at_a_folded_instant_defers_the_run():
    """Node 2 stages as long as node 1 does, from the same instant, and
    then lets node 1's sink ask for the lane: the sink asks exactly when
    the worker's stage ends, where only the unfolded order can tell who
    gets the lane first.  The fold defers (counted once), the run replays
    unfolded, and it equals the DES."""
    c2 = (0, 2, ("c", 0))
    programs = [
        [("send_batch", [_C0, c2], 0), ("send", (0, 1, _C1[2]), 0),
         ("wait", (1, 0, ("r",)))],
        _JOB,
        [("wait", c2), ("chan", 2, 0, ("x",)), ("set", ("go",))],
        _sink([("wait", ("go",))]),
    ]
    replayed, des, deferrals, _ = _stretch_runs(3, programs)
    assert replayed == des
    assert deferrals == 1


def test_twin_stretches_ending_at_one_instant_pop_in_fold_order():
    """Workers 1 and 2 get their chunks in one burst and run the same job:
    their stretches end at one instant (both stop at the second chunk,
    which the owner's next burst brings), and both send to node 0.  The
    twins' end entries pop in fold order, as the DES runs them."""
    def job(i):
        c0, c1, fk = (0, i, ("c", 0)), (0, i, ("c", 1)), ("fpga", i)
        return [("stretch", i, [("wait", 0), ("chan", 0), ("fpga_spawn", 0), ("cpu", 0),
                                ("wait", 1), ("chan", 0), ("cpu", 0), ("wait", 2)],
                 [c0, c1, fk]),
                ("send", (i, 0, ("r", i)), 1)]

    programs = [
        [("send_batch", [(0, 1, ("c", 0)), (0, 2, ("c", 0))], 0),
         ("send_batch", [(0, 1, ("c", 1)), (0, 2, ("c", 1))], 0),
         ("wait_all", [(1, 0, ("r", 1)), (2, 0, ("r", 2))])],
        job(1), job(2),
    ]
    replayed, des, deferrals, folded = _stretch_runs(3, programs)
    assert replayed == des
    assert (deferrals, folded) == (0, 12)


def test_a_chunk_arriving_mid_stretch_stops_the_fold_and_resumes_it():
    """The worker's second chunk leaves node 0 only after a 0.2564 s hold,
    so the fold stops at its wait; once it arrives the fold goes on, and
    the FPGA job spawned before the stop ends as a real entry."""
    programs = [
        [("send", _C0, 0), ("cpu", 0, 0, ("x",)), ("send", _C1, 1),
         ("wait", (1, 0, ("r",)))],
        _JOB,
    ]
    replayed, des, deferrals, folded = _stretch_runs(2, programs)
    assert replayed == des
    assert (deferrals, folded) == (0, 6)  # the waits that stop a fold are not folded


def test_engine_work_counts_read_the_same_serial_or_parallel():
    """Each replay run adds its entries and folded ops to the registry
    from state the engine keeps; the pool's workers ship them back, so
    one figure counts the same work serially and with two workers.  The
    figure folds its workers' jobs and defers no fold."""
    from repro import experiments

    names = ("replay.events", "replay.folded", "fastpath.deferral")
    counts = []
    for jobs in (1, 2):
        before = REGISTRY.counter_values(names)
        with experiments.configured(jobs=jobs, cache=False):
            experiments.ALL_EXPERIMENTS["fig8"]()
        counts.append(REGISTRY.counter_deltas(before, names))
    assert counts[0] == counts[1]
    assert counts[0][("replay.folded", (("engine", "stepped"),))] > 0
    assert not any(key[0] == "fastpath.deferral" for key in counts[0])


if __name__ == "__main__":  # pragma: no cover
    import itertools
    import sys

    deferred = REGISTRY.counter("fastpath.deferral", app="lu", reason="instant")
    domain = list(itertools.product([2, 3, 4, 6], range(2, 11), [0, 1080, 3000], range(6),
                                    [False, True]))
    unfolded = differ = 0
    for p, nb, b_f, l, overlap in domain:
        spec = cray_xd1(p=p)
        config = LuSimConfig(n=3000 * nb, b=3000, k=8, b_f=b_f, l=l, overlap=overlap)
        before = deferred.value
        fast = simulate_lu(spec, config, fast_path="on")
        unfolded += deferred.value > before
        if fast != simulate_lu(spec, config, fast_path="off"):
            differ += 1
            print(f"differs from the DES: p={p} n/b={nb} b_f={b_f} l={l} overlap={overlap}")
    print(f"{len(domain)} LU points: {unfolded} replayed unfolded (a fold deferred), "
          f"{differ} differ from the DES")
    sys.exit(1 if differ else 0)
