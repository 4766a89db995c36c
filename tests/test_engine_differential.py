"""Engine-level differential suite: one op schedule, two engines.

Hypothesis draws small random op schedules (``p`` from 2 to 4; CPU,
channel, FPGA spawn + wait, send and send-batch ops with matching
receives, and event ``set`` ops with matching waits; a send batch may
be empty, and a send may be followed by the ``step`` the DES takes
inside its blocking send) and runs each through
:class:`repro.sim.analytic.Replay` and through
:class:`repro.sim.interpret.DesInterpreter` on a live machine.
Wherever the replay does not refuse, makespan, per-node CPU and FPGA
busy time and network bytes must be bitwise equal.  Work comes from a
small set of sizes so that same-time ties are common and the
``ambiguous-tie`` refusal path is exercised too.

Several processes may share a node, so CPU lanes, channels and FPGAs
see same-time contention between processes, as the LU owner and opMS
sink do.  Messages and events only flow from lower to higher process
ids and sends never wait on their receiver, so every drawn schedule is
deadlock-free.

:class:`repro.sim.stepped.StepReplay`, which takes the DES's
same-instant order, runs the same schedules and must match the DES on
every one of them, refusing none.
"""

from __future__ import annotations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.apps import build_design
from repro.apps.lu import LuSimConfig, simulate_lu
from repro.hw.mm_design import MatrixMultiplyDesign
from repro.machine import ReconfigurableSystem, cray_xd1
from repro.obs.metrics import REGISTRY
from repro.sim.analytic import FastPathUnsupported, Replay, ReplayCosts, set_fast_path_mode
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
    # Each program is a list of units (lists of ops) until the receives
    # are placed, so no wait lands between a send and its step.
    programs: list[list[list[tuple]]] = [[] for _ in nodes]
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
                prog.append([("cpu", i, w, label)])
            elif kind == "chan":
                prog.append([("chan", i, w, label)])
            elif kind == "fpga":
                key = ("fpga", j, n)
                prog.append([("fpga_spawn", i, w, key, label)])
                receives[j].append((len(prog), key))  # wait after the spawn
            elif kind == "send":
                r = draw(st.sampled_from(peers))
                key = (i, nodes[r], ("m", j, n))
                prog.append([("send", key, w, None)] + [("step",)] * draw(st.integers(0, 1)))
                receives[r].append((0, key))
            elif kind == "set":
                key = ("ev", j, n)
                prog.append([("set", key)])
                for r in draw(st.lists(st.sampled_from(later), unique=True)) if later else []:
                    receives[r].append((0, key))
            else:
                rs = draw(st.lists(st.sampled_from(peers), unique=True)) if peers else []
                keys = [(i, nodes[r], ("b", j, n, r)) for r in rs]
                prog.append([("send_batch", keys, w)])
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
                prog.insert(draw(st.integers(earliest, len(prog))), [("wait", key)])
        if gathered:
            prog.append([("wait_all", gathered)])
    return p, nodes, [[op for unit in prog for op in unit] for prog in programs]


def _priced(programs, price):
    """Each op's table index replaced by its work, priced by ``price``."""
    tables = {kind: [getattr(price, kind)(w) for w in work] for kind, work in WORK.items()}
    return [
        [op[:2] + (tables[TABLE[op[0]]][op[2]],) + op[3:] if op[0] in TABLE else op
         for op in prog]
        for prog in programs
    ]


def _replay(spec, design, programs, engine_type=Replay, start="process"):
    """The programs on ``engine_type``, each started with ``start``
    (``"process"``, or ``"spawn"`` for processes it cannot order)."""
    engine = engine_type(spec.p, spec.network.links_per_node)
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
def test_replay_matches_des_bitwise_unless_it_refuses(schedule):
    p, _nodes, programs = schedule
    spec = cray_xd1(p=p)
    design = MatrixMultiplyDesign.for_device(spec.node.fpga.device, k=8)
    try:
        replayed = _replay(spec, design, programs)
    except FastPathUnsupported as exc:
        assert exc.reason == "ambiguous-tie"
        return
    assert replayed == _des(spec, design, programs)


@given(schedules())
@settings(max_examples=300, deadline=None)
def test_stepped_replay_matches_des_bitwise(schedule):
    p, _nodes, programs = schedule
    spec = cray_xd1(p=p)
    design = MatrixMultiplyDesign.for_device(spec.node.fpga.device, k=8)
    assert _replay(spec, design, programs, StepReplay) == _des(spec, design, programs)


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


def test_a_wait_at_an_instant_where_two_classes_met_refuses():
    """Reduced from the FPGA-only ``ablation-overlap`` points: at one
    instant an untagged send takes one of node 3's two ingress links, then
    two sends of one tie class ask, and the second must wait.  The replay
    resumes the untagged sender inline when its first transfer ends, so it
    asks first; the DES resumes it one step later (its mailbox put), behind
    the two senders woken by the messages that arrived just before, and
    makes it wait instead (makespan 0.5158253... against the replay's
    0.5148237...).  Compared only with the previous acquisition, of its own
    class, the waiting send passed the detector."""
    spec = cray_xd1(p=4)
    design = MatrixMultiplyDesign.for_device(spec.node.fpga.device, k=8)
    programs = [
        [("send", (2, 1, ("m", 1)), 0, None)],
        [("send", (2, 1, ("m", 2)), 0, None)],
        [("send", (0, 2, ("a",)), 0, None), ("send", (0, 3, ("x",)), 0, None),
         ("cpu", 0, 1, ("cpu",))],
        [("wait", (2, 1, ("m", 1))), ("send", (1, 3, ("y", 1)), 0, ("y",))],
        [("wait", (2, 1, ("m", 2))), ("send", (1, 3, ("y", 2)), 0, ("y",))],
    ]
    with pytest.raises(FastPathUnsupported, match="ingress"):
        _replay(spec, design, programs)
    assert _des(spec, design, programs)[0] == 0.5158253128205128


def _handoff_programs(handoff):
    """Node 0's worker ends a gemm and hands its part to node 0's sink,
    whose other part arrived earlier; both then ask for node 0's CPU lane.
    The sink's ``ms`` releases node 1's last op."""
    local = ("local",)
    return [
        [("send_batch", [(1, 0, ("r",)), (1, 0, ("c",))], 0), ("wait", ("ms",)),
         ("cpu", 1, 1, ("tail",))],
        [("wait_all", [local, (1, 0, ("r",))]), ("cpu", 0, 0, ("opMS",)), ("set", ("ms",))],
        [("cpu", 0, 1, ("gemm", 0))] + handoff(local)
        + [("wait", (1, 0, ("c",))), ("cpu", 0, 0, ("gemm", 1))],
    ]


def test_a_handoff_grants_the_sink_first_as_the_des_does():
    spec = cray_xd1(p=2)
    design = MatrixMultiplyDesign.for_device(spec.node.fpga.device, k=8)
    programs = _handoff_programs(lambda key: [("handoff", 0, key)])
    replayed = _replay(spec, design, programs)
    assert replayed == _des(spec, design, programs)
    gemm, opms = (ReplayCosts(spec, design.freq_hz).cpu(WORK["cpu"][w]) for w in (1, 0))
    assert replayed[0] == gemm + opms + gemm  # node 1's tail follows the sink's opMS
    # The same collision without the handoff's rule is an ambiguous tie.
    plain = _handoff_programs(lambda key: [("set", key), ("wait", key)])
    with pytest.raises(FastPathUnsupported, match="lane"):
        _replay(spec, design, plain)


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
def test_lu_replay_matches_des_bitwise_unless_it_refuses(p, nb, b_f, l, overlap):
    """Random LU points: every point replays (on ``Replay``, or on
    ``StepReplay`` where ``Replay`` refuses) and equals the DES in every
    result field (CPU-only, hybrid and FPGA-only, with and without
    overlap).  The whole domain (4 x 9 x 3 x 6 x 2 points) was checked
    exhaustively once: all replay, all equal."""
    spec = cray_xd1(p=p)
    config = LuSimConfig(n=3000 * nb, b=3000, k=8, b_f=b_f, l=l, overlap=overlap)
    assert _same_lu(simulate_lu(spec, config, fast_path="on"),
                    simulate_lu(spec, config, fast_path="off"))


def test_the_stepped_replay_orders_a_met_wait_as_the_des_does():
    """The schedule of the two-classes test above: ``StepReplay`` refuses
    it when its processes are spawned (it cannot order them) and replays
    it equal to the DES when they are started as the DES starts them."""
    spec = cray_xd1(p=4)
    design = MatrixMultiplyDesign.for_device(spec.node.fpga.device, k=8)
    programs = [
        [("send", (2, 1, ("m", 1)), 0, None)],
        [("send", (2, 1, ("m", 2)), 0, None)],
        [("send", (0, 2, ("a",)), 0, None), ("send", (0, 3, ("x",)), 0, None),
         ("cpu", 0, 1, ("cpu",))],
        [("wait", (2, 1, ("m", 1))), ("send", (1, 3, ("y", 1)), 0, ("y",))],
        [("wait", (2, 1, ("m", 2))), ("send", (1, 3, ("y", 2)), 0, ("y",))],
    ]
    with pytest.raises(FastPathUnsupported, match="ingress"):
        _replay(spec, design, programs, StepReplay, start="spawn")
    assert _replay(spec, design, programs, StepReplay) == _des(spec, design, programs)


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
