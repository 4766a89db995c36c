"""Tests for the analytic no-contention fast path.

The core property: on every point the fast path accepts, the analytic
result is **bitwise identical** to the discrete-event simulation --
``elapsed``, per-node busy times and network bytes compare with ``==``,
not ``pytest.approx``.  Randomized draws from the valid parameter space
exercise the property beyond the paper's fixed grids; refusal tests pin
down when the fast path must hand over to the DES.
"""

from __future__ import annotations

import random
from dataclasses import replace

import pytest

from repro.apps.fw import FwSimConfig, simulate_fw
from repro.apps.fw.analytic import analytic_fw_batch
from repro.apps.lu import LuSimConfig, simulate_block_mm, simulate_lu
from repro.apps.lu.analytic import analytic_block_mm, analytic_block_mm_batch
from repro.apps.mm.simulate import MmSimConfig, simulate_mm
from repro.hw.mm_design import MatrixMultiplyDesign
from repro.machine import ALL_PRESETS, ReconfigurableSystem, cray_xd1
from repro.obs.metrics import REGISTRY
from repro.sim import SimMonitor
from repro.sim.interpret import DesInterpreter, Physical
from repro.sim.stepped import StepReplay
from repro.sim.analytic import (
    FAST_PATH_ENV_VAR,
    FastPathUnsupported,
    ReplayCosts,
    fast_path_refusal,
    fastpath_summary,
    resolve_fast_path,
    set_fast_path_mode,
)


@pytest.fixture
def xd1():
    return ALL_PRESETS["xd1"]()


@pytest.fixture(autouse=True)
def _no_mode_override():
    """Tests must not leak a process-default fast-path mode."""
    prev = set_fast_path_mode(None)
    yield
    set_fast_path_mode(prev)


def _same(des, ana):
    assert des.elapsed == ana.elapsed
    assert des.cpu_busy == ana.cpu_busy
    assert des.fpga_busy == ana.fpga_busy
    assert des.network_bytes == ana.network_bytes
    assert des.trace is None and ana.trace is None


# -----------------------------------------------------------------------
# bitwise equality on randomized uncontended points
# -----------------------------------------------------------------------


@pytest.mark.parametrize("seed", range(4))
def test_lu_analytic_matches_des_bitwise(xd1, seed):
    rng = random.Random(seed)
    for _ in range(3):
        cfg = LuSimConfig(
            n=3000 * rng.choice((2, 3, 4)),
            b=3000,
            k=8,
            b_f=rng.choice((0, 1080, 2160, 3000)),
            l=rng.choice((0, 1, 2, 3)),
            overlap=rng.random() < 0.5,
            collect_results=rng.random() < 0.5,
            superstripes=rng.choice((1, 2, 8)),
            iterations=rng.choice((1, None)),
        )
        des = simulate_lu(xd1, cfg, fast_path="off")
        ana = simulate_lu(xd1, cfg, fast_path="on")
        _same(des, ana)
        assert des.useful_flops == ana.useful_flops


@pytest.mark.parametrize("seed", range(4))
def test_fw_analytic_matches_des_bitwise(xd1, seed):
    rng = random.Random(100 + seed)
    p = xd1.p
    for _ in range(3):
        ops = rng.choice((1, 2, 3))
        l1 = rng.randint(0, ops)
        cfg = FwSimConfig(
            n=128 * ops * p,
            b=128,
            k=8,
            l1=l1,
            l2=ops - l1,
            overlap=rng.random() < 0.5,
            aggregate_ops=rng.random() < 0.5,
            iterations=rng.choice((1, None)),
        )
        des = simulate_fw(xd1, cfg, fast_path="off")
        ana = simulate_fw(xd1, cfg, fast_path="on")
        _same(des, ana)
        assert des.iterations_run == ana.iterations_run


@pytest.mark.parametrize("seed", range(4))
def test_mm_analytic_matches_des_bitwise(xd1, seed):
    rng = random.Random(200 + seed)
    p = xd1.p
    r = rng.choice((256, 512))
    m_f = rng.randint(0, r // 8) * 8
    cfg = MmSimConfig(n=p * r, k=8, m_f=m_f, overlap=rng.random() < 0.5)
    des = simulate_mm(xd1, cfg, fast_path="off")
    ana = simulate_mm(xd1, cfg, fast_path="on")
    _same(des, ana)


@pytest.mark.parametrize("seed", range(4))
def test_block_mm_analytic_matches_des_bitwise(xd1, seed):
    rng = random.Random(300 + seed)
    b = rng.choice((240, 512, 960))
    bfs = sorted({rng.randint(0, b // 8) * 8 for _ in range(5)})
    des = [simulate_block_mm(xd1, b, bf, 8, fast_path="off") for bf in bfs]
    scalar = [analytic_block_mm(xd1, b, bf, 8) for bf in bfs]
    batch = analytic_block_mm_batch(xd1, b, bfs, 8)
    assert des == scalar == batch  # floats, compared exactly


def test_fw_batch_matches_scalar_bitwise(xd1):
    cfgs = [FwSimConfig(n=2304, b=128, k=8, l1=l1, l2=3 - l1) for l1 in range(4)]
    batch = analytic_fw_batch(xd1, cfgs)
    for cfg, res in zip(cfgs, batch):
        _same(simulate_fw(xd1, cfg, fast_path="off"), res)


def test_other_presets_match_bitwise():
    for machine in ("xt3", "rasc"):
        spec = ALL_PRESETS[machine]()
        cfg = FwSimConfig(n=128 * 2 * spec.p, b=128, k=8, l1=1, l2=1)
        _same(simulate_fw(spec, cfg, fast_path="off"),
              simulate_fw(spec, cfg, fast_path="on"))


# -----------------------------------------------------------------------
# same-instant contention: the replay against the DES, driven directly
# -----------------------------------------------------------------------

#: Physical work of the shapes below; each op's work slot indexes it.
WORK = {
    "cpu": [("dgemm", 0.0), ("dgemm", 1e9), ("dgemm", 2e9)],
    "chan": [0.0, 2.8e6, 5.6e6],
    "fpga": [(0.0, 0.0), (1e5, 0.0), (2e5, 0.0)],
    "msg": [0.0, 2e6, 4e6],
}
TABLE = {"cpu": "cpu", "chan": "chan", "fpga_spawn": "fpga", "send": "msg", "send_batch": "msg"}


def _priced(ops, price):
    tables = {kind: [getattr(price, kind)(w) for w in work] for kind, work in WORK.items()}
    return [op[:2] + (tables[TABLE[op[0]]][op[2]],) + op[3:] if op[0] in TABLE else op
            for op in ops]


def _after(sim, at, steps):
    """A DES process that first sleeps ``at`` (none at 0), as a fault
    injector's stall process does."""
    if at > 0:
        yield sim.timeout(at)
    yield from steps


def _one_link(p):
    """An XD1 of ``p`` nodes with one network link per node."""
    spec = cray_xd1(p=p)
    return replace(spec, network=replace(spec.network, links_per_node=1))


def _replay_and_des(starts, p=3):
    """``(at, ops)`` per process, spawned in order: every result field of
    :class:`StepReplay` and of the DES."""
    spec = _one_link(p)
    design = MatrixMultiplyDesign.for_device(spec.node.fpga.device, k=8)
    engine = StepReplay(spec.p, 1)
    for at, ops in starts:
        engine.spawn(iter(_priced(ops, ReplayCosts(spec, design.freq_hz))), at)
    engine.run()
    replayed = (engine.max_t, engine.cpu_busy, engine.fpga_busy, engine.net_bytes)
    system = ReconfigurableSystem(spec, trace=False)
    system.configure_fpgas(lambda: design)
    des = DesInterpreter(system)
    for at, ops in starts:
        system.sim.process(_after(system.sim, at, des._run(_priced(ops, Physical))))
    elapsed = system.run()
    return replayed, (elapsed, [nd.cpu_busy_time for nd in system.nodes],
                      [nd.fpga.busy_time for nd in system.nodes], system.network.bytes_moved)


#: Two processes' first ops, spawned at one instant on a 3-node,
#: one-link machine: each pair contends for the named queue and nothing
#: else, so the one that comes second must wait.  ``Replay``'s tie
#: detector refused every one of them.
CONTENDED = {
    "lane[1]": [("cpu", 1, 1, None), ("cpu", 1, 2, None)],
    "chan[1]": [("chan", 1, 1, None), ("chan", 1, 2, None)],
    "fpga[1]": [("fpga_spawn", 1, 1, ("fpga", 0), None),
                ("fpga_spawn", 1, 2, ("fpga", 1), None)],
    "egress[0]": [("send", (0, 1, "a"), 1), ("send", (0, 2, "b"), 1)],
    "ingress[2]": [("send", (0, 2, "a"), 1), ("send", (1, 2, "b"), 1)],
}


@pytest.mark.parametrize("queue", sorted(CONTENDED))
@pytest.mark.parametrize("at", [0.0, 2.5])
def test_same_instant_contention_between_processes_refuses(queue, at):
    # Once refused as ambiguous ties; the replay now grants the queue in
    # the DES's order, at t = 0 (process starts) or at 2.5 (sleeps).
    replayed, des = _replay_and_des([(at, [op]) for op in CONTENDED[queue]])
    assert replayed == des


#: Per queue: a holder's ops, then a second process's ops.  The second
#: process, spawned first as the holder's hold ends, waits for the
#: holder's slot, holds it for no time and asks for the queue again at
#: that instant.  ``Replay``'s detector refused every one of them.
REACQUIRED = {
    "lane[1]": ([("cpu", 1, 1, None)], [("cpu", 1, 0, None), ("cpu", 1, 1, None)]),
    "chan[1]": ([("chan", 1, 1, None)], [("chan", 1, 0, None), ("chan", 1, 1, None)]),
    "fpga[1]": ([("fpga_spawn", 1, 1, ("fpga", 0), None)],
                [("fpga_spawn", 1, 0, ("fpga", 1), None), ("wait", ("fpga", 1)),
                 ("fpga_spawn", 1, 1, ("fpga", 2), None)]),
    "egress[0]": ([("send", (0, 1, "a"), 1)],
                  [("send", (0, 2, "b"), 0), ("send", (0, 1, "c"), 1)]),
    "ingress[2]": ([("send", (1, 2, "a"), 1)],
                   [("send", (0, 2, "b"), 0), ("send", (1, 2, "c"), 1)]),
}


@pytest.mark.parametrize("queue", sorted(REACQUIRED))
def test_a_free_queue_still_refuses_at_an_instant_where_it_was_contended(queue):
    # Once refused as ambiguous ties; the replay orders them as the DES.
    holder, second = REACQUIRED[queue]
    spec = _one_link(3)
    freq = MatrixMultiplyDesign.for_device(spec.node.fpga.device, k=8).freq_hz
    cost = _priced(holder, ReplayCosts(spec, freq))[0][2]  # the holder's hold, or (svc, size)
    replayed, des = _replay_and_des([(cost[0] if type(cost) is tuple else cost, second),
                                     (0.0, holder)])
    assert replayed == des


@pytest.mark.parametrize("sends", [
    [("send_batch", [(0, 1, "a"), (0, 2, "b")], 1)],
    [("send", (0, 1, "a"), 1), ("send", (0, 2, "b"), 1)],
], ids=["one-burst", "one-tie-tag"])
def test_same_instant_contention_within_one_tie_class_is_served_fifo(sends):
    # The same egress contention as above, from one burst or from two
    # processes: the second transfer waits its turn, as on the DES.
    replayed, des = _replay_and_des([(2.5, [op]) for op in sends])
    assert replayed == des
    assert replayed[3] == 2 * 2e6


def test_contention_at_distinct_instants_queues_without_refusing():
    replayed, des = _replay_and_des([(1.0, [("cpu", 0, 2, None)]), (2.0, [("cpu", 0, 1, None)])],
                                    p=2)
    assert replayed == des
    assert replayed[1][0] > 0.0 and replayed[1][1] == 0.0


# -----------------------------------------------------------------------
# refusal: traced / monitored / faulted runs require the DES
# -----------------------------------------------------------------------


class _StubFaults:
    installed = False

    def install(self, system):
        self.installed = True


def test_refusal_reasons():
    assert fast_path_refusal() is None
    assert fast_path_refusal(trace=True) == "trace"
    assert fast_path_refusal(node_specs=[]) == "node-specs"
    assert fast_path_refusal(monitor=object()) == "monitor"
    assert fast_path_refusal(faults=object()) == "faults"


def test_fast_path_on_raises_for_monitored_run(xd1):
    cfg = MmSimConfig(n=xd1.p * 256, k=8, m_f=64)
    with pytest.raises(FastPathUnsupported) as exc:
        simulate_mm(xd1, cfg, monitor=SimMonitor(), fast_path="on")
    assert exc.value.reason == "monitor"


def test_fast_path_on_raises_for_traced_run(xd1):
    cfg = FwSimConfig(n=2304, b=128, k=8, l1=1, l2=2)
    with pytest.raises(FastPathUnsupported) as exc:
        simulate_fw(xd1, cfg, trace=True, fast_path="on")
    assert exc.value.reason == "trace"


def test_auto_falls_back_to_des_for_faulted_run(xd1):
    faults = _StubFaults()
    cfg = MmSimConfig(n=xd1.p * 256, k=8, m_f=64)
    before = _fallbacks("mm", "faults")
    res = simulate_mm(xd1, cfg, faults=faults, fast_path="auto")
    assert faults.installed  # the DES actually ran
    assert res.elapsed == simulate_mm(xd1, cfg, fast_path="on").elapsed
    assert _fallbacks("mm", "faults") == before + 1


def test_monitored_run_matches_unmonitored_bitwise(xd1):
    cfg = FwSimConfig(n=2304, b=128, k=8, l1=1, l2=2)
    mon = SimMonitor()
    monitored = simulate_fw(xd1, cfg, monitor=mon, fast_path="auto")
    assert mon.events_fired > 0  # fell back to the counting DES loop
    _same(monitored, simulate_fw(xd1, cfg, fast_path="on"))


# -----------------------------------------------------------------------
# mode resolution + counters
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


def test_mode_resolution(monkeypatch):
    monkeypatch.delenv(FAST_PATH_ENV_VAR, raising=False)
    assert resolve_fast_path() == "auto"
    assert resolve_fast_path("off") == "off"
    monkeypatch.setenv(FAST_PATH_ENV_VAR, "off")
    assert resolve_fast_path() == "off"
    prev = set_fast_path_mode("on")
    try:
        assert resolve_fast_path() == "on"  # override beats env
        assert resolve_fast_path("off") == "off"  # arg beats override
    finally:
        set_fast_path_mode(prev)
    with pytest.raises(ValueError):
        resolve_fast_path("sometimes")
    with pytest.raises(ValueError):
        set_fast_path_mode("sometimes")


def test_counters_split_analytic_vs_des(xd1):
    cfg = MmSimConfig(n=xd1.p * 256, k=8, m_f=64)
    a0, d0 = _points("mm", "analytic"), _points("mm", "des")
    f0 = _fallbacks("mm", "disabled")
    simulate_mm(xd1, cfg, fast_path="on")
    simulate_mm(xd1, cfg, fast_path="off")
    assert _points("mm", "analytic") == a0 + 1
    assert _points("mm", "des") == d0 + 1
    assert _fallbacks("mm", "disabled") == f0 + 1


def test_fastpath_summary_shape(xd1):
    cfg = MmSimConfig(n=xd1.p * 256, k=8, m_f=64)
    simulate_mm(xd1, cfg, fast_path="on")
    summary = fastpath_summary()
    assert summary is not None
    assert summary["analytic"] >= 1
    assert set(summary) == {"analytic", "des", "fallback"}
    assert all(isinstance(v, int) for v in summary["fallback"].values())


def test_fastpath_summary_none_when_unused():
    class _Empty:
        def snapshot(self):
            return []

    assert fastpath_summary(_Empty()) is None


# -----------------------------------------------------------------------
# experiments wiring: sweep grids through the scalar fast path
# -----------------------------------------------------------------------


def _small_grid_tasks():
    fw = [
        {"kind": "fw", "machine": "xd1",
         "cfg": FwSimConfig(n=2304, b=128, k=8, l1=l1, l2=3 - l1)}
        for l1 in range(4)
    ]
    bmm = [
        {"kind": "block_mm", "machine": "xd1", "b": 240, "b_f": bf, "k": 8}
        for bf in (0, 80, 240)
    ]
    # Interleaved kinds: values must come back in task order.
    return [fw[0], bmm[0], fw[1], bmm[1], fw[2], bmm[2], fw[3]]


def test_eval_sim_points_identical_with_and_without_fast_path():
    from repro import experiments as E

    tasks = _small_grid_tasks()
    with E.configured(cache=False, fast_path="off"):
        des = E._eval_sim_points(tasks)
    with E.configured(cache=False, fast_path="auto"):
        fast = E._eval_sim_points(tasks)
    assert des == fast  # floats and float-valued dicts, compared exactly


def test_eval_sim_points_counts_sim_calls():
    from repro import experiments as E

    tasks = _small_grid_tasks()
    before = E.SIM_CALLS
    # Serial: SIM_CALLS counts in this process only, not in pool workers.
    with E.configured(jobs=1, cache=False, fast_path="auto"):
        E._eval_sim_points(tasks)
    assert E.SIM_CALLS == before + len(tasks)


def test_fw_batch_refuses_mixed_configs(xd1):
    mixed = [
        FwSimConfig(n=2304, b=128, k=8, l1=1, l2=2),
        FwSimConfig(n=2304, b=128, k=8, l1=2, l2=1, overlap=False),
    ]
    with pytest.raises(ValueError):
        analytic_fw_batch(xd1, mixed)
    per_op = [
        FwSimConfig(n=2304, b=128, k=8, l1=l1, l2=3 - l1, aggregate_ops=False)
        for l1 in (1, 2)
    ]
    with pytest.raises(FastPathUnsupported):
        analytic_fw_batch(xd1, per_op)


def test_ledger_experiments_entry_carries_fast_path(tmp_path):
    from repro.obs import RunLedger, experiments_entry

    entry = experiments_entry(
        [("fig5", True)],
        sim_points=16,
        fast_path={"analytic": 16, "des": 0, "fallback": {}},
        git_sha="deadbeef",
    )
    stored = RunLedger(tmp_path / "ledger.jsonl").append(entry)
    assert stored["fast_path"] == {"analytic": 16, "des": 0, "fallback": {}}
