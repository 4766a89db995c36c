"""Randomised stress tests for the substrate.

Generates random process/communication structures and checks global
invariants -- the kind of scheduler bug (lost wakeup, double grant,
mailbox mismatch) that targeted unit tests can miss.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.machine import ReconfigurableSystem, cray_xd1
from repro.sim import Resource, Simulator, Trace
from repro.sim.interpret import DesInterpreter


@given(
    seed=st.integers(min_value=0, max_value=2**31),
    n_procs=st.integers(min_value=1, max_value=25),
    capacity=st.integers(min_value=1, max_value=3),
)
@settings(max_examples=40, deadline=None)
def test_random_fork_join_graphs_complete(seed, n_procs, capacity):
    """Random fork/join process trees with resource contention always
    drain, with a makespan within the work-conservation bounds."""
    rng = np.random.default_rng(seed)
    sim = Simulator()
    sim.trace = Trace()
    res = Resource(sim, capacity=capacity)
    holds = rng.uniform(0.1, 2.0, size=n_procs)
    finished = []

    def worker(sim, idx):
        # Random pre-delay, then contend for the resource.
        yield sim.timeout(float(rng.uniform(0, 1)))
        yield res.request()
        start = sim.now
        yield sim.timeout(float(holds[idx]))
        res.release()
        sim.trace.record("res", f"w{idx}", start, sim.now)
        # Randomly fork a cheap child and join it.
        if rng.random() < 0.4:
            child = sim.process(child_proc(sim))
            yield child
        finished.append(idx)

    def child_proc(sim):
        yield sim.timeout(0.05)
        return True

    for i in range(n_procs):
        sim.process(worker(sim, i))
    makespan = sim.run()
    assert sorted(finished) == list(range(n_procs))
    assert makespan >= float(np.max(holds)) - 1e-9
    assert makespan <= float(np.sum(holds)) + n_procs * 1.0 + n_procs * 0.05 + 1e-6
    # Never oversubscribed.
    events = []
    for iv in sim.trace.by_category("res"):
        events.append((iv.start, 1))
        events.append((iv.end, -1))
    level = 0
    for _, delta in sorted(events):
        level += delta
        assert level <= capacity


def _recv_sizes(system, dst, src):
    """Byte counts received on ``dst`` from ``src``, in delivery order."""
    return [iv.meta["nbytes"] for iv in system.trace.by_category(f"mpi{dst}")
            if iv.label == f"mpi:recv<-{src}"]


@given(
    seed=st.integers(min_value=0, max_value=2**31),
    n_msgs=st.integers(min_value=1, max_value=30),
)
@settings(max_examples=30, deadline=None)
def test_random_message_storms_deliver_exactly_once(seed, n_msgs):
    """Random (src, dst, size, delay) message storms through the DES
    interpreter's blocking sends: every message arrives exactly once, in
    per-channel order, and total bytes are conserved."""
    rng = np.random.default_rng(seed)
    p = 4
    system = ReconfigurableSystem(cray_xd1(p=p))
    rate = system.nodes[0].spec.processor.sustained_flops("dgemm")
    plan = []
    for m in range(n_msgs):
        src = int(rng.integers(0, p))
        dst = int(rng.integers(0, p - 1))
        dst = dst if dst < src else dst + 1  # dst != src
        # Integer sizes: a send truncates nbytes to whole bytes.  The
        # message id makes every size distinct.
        size = int(rng.integers(8, 10**6)) * 64 + m
        plan.append((src, dst, size, float(rng.uniform(0, 1))))
    des = DesInterpreter(system)
    for rank in range(p):
        # Each sender idles on its CPU for the delay, then sends.
        des.spawn(f"send{rank}", [
            op
            for m, (src, dst, size, delay) in enumerate(plan) if src == rank
            for op in (("cpu", rank, ("dgemm", delay * rate), ("delay", m)),
                       ("send", (rank, dst, "storm"), size))
        ])
        keys = [(src, rank, "storm") for src, dst, *_ in plan if dst == rank]
        des.spawn(f"recv{rank}", [("wait_all", keys)] if keys else [])
    system.run()
    for src in range(p):
        for dst in range(p):
            sent = [size for s, d, size, _ in plan if (s, d) == (src, dst)]
            assert _recv_sizes(system, dst, src) == sent
    wire = [iv for iv in system.trace.intervals if iv.category.startswith("net")]
    assert len(wire) == n_msgs
    assert system.network.bytes_moved == sum(m[2] for m in plan)


@given(seed=st.integers(min_value=0, max_value=2**31))
@settings(max_examples=15, deadline=None)
def test_per_channel_fifo_under_storm(seed):
    """Messages on one (src, dst, tag) channel arrive in send order even
    under cross-traffic."""
    rng = np.random.default_rng(seed)
    system = ReconfigurableSystem(cray_xd1(p=3))
    n = int(rng.integers(2, 10))
    sizes = [float(rng.uniform(8, 1e5)) for _ in range(n)]
    des = DesInterpreter(system)
    des.spawn("sender", [("send", (0, 1, "fifo"), size) for size in sizes])
    des.spawn("noise", [("send", (2, 1, "noise"), 5e5)] * 5)
    # The receiver starts after a random delay, so some messages wait
    # on the mailbox before it asks for them.
    rate = system.nodes[1].spec.processor.sustained_flops("dgemm")
    delay = ("cpu", 1, ("dgemm", float(rng.uniform(0, 2e-4)) * rate), ("delay", 1))
    des.spawn("receiver", [delay] + [("wait", (0, 1, "fifo"))] * n)
    system.run()
    assert _recv_sizes(system, 1, 0) == [int(size) for size in sizes]
