"""Edge-case coverage for the simulation engine and resource primitives."""

import pytest

from repro.sim import (
    AllOf,
    BandwidthChannel,
    ProcessFailure,
    Resource,
    SimulationError,
    Simulator,
)


# ------------------------------------------------------ condition failures


def test_all_of_fails_fast_on_failed_member():
    sim = Simulator()
    good = sim.timeout(5.0)
    bad = sim.event()
    caught = []

    def failer(sim):
        yield sim.timeout(1.0)
        bad.fail(RuntimeError("dead"))

    def waiter(sim):
        try:
            yield sim.all_of([good, bad])
        except RuntimeError as exc:
            caught.append((sim.now, str(exc)))

    sim.process(failer(sim))
    sim.process(waiter(sim))
    sim.run()
    assert caught == [(1.0, "dead")]


def test_condition_rejects_foreign_events():
    sim1, sim2 = Simulator(), Simulator()
    with pytest.raises(SimulationError, match="different simulators"):
        AllOf(sim1, [sim2.timeout(1.0)])


def test_already_triggered_members_count():
    sim = Simulator()
    ev = sim.event()
    ev.succeed("x")
    done = []

    def waiter(sim):
        result = yield sim.all_of([ev, sim.timeout(1.0)])
        done.append(sorted(str(v) for v in result.values()))

    sim.process(waiter(sim))
    sim.run()
    assert len(done) == 1


# ------------------------------------------------------------ process failure


def test_failed_subprocess_propagates_to_unprepared_parent():
    sim = Simulator()

    def child(sim):
        yield sim.timeout(1.0)
        raise KeyError("boom")

    def parent(sim):
        yield sim.process(child(sim))  # no try/except: parent dies too

    sim.process(parent(sim))
    with pytest.raises(ProcessFailure):
        sim.run()


def test_chained_failure_handled_at_top():
    sim = Simulator()
    outcome = []

    def child(sim):
        yield sim.timeout(1.0)
        raise KeyError("boom")

    def middle(sim):
        yield sim.process(child(sim))

    def top(sim):
        try:
            yield sim.process(middle(sim))
        except KeyError:
            outcome.append("handled")

    sim.process(top(sim))
    sim.run()
    assert outcome == ["handled"]


# ------------------------------------------------------------------ resources


def test_release_more_than_held():
    sim = Simulator()
    res = Resource(sim, capacity=3)

    def proc(sim):
        yield res.request()

    sim.process(proc(sim))
    sim.run()
    res.release()
    with pytest.raises(SimulationError, match="release"):
        res.release()


def test_channel_zero_byte_transfer_is_latency_only():
    sim = Simulator()
    ch = BandwidthChannel(sim, bandwidth=100.0, latency=0.25)
    served = []

    def proc(sim):
        served.append((yield from ch.transfer(0)))

    sim.process(proc(sim))
    assert sim.run() == pytest.approx(0.25)
    assert served == [0.25]
