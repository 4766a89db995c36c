"""Unit tests for the trace / Gantt module (repro.sim.trace)."""

import pytest

from repro.sim import CausalityViolation, Trace
from repro.sim.trace import Interval, merge


def test_interval_duration_and_overlap():
    a = Interval("cpu", "x", 0.0, 2.0)
    b = Interval("cpu", "y", 1.0, 3.0)
    c = Interval("cpu", "z", 2.0, 4.0)
    assert a.duration == 2.0
    assert a.overlaps(b)
    assert not a.overlaps(c)  # half-open: touching is not overlapping


def test_record_rejects_backwards_interval():
    tr = Trace()
    with pytest.raises(ValueError):
        tr.record("cpu", "bad", 5.0, 4.0)


def test_busy_time_merges_overlaps():
    tr = Trace()
    tr.record("net", "a", 0.0, 2.0)
    tr.record("net", "b", 1.0, 3.0)  # overlapping on a shared lane
    tr.record("net", "c", 5.0, 6.0)
    assert tr.busy_time("net") == pytest.approx(4.0)


def test_makespan_and_lanes():
    tr = Trace()
    tr.record("cpu0", "t", 0.0, 1.0)
    tr.record("fpga0", "t", 0.5, 7.0)
    assert tr.makespan() == 7.0
    assert tr.lanes() == ["cpu0", "fpga0"]
    assert Trace().makespan() == 0.0


def test_check_exclusive_passes_for_serial_lane():
    tr = Trace()
    tr.record("cpu0", "a", 0.0, 1.0)
    tr.record("cpu0", "b", 1.0, 2.0)
    tr.check_exclusive(["cpu0"])


def test_check_exclusive_detects_conflict():
    tr = Trace()
    tr.record("cpu0", "a", 0.0, 2.0)
    tr.record("cpu0", "b", 1.0, 3.0)
    with pytest.raises(CausalityViolation):
        tr.check_exclusive(["cpu0"])


def test_check_exclusive_ignores_zero_duration():
    tr = Trace()
    tr.record("cpu0", "a", 0.0, 2.0)
    tr.record("cpu0", "signal", 1.0, 1.0)
    tr.check_exclusive(["cpu0"])


def test_summary_utilisation():
    tr = Trace()
    tr.record("cpu", "a", 0.0, 5.0)
    tr.record("fpga", "b", 0.0, 10.0)
    s = tr.summary()
    assert s["cpu"]["utilisation"] == pytest.approx(0.5)
    assert s["fpga"]["utilisation"] == pytest.approx(1.0)
    assert s["cpu"]["count"] == 1


def test_gantt_renders_lanes():
    tr = Trace()
    tr.record("cpu", "a", 0.0, 5.0)
    tr.record("fpga", "b", 5.0, 10.0)
    text = tr.gantt(width=20)
    lines = text.splitlines()
    assert lines[0].startswith("cpu")
    assert "#" in lines[0]
    assert lines[1].startswith("fpga")


def test_gantt_empty():
    assert Trace().gantt() == "(empty trace)"


def test_merge_combines():
    t1, t2 = Trace(), Trace()
    t1.record("cpu0", "a", 0.0, 1.0)
    t2.record("cpu1", "b", 0.0, 2.0)
    m = merge([t1, t2])
    assert len(m) == 2
    assert m.makespan() == 2.0


# ---------------------------------------------------- utilisation edge cases


def test_utilisation_per_category_and_all():
    tr = Trace()
    tr.record("cpu0", "a", 0.0, 5.0)
    tr.record("fpga0", "b", 0.0, 10.0)
    assert tr.utilisation("cpu0") == pytest.approx(0.5)
    assert tr.utilisation() == {
        "cpu0": pytest.approx(0.5),
        "fpga0": pytest.approx(1.0),
    }


def test_utilisation_empty_trace_is_zero_not_error():
    """Regression: an empty trace has makespan 0 and must yield 0.0, not
    raise ZeroDivisionError."""
    tr = Trace()
    assert tr.utilisation("cpu0") == 0.0
    assert tr.utilisation() == {}


def test_utilisation_zero_duration_intervals_are_zero_not_error():
    """Regression: a trace holding only zero-duration (instantaneous)
    intervals also has makespan 0 -- same guarantee."""
    tr = Trace()
    tr.record("cpu0", "tick", 0.0, 0.0)
    tr.record("net0->", "ping", 0.0, 0.0)
    assert tr.makespan() == 0.0
    assert tr.utilisation("cpu0") == 0.0
    assert tr.utilisation() == {"cpu0": 0.0, "net0->": 0.0}
