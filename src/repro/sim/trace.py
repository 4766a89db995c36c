"""Execution tracing for simulations.

Components record half-open intervals ``[start, end)`` tagged with a
category (e.g. ``"cpu"``, ``"fpga"``, ``"net"``, ``"dram"``) and a label.
The trace supports:

* utilisation summaries per category / lane,
* causality checking (no lane may run two intervals at once),
* a plain-text Gantt rendering for reports and debugging.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from typing import Any, Iterable, Optional

__all__ = ["Interval", "Trace", "CausalityViolation"]


class CausalityViolation(AssertionError):
    """Two intervals overlap on the same exclusive lane."""


@dataclass(frozen=True)
class Interval:
    """One traced activity on a lane."""

    category: str
    label: str
    start: float
    end: float
    meta: dict = field(default_factory=dict, compare=False)

    @property
    def duration(self) -> float:
        return self.end - self.start

    def overlaps(self, other: "Interval") -> bool:
        """True if the two half-open intervals intersect."""
        return self.start < other.end and other.start < self.end


class Trace:
    """An append-only log of :class:`Interval` records."""

    def __init__(self) -> None:
        self.intervals: list[Interval] = []

    def record(
        self, category: str, label: str, start: float, end: float, **meta: Any
    ) -> Interval:
        """Append one interval; ``end`` may equal ``start`` (instantaneous)."""
        if end < start:
            raise ValueError(f"interval ends before it starts: [{start}, {end})")
        iv = Interval(category, label, start, end, meta)
        self.intervals.append(iv)
        return iv

    def __len__(self) -> int:
        return len(self.intervals)

    def by_category(self, category: str) -> list[Interval]:
        """All intervals in ``category``, in recording order."""
        return [iv for iv in self.intervals if iv.category == category]

    def lanes(self) -> list[str]:
        """Sorted distinct categories."""
        return sorted({iv.category for iv in self.intervals})

    def busy_time(self, category: str) -> float:
        """Total non-overlapping busy time in ``category``.

        Overlapping intervals (legal for shared lanes) are merged so time
        is not double counted.
        """
        ivs = sorted(self.by_category(category), key=lambda iv: iv.start)
        total = 0.0
        cur_start: Optional[float] = None
        cur_end = 0.0
        for iv in ivs:
            if cur_start is None:
                cur_start, cur_end = iv.start, iv.end
            elif iv.start <= cur_end:
                cur_end = max(cur_end, iv.end)
            else:
                total += cur_end - cur_start
                cur_start, cur_end = iv.start, iv.end
        if cur_start is not None:
            total += cur_end - cur_start
        return total

    def makespan(self) -> float:
        """Latest interval end (0 if empty)."""
        return max((iv.end for iv in self.intervals), default=0.0)

    def utilisation(self, category: Optional[str] = None) -> dict[str, float] | float:
        """Busy fraction of the makespan, per category (or one category).

        Degenerate traces are well-defined rather than errors: an empty
        trace, or one holding only zero-duration intervals (makespan 0),
        yields 0.0 for every category -- never a ``ZeroDivisionError``.
        """
        horizon = self.makespan()
        if category is not None:
            return self.busy_time(category) / horizon if horizon > 0 else 0.0
        return {
            cat: (self.busy_time(cat) / horizon if horizon > 0 else 0.0)
            for cat in self.lanes()
        }

    def check_exclusive(self, categories: Optional[Iterable[str]] = None) -> None:
        """Assert that no two intervals overlap within each given category.

        Raises :class:`CausalityViolation` naming the first offending pair.
        Zero-duration intervals never conflict.
        """
        cats = list(categories) if categories is not None else self.lanes()
        for cat in cats:
            ivs = sorted(
                (iv for iv in self.by_category(cat) if iv.duration > 0),
                key=lambda iv: (iv.start, iv.end),
            )
            for prev, cur in zip(ivs, ivs[1:]):
                if prev.overlaps(cur):
                    raise CausalityViolation(
                        f"lane {cat!r}: {prev.label!r} [{prev.start:g},{prev.end:g}) overlaps "
                        f"{cur.label!r} [{cur.start:g},{cur.end:g})"
                    )

    def summary(self) -> dict[str, dict[str, float]]:
        """Per-category stats: busy time, interval count, utilisation."""
        horizon = self.makespan()
        out: dict[str, dict[str, float]] = {}
        for cat in self.lanes():
            busy = self.busy_time(cat)
            out[cat] = {
                "busy": busy,
                "count": float(len(self.by_category(cat))),
                "utilisation": busy / horizon if horizon > 0 else 0.0,
            }
        return out

    def gantt(self, width: int = 72, lanes: Optional[Iterable[str]] = None) -> str:
        """Render a monospace Gantt chart of the trace.

        Each lane is one row; ``#`` marks busy spans.  Intended for
        human inspection in reports, not for parsing.
        """
        horizon = self.makespan()
        if horizon <= 0 or not self.intervals:
            return "(empty trace)"
        rows = []
        lane_names = list(lanes) if lanes is not None else self.lanes()
        label_w = max((len(name) for name in lane_names), default=4)
        for cat in lane_names:
            cells = [" "] * width
            for iv in self.by_category(cat):
                lo = int(iv.start / horizon * (width - 1))
                hi = max(lo, int(iv.end / horizon * (width - 1)))
                for x in range(lo, hi + 1):
                    cells[x] = "#"
            rows.append(f"{cat:<{label_w}} |{''.join(cells)}|")
        rows.append(f"{'':<{label_w}}  0{'':{width - len(f'{horizon:.3g}') - 1}}{horizon:.3g}s")
        return "\n".join(rows)

    def busy_by_class(self, classifier: Any) -> dict[str, float]:
        """Busy lane-seconds per ``classifier(label)`` class, descending.

        ``classifier`` maps an interval label to a class name (e.g.
        :func:`repro.obs.critical_path.classify_label`).  Within each
        (lane, class) pair overlapping intervals are merged so shared
        lanes are not double counted, then lane totals are summed per
        class -- the result is lane-seconds, not wall seconds, which is
        what paired-run activity diffs want (two lanes each 1s busier
        is a 2s shift in that class of work).
        """
        groups: dict[tuple[str, str], list[Interval]] = defaultdict(list)
        for iv in self.intervals:
            groups[(iv.category, classifier(iv.label))].append(iv)
        totals: dict[str, float] = {}
        for (_, cls), ivs in groups.items():
            busy = 0.0
            cur_start: Optional[float] = None
            cur_end = 0.0
            for iv in sorted(ivs, key=lambda iv: iv.start):
                if cur_start is None:
                    cur_start, cur_end = iv.start, iv.end
                elif iv.start <= cur_end:
                    cur_end = max(cur_end, iv.end)
                else:
                    busy += cur_end - cur_start
                    cur_start, cur_end = iv.start, iv.end
            if cur_start is not None:
                busy += cur_end - cur_start
            totals[cls] = totals.get(cls, 0.0) + busy
        return dict(sorted(totals.items(), key=lambda kv: (-kv[1], kv[0])))


def merge(traces: Iterable[Trace]) -> Trace:
    """Combine several traces into one (e.g. per-node traces)."""
    out = Trace()
    for tr in traces:
        out.intervals.extend(tr.intervals)
    return out
