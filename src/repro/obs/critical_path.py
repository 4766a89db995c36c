"""Critical-path attribution: explain a makespan as resource segments.

The overlap accounting (:mod:`repro.obs.overlap`) *measures* how far a
simulated run lands from the ``max{T_tp, T_tf}`` bound; this module
*explains* the gap.  Walking backwards from the last interval to finish,
it decomposes the makespan into a chain of trace segments -- at every
point in time the chain follows the activity that was still running --
and rolls the chain up by resource class:

* ``cpu``   -- the processor path (``T_p`` terms of Eqs. 1/2/4/6),
* ``fpga``  -- FPGA compute (``T_f`` / the ``b_f b^2 / (k F_f)`` terms),
* ``dram``  -- FPGA<->DRAM staging (the ``D_f / B_d`` term of Eq. 1),
* ``net``   -- network transfers (the ``D_p / B_n`` term of Eq. 1),
* ``sram`` / ``mpi`` -- on-chip staging and coordination,
* ``idle``  -- gaps no lane covers (dependency stalls).

The dominant class of the chain names the resource that bound the run,
which is the attribution style of the FPGA/CPU co-design literature
(hls4ml/Soltaniyeh-type "where did the time go" breakdowns), computed
automatically from the simulation trace.

Input is duck-typed: anything with an ``intervals`` sequence of objects
carrying ``category`` / ``label`` / ``start`` / ``end`` (i.e.
:class:`repro.sim.trace.Trace`), a plain record list, or a Chrome trace
file previously written by :func:`repro.obs.export.write_chrome_trace`.
"""

from __future__ import annotations

import heapq
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Iterable, Optional

from .overlap import resource_of_lane

__all__ = [
    "ChainSegment",
    "CriticalPathReport",
    "critical_path",
    "classify_label",
    "from_chrome_trace",
    "resource_of_lane",
    "MODEL_TERMS",
]

#: Resource class -> the model term it realises (Eq. numbers from the paper).
MODEL_TERMS = {
    "cpu": "processor path T_p (Eqs. 1, 2, 4, 6)",
    "fpga": "FPGA compute T_f (Eqs. 1, 2, 4, 6)",
    "dram": "FPGA-DRAM staging D_f/B_d (Eq. 1)",
    "net": "network transfer D_p/B_n (Eq. 1)",
    "sram": "SRAM staging D_f/B_m (Eq. 1)",
    "mpi": "MPI coordination",
    "idle": "dependency stall (no lane busy)",
    "other": "unclassified lane",
}

#: Label prefixes -> activity classes (shared with
#: :func:`repro.analysis.bottleneck.analyse_trace`, which imports this
#: table so host-side and ledger-side classification agree).
LABEL_CLASSES = (
    ("mpi:", "communication"),
    ("stage", "staging"),
    ("opMS", "compute"),
    ("op", "compute"),
    ("gemm", "compute"),
    ("dgetrf", "compute"),
)


def classify_label(label: str) -> str:
    """Activity class (`compute`/`communication`/`staging`) of a label."""
    for prefix, cls in LABEL_CLASSES:
        if label.startswith(prefix):
            return cls
    return "compute"


@dataclass(frozen=True)
class ChainSegment:
    """One maximal stretch of the critical path on a single resource."""

    resource: str  # cpu | fpga | dram | sram | mpi | net | idle | other
    lane: str  # the concrete lane ("" for idle)
    label: str  # label of the last interval merged into the segment
    start: float
    end: float

    @property
    def duration(self) -> float:
        return self.end - self.start

    def to_dict(self) -> dict[str, Any]:
        return {
            "resource": self.resource,
            "lane": self.lane,
            "label": self.label,
            "start": self.start,
            "end": self.end,
            "duration": self.duration,
        }


@dataclass
class CriticalPathReport:
    """The makespan decomposed into a chain of resource segments."""

    makespan: float
    segments: list[ChainSegment] = field(default_factory=list)

    @property
    def by_resource(self) -> dict[str, float]:
        """Chain seconds per resource class, descending."""
        totals: dict[str, float] = {}
        for seg in self.segments:
            totals[seg.resource] = totals.get(seg.resource, 0.0) + seg.duration
        return dict(sorted(totals.items(), key=lambda kv: -kv[1]))

    @property
    def by_phase(self) -> dict[str, float]:
        """Chain seconds per activity class, descending.

        Labels classify via :func:`classify_label` (compute /
        communication / staging); idle chain segments -- time no lane
        covered -- surface as ``stall``.  The phase view of the same
        chain :attr:`by_resource` rolls up by lane class, so the two
        always sum to the same total.
        """
        totals: dict[str, float] = {}
        for seg in self.segments:
            cls = "stall" if seg.resource == "idle" else classify_label(seg.label)
            totals[cls] = totals.get(cls, 0.0) + seg.duration
        return dict(sorted(totals.items(), key=lambda kv: -kv[1]))

    @property
    def dominant_resource(self) -> str:
        """The resource class carrying the most critical-path time."""
        totals = self.by_resource
        busy = {res: t for res, t in totals.items() if res != "idle"}
        if busy:
            return next(iter(busy))
        return next(iter(totals), "idle")

    @property
    def dominant_fraction(self) -> float:
        """Fraction of the makespan on the dominant resource."""
        if self.makespan <= 0:
            return 0.0
        return self.by_resource.get(self.dominant_resource, 0.0) / self.makespan

    @property
    def coverage(self) -> float:
        """Fraction of the makespan attributed to busy lanes (1 - idle)."""
        if self.makespan <= 0:
            return 0.0
        idle = self.by_resource.get("idle", 0.0)
        return max(0.0, 1.0 - idle / self.makespan)

    def to_dict(self, top: int = 8) -> dict[str, Any]:
        """JSON-able summary (ledger ``critical_path`` field).

        ``top`` caps the stored segments to the longest ones so ledger
        lines stay small; totals always cover the whole chain.
        """
        longest = sorted(self.segments, key=lambda s: -s.duration)[:top]
        return {
            "makespan": self.makespan,
            "dominant": self.dominant_resource,
            "dominant_fraction": self.dominant_fraction,
            "coverage": self.coverage,
            "by_resource": self.by_resource,
            "by_phase": self.by_phase,
            "segments": len(self.segments),
            "top_segments": [seg.to_dict() for seg in longest],
        }

    def render(self) -> str:
        """Human-readable attribution table tying classes to model terms."""
        lines = [f"critical path over {self.makespan:.4g}s ({len(self.segments)} segments):"]
        for res, total in self.by_resource.items():
            share = total / self.makespan if self.makespan > 0 else 0.0
            term = MODEL_TERMS.get(res, "")
            lines.append(f"  {res:<5} {total:>10.4g}s  {100 * share:5.1f}%  {term}")
        lines.append(
            f"dominant resource: {self.dominant_resource} "
            f"({100 * self.dominant_fraction:.1f}% of the makespan)"
        )
        return "\n".join(lines)


@dataclass(frozen=True)
class _Seg:
    """Normalised input interval (sortable, minimal)."""

    start: float
    end: float
    lane: str
    label: str


def _normalise(trace_or_intervals: Any) -> list[_Seg]:
    intervals = getattr(trace_or_intervals, "intervals", trace_or_intervals)
    segs = []
    for iv in intervals:
        if isinstance(iv, dict):
            start, end = float(iv["start"]), float(iv["end"])
            lane, label = str(iv.get("category", "")), str(iv.get("label", ""))
        else:
            start, end = float(iv.start), float(iv.end)
            lane, label = str(iv.category), str(iv.label)
        if end > start:
            segs.append(_Seg(start, end, lane, label))
    return segs


#: Resource preference when several intervals cover the same instant.
#: Work lanes (compute, then transfers) win over ``mpi`` -- a blocking
#: ``mpi:recv`` spans the whole wait for its producer, and attributing
#: that span to "mpi" would hide the producer actually gating the run
#: (e.g. LU's serial panel path on the owner CPU).
_RESOURCE_PRIORITY = {"cpu": 0, "fpga": 0, "dram": 1, "net": 1, "sram": 1, "other": 2, "mpi": 3}


def critical_path(
    trace_or_intervals: Any,
    makespan: Optional[float] = None,
    eps: float = 1e-12,
) -> CriticalPathReport:
    """Extract the critical chain of a trace.

    Walks backwards from ``makespan`` (default: the latest interval
    end).  At time ``t`` the chain continues on an interval still
    running at ``t`` -- preferring work lanes over MPI coordination
    waits (see ``_RESOURCE_PRIORITY``), and within a class the
    *earliest* start, i.e. the activity that had been running longest
    without a break -- then jumps to that interval's start.  Time no
    interval covers becomes an ``idle`` segment (a dependency stall).
    Runs in ``O(n log n)`` over the interval count.
    """
    segs = _normalise(trace_or_intervals)
    if not segs:
        return CriticalPathReport(makespan=0.0)
    end = max(s.end for s in segs) if makespan is None else float(makespan)
    origin = min(s.start for s in segs)
    # Admit intervals in decreasing end order; keep admitted ones in
    # per-priority min-heaps by start.  An admitted interval has
    # end >= t forever after (t only decreases), so a heap top with
    # start < t covers t.
    by_end = sorted(segs, key=lambda s: (-s.end, s.start, s.lane))
    heaps: dict[int, list[tuple[float, float, str, str]]] = {}
    i = 0
    t = end
    chain: list[ChainSegment] = []
    while t > origin + eps:
        while i < len(by_end) and by_end[i].end >= t - eps:
            s = by_end[i]
            prio = _RESOURCE_PRIORITY.get(resource_of_lane(s.lane), 2)
            heapq.heappush(heaps.setdefault(prio, []), (s.start, -s.end, s.lane, s.label))
            i += 1
        chosen = None
        for prio in sorted(heaps):
            heap = heaps[prio]
            while heap and heap[0][0] >= t - eps:
                heapq.heappop(heap)  # starts at/after t: cannot cover t (or any later t)
            if heap:
                chosen = heapq.heappop(heap)
                break
        if chosen is not None:
            start, _, lane, label = chosen
            chain.append(ChainSegment(resource_of_lane(lane), lane, label, start, t))
            t = start
        else:
            # Nobody covers t: idle back to the next interval end (or origin).
            nxt = by_end[i].end if i < len(by_end) else origin
            chain.append(ChainSegment("idle", "", "", nxt, t))
            t = nxt
    chain.reverse()
    return CriticalPathReport(makespan=end - origin, segments=_merge(chain))


def _merge(chain: list[ChainSegment]) -> list[ChainSegment]:
    """Fuse adjacent chain segments on the same resource class."""
    merged: list[ChainSegment] = []
    for seg in chain:
        if merged and merged[-1].resource == seg.resource and abs(merged[-1].end - seg.start) < 1e-9:
            prev = merged[-1]
            merged[-1] = ChainSegment(prev.resource, prev.lane, seg.label, prev.start, seg.end)
        else:
            merged.append(seg)
    return merged


# -------------------------------------------------- Chrome trace loading


def from_chrome_trace(path: str | Path) -> list[dict[str, Any]]:
    """Simulation intervals from a Chrome trace file, as plain records.

    Reads a file written by :func:`repro.obs.export.write_chrome_trace`:
    lane names come from the ``thread_name`` metadata events, complete
    (``"ph": "X"``) events on the node processes (pid >= 1) become
    ``{"category", "label", "start", "end"}`` records in seconds.
    Harness wall-clock spans (pid 0) are excluded -- the critical path
    is a simulated-time notion.  Feed the result to
    :func:`critical_path`.
    """
    doc = json.loads(Path(path).read_text(encoding="utf-8"))
    events: Iterable[dict[str, Any]] = doc.get("traceEvents", doc if isinstance(doc, list) else [])
    lanes: dict[tuple[int, int], str] = {}
    for ev in events:
        if ev.get("ph") == "M" and ev.get("name") == "thread_name" and "tid" in ev:
            lanes[(ev["pid"], ev["tid"])] = ev.get("args", {}).get("name", "")
    records = []
    for ev in events:
        if ev.get("ph") != "X" or ev.get("pid", 0) < 1:
            continue
        start = ev["ts"] / 1e6
        records.append(
            {
                "category": lanes.get((ev["pid"], ev.get("tid", 0)), f"pid{ev['pid']}"),
                "label": ev.get("name", ""),
                "start": start,
                "end": start + ev.get("dur", 0.0) / 1e6,
            }
        )
    return records
