"""Process-wide metrics: counters, gauges and histograms with labels.

The registry is the numeric half of the observability layer (the
:mod:`repro.obs.tracing` spans are the temporal half).  Components grab
an instrument once and update it on their hot path::

    from repro.obs import REGISTRY

    HITS = REGISTRY.counter("cache.hits", layer="result_cache")
    ...
    HITS.inc()

Design constraints, in order:

* **Cheap updates.**  ``Counter.inc`` is one float add; ``Histogram.
  observe`` is a bisect into a fixed bucket table.  Instruments are
  cached by ``(name, labels)`` so lookups happen at setup time, not per
  event.
* **Stdlib only.**  The registry is imported by low-level modules
  (partition solvers, the sweep executor), so it must not pull in any
  part of :mod:`repro` or third-party code.
* **JSON-able snapshots.**  :meth:`MetricsRegistry.snapshot` returns
  plain dicts, one per labelled series, that the exporters in
  :mod:`repro.obs.export` write as JSON lines (schema in
  ``docs/observability.md``).
"""

from __future__ import annotations

from bisect import bisect_right
from typing import Any, Iterable, Optional

__all__ = [
    "Counter",
    "EXACT_QUANTILE_SAMPLES",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "REGISTRY",
    "exact_quantile",
    "get_registry",
]

#: Default histogram bucket upper bounds (seconds-oriented: 1 us .. ~2 min,
#: roughly x4 per step).  A final implicit +inf bucket catches the rest.
DEFAULT_BUCKETS = (
    1e-6, 4e-6, 16e-6, 64e-6, 256e-6,
    1e-3, 4e-3, 16e-3, 64e-3, 256e-3,
    1.0, 4.0, 16.0, 64.0, 128.0,
)

#: Below this observation count a histogram keeps the raw samples and
#: answers quantiles exactly; past it the samples are dropped and the
#: bucket interpolation takes over.  Sized for statistical campaigns
#: (tens of replicates per cell), small enough that the retained list
#: never matters for hot-path instruments.
EXACT_QUANTILE_SAMPLES = 64


def exact_quantile(ordered: list[float], q: float) -> float:
    """Linear-interpolated quantile of a pre-sorted sample list (a
    histogram's exact mode and every campaign order statistic)."""
    n = len(ordered)
    if n == 1:
        return ordered[0]
    pos = q * (n - 1)
    lo = int(pos)
    frac = pos - lo
    if frac == 0.0 or lo + 1 >= n:
        return ordered[lo]
    return ordered[lo] + (ordered[lo + 1] - ordered[lo]) * frac


class Counter:
    """A monotonically increasing value."""

    __slots__ = ("name", "labels", "value")
    kind = "counter"

    def __init__(self, name: str, labels: dict[str, str]) -> None:
        self.name = name
        self.labels = labels
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError(f"counter {self.name!r} cannot decrease (inc {amount})")
        self.value += amount

    def snapshot(self) -> dict[str, Any]:
        return {"kind": "counter", "name": self.name, "labels": self.labels,
                "value": self.value}


class Gauge:
    """A value that can go up and down (queue depth, utilisation, ratio)."""

    __slots__ = ("name", "labels", "value")
    kind = "gauge"

    def __init__(self, name: str, labels: dict[str, str]) -> None:
        self.name = name
        self.labels = labels
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        self.value += amount

    def dec(self, amount: float = 1.0) -> None:
        self.value -= amount

    def max(self, value: float) -> None:
        """High-water-mark update."""
        if value > self.value:
            self.value = float(value)

    def snapshot(self) -> dict[str, Any]:
        return {"kind": "gauge", "name": self.name, "labels": self.labels,
                "value": self.value}


class Histogram:
    """A fixed-bucket distribution with exact count/sum/min/max.

    Buckets are cumulative-style upper bounds; one implicit ``+inf``
    bucket catches overflow, so ``observe`` never loses an observation.

    Up to :data:`EXACT_QUANTILE_SAMPLES` observations the raw samples
    are retained and :meth:`quantile` is exact; beyond that the samples
    are dropped and quantiles fall back to bucket interpolation.
    Histograms are *mergeable*: :meth:`merge` combines another
    histogram with identical bounds (per-replicate histograms from
    worker processes combine without precision loss -- bucket counts,
    count/sum/min/max and, below the cutoff, the exact samples), and
    :meth:`to_dict`/:meth:`from_dict` round-trip one across a process
    boundary or a JSON manifest.
    """

    __slots__ = (
        "name", "labels", "bounds", "bucket_counts", "count", "sum", "min", "max", "samples",
    )
    kind = "histogram"

    def __init__(
        self, name: str, labels: dict[str, str], buckets: Optional[tuple[float, ...]] = None
    ) -> None:
        self.name = name
        self.labels = labels
        bounds = tuple(buckets) if buckets is not None else DEFAULT_BUCKETS
        if list(bounds) != sorted(bounds):
            raise ValueError(f"histogram buckets must be sorted: {bounds}")
        self.bounds = bounds
        self.bucket_counts = [0] * (len(bounds) + 1)
        self.count = 0
        self.sum = 0.0
        self.min = float("inf")
        self.max = float("-inf")
        #: Raw observations while count <= EXACT_QUANTILE_SAMPLES; None
        #: once the histogram has outgrown exact-quantile mode.
        self.samples: Optional[list[float]] = []

    def observe(self, value: float) -> None:
        self.bucket_counts[bisect_right(self.bounds, value)] += 1
        self.count += 1
        self.sum += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value
        if self.samples is not None:
            if self.count <= EXACT_QUANTILE_SAMPLES:
                self.samples.append(value)
            else:
                self.samples = None

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0

    def quantile(self, q: float) -> float:
        """Quantile: exact below the sample cutoff, interpolated above.

        Returns 0.0 for an empty histogram; exact min/max at q=0/1.
        While the raw samples are retained (count <=
        :data:`EXACT_QUANTILE_SAMPLES`) the answer is the linear-
        interpolated sample quantile.  Past the cutoff it is a linear
        interpolation within buckets, clamped to the observed
        ``[min, max]`` -- without the clamp, a bucket's nominal bounds
        leak into the answer (most visibly in the overflow bucket,
        whose only honest upper bound is the observed max, and in
        sparse buckets whose upper bound exceeds every sample).
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q}")
        if self.count == 0:
            return 0.0
        if q == 0.0:
            return self.min
        if q == 1.0:
            return self.max
        if self.samples is not None:
            return exact_quantile(sorted(self.samples), q)
        target = q * self.count
        seen = 0
        for i, c in enumerate(self.bucket_counts):
            if seen + c >= target and c > 0:
                lo = self.bounds[i - 1] if i > 0 else min(self.min, self.bounds[0])
                hi = self.bounds[i] if i < len(self.bounds) else self.max
                frac = (target - seen) / c
                return min(max(lo + (hi - lo) * frac, self.min), self.max)
            seen += c
        return self.max  # pragma: no cover - defensive

    def merge(self, other: "Histogram") -> "Histogram":
        """Fold ``other`` into this histogram (identical bounds required).

        Bucket counts, count, sum and the min/max extremes combine
        exactly.  Exact-quantile samples survive as long as the merged
        count stays below the cutoff; otherwise the merged histogram
        degrades to bucket interpolation, the same as if it had seen
        every observation directly.  Returns ``self`` for chaining.
        """
        if self.bounds != other.bounds:
            raise ValueError(
                f"cannot merge histograms with different buckets: "
                f"{self.bounds} vs {other.bounds}"
            )
        for i, c in enumerate(other.bucket_counts):
            self.bucket_counts[i] += c
        self.count += other.count
        self.sum += other.sum
        if other.min < self.min:
            self.min = other.min
        if other.max > self.max:
            self.max = other.max
        if (
            self.samples is not None
            and other.samples is not None
            and self.count <= EXACT_QUANTILE_SAMPLES
        ):
            self.samples.extend(other.samples)
        else:
            self.samples = None
        return self

    def to_dict(self) -> dict[str, Any]:
        """JSON-able state for cross-process transport; see :meth:`from_dict`."""
        return {
            "name": self.name,
            "labels": dict(self.labels),
            "bounds": list(self.bounds),
            "bucket_counts": list(self.bucket_counts),
            "count": self.count,
            "sum": self.sum,
            "min": self.min if self.count else None,
            "max": self.max if self.count else None,
            "samples": list(self.samples) if self.samples is not None else None,
        }

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "Histogram":
        """Rebuild a histogram serialized by :meth:`to_dict`."""
        hist = cls(data["name"], dict(data.get("labels") or {}),
                   buckets=tuple(data["bounds"]))
        hist.bucket_counts = list(data["bucket_counts"])
        hist.count = int(data["count"])
        hist.sum = float(data["sum"])
        hist.min = float("inf") if data.get("min") is None else float(data["min"])
        hist.max = float("-inf") if data.get("max") is None else float(data["max"])
        samples = data.get("samples")
        hist.samples = None if samples is None else [float(v) for v in samples]
        return hist

    def snapshot(self) -> dict[str, Any]:
        return {
            "kind": "histogram",
            "name": self.name,
            "labels": self.labels,
            "count": self.count,
            "sum": self.sum,
            "min": self.min if self.count else None,
            "max": self.max if self.count else None,
            "mean": self.mean,
            "p50": self.quantile(0.5),
            "p95": self.quantile(0.95),
            "buckets": {
                (repr(b) if i < len(self.bounds) else "+inf"): c
                for i, (b, c) in enumerate(
                    zip(self.bounds + (float("inf"),), self.bucket_counts)
                )
                if c
            },
        }


def _series_key(name: str, labels: dict[str, str]) -> tuple:
    return (name, tuple(sorted(labels.items())))


class MetricsRegistry:
    """A namespace of labelled instruments, keyed by ``(name, labels)``.

    ``counter`` / ``gauge`` / ``histogram`` are get-or-create: calling
    twice with the same name and labels returns the same instrument, so
    modules can resolve instruments at import time or lazily per call.
    A name is bound to one instrument kind; mixing kinds is an error.
    """

    def __init__(self) -> None:
        self._series: dict[tuple, Any] = {}

    def _get(self, cls, name: str, labels: dict[str, str], **kwargs):
        key = _series_key(name, labels)
        inst = self._series.get(key)
        if inst is None:
            inst = cls(name, dict(labels), **kwargs)
            self._series[key] = inst
        elif not isinstance(inst, cls):
            raise TypeError(
                f"metric {name!r} already registered as {inst.kind}, requested {cls.kind}"
            )
        return inst

    def counter(self, name: str, **labels: str) -> Counter:
        return self._get(Counter, name, labels)

    def gauge(self, name: str, **labels: str) -> Gauge:
        return self._get(Gauge, name, labels)

    def histogram(
        self, name: str, buckets: Optional[tuple[float, ...]] = None, **labels: str
    ) -> Histogram:
        return self._get(Histogram, name, labels, buckets=buckets)

    # -- introspection --------------------------------------------------

    def __len__(self) -> int:
        return len(self._series)

    def __contains__(self, name: str) -> bool:
        return any(key[0] == name for key in self._series)

    def series(self, name: Optional[str] = None) -> list[Any]:
        """All instruments (optionally only those named ``name``), sorted."""
        items = sorted(self._series.items())
        return [inst for key, inst in items if name is None or key[0] == name]

    def value(self, name: str, **labels: str) -> Any:
        """The current value of one series; KeyError if absent."""
        inst = self._series.get(_series_key(name, labels))
        if inst is None:
            raise KeyError(f"no metric {name!r} with labels {labels}")
        return inst.count if isinstance(inst, Histogram) else inst.value

    def snapshot(self) -> list[dict[str, Any]]:
        """Every series as a JSON-able dict, in sorted (name, labels) order."""
        return [inst.snapshot() for _, inst in sorted(self._series.items())]

    # -- shipping counters between processes ------------------------------

    def counter_values(self, names: Optional[Iterable[str]] = None) -> dict[tuple, float]:
        """Every counter's value by ``(name, labels)`` key; only the
        counters named in ``names`` when it is given."""
        wanted = None if names is None else frozenset(names)
        return {
            key: inst.value
            for key, inst in self._series.items()
            if isinstance(inst, Counter) and (wanted is None or key[0] in wanted)
        }

    def counter_deltas(
        self, before: dict[tuple, float], names: Optional[Iterable[str]] = None
    ) -> dict[tuple, float]:
        """The increments of the counters that moved since ``before`` (a
        :meth:`counter_values` taken with the same ``names``).

        A child process returns these with its work, and its parent adds
        them with :meth:`add_counters`, so a count reads the same whichever
        process did the work.
        """
        return {
            key: value - before.get(key, 0.0)
            for key, value in self.counter_values(names).items()
            if value != before.get(key, 0.0)
        }

    def add_counters(self, deltas: dict[tuple, float]) -> None:
        """Add increments shipped from another process (see
        :meth:`counter_deltas`)."""
        for (name, labels), delta in deltas.items():
            self.counter(name, **dict(labels)).inc(delta)

    def reset(self) -> None:
        """Drop every series (tests and per-run CLI isolation)."""
        self._series.clear()


#: The process-wide default registry.  Library code records here;
#: exporters snapshot it.  Tests call ``REGISTRY.reset()`` for isolation.
REGISTRY = MetricsRegistry()


def get_registry() -> MetricsRegistry:
    """The process-wide registry (indirection point for tests/tools)."""
    return REGISTRY
