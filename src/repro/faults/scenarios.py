"""Composable, serializable fault scenarios.

A :class:`FaultScenario` is a declarative description of everything that
goes wrong during a run: persistent or windowed service-rate
degradations (link slowdown, FPGA clock throttle, DRAM-bandwidth
contention), transient DMA stalls (explicit or drawn from a seeded
random burst), and node failures at a given simulated time.

Scenarios are *data*, not behaviour: they round-trip through a JSON-able
dict (the parallel sweep engine uses it as a cacheable task axis) and
they are deterministic -- :meth:`FaultScenario.expand` materialises the
stochastic bursts with ``random.Random(seed)``, so the same seed always
yields the bitwise-same concrete event timeline.  The DES side lives in
:mod:`repro.faults.inject`; the model side (re-solving the partition
equations against the degraded parameters) in :mod:`repro.faults.adapt`.
"""

from __future__ import annotations

import dataclasses
import inspect
import random
from dataclasses import dataclass
from typing import Any, Callable, Optional

__all__ = [
    "FAULT_KINDS",
    "RATE_KINDS",
    "FaultEvent",
    "StallBurst",
    "FaultScenario",
    "SCENARIO_BUILDERS",
    "build_scenario",
    "degraded_link",
    "fpga_clock_throttle",
    "dram_contention",
    "node_failure",
    "transient_dma_stalls",
    "brownout",
    "nominal",
]

#: Every fault kind the subsystem understands.
FAULT_KINDS = (
    "link_slowdown",
    "fpga_throttle",
    "dram_contention",
    "dma_stall",
    "node_failure",
)

#: Kinds that perturb a service *rate* by a multiplicative factor.
RATE_KINDS = ("link_slowdown", "fpga_throttle", "dram_contention")


@dataclass(frozen=True)
class FaultEvent:
    """One concrete fault: what, when, where, and how hard.

    ``factor`` multiplies the affected service rate (``< 1`` degrades,
    ``> 1`` is a what-if speedup) and only applies to :data:`RATE_KINDS`.
    ``duration=None`` means the fault persists to the end of the run.
    ``node=None`` targets every node (rate kinds and DMA stalls);
    ``link_slowdown`` always affects the shared crossbar and must not
    name a node.
    """

    kind: str
    at: float = 0.0
    duration: Optional[float] = None
    node: Optional[int] = None
    factor: float = 1.0

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ValueError(f"unknown fault kind {self.kind!r}; expected one of {FAULT_KINDS}")
        if self.at < 0:
            raise ValueError(f"fault time must be >= 0, got {self.at}")
        if self.duration is not None and self.duration <= 0:
            raise ValueError(f"fault duration must be positive, got {self.duration}")
        if self.kind in RATE_KINDS and self.factor <= 0:
            raise ValueError(f"rate factor must be positive, got {self.factor}")
        if self.kind == "link_slowdown" and self.node is not None:
            raise ValueError("link_slowdown affects the shared crossbar; node must be None")
        if self.kind == "dma_stall" and self.duration is None:
            raise ValueError("dma_stall needs a duration (the stall length)")
        if self.kind == "node_failure":
            if self.node is None:
                raise ValueError("node_failure needs a node id")
            if self.duration is not None:
                raise ValueError("node_failure is permanent; duration must be None")

    @property
    def steady(self) -> bool:
        """True for a rate fault that persists to the end of the run."""
        return self.kind in RATE_KINDS and self.duration is None

    def to_dict(self) -> dict[str, Any]:
        return {
            "kind": self.kind,
            "at": self.at,
            "duration": self.duration,
            "node": self.node,
            "factor": self.factor,
        }

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "FaultEvent":
        return cls(
            kind=data["kind"],
            at=float(data.get("at", 0.0)),
            duration=None if data.get("duration") is None else float(data["duration"]),
            node=None if data.get("node") is None else int(data["node"]),
            factor=float(data.get("factor", 1.0)),
        )


@dataclass(frozen=True)
class StallBurst:
    """A seeded burst of transient DMA stalls.

    ``count`` stalls start uniformly in ``[start, start + window)``, each
    lasting an exponential draw with mean ``mean_duration``; the draws
    come from the scenario's seeded RNG, so the burst is deterministic.
    """

    count: int = 4
    start: float = 0.0
    window: float = 1.0
    mean_duration: float = 1e-3
    node: Optional[int] = None

    def __post_init__(self) -> None:
        if self.count < 1:
            raise ValueError(f"burst count must be >= 1, got {self.count}")
        if self.start < 0:
            raise ValueError(f"burst start must be >= 0, got {self.start}")
        if self.window <= 0:
            raise ValueError(f"burst window must be positive, got {self.window}")
        if self.mean_duration <= 0:
            raise ValueError(f"mean duration must be positive, got {self.mean_duration}")

    def to_dict(self) -> dict[str, Any]:
        return {
            "count": self.count,
            "start": self.start,
            "window": self.window,
            "mean_duration": self.mean_duration,
            "node": self.node,
        }

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "StallBurst":
        return cls(
            count=int(data["count"]),
            start=float(data.get("start", 0.0)),
            window=float(data.get("window", 1.0)),
            mean_duration=float(data.get("mean_duration", 1e-3)),
            node=None if data.get("node") is None else int(data["node"]),
        )


@dataclass(frozen=True)
class FaultScenario:
    """A named, composable set of faults with a deterministic seed."""

    name: str
    events: tuple[FaultEvent, ...] = ()
    bursts: tuple[StallBurst, ...] = ()
    seed: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(self, "events", tuple(self.events))
        object.__setattr__(self, "bursts", tuple(self.bursts))

    # -- composition ----------------------------------------------------

    def __add__(self, other: "FaultScenario") -> "FaultScenario":
        """Union of two scenarios; keeps the left seed, joins the names."""
        return FaultScenario(
            name=f"{self.name}+{other.name}",
            events=self.events + other.events,
            bursts=self.bursts + other.bursts,
            seed=self.seed,
        )

    # -- derived views --------------------------------------------------

    @property
    def has_faults(self) -> bool:
        return bool(self.events or self.bursts)

    def expand(self) -> tuple[FaultEvent, ...]:
        """The concrete event timeline, bursts materialised, time-sorted.

        All randomness flows through ``random.Random(self.seed)`` in a
        fixed draw order, so the same scenario expands to the bitwise
        same timeline on every call and every machine.
        """
        rng = random.Random(self.seed)
        out = list(self.events)
        for burst in self.bursts:
            for _ in range(burst.count):
                at = burst.start + rng.random() * burst.window
                duration = rng.expovariate(1.0 / burst.mean_duration)
                out.append(
                    FaultEvent(kind="dma_stall", at=at, duration=duration, node=burst.node)
                )
        out.sort(
            key=lambda e: (e.at, FAULT_KINDS.index(e.kind), -1 if e.node is None else e.node)
        )
        return tuple(out)

    def rate_factors(self) -> dict[str, float]:
        """Steady-state multiplicative factors for ``(b_n, f_f, b_d)``.

        Only persistent (``duration=None``) rate events count: they
        define the post-fault steady state the adaptive policies re-plan
        for.  Windowed events are transient and handled by the DES
        injector alone.
        """
        factors = {"b_n": 1.0, "f_f": 1.0, "b_d": 1.0}
        key = {"link_slowdown": "b_n", "fpga_throttle": "f_f", "dram_contention": "b_d"}
        for event in self.events:
            if event.steady:
                factors[key[event.kind]] *= event.factor
        return factors

    def failed_nodes(self) -> tuple[int, ...]:
        """Node ids lost to ``node_failure`` events, sorted."""
        return tuple(sorted({e.node for e in self.events if e.kind == "node_failure"}))

    def first_fault_time(self) -> Optional[float]:
        """Time of the earliest concrete fault, or None if fault-free."""
        timeline = self.expand()
        return min(e.at for e in timeline) if timeline else None

    def without_node_failures(self) -> "FaultScenario":
        """The same scenario minus its node failures (exclude-node runs)."""
        return dataclasses.replace(
            self, events=tuple(e for e in self.events if e.kind != "node_failure")
        )

    # -- serialization --------------------------------------------------

    def to_dict(self) -> dict[str, Any]:
        return {
            "name": self.name,
            "seed": self.seed,
            "events": [e.to_dict() for e in self.events],
            "bursts": [b.to_dict() for b in self.bursts],
        }

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "FaultScenario":
        return cls(
            name=str(data["name"]),
            events=tuple(FaultEvent.from_dict(e) for e in data.get("events", ())),
            bursts=tuple(StallBurst.from_dict(b) for b in data.get("bursts", ())),
            seed=int(data.get("seed", 0)),
        )


# ----------------------------------------------------------------- library


def nominal(seed: int = 0) -> FaultScenario:
    """The fault-free baseline scenario."""
    return FaultScenario(name="nominal", seed=seed)


def degraded_link(
    factor: float = 0.5,
    at: float = 0.0,
    duration: Optional[float] = None,
    seed: int = 0,
) -> FaultScenario:
    """Network links deliver ``factor`` of their nominal bandwidth."""
    return FaultScenario(
        name="degraded-link",
        events=(FaultEvent(kind="link_slowdown", at=at, duration=duration, factor=factor),),
        seed=seed,
    )


def fpga_clock_throttle(
    factor: float = 0.5,
    at: float = 0.0,
    duration: Optional[float] = None,
    node: Optional[int] = None,
    seed: int = 0,
) -> FaultScenario:
    """FPGA design clocks run at ``factor`` of their synthesised rate."""
    return FaultScenario(
        name="fpga-throttle",
        events=(
            FaultEvent(kind="fpga_throttle", at=at, duration=duration, node=node, factor=factor),
        ),
        seed=seed,
    )


def dram_contention(
    factor: float = 0.5,
    at: float = 0.0,
    duration: Optional[float] = None,
    node: Optional[int] = None,
    seed: int = 0,
) -> FaultScenario:
    """The FPGA<->DRAM streaming path sustains ``factor`` of ``B_d``."""
    return FaultScenario(
        name="dram-contention",
        events=(
            FaultEvent(kind="dram_contention", at=at, duration=duration, node=node, factor=factor),
        ),
        seed=seed,
    )


def node_failure(node: int = 1, at: float = 0.05, seed: int = 0) -> FaultScenario:
    """Node ``node`` dies at simulated time ``at`` and stays dead."""
    return FaultScenario(
        name="node-failure",
        events=(FaultEvent(kind="node_failure", at=at, node=node),),
        seed=seed,
    )


def transient_dma_stalls(
    count: int = 6,
    start: float = 0.0,
    window: float = 5.0,
    mean_duration: float = 2e-3,
    node: Optional[int] = None,
    seed: int = 0,
) -> FaultScenario:
    """A seeded burst of short DMA-engine stalls on the B_d channel."""
    return FaultScenario(
        name="flaky-dma",
        bursts=(
            StallBurst(
                count=count, start=start, window=window, mean_duration=mean_duration, node=node
            ),
        ),
        seed=seed,
    )


def brownout(
    link_factor: float = 0.5,
    dram_factor: float = 0.7,
    at: float = 0.0,
    seed: int = 0,
) -> FaultScenario:
    """Simultaneous persistent network and DRAM-path degradation."""
    return FaultScenario(
        name="brownout",
        events=(
            FaultEvent(kind="link_slowdown", at=at, factor=link_factor),
            FaultEvent(kind="dram_contention", at=at, factor=dram_factor),
        ),
        seed=seed,
    )


#: Named scenario builders (the CLI's ``--scenario`` vocabulary).
SCENARIO_BUILDERS: dict[str, Callable[..., FaultScenario]] = {
    "nominal": nominal,
    "degraded-link": degraded_link,
    "fpga-throttle": fpga_clock_throttle,
    "dram-contention": dram_contention,
    "node-failure": node_failure,
    "flaky-dma": transient_dma_stalls,
    "brownout": brownout,
}


def build_scenario(name: str, **kwargs: Any) -> FaultScenario:
    """Build a library scenario by name, passing only applicable kwargs.

    Callers (the CLI, sweeps) can supply a superset of knobs (``factor``,
    ``at``, ``duration``, ``node``, ``seed``, ...); each builder receives
    only the ones in its signature.
    """
    try:
        builder = SCENARIO_BUILDERS[name]
    except KeyError:
        raise ValueError(
            f"unknown scenario {name!r}; available: {sorted(SCENARIO_BUILDERS)}"
        ) from None
    accepted = set(inspect.signature(builder).parameters)
    return builder(**{k: v for k, v in kwargs.items() if k in accepted and v is not None})
