"""Interconnect model: the non-blocking crossbar of the Cray XD1.

Each node has ``links_per_node`` full-duplex links of ``bandwidth``
bytes/s each (two 2 GB/s RapidArray links per XD1 node).  A point-to-point
transfer claims one egress link at the source and one ingress link at the
destination for ``latency + nbytes/bandwidth`` seconds; the crossbar
itself is non-blocking, so disjoint pairs never interfere -- contention
only arises at the endpoints, which matches the architecture in
Section 3 of the paper.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..sim import Resource, Simulator

__all__ = ["NetworkSpec", "Interconnect"]


@dataclass(frozen=True)
class NetworkSpec:
    """Declarative description of the interconnect."""

    bandwidth: float  # per-link bytes/s (the paper's B_n)
    latency: float = 0.0  # per-message setup cost (seconds)
    links_per_node: int = 1

    def __post_init__(self) -> None:
        if self.bandwidth <= 0:
            raise ValueError(f"bandwidth must be positive, got {self.bandwidth}")
        if self.latency < 0:
            raise ValueError(f"latency must be >= 0, got {self.latency}")
        if self.links_per_node < 1:
            raise ValueError(f"links_per_node must be >= 1, got {self.links_per_node}")


class Interconnect:
    """Live crossbar connecting ``p`` nodes."""

    def __init__(self, sim: Simulator, spec: NetworkSpec, p: int) -> None:
        if p < 1:
            raise ValueError(f"need at least one node, got p={p}")
        self.sim = sim
        self.spec = spec
        self.p = p
        self._egress = [
            Resource(sim, capacity=spec.links_per_node, name=f"net{i}.out") for i in range(p)
        ]
        self._ingress = [
            Resource(sim, capacity=spec.links_per_node, name=f"net{i}.in") for i in range(p)
        ]
        self.bytes_moved = 0.0

    def transfer_time(self, nbytes: float) -> float:
        """Uncontended wire time for one message."""
        if nbytes < 0:
            raise ValueError(f"negative message size: {nbytes}")
        return self.spec.latency + nbytes / self.spec.bandwidth

    def _check_pair(self, src: int, dst: int) -> None:
        if not (0 <= src < self.p and 0 <= dst < self.p):
            raise ValueError(f"node index out of range: {src} -> {dst} with p={self.p}")
        if src == dst:
            raise ValueError(f"cannot send from node {src} to itself")

    def send(self, src: int, dst: int, nbytes: float, label: str = ""):
        """Process generator: move ``nbytes`` from ``src`` to ``dst``.

        Claims one egress link at ``src`` and one ingress link at ``dst``
        (egress first, then ingress -- a fixed order that cannot deadlock
        because no transfer ever waits on an egress while holding one).
        """
        self._check_pair(src, dst)
        service = self.transfer_time(nbytes)
        yield self._egress[src].request()
        try:
            yield self._ingress[dst].request()
            start = self.sim.now
            try:
                yield self.sim.timeout(service)
            finally:
                self._ingress[dst].release()
        finally:
            self._egress[src].release()
        self.bytes_moved += nbytes
        if self.sim.trace is not None:
            self.sim.trace.record(
                f"net{src}->", label or f"to{dst}", start, self.sim.now, nbytes=nbytes, dst=dst
            )
        return service
