"""A message-passing layer over the simulated interconnect.

The paper's implementations communicate with MPI; this module provides
its blocking point-to-point send/recv as *simulation process
generators* with correct timing (the designs build their broadcasts and
gathers from concurrent sends and receives, see
:mod:`repro.sim.interpret`):

* wire time comes from the :class:`~repro.machine.interconnect.
  Interconnect` (latency + bytes / B_n, link contention included);
* per Section 4.3 of the paper, communication time is CPU time -- the
  nodes "communicate through the processors", so sends and receives are
  called from (and block) a node's CPU process; for tracing they are
  recorded on per-node ``mpi{i}`` lanes (distinct from the exclusive
  ``cpu{i}`` compute lanes, because concurrent sends may ride the
  node's multiple links);
* message matching is by (source, destination, tag), FIFO per channel,
  like MPI's non-overtaking guarantee.

Usage from a per-node process::

    yield from comm.send(rank, dst, data, nbytes=...)
    data = yield from comm.recv(rank, src)
"""

from __future__ import annotations

from typing import Any, Optional

from ..sim import Simulator, Store
from .message import Message, payload_bytes

__all__ = ["Communicator"]


class Communicator:
    """A communicator spanning all p nodes of a system.

    Parameters
    ----------
    system:
        A :class:`~repro.machine.system.ReconfigurableSystem`; supplies
        the simulator, the interconnect and (for trace lanes) the nodes.
    """

    def __init__(self, system) -> None:
        self.system = system
        self.sim: Simulator = system.sim
        self.network = system.network
        self.size = system.p
        self._mailboxes: dict[tuple[int, int, Any], Store] = {}

    # -- plumbing -----------------------------------------------------------

    def _mailbox(self, src: int, dst: int, tag: Any) -> Store:
        key = (src, dst, tag)
        box = self._mailboxes.get(key)
        if box is None:
            box = Store(self.sim, name=f"mbox{src}->{dst}#{tag}")
            self._mailboxes[key] = box
        return box

    def _check_rank(self, rank: int) -> None:
        if not 0 <= rank < self.size:
            raise ValueError(f"rank {rank} out of range for communicator of size {self.size}")

    # -- point-to-point --------------------------------------------------------

    def send(self, src: int, dst: int, data: Any = None, nbytes: Optional[int] = None, tag: Any = 0):
        """Process generator: blocking send of ``data`` from src to dst.

        ``nbytes`` defaults to :func:`~repro.mpi.message.payload_bytes`
        of the data.  The wire transfer occupies one egress link at src
        and one ingress link at dst; the call returns when the message
        is on the destination's queue.
        """
        self._check_rank(src)
        self._check_rank(dst)
        if src == dst:
            raise ValueError(f"rank {src} cannot send to itself")
        size = payload_bytes(data) if nbytes is None else int(nbytes)
        if size < 0:
            raise ValueError(f"negative message size: {size}")
        sent_at = self.sim.now
        # The label is only read by trace recording; skip the f-string on
        # untraced runs (one per message, visible at sweep message rates).
        label = f"mpi:{src}->{dst}" if self.sim.trace is not None else ""
        yield from self.network.send(src, dst, size, label=label)
        msg = Message(src, dst, tag, data, size, sent_at=sent_at, delivered_at=self.sim.now)
        yield self._mailbox(src, dst, tag).put(msg)
        if self.sim.trace is not None:
            # Communication is processor time (Sec. 4.3) but concurrent
            # sends may ride separate links, so it gets its own lane.
            self.sim.trace.record(
                f"mpi{src}", f"mpi:send->{dst}", sent_at, self.sim.now, nbytes=size
            )

    def recv(self, dst: int, src: int, tag: Any = 0):
        """Process generator: blocking receive; returns the payload."""
        self._check_rank(src)
        self._check_rank(dst)
        posted = self.sim.now
        msg: Message = yield self._mailbox(src, dst, tag).get()
        if self.sim.trace is not None:
            self.sim.trace.record(
                f"mpi{dst}", f"mpi:recv<-{src}", posted, self.sim.now, nbytes=msg.nbytes, wait=True
            )
        return msg.data
