"""Run op schedules on the discrete-event simulator.

An application schedule written once as op-yielding generators (the
vocabulary of :class:`repro.sim.stepped.StepReplay`) runs on either engine.
The schedule prices its work once per run through a *pricer*: the
replay's :class:`~repro.sim.analytic.ReplayCosts` turns it into
durations, :class:`Physical` leaves it physical -- ``(kernel, flops)``,
bytes, ``(cycles, flops)`` -- for :class:`DesInterpreter`, whose machine
prices each op at request time from that node's own processor and the
live (possibly fault-scaled) link, clock and ``B_d``.  FPGA work may
carry a run count, ``(cycles, flops, runs)``: one job of ``runs``
back-to-back runs, which only the DES runs.

The interpreter makes the calls a hand-written DES process would make:
``cpu`` -> ``node.cpu_run``; ``chan`` -> ``node.dram_to_fpga``;
``fpga_spawn`` -> a process running ``node.fpga.run_cycles`` and then
setting its event; ``send`` -> a blocking send; ``send_batch`` -> one
send process per message, then ``all_of``; ``set`` -> succeed an
event; ``wait``/``wait_all`` -> yield on events, with a blocking
receive (inline, or as a process under ``all_of``) for each message
key; ``stretch`` -> nothing (the process, sent None, yields the ops
of its plan one by one; the replay takes them over).

Messages model the paper's blocking point-to-point MPI over the
interconnect.  A send moves its bytes through ``system.network`` (one
egress link at the source, one ingress link at the destination,
``latency + bytes / B_n``), then puts them on the mailbox -- a
:class:`~repro.sim.resources.Store` -- of its message key; a receive
gets from that mailbox, so messages on one key never overtake each
other.  Per Section 4.3 communication is processor time: the nodes
"communicate through the processors", so a send or receive blocks the
schedule that issued it.  Traced runs record it on a per-node ``mpi{i}``
lane (``mpi:send->d`` / ``mpi:recv<-s``), apart from the exclusive
``cpu{i}`` compute lane because concurrent sends may ride the node's
several links.

Keys name completions.  An *event key* starts with a name,
``("ms", t, u, v)``, and its event is created on first use named
``ms[t,u,v]``.  A *message key* is the mailbox key ``(src, dst, tag)``.
Labels are tuples like event keys, formatted only when the run is
traced.
"""

from __future__ import annotations

from typing import Iterable, Iterator

from .resources import Store

__all__ = ["DesInterpreter", "Physical", "op_name"]


def op_name(key: tuple) -> str:
    """``("ms", 0, 1, 2)`` -> ``"ms[0,1,2]"``."""
    return f"{key[0]}[{','.join(map(str, key[1:]))}]"


class Physical:
    """The DES pricer: every kind of work stays physical."""

    @staticmethod
    def cpu(work):
        return work

    chan = fpga = msg = cpu


def fpga_job(node, work, label: str, done):
    """Process generator: one FPGA job, then its completion event.

    ``work`` is ``(cycles, flops)``, or ``(cycles, flops, runs)`` for
    ``runs`` back-to-back runs of that size.
    """
    cycles, _flops, *runs = work
    for _ in range(runs[0] if runs else 1):
        yield from node.fpga.run_cycles(cycles, label=label)
    done.succeed()


class DesInterpreter:
    """Turns op schedules into processes on one live system.

    ``system`` is a :class:`~repro.machine.system.ReconfigurableSystem`
    with configured FPGAs.  Event keys and mailboxes are shared by every
    schedule spawned here.
    """

    def __init__(self, system) -> None:
        self.sim = system.sim
        self.nodes = system.nodes
        self.network = system.network
        self.events: dict = {}
        self.mailboxes: dict = {}

    def spawn(self, name: str, ops: Iterable[tuple]) -> None:
        """Start one schedule as the process ``name``."""
        self.sim.process(self._run(ops), name=name)

    def _event(self, key: tuple):
        ev = self.events.get(key)
        if ev is None:
            ev = self.events[key] = self.sim.event(name=op_name(key))
        return ev

    def _mailbox(self, key: tuple) -> Store:
        box = self.mailboxes.get(key)
        if box is None:
            box = self.mailboxes[key] = Store(self.sim)
        return box

    def _send(self, key: tuple, nbytes) -> Iterator:
        """Process generator: blocking send of ``nbytes`` on message ``key``;
        returns once the message is on the destination's mailbox."""
        src, dst, _tag = key
        sim = self.sim
        size = int(nbytes)
        sent_at = sim.now
        traced = sim.trace is not None
        yield from self.network.send(src, dst, size, label=f"mpi:{src}->{dst}" if traced else "")
        yield self._mailbox(key).put(size)
        if traced:
            sim.trace.record(f"mpi{src}", f"mpi:send->{dst}", sent_at, sim.now, nbytes=size)

    def _recv(self, key: tuple) -> Iterator:
        """Process generator: blocking receive of message ``key``."""
        src, dst, _tag = key
        sim = self.sim
        posted = sim.now
        size = yield self._mailbox(key).get()
        if sim.trace is not None:
            sim.trace.record(f"mpi{dst}", f"mpi:recv<-{src}", posted, sim.now,
                             nbytes=size, wait=True)

    def _run(self, ops: Iterable[tuple]) -> Iterator:
        sim, nodes = self.sim, self.nodes
        traced = sim.trace is not None
        for op in ops:
            code = op[0]
            if code == "cpu":
                _, i, (kernel, flops), label = op
                yield from nodes[i].cpu_run(kernel, flops, op_name(label) if traced else "")
            elif code == "wait":
                key = op[1]
                if type(key[0]) is str:
                    yield self._event(key)
                else:
                    yield from self._recv(key)
            elif code == "chan":
                _, i, nbytes, label = op
                yield from nodes[i].dram_to_fpga(nbytes, op_name(label) if traced else "")
            elif code == "fpga_spawn":
                _, i, work, key, label = op
                label = op_name(label) if traced else ""
                sim.process(fpga_job(nodes[i], work, label, self._event(key)))
            elif code == "send":
                _, key, nbytes = op
                yield from self._send(key, nbytes)
            elif code == "send_batch":
                _, keys, nbytes = op
                yield sim.all_of([sim.process(self._send(key, nbytes)) for key in keys])
            elif code == "wait_all":
                yield sim.all_of([
                    self._event(key) if type(key[0]) is str else sim.process(self._recv(key))
                    for key in op[1]
                ])
            elif code == "set":
                self._event(op[1]).succeed()
            elif code == "stretch":
                continue
            else:  # pragma: no cover - schedule author error
                raise AssertionError(f"unknown op {code!r}")
