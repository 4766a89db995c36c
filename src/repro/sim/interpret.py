"""Run op schedules on the discrete-event simulator.

An application schedule written once as op-yielding generators (the
vocabulary of :class:`repro.sim.analytic.Replay`) runs on either engine.
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
``fpga_spawn`` -> a process running ``node.fpga_run_cycles`` and then
setting its event; ``send`` -> a blocking ``comm.send``; ``send_batch``
-> one ``comm.send`` process per message, then ``all_of``; ``set`` ->
succeed an event; ``wait``/``wait_all`` -> yield on events, with a
``comm.recv`` (inline, or as a process under ``all_of``) for each
message key; ``step`` -> nothing (the replay's stand-in for a step the
DES takes inside ``comm.send``).

Keys name completions.  An *event key* starts with a name,
``("ms", t, u, v)``, and its event is created on first use named
``ms[t,u,v]``.  A *message key* is the communicator's mailbox key
``(src, dst, tag)``.  Labels are tuples like event keys, formatted only
when the run is traced.
"""

from __future__ import annotations

from typing import Iterable, Iterator

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
    cycles, flops, *runs = work
    for _ in range(runs[0] if runs else 1):
        yield from node.fpga_run_cycles(cycles, label=label, flops=flops)
    done.succeed()


class DesInterpreter:
    """Turns op schedules into processes on one live system.

    ``system`` is a :class:`~repro.machine.system.ReconfigurableSystem`
    with configured FPGAs; ``comm`` a :class:`~repro.mpi.Communicator`
    over it.  Event keys are shared by every schedule spawned here.
    """

    def __init__(self, system, comm) -> None:
        self.sim = system.sim
        self.nodes = system.nodes
        self.comm = comm
        self.events: dict = {}

    def spawn(self, name: str, ops: Iterable[tuple]) -> None:
        """Start one schedule as the process ``name``."""
        self.sim.process(self._run(ops), name=name)

    def _event(self, key: tuple):
        ev = self.events.get(key)
        if ev is None:
            ev = self.events[key] = self.sim.event(name=op_name(key))
        return ev

    def _run(self, ops: Iterable[tuple]) -> Iterator:
        sim, nodes, comm = self.sim, self.nodes, self.comm
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
                    yield from comm.recv(key[1], key[0], tag=key[2])
            elif code == "chan":
                _, i, nbytes, label = op
                yield from nodes[i].dram_to_fpga(nbytes, op_name(label) if traced else "")
            elif code == "fpga_spawn":
                _, i, work, key, label = op
                label = op_name(label) if traced else ""
                sim.process(fpga_job(nodes[i], work, label, self._event(key)))
            elif code == "send":
                _, key, nbytes, _tie = op
                yield from comm.send(key[0], key[1], nbytes=nbytes, tag=key[2])
            elif code == "send_batch":
                _, keys, nbytes = op
                yield sim.all_of([
                    sim.process(comm.send(key[0], key[1], nbytes=nbytes, tag=key[2]))
                    for key in keys
                ])
            elif code == "wait_all":
                yield sim.all_of([
                    self._event(key) if type(key[0]) is str
                    else sim.process(comm.recv(key[1], key[0], tag=key[2]))
                    for key in op[1]
                ])
            elif code == "set":
                self._event(op[1]).succeed()
            elif code == "step":
                continue
            else:  # pragma: no cover - schedule author error
                raise AssertionError(f"unknown op {code!r}")
