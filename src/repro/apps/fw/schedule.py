"""The distributed FW schedule (Section 5.2.3), written once.

The schedule is op-yielding generators (see
:class:`repro.sim.stepped.StepReplay` for the vocabulary) that both engines
run: :class:`~repro.sim.interpret.DesInterpreter` for the DES, and
:class:`~repro.sim.stepped.StepReplay` for the runs the closed forms of
:mod:`repro.apps.fw.analytic` hand over.  Every other fast-path run
takes those closed forms, which evaluate the same arithmetic without an
engine, DMA stall windows included.

Iteration ``t`` has ``n/b`` phases, and every node runs each phase the
same way:

* the owner ``P_t'`` runs op1 on the diagonal block on its processor
  (phase 0 only), then broadcasts the pivot block to every other node
  as one ``send_batch`` burst (the op1 result in phase 0, the op22 it
  finished last phase afterwards); every other node waits for it;
* the node stages its FPGA operands over the ``B_d`` channel
  (``l2 x T_mem``: two ``b x b`` blocks per FPGA op), launching the
  FPGA's ``l2`` ops once the first op's operands land (``overlap``) or
  once everything is staged (the ablation);
* it then runs its own ``l1`` ops on the processor (``l1 x T_p``) and
  waits for the FPGA batch.  The owner's op22 (on the column-``t``
  block whose pivot it sends next phase) leads its list of ops: it is
  the first processor op when ``l1 > 0``, and rides in the FPGA batch
  at ``l1 = 0``.

The FPGA overlaps everything after its first operands land -- the
paper's overlap story, emerging from the engines' resources.
``aggregate_ops`` lumps each phase's ops into one CPU op, one FPGA job
and at most two channel holds; without it every op is its own hold, and
the FPGA job is ``l2`` back-to-back runs (which the replay refuses).
"""

from __future__ import annotations

from typing import Iterator

__all__ = ["fw_processes"]

_WORD = 8  # bytes per double


def fw_processes(config, p: int, op_cycles: int, price) -> list[tuple[str, Iterator]]:
    """``(name, ops)`` per process in spawn order: ``node{i}``.

    ``op_cycles`` is the design's FPGA latency for one ``b x b`` tile;
    ``price`` turns the run's physical work into op costs, once per run
    (see :func:`repro.apps.lu.schedule.lu_processes`).
    """
    nb, b, l1, l2 = config.nb, config.b, config.l1, config.l2
    layout = config.layout(p)
    block_bytes = b * b * _WORD
    stage_bytes = 2 * block_bytes  # two operand blocks per FPGA op (T_mem)
    op_flops = 2.0 * b**3
    kernel = config.cpu_kernel
    op1 = price.cpu((kernel, op_flops))
    pivot = price.msg(block_bytes)
    # Per phase: the processor's ops, the FPGA job, and the bytes staged
    # before and after the FPGA launch.
    if config.aggregate_ops:
        cpu = [price.cpu((kernel, l1 * op_flops))] if l1 else []
        work = (l2 * op_cycles, l2 * op_flops)
        first = [stage_bytes] if config.overlap else [stage_bytes * l2]
        rest = [stage_bytes * (l2 - 1)] if config.overlap and l2 > 1 else []
    else:
        cpu = [price.cpu((kernel, op_flops))] * l1
        work = (op_cycles, op_flops, l2)
        first = [stage_bytes] if config.overlap else [stage_bytes] * l2
        rest = [stage_bytes] * (l2 - 1) if config.overlap else []
    fpga = price.fpga(work) if l2 else None
    before = [price.chan(nbytes) for nbytes in first]
    after = [price.chan(nbytes) for nbytes in rest]

    def node_main(i: int):
        for t in range(config.iterations_run):
            owner = layout.iteration_owner(t)
            for phase in range(nb):
                tag = ("pivot", t, phase)
                if i == owner:
                    if phase == 0:
                        yield ("cpu", i, op1, ("op1", t))
                    yield ("send_batch", [(owner, w, tag) for w in range(p) if w != owner],
                           pivot)
                else:
                    yield ("wait", (owner, i, tag))
                fkey, label = ("fpga", i, t, phase), ("ops", t, phase)
                if fpga is None:
                    yield ("set", fkey)
                else:
                    stage_label = ("stage:ops", t, phase)
                    for cost in before:
                        yield ("chan", i, cost, stage_label)
                    yield ("fpga_spawn", i, fpga, fkey, label)
                    for cost in after:
                        yield ("chan", i, cost, stage_label)
                for cost in cpu:
                    yield ("cpu", i, cost, label)
                yield ("wait", fkey)

    return [(f"node{i}", node_main(i)) for i in range(p)]
