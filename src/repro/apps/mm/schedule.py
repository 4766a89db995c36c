"""The ring-allgather MM schedule, written once.

The schedule is op-yielding generators (see
:class:`repro.sim.stepped.StepReplay` for the vocabulary) that both engines
run: :class:`~repro.sim.stepped.StepReplay` for the fast path and
:class:`~repro.sim.interpret.DesInterpreter` for the DES.

Each node holds row panels of A, B and C.  In ring step ``s`` the node
multiplies one ``r x r`` block of A with the B panel currently resident
(its own at s = 0), while forwarding the panel around the ring:

    recv panel (except step 0)  -> stage FPGA share -> CPU gemm share
                                 \\-> FPGA gemm share (overlapped)
    send the panel onward (overlapped with the next step's compute
    only via the network links; CPU time is charged, per Section 4.3)

With ``overlap`` the node stages a pipeline-fill fraction of the FPGA's
operands, launches the FPGA and streams the rest; without it the FPGA
waits for everything.  ``m_f = 0`` is the Processor-only design,
``m_f = r`` the FPGA-only design.
"""

from __future__ import annotations

from typing import Iterator

__all__ = ["mm_processes"]

_WORD = 8  # bytes per double


def mm_processes(config, p: int, price) -> list[tuple[str, Iterator]]:
    """``(name, ops)`` per process in spawn order: ``node{i}``.

    ``price`` turns the run's physical work into op costs, once per run
    (see :func:`repro.apps.lu.schedule.lu_processes`).
    """
    r = config.validate_for(p)
    n, k, m_f = config.n, config.k, config.m_f
    m_p = r - m_f
    panel_bytes = float(r) * n * _WORD
    panel = price.msg(panel_bytes)
    cpu = price.cpu((config.cpu_kernel, 2.0 * m_p * r * n)) if m_p else None
    fpga = None
    if m_f:
        # (m_f x r) @ (r x n) on the array, and the bytes staged before
        # and after its launch.
        fpga = price.fpga((m_f * n * r / k, 2.0 * m_f * r * n))
        stage_bytes = (m_f * r) * _WORD + panel_bytes
        if config.overlap:
            fill = stage_bytes / max(r // k, 1)
            first, rest = price.chan(fill), price.chan(stage_bytes - fill)
        else:
            first, rest = price.chan(stage_bytes), None

    def node_main(i: int):
        right, left = (i + 1) % p, (i - 1) % p
        for s in range(p):
            if s > 0:
                yield ("wait", (left, i, ("ring", s)))
            fkey = ("fpga", i, s)
            if fpga is None:
                yield ("set", fkey)
            else:
                yield ("chan", i, first, ("stage", s))
                yield ("fpga_spawn", i, fpga, fkey, ("mm", s))
                if rest is not None:
                    yield ("chan", i, rest, ("stage", s))
            if cpu is not None:
                yield ("cpu", i, cpu, ("gemm", s))
            if s < p - 1:
                # Forward the panel for the next step (CPU time, Sec. 4.3).
                yield ("send", (i, right, ("ring", s + 1)), panel)
            yield ("wait", fkey)

    return [(f"node{i}", node_main(i)) for i in range(p)]
