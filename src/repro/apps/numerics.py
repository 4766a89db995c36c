"""Run the timed op schedules on real blocks: one numerics interpreter.

:class:`NodeStores` runs the op streams of the LU, FW and MM schedules
(``apps/*/schedule.py``, priced by the identity pricer
:class:`~repro.sim.interpret.Physical`), without time, on small
matrices.  Every node has its own block store; each op does what its
label names on those blocks:

* ``cpu``: the label's block operation on the processor.  A repeated
  label (LU's per-superstripe gemm, FW's CPU ops without
  ``aggregate_ops``) does its ``n``-th share on its ``n``-th occurrence.
* ``chan``: the processor grants the FPGA the operands of the label's
  FPGA share (Section 4.4).
* ``fpga_spawn``: the job runs when its completion key is waited on;
  that wait is the handshake granting its results to the processor.
* ``send`` / ``send_batch``: the sender's processor reads the payload
  the tag names into the message key's mailbox; the receiver's ``wait``
  writes it into its own store under the tag.
* ``set`` / ``wait`` / ``wait_all`` on event keys order the processes.

Every access goes through a
:class:`~repro.core.coordination.CoordinationGuard` as ``cpu{i}`` or
``fpga{i}``; reading data nothing wrote (a message never received) is a
``raw-hazard``.  The one input beyond the schedule is which ready
process advances next: ``order(n)`` picks one of ``n`` (default: the
first in spawn order).  Any order obeys the schedule's waits, so a
schedule missing a wait gives wrong numbers, or a hazard, in some order.
"""

from __future__ import annotations

from collections import Counter, deque
from dataclasses import dataclass
from typing import Callable, Iterator, Optional

import numpy as np

from ..core.coordination import CoordinationGuard, HazardError, Violation
from ..kernels.blas import getrf_nopiv, split_lu, trsm_lower_left_unit, trsm_upper_right
from ..kernels.floyd_warshall import fwi
from ..sim.interpret import op_name

__all__ = ["FunctionalResult", "FwBlocks", "LuBlocks", "MmBlocks", "NodeStores"]


@dataclass
class FunctionalResult:
    """One schedule run on real blocks: the assembled matrix and tallies."""

    matrix: np.ndarray  # LU: packed factors; FW: distances; MM: the product
    op_counts: dict[str, int]  # block operations by kind (LU, FW)
    messages: int  # messages the schedule sent
    device_ops: dict[str, int]  # work per device: FW block ops, MM C rows
    guard: Optional[CoordinationGuard]

    lu = dist = product = property(lambda self: self.matrix)
    device_rows = property(lambda self: self.device_ops)
    factors = property(lambda self: split_lu(self.matrix))  # LU: (L, U)


def _split(total: int, parts: int, unit: int = 1) -> list[slice]:
    """``total`` units of ``unit`` indices in ``parts`` near-even slices."""
    base, extra = divmod(total, parts)
    edges = [unit * (j * base + min(j, extra)) for j in range(parts + 1)]
    return [slice(lo, hi) for lo, hi in zip(edges, edges[1:])]


def _product(array, c: np.ndarray, d: np.ndarray) -> np.ndarray:
    """``c @ d``, stripe by stripe on the PE ``array`` if given."""
    if array is None:
        return c @ d
    k = array.k
    return sum(array.multiply(c[:, j : j + k], d[j : j + k]).product
               for j in range(0, c.shape[1], k))


class NodeStores:
    """The interpreter: per-node block stores that op schedules drive.

    Subclasses map labels to block operations: ``cpu(i, label, n)``;
    ``stage(i, label)``, the keys a ``chan`` grants the FPGA;
    ``fpga(i, label)``, returning the keys the job wrote;
    ``payload(src, dst, tag)``; and ``assemble()``."""

    def __init__(self, p: int, guard: Optional[CoordinationGuard] = None) -> None:
        self.stores: list[dict] = [{} for _ in range(p)]
        self.caller_guard = guard
        self.guard = guard if guard is not None else CoordinationGuard(enforce=False)
        self.messages = 0
        self.op_counts: dict[str, int] = {}
        self.device_ops: dict[str, int] = {}

    def read(self, i: int, key: tuple, actor: str):
        region = f"dram{i}/{op_name(key)}"
        self.guard.read(region, actor)
        if key not in self.stores[i]:
            raise HazardError(Violation("raw-hazard", region, actor, "no writer"))
        return self.stores[i][key]

    def write(self, i: int, key: tuple, value, actor: str) -> None:
        region = f"dram{i}/{op_name(key)}"
        self.guard.begin_write(region, actor)
        self.stores[i][key] = value
        self.guard.end_write(region, actor)

    def grant(self, i: int, keys, actor: str) -> None:
        for key in keys:
            self.guard.grant(f"dram{i}/{op_name(key)}", actor)

    def scatter(self, matrix: np.ndarray, b: int, name: str, owner) -> None:
        """Store ``matrix``'s ``b x b`` blocks as ``(name, u, v)`` on ``owner(u, v)``."""
        nb = len(matrix) // b
        for u in range(nb):
            for v in range(nb):
                self.stores[owner(u, v)][(name, u, v)] = matrix[
                    u * b : (u + 1) * b, v * b : (v + 1) * b].copy()

    def gather(self, nb: int, name: str, owner) -> np.ndarray:
        """The matrix of blocks ``(name, u, v)`` held by ``owner(u, v)``."""
        return np.block([[self.stores[owner(u, v)][(name, u, v)] for v in range(nb)]
                         for u in range(nb)])

    def run(self, processes: list[tuple[str, Iterator]],
            order: Optional[Callable[[int], int]] = None) -> FunctionalResult:
        """Run ``(name, ops)`` processes to completion; ``order(n)`` picks
        which of the ``n`` ready processes advances next."""
        done, jobs, mail, seen = set(), {}, {}, Counter()

        def keys(op: tuple) -> list:  # what a wait/wait_all or send/send_batch names
            return [op[1]] if op[0] in ("wait", "send") else op[1]

        def arrived(key: tuple) -> bool:
            if type(key[0]) is str:
                return key in done or key in jobs
            return bool(mail.get(key))

        live = [[name, iter(ops)] for name, ops in processes]
        for proc in live:
            proc.append(next(proc[1], None))
        live = [proc for proc in live if proc[2] is not None]
        while live:
            ready = [proc for proc in live
                     if proc[2][0] not in ("wait", "wait_all") or all(map(arrived, keys(proc[2])))]
            if not ready:
                raise RuntimeError(f"schedule deadlocked: {[proc[0] for proc in live]} blocked")
            proc = ready[order(len(ready)) if order else 0]
            op = proc[2]
            code = op[0]
            if code == "cpu":
                _, i, _work, label = op
                self.cpu(i, label, seen[i, label])
                seen[i, label] += 1
            elif code == "chan":
                self.grant(op[1], self.stage(op[1], op[3]), f"fpga{op[1]}")
            elif code == "fpga_spawn":
                jobs[op[3]] = (op[1], op[4])
            elif code in ("send", "send_batch"):
                for key in keys(op):
                    mail.setdefault(key, deque()).append(self.payload(*key))
                    self.messages += 1
            elif code in ("wait", "wait_all"):
                for key in keys(op):
                    if type(key[0]) is not str:  # a message: the receiver stores it
                        self.write(key[1], key[2], mail[key].popleft(), f"cpu{key[1]}")
                    elif key in jobs:  # the FPGA job runs, then hands its results over
                        i, label = jobs.pop(key)
                        self.grant(i, self.fpga(i, label), f"cpu{i}")
                        done.add(key)
            elif code == "set":
                done.add(op[1])
            elif code != "stretch":  # pragma: no cover - schedule author error
                raise AssertionError(f"unknown op {code!r}")
            proc[2] = next(proc[1], None)
            if proc[2] is None:
                live.remove(proc)
        return FunctionalResult(self.assemble(), self.op_counts, self.messages,
                                self.device_ops, self.caller_guard)


class LuBlocks(NodeStores):
    """:func:`~repro.apps.lu.schedule.lu_processes` on real blocks.

    ``layout`` (a :class:`~repro.apps.lu.layout.BlockCyclicLayout`)
    places ``A[u,v]``.  Chunk ``s`` of job ``(t, u, v)`` carries
    superstripe ``s`` of ``C = A[u,t]``'s columns and of the worker's
    columns of ``D = A[t,v]``'s rows.  Each worker computes its columns
    of ``C @ D``: rows ``:b_f`` on the FPGA (``array``: the PE array),
    rows ``b_f:`` on the CPU, one superstripe per gemm op (all of them
    at once without ``overlap``).  opMS at the block's node subtracts the
    workers' columns, assembled; it counts as the job's opMM too.
    """

    def __init__(self, a: np.ndarray, config, layout, guard=None, array=None) -> None:
        super().__init__(layout.p, guard)
        self.config, self.layout, self.array = config, layout, array
        self.cols = _split(config.b, layout.p - 1)
        self.chunks = _split(config.b // config.k, config.superstripes, config.k)
        self.scatter(a, config.b, "A", layout.owner)
        self.op_counts = dict.fromkeys(("opLU", "opL", "opU", "opMM", "opMS"), 0)

    def _workers(self, t: int) -> list[int]:
        return [i for i in range(self.layout.p) if i != self.layout.panel_owner(t)]

    def _part(self, i: int, job: tuple) -> np.ndarray:
        """Worker ``i``'s columns of the job's product, FPGA rows first."""
        rows = (("Ef", *job), self.config.b_f), (("Ep", *job), self.config.b_p)
        return np.vstack([self.read(i, key, f"cpu{i}") for key, n in rows if n])

    def _product(self, i: int, job: tuple, chunks, device: str) -> np.ndarray:
        """This device's rows of worker ``i``'s ``C @ D``, over superstripes ``chunks``."""
        fpga, acc = device == "fpga", 0.0
        rows = slice(self.config.b_f) if fpga else slice(self.config.b_f, None)
        for s in chunks:
            c, d = self.read(i, ("mm", *job, s), f"{device}{i}")
            acc = acc + _product(self.array if fpga else None, c[rows], d)
        return acc

    def cpu(self, i: int, label: tuple, n: int) -> None:
        kind, job, actor = label[0], label[1:], f"cpu{i}"
        t = job[0]
        if kind == "gemm":
            chunks = [n] if self.config.overlap else range(self.config.superstripes)
            done = self.read(i, ("Ep", *job), actor) if n else 0.0
            self.write(i, ("Ep", *job), done + self._product(i, job, chunks, "cpu"), actor)
            return
        self.op_counts[kind] += 1
        if kind == "opMS":
            key = ("A", *job[1:])
            update = np.hstack([
                self._part(i, job) if w == i else self.read(i, ("ms", *job, w), actor)
                for w in self._workers(t)])
            self.write(i, key, self.read(i, key, actor) - update, actor)
            self.op_counts["opMM"] += 1
            return
        diag = self.read(i, ("A", t, t), actor)
        if kind == "opLU":
            self.write(i, ("A", t, t), getrf_nopiv(diag), actor)
            return
        lower, upper = split_lu(diag)
        key = ("A", job[1], t) if kind == "opL" else ("A", t, job[1])
        blk = self.read(i, key, actor)
        self.write(i, key, trsm_upper_right(upper, blk) if kind == "opL"
                   else trsm_lower_left_unit(lower, blk), actor)

    def stage(self, i: int, label: tuple) -> list[tuple]:
        return [("mm", *label[1:], s) for s in range(self.config.superstripes)]

    def fpga(self, i: int, label: tuple) -> list[tuple]:
        job = label[1:]
        self.write(i, ("Ef", *job), self._product(i, job, range(self.config.superstripes), "fpga"),
                   f"fpga{i}")
        return [("Ef", *job)]

    def payload(self, src: int, dst: int, tag: tuple):
        kind, t, u, v, x = tag
        if kind == "ms":  # worker x's columns of job (t, u, v)
            return self._part(src, (t, u, v))
        ks, cols = self.chunks[x], self.cols[self._workers(t).index(dst)]
        return (self.read(src, ("A", u, t), f"cpu{src}")[:, ks].copy(),
                self.read(src, ("A", t, v), f"cpu{src}")[ks, cols].copy())

    def assemble(self) -> np.ndarray:
        return self.gather(self.config.nb, "A", self.layout.owner)


class FwBlocks(NodeStores):
    """:func:`~repro.apps.fw.schedule.fw_processes` on real blocks.

    ``config.layout(p)`` places block column ``v``.  In iteration ``t``
    every node runs one op per own column other than ``t`` each phase:
    op21 on row ``t`` in phase 0, op3 on the ``ph``-th row other than
    ``t`` in phase ``ph``.  The owner's list starts with its op22 on the
    row whose pivot it sends next phase.  The first ``l1`` ops of a list
    run on the CPU, the rest on the FPGA (``design.run_tile`` if given).
    """

    def __init__(self, d: np.ndarray, config, p: int, guard=None, design=None) -> None:
        super().__init__(p, guard)
        self.config, self.layout, self.design = config, config.layout(p), design
        self.scatter(d, config.b, "D", self._owner)
        self.op_counts = dict.fromkeys(("op1", "op21", "op22", "op3"), 0)
        self.device_ops = {"cpu": 0, "fpga": 0}

    def _owner(self, u: int, v: int) -> int:
        return self.layout.owner_of_column(v)

    def _rows(self, t: int) -> list[int]:
        return [u for u in range(self.config.nb) if u != t]

    def _pivot(self, i: int, t: int, phase: int) -> tuple:
        """Node ``i``'s key for the block broadcast in ``(t, phase)``."""
        if i != self.layout.iteration_owner(t):
            return ("pivot", t, phase)
        return ("D", t, t) if phase == 0 else ("D", self._rows(t)[phase - 1], t)

    def _ops(self, i: int, t: int, phase: int) -> list[tuple]:
        """Node ``i``'s ``(kind, target, a, b)`` FWI ops in ``(t, phase)``."""
        rows = self._rows(t)
        ops = []
        if i == self.layout.iteration_owner(t) and phase < len(rows):
            ops.append(("op22", ("D", rows[phase], t), None, ("D", t, t)))
        pivot = self._pivot(i, t, phase)
        for v in self.layout.columns_of(i):
            if v == t:
                continue
            if phase == 0:
                ops.append(("op21", ("D", t, v), pivot, None))
            else:
                ops.append(("op3", ("D", rows[phase - 1], v), pivot, ("D", t, v)))
        return ops

    def _apply(self, i: int, op: tuple, device: str) -> None:
        kind, target, a, b = op
        actor = f"{device}{i}"
        blocks = [key and self.read(i, key, actor) for key in (target, a, b)]
        on_array = device == "fpga" and self.design is not None
        out = self.design.run_tile(*blocks)[0] if on_array else fwi(*blocks)
        self.write(i, target, out, actor)
        self.op_counts[kind] += 1
        self.device_ops[device] += 1

    def cpu(self, i: int, label: tuple, n: int) -> None:
        if label[0] == "op1":
            self._apply(i, ("op1", ("D", label[1], label[1]), None, None), "cpu")
            return
        step = self.config.l1 if self.config.aggregate_ops else 1
        for op in self._ops(i, *label[1:])[: self.config.l1][n * step : (n + 1) * step]:
            self._apply(i, op, "cpu")

    def stage(self, i: int, label: tuple) -> list[tuple]:
        return [key for op in self._ops(i, *label[1:])[self.config.l1 :]
                for key in op[1:] if key]

    def fpga(self, i: int, label: tuple) -> list[tuple]:
        ops = self._ops(i, *label[1:])[self.config.l1 :]
        for op in ops:
            self._apply(i, op, "fpga")
        return [op[1] for op in ops]

    def payload(self, src: int, dst: int, tag: tuple):
        return self.read(src, self._pivot(src, *tag[1:]), f"cpu{src}").copy()

    def assemble(self) -> np.ndarray:
        return self.gather(self.config.nb, "D", self._owner)


class MmBlocks(NodeStores):
    """:func:`~repro.apps.mm.schedule.mm_processes` on real panels.

    Node ``i`` holds row panel ``i`` of A, B and C.  In ring step ``s``
    it holds B panel ``q = (i - s) mod p`` (its own at ``s = 0``, else
    the one received on ``("ring", s)``) and adds ``A_i[:, q] @ panel``
    to its C panel: rows ``:m_f`` on the FPGA (``array``: the PE array),
    the rest on the CPU.
    """

    def __init__(self, a: np.ndarray, b: np.ndarray, config, p: int, guard=None,
                 array=None) -> None:
        super().__init__(p, guard)
        r = config.validate_for(p)
        self.p, self.r, self.m_f, self.array = p, r, config.m_f, array
        for i, store in enumerate(self.stores):
            rows = slice(i * r, (i + 1) * r)
            store[("A",)], store[("B",)] = a[rows].copy(), b[rows].copy()
            store[("Cf",)] = np.zeros((self.m_f, config.n))
            store[("Cp",)] = np.zeros((r - self.m_f, config.n))
        self.device_ops = {"cpu": 0, "fpga": 0}

    @staticmethod
    def _panel(s: int) -> tuple:
        return ("B",) if s == 0 else ("ring", s)

    def _accumulate(self, i: int, s: int, device: str) -> tuple:
        actor, fpga = f"{device}{i}", device == "fpga"
        key, rows = (("Cf",), slice(self.m_f)) if fpga else (("Cp",), slice(self.m_f, self.r))
        q = (i - s) % self.p
        blk = self.read(i, ("A",), actor)[rows, q * self.r : (q + 1) * self.r]
        panel = self.read(i, self._panel(s), actor)
        prod = _product(self.array if fpga else None, blk, panel)
        self.write(i, key, self.read(i, key, actor) + prod, actor)
        self.device_ops[device] += len(blk)
        return key

    def cpu(self, i: int, label: tuple, n: int) -> None:
        self._accumulate(i, label[1], "cpu")

    def stage(self, i: int, label: tuple) -> list[tuple]:
        return [("A",), self._panel(label[1])]

    def fpga(self, i: int, label: tuple) -> list[tuple]:
        return [self._accumulate(i, label[1], "fpga")]

    def payload(self, src: int, dst: int, tag: tuple):
        return self.read(src, self._panel(tag[1] - 1), f"cpu{src}").copy()

    def assemble(self) -> np.ndarray:
        return np.vstack([part for store in self.stores
                          for part in (store[("Cf",)], store[("Cp",)])])
