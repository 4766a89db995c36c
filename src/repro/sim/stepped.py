"""The general analytic replay, in the DES's same-instant order.

:class:`StepReplay` runs the op schedules of every app without a DES,
with the DES's order of same-instant work by construction: it is exact
for every schedule of processes it starts (see the step table in the
class doc) and refuses nothing, at the price of one queue entry per DES
step at an instant that holds other work.
:func:`repro.apps.engines.replay_schedule` runs the MM ring and the FW
runs FW's closed form hands over here.  LU schedules try
:class:`~repro.sim.analytic.Replay` first, because twin workers (one
broadcast wave, identical work) share every instant of an LU sweep,
where that price would add a fifth to a fig6 + fig8 pass; where
``Replay`` meets a same-instant collision it cannot settle
(``ambiguous-tie``), or its stretch fold defers, the schedule replays
here.
"""

from __future__ import annotations

from collections import deque
from heapq import heappop, heappush
from itertools import count

__all__ = ["StepReplay"]

#: The heap's bottom entry: it sorts after every real one, so the heap is
#: never empty and "does a timer end at this instant" is one comparison.
_END = (float("inf"), 0, None, None, None, None)
#: A same-instant entry that only holds the queue's place (see _fire).
_HOLD = ("hold", None, None)


class _Q:
    """One FIFO resource queue (link lane, CPU lane, FPGA, DMA channel).

    ``q`` holds waiters only while all ``cap`` slots are taken: a release
    hands its slot straight to the FIFO head, so ``in_use < cap`` means
    a free slot and nobody waiting.  A waiter is ``(dur, kind, a, b)``,
    which starts the timer ``(kind, a, b)`` of ``dur`` once granted,
    except a transfer waiting for egress, ``(None, None, tok, None)``,
    which asks for its ingress link instead.
    """

    __slots__ = ("cap", "in_use", "q")

    def __init__(self, cap: int) -> None:
        self.cap = cap
        self.in_use = 0
        self.q: deque = deque()


class StepReplay:
    """Chronological replay of a DES schedule in the DES's own order.

    Schedules are plain generators yielding *ops* (tuples); the engine
    drives each generator with :meth:`advance` and orders everything on
    one timer heap and one same-instant queue.  The same schedules run
    on the DES through
    :class:`repro.sim.interpret.DesInterpreter`, which documents the
    key and label conventions; here each op's cost slot holds what
    :class:`~repro.sim.analytic.ReplayCosts` made of its physical work,
    and labels and tie tags are ignored.  Supported ops (those of
    :class:`~repro.sim.analytic.Replay`):

    ``("cpu", i, dur, label)``
        Hold node *i*'s CPU lane for ``dur``; busy time accrues as
        ``end - start`` exactly like ``ComputeNode.cpu_run``.
    ``("chan", i, dur, label)``
        Hold node *i*'s DRAM-to-FPGA channel for ``dur``.
    ``("fpga_spawn", i, dur, key, label)``
        Non-blocking FPGA job; sets ``key`` when it completes.
    ``("send", key, (svc, size), tie)``
        One network transfer from ``key[0]`` to ``key[1]`` that puts the
        message ``key`` on its mailbox; the generator resumes then
        (a blocking DES send).
    ``("send_batch", keys, (svc, size))``
        A burst of concurrent transfers spawned at one instant; the
        generator resumes when all complete (``all_of`` over sends).
    ``("wait", key)`` / ``("wait_all", keys)``
        Block until the named events are set and messages received.
    ``("set", key)``
        Set a completion event.
    ``("stretch", i, plan, keys)``
        Nothing: the process is sent None and yields the plan's ops one
        by one (``Replay`` sends True and folds them).
    ``("stall", i, dur, mark)``
        A ``dma_stall`` window: hold node *i*'s channel for ``dur`` in
        FIFO order with the schedule's own holds.  Like the DES fault
        process it is logged one step after its grant (``apply``) and
        right after its release (``revert``), as ``(mark, phase, t)``
        entries in :attr:`marks`; the generator is not resumed.

    **Same-instant order.**  The DES runs one instant as its calendar
    entries (timers ending then) in creation order, then its zero-delay
    FIFO; an entry that posts another puts it one *step* later, so the
    instant runs in (step, post order).  The replay has the same two
    parts: a heap of timers keyed ``(end, seq)`` and a FIFO
    :attr:`dq` of same-instant entries, drained once no timer ends at
    that instant.  It posts an entry wherever the DES takes a step, so
    it meets each same-instant choice -- who gets a queue, which of two
    equal timers ends first -- as the DES does.
    What the interpreter's ops cost in steps, for a process running at
    step ``s`` (``sim/core.py``, ``sim/resources.py``,
    ``sim/interpret.py``):

    ======================  ============================================
    op / event              DES steps
    ======================  ============================================
    request a free queue    granted now; the requester resumes at s+1
                            and starts its timer there
    release a queue         its FIFO head is granted now and resumes
                            at s+1 (timers end at step 0, so at 1)
    ``cpu`` / ``chan``      request; the hold's timer starts at s+1
    ``fpga_spawn``          the job's process starts at s+1 and asks
                            for the FPGA; its timer starts at s+2.  When
                            it ends: release, then ``key`` is processed
                            at step 1
    ``send``                egress request at s, ingress request at
                            s+1, timer at s+2.  When it ends: release
                            ingress, release egress, then the mailbox
                            ``put`` resumes the sender at step 1 and a
                            receiver already waiting right behind it
    ``send_batch``          one send process per key, all started at
                            s+1 in key order; each ends at step 1 of its
                            transfer's end, its process event fires at
                            step 2 and the last one's ``all_of`` resumes
                            the sender at step 3 (``[]``: at s+1)
    ``set``                 ``key`` is processed at s+1: its waiters
                            resume there in the order they registered
                            (a ``wait`` on ``key`` right after it, as
                            the LU worker's on its kept part, last)
    ``wait`` event          processed: no step; else resumes when
                            ``key`` is processed
    ``wait`` message        on the mailbox: the ``get`` takes one step
                            (s+1); else resumes at step 1 of its put
    ``wait_all``            each message gets a receive process started
                            at s+1 (on the mailbox: it ends at s+2 and
                            fires at s+3; else ends at step 1 of the put
                            and fires at 2); each event counts down
                            when processed; the ``all_of`` resumes the
                            process one step after the last count
                            (all processed already: s+1)
    process start           step 1 of t = 0, in start order
    ======================  ============================================

    A step costs a queue entry only when the instant holds other work
    (``dq`` not empty, or ``heap[0][0] == t``).  Otherwise the entry it
    posts is the next one the DES would run, and the replay runs it at
    once: a process goes on where it is.  That holds when the entry is
    the last thing its parent does.  An egress grant (an ingress
    request, then a grant) may also run ahead of what its parent does
    after posting it: a release posts its grant before the releaser
    goes on, and nothing a step runs starts a timer.  It may run ahead
    of other transfers ending at the same instant too, under the
    conditions of :meth:`_quiet`.  A grant starts its timer at once, at
    its place in the timer order: grants are posted in the order the
    DES processes them.  The members of a ``send_batch`` end in the
    order their transfers do, so only the last one takes the steps of
    its ending.

    Every process has its place in the DES's order: :meth:`process`
    starts one at step 1 of t = 0, and :meth:`spawn` (a fault injector's
    stall, installed before the schedule) does too, or starts its sleep's
    timer before any other.  So the replay refuses nothing.

    Timers are flat tuples ``(end, seq, kind, a, b, start)`` and queue
    entries ``(kind, a, b)``, dispatched in :meth:`run` in the order of
    how often each kind occurs in the LU sweeps; a transfer is the tuple
    ``(src, dst, svc, size, key, gen, group)``.
    """

    def __init__(self, p: int, links: int) -> None:
        self.heap: list = [_END]  # timers: (end, seq, kind, a, b, start)
        self.dq: deque = deque()  # this instant's entries, (kind, a, b), in post order
        self._seq = count(1).__next__  # timer start order
        self.egress = [_Q(links) for i in range(p)]
        self.ingress = [_Q(links) for i in range(p)]
        self.lane = [_Q(1) for i in range(p)]
        self.fpga = [_Q(1) for i in range(p)]
        self.chan = [_Q(1) for i in range(p)]
        self.cpu_busy = [0.0] * p
        self.fpga_busy = [0.0] * p
        self.net_bytes = 0.0
        self.events: dict = {}  # key -> instant it was processed (event) or put (message)
        self.waiters: dict = {}  # key -> callbacks: generators and all_of cells [left, gen]
        self.marks: list = []  # (mark, "apply"|"revert", t) per stall, in order
        self.max_t = 0.0
        self.steps = 0  # same-instant entries run

    def work(self) -> dict:
        """The run's timers and same-instant entries; it folds nothing."""
        return {"events": self._seq() - 1 + self.steps, "folded": 0}

    # -- queues ---------------------------------------------------------

    def _acq(self, q: _Q, waiter: tuple) -> bool:
        """Acquire ``q``; True if granted now, else ``waiter`` queues."""
        if q.in_use < q.cap:
            q.in_use += 1
            return True
        q.q.append(waiter)
        return False

    def _release(self, q: _Q, t: float) -> None:
        """Free a slot of ``q``; its FIFO head takes it and resumes a step
        later."""
        if not q.q:
            q.in_use -= 1
            return
        w = q.q.popleft()
        if w[1] is not None:
            self._start(w, t)
        elif not self.dq and (self.heap[0][0] != t or self._quiet(t, w[2][1])):
            self._ingress(w[2], t)  # may run ahead (see the class doc)
        else:
            self.dq.append(("E", w[2], None))

    def _quiet(self, t: float, dst: int) -> bool:
        """True if every timer ending at ``t`` is a transfer to another
        node whose ingress link has no waiter.

        Such a transfer's end releases nothing an ingress request to
        ``dst`` could meet, starts no timer at its step, and posts only
        behind the egress grant being run ahead, so the grant may ask
        for its ingress link at once: the twin transfers of one burst
        end together at every wave.
        """
        heap, ingress = self.heap, self.ingress
        todo, n = [0], len(heap)
        while todo:
            i = todo.pop()
            entry = heap[i]
            if entry[0] != t:
                continue
            if entry[2] != "x" or entry[3][1] == dst or ingress[entry[3][1]].q:
                return False
            i = 2 * i + 1
            todo.extend(range(i, min(i + 2, n)))
        return True

    def _start(self, w: tuple, t: float) -> None:
        """Waiter ``w`` is granted: it resumes a step later and starts its
        timer there.

        The timer is pushed now: grants are posted in the order the DES
        processes them, so timers ending together end in the DES's
        order.  A stall (which logs its start) and a timer that ends at
        once (a zero-delay post in the DES) take their step.
        """
        end = t + w[0]
        if end != t and w[1] != "r":
            heappush(self.heap, (end, self._seq(), w[1], w[2], w[3], t))
        elif not self.dq and self.heap[0][0] != t:
            self._begin(w, t, self._seq())
        else:
            self.dq.append(("G", w, self._seq()))

    def _begin(self, w: tuple, t: float, n: int) -> None:
        """The grantee of ``w`` resumes; ``n`` is its grant's place."""
        dur, kind, a, b = w
        if kind == "r":
            self.marks.append((b, "apply", t))
        end = t + dur
        if end != t:
            heappush(self.heap, (end, n, kind, a, b, t))
        else:
            self.dq.append(("T", (kind, a, b, t), None))

    def _fpga(self, job: tuple, t: float) -> None:
        """An FPGA job's process starts and asks for its FPGA."""
        i, dur, key = job
        w = (dur, "f", i, key)
        if self._acq(self.fpga[i], w):
            self._start(w, t)

    # -- transfers ------------------------------------------------------

    def _egress(self, tok: tuple, t: float) -> None:
        """Transfer ``tok`` asks for its egress link."""
        q = self.egress[tok[0]]
        if not self._acq(q, (None, None, tok, None)):
            return
        if not self.dq and self.heap[0][0] != t:
            self._ingress(tok, t)
        else:
            self.dq.append(("E", tok, None))

    def _ingress(self, tok: tuple, t: float) -> None:
        """Transfer ``tok``, granted its egress link, asks for ingress."""
        q = self.ingress[tok[1]]
        if not self._acq(q, (tok[2], "x", tok, None)):
            return
        end = t + tok[2]
        if end != t:
            heappush(self.heap, (end, self._seq(), "x", tok, None, t))
        else:
            self._start((tok[2], "x", tok, None), t)

    def _batch(self, toks: list, t: float) -> None:
        """A ``send_batch``'s send processes start, in order."""
        for tok in toks:
            self._egress(tok, t)

    def _arrive(self, tok: tuple, t: float) -> None:
        """Transfer ``tok``'s wire time ends: release ingress, release
        egress, then the mailbox put resumes the sender a step later and
        a receiver already waiting right behind it."""
        src, dst, _, size, key, gen, group = tok
        q = self.ingress[dst]
        if q.q:
            self._release(q, t)
        else:
            q.in_use -= 1
        q = self.egress[src]
        if q.q:
            self._release(q, t)
        else:
            q.in_use -= 1
        self.net_bytes += size
        self.events[key] = t
        getter = self.waiters.pop(key, None)
        if gen is None:
            # A send_batch member.  Its send processes end in the order
            # their transfers do, so only the last one's ending, process
            # event and all_of move anything; the others just count down.
            group[0] -= 1
            if group[0]:
                gen = False
            else:
                group[0] = 1
        dq = self.dq
        if getter is None:
            if gen is False:
                return
            if not dq and self.heap[0][0] != t:
                if gen is not None:
                    self.advance(gen, t)
                else:  # the send process ends, then its process event fires
                    self._done(group, t)
            elif gen is not None:
                dq.append(("g", gen, None))
            else:
                dq.append(("S", group, None))
            return
        if gen is not False:
            dq.append(("g", gen, None) if gen is not None else ("S", group, None))
        getter = getter[0]
        if type(getter) is list:  # a wait_all's receive process
            if not dq and self.heap[0][0] != t:
                self._done(getter, t)
            else:
                dq.append(("S", getter, None))
        elif not dq and self.heap[0][0] != t:
            self.advance(getter, t)
        else:
            dq.append(("g", getter, None))

    # -- events, messages and all_of ------------------------------------

    def _fire(self, key, t: float) -> None:
        """Event ``key`` is processed: its callbacks run in the order they
        registered."""
        self.events[key] = t
        cbs = self.waiters.pop(key, None)
        if not cbs:
            return
        dq, last = self.dq, len(cbs) - 1
        for n, cb in enumerate(cbs):
            if type(cb) is list:  # an all_of counts down
                cb[0] -= 1
                if cb[0] == 0:
                    if n == last and not dq and self.heap[0][0] != t:
                        self.advance(cb[1], t)
                    else:
                        dq.append(("g", cb[1], None))
            elif n == last or dq:
                self.advance(cb, t)
            else:
                # It resumes here, but the callbacks after it still run
                # now: hold the queue so it runs nothing ahead of them.
                dq.append(_HOLD)
                self.advance(cb, t)
                dq.popleft()

    def _recv(self, keys: list, cell: list, t: float) -> None:
        """A ``wait_all``'s receive processes start, in order."""
        events, waiters, dq = self.events, self.waiters, self.dq
        ready = 0
        for key in keys:
            if key in events:  # the get takes a step, then the process ends
                ready += 1
            else:
                waiters.setdefault(key, []).append(cell)
        if ready == 1 and not dq and self.heap[0][0] != t:
            self._done(cell, t)
        else:
            for _ in range(ready):
                dq.append(("S", cell, None))

    def _done(self, cell: list, t: float) -> None:
        """An ``all_of`` member's process event fires."""
        cell[0] -= 1
        if cell[0] == 0:
            if not self.dq and self.heap[0][0] != t:
                self.advance(cell[1], t)
            else:
                self.dq.append(("g", cell[1], None))

    def _expire(self, t: float, kind: str, a, b, start: float) -> None:
        """A timer of ``kind`` ends at ``t``.  :meth:`run` handles the
        frequent kinds itself; the zero-delay ones come here from the
        same-instant queue."""
        if kind == "x":
            self._arrive(a, t)
        elif kind == "f":  # an FPGA job ends; b is its completion key
            q = self.fpga[a]
            if q.q:
                self._release(q, t)
            else:
                q.in_use -= 1
            self.fpga_busy[a] += t - start
            if not self.dq and self.heap[0][0] != t:
                self._fire(b, t)
            else:
                self.dq.append(("e", b, None))
        elif kind == "g":  # a spawned process wakes
            self.advance(a, t)
        elif kind == "r":  # a stall window ends
            self.marks.append((b, "revert", t))
            self._release(self.chan[a], t)
        else:  # "c" / "h": a hold ends
            q = (self.lane if kind == "c" else self.chan)[a]
            if q.q:
                self._release(q, t)
            else:
                q.in_use -= 1
            if kind == "c":
                self.cpu_busy[a] += t - start
            self.advance(b, t)

    # -- generator driver ------------------------------------------------

    def process(self, gen) -> None:
        """Start ``gen`` as the DES starts a process spawned before its run."""
        self.dq.append(("g", gen, None))

    def spawn(self, gen, at: float) -> None:
        """Start ``gen`` at time ``at`` like a DES process spawned before
        the run that first sleeps ``at`` (the fault injector's stall)."""
        if at > 0:  # its sleep's timer, started before any other
            heappush(self.heap, (at, self._seq(), "g", gen, None, None))
        else:
            self.dq.append(("g", gen, None))

    def advance(self, gen, t: float) -> None:
        """Drive ``gen``, resumed at instant ``t``, until it blocks or
        finishes."""
        step = gen.__next__
        heap, dq, seq, events = self.heap, self.dq, self._seq, self.events
        while True:
            try:
                op = step()
            except StopIteration:
                return
            code = op[0]
            if code == "wait":
                key = op[1]
                if key in events:
                    if type(key[0]) is str:  # a processed event
                        continue
                    # The get of a message already there: one step.
                    if not dq and heap[0][0] != t:
                        continue
                    dq.append(("g", gen, None))
                    return
                self.waiters.setdefault(key, []).append(gen)
                return
            elif code == "cpu":
                i, dur = op[1], op[2]
                q = self.lane[i]
                if not self._acq(q, (dur, "c", i, gen)):
                    return
                end = t + dur
                if end != t:
                    heappush(heap, (end, seq(), "c", i, gen, t))
                else:
                    self._start((dur, "c", i, gen), t)
                return
            elif code == "chan":
                i, dur = op[1], op[2]
                q = self.chan[i]
                if not self._acq(q, (dur, "h", i, gen)):
                    return
                end = t + dur
                if end != t:
                    heappush(heap, (end, seq(), "h", i, gen, t))
                else:
                    self._start((dur, "h", i, gen), t)
                return
            elif code == "fpga_spawn":
                dq.append(("F", op[1:4], None))
            elif code == "send":
                key, (svc, size) = op[1], op[2]
                self._egress((key[0], key[1], svc, size, key, gen, None), t)
                return
            elif code == "send_batch":
                keys = op[1]
                if keys:
                    svc, size = op[2]
                    group = [len(keys), gen]
                    toks = [(k[0], k[1], svc, size, k, None, group) for k in keys]
                    if not dq and heap[0][0] != t:
                        self._batch(toks, t)
                    else:
                        dq.append(("B", toks, None))
                    return
                # all_of([]) fires at once: one step.
                if not dq and heap[0][0] != t:
                    continue
                dq.append(("g", gen, None))
                return
            elif code == "set":
                dq.append(("e", op[1], None))
            elif code == "stretch":
                continue
            elif code == "wait_all":
                cell = [0, gen]
                recv = []
                waiters = self.waiters
                for key in op[1]:
                    if type(key[0]) is not str:
                        recv.append(key)
                    elif key in events:
                        continue
                    else:
                        waiters.setdefault(key, []).append(cell)
                    cell[0] += 1
                if recv:
                    if not dq and heap[0][0] != t:
                        self._recv(recv, cell, t)
                    else:
                        dq.append(("R", recv, cell))
                    return
                if cell[0]:
                    return
                # Every event already processed: the all_of fires at once.
                if not dq and heap[0][0] != t:
                    continue
                dq.append(("g", gen, None))
                return
            elif code == "stall":
                _, i, dur, mark = op
                w = (dur, "r", i, mark)
                if self._acq(self.chan[i], w):
                    self._start(w, t)
                return
            else:  # pragma: no cover - schedule author error
                raise AssertionError(f"unknown replay op {code!r}")

    def run(self) -> float:
        """Drain the heap and the same-instant queue; returns the makespan
        (latest time touched)."""
        heap, dq, advance, expire = self.heap, self.dq, self.advance, self._expire
        lane, chan, release, arrive = self.lane, self.chan, self._release, self._arrive
        t, steps = 0.0, 0
        while True:
            if dq and heap[0][0] != t:  # timers ending now run first
                steps += 1
                kind, a, b = dq.popleft()
                if kind == "g":  # a process resumes
                    advance(a, t)
                elif kind == "E":  # a transfer granted egress asks for ingress
                    self._ingress(a, t)
                elif kind == "e":  # an event is processed
                    self._fire(a, t)
                elif kind == "F":  # an FPGA job's process starts
                    self._fpga(a, t)
                elif kind == "S":  # an all_of member's process ends
                    if not dq and heap[0][0] != t:
                        self._done(a, t)
                    else:
                        dq.append(("N", a, None))
                elif kind == "N":  # its process event fires
                    self._done(a, t)
                elif kind == "B":  # a send_batch's send processes start
                    self._batch(a, t)
                elif kind == "R":  # a wait_all's receive processes start
                    self._recv(a, b, t)
                elif kind == "G":  # a granted stall (or zero-delay hold) resumes
                    self._begin(a, t, b)
                else:  # "T": a zero-delay timer ends
                    expire(t, *a)
                continue
            t, _, kind, a, b, start = heappop(heap)
            if t > self.max_t:
                if kind is None:  # the bottom entry: nothing is left
                    self.steps = steps
                    break
                self.max_t = t
            if kind == "c":  # cpu lane hold ends; a is the node, b the process
                q = lane[a]
                if q.q:
                    release(q, t)
                else:
                    q.in_use -= 1
                self.cpu_busy[a] += t - start
                advance(b, t)
            elif kind == "h":  # channel hold ends
                q = chan[a]
                if q.q:
                    release(q, t)
                else:
                    q.in_use -= 1
                advance(b, t)
            elif kind == "x":  # a transfer's wire time ends
                arrive(a, t)
            else:
                expire(t, kind, a, b, start)
        return self.max_t
