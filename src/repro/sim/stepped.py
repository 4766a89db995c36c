"""The analytic replay, in the DES's same-instant order.

:class:`StepReplay` runs the op schedules of every app without a DES,
with the DES's order of same-instant work by construction: it is exact
for every schedule of processes it starts (see the step table in the
class doc), at the price of one queue entry per DES step at an instant
that holds other work.  An LU worker's opMM job, where twin workers (one
broadcast wave, identical work) share every instant, is folded into one
heap entry per stretch instead (see the class doc); a fold that cannot
order one of its instants raises :class:`~repro.sim.analytic.FoldDeferred`,
and :func:`replay` starts the run over with no fold.
"""

from __future__ import annotations

from collections import deque
from heapq import heappop, heappush
from itertools import accumulate, count
from typing import Callable, Optional

from .analytic import FoldDeferred, StretchPlan

__all__ = ["StepReplay", "replay"]

#: The heap's bottom entry: it sorts after every real one, so the heap is
#: never empty and "does a timer end at this instant" is one comparison.
_END = (float("inf"), float("inf"), 0, None, None, None)
#: A same-instant entry that only holds the queue's place (see _fire).
_HOLD = ("hold", None, None)
#: What :meth:`StepReplay._fold` is handed for a plan not taken over yet,
#: and returns when it declines one.
_TAKE = object()


class _Q:
    """One FIFO resource queue (link lane, CPU lane, FPGA, DMA channel).

    ``q`` holds waiters only while all ``cap`` slots are taken: a release
    hands its slot straight to the FIFO head, so ``in_use < cap`` means
    a free slot and nobody waiting.  A waiter is ``(dur, kind, a, b)``,
    which starts the timer ``(kind, a, b)`` of ``dur`` once granted,
    except a transfer waiting for egress, ``(None, None, tok, None)``,
    which asks for its ingress link instead.  ``until`` is the end of
    the latest CPU or FPGA hold granted.  While a stretch folds its
    node's CPU lane (``fold``), ``cap`` is 0, so every request meets it.
    """

    __slots__ = ("cap", "in_use", "q", "until", "fold")

    def __init__(self, cap: int) -> None:
        self.cap = cap
        self.in_use = 0
        self.q: deque = deque()
        self.until = 0.0
        self.fold: Optional[_Stretch] = None


class _Stretch:
    """One process's steps ``plan.steps[k0:j]`` on node ``i``, folded at
    ``t0`` (its first hold is step ``k``).

    ``keys`` are the ``stretch`` op's keys; the fold stopped at step ``j``
    (a wait on a key not set then) or ran through the plan, and ``after``
    is the op the process yielded after it (None: it finished).  The fold
    records the instant ``end`` the process resumes at, the start ``vpt``
    of its last hold, and the FPGA job it spawned (from ``fs`` to ``fe``)
    or waits for (``reach``).  Holds that follow each other keep their
    boundaries in ``ends`` (``ends[m]`` starts hold ``m``), the gemms
    among them as offsets in ``gemms``.  :meth:`StepReplay._play`
    re-times the steps behind the lane's outside requests ``intr`` (``[t,
    dur, who, start]``) into the virtual instants ``inst`` (hold ends, and
    ``t0`` when the first CPU request is made then), the gemms ``owed`` to
    ``cpu_busy`` as ``(end, start)`` (the first ``paid`` already added)
    and ``waits``, whether any CPU hold waited for the lane (which is free
    at ``lane0``); ``owed`` is None until then.  ``root`` orders the fold
    among the entries the replay runs (it is a timer seq taken at the
    fold), ``tok`` names its live end entry and ``cell`` is the callback
    it parks on the FPGA key when the process resumes there (``end ==
    fe``).
    """

    fs = fe = intr = owed = cell = None
    paid = tok = 0
    waits = reach = False

    def twin(self, other: "_Stretch") -> bool:
        """The same steps and hold boundaries from the same fold instant,
        nothing re-timed: every entry of each runs at the same step as the
        other's, so the unfolded replay runs the two in fold order at
        every instant."""
        return (self.owed is None and other.owed is None and self.plan is other.plan
                and self.k0 == other.k0 and self.j == other.j and self.ends == other.ends
                and self.fs == other.fs and self.fe == other.fe and self.reach == other.reach)


def _post(pos: tuple, rank: int) -> tuple:
    """The DES position of the ``rank``-th entry posted from ``pos``: one
    step later.  A root's step is not known, so steps below one are kept
    relative to it, as negative counts."""
    step = pos[1]
    return (pos[0], -1 if step is None else step - 1 if step < 0 else step + 1, pos, rank)


def _cmp(a: tuple, b: tuple) -> int:
    """-1, 0 or 1 as position ``a`` runs before, as or after ``b`` in the
    DES.  A position is ``(t, step, parent, rank)``: a timer's end is step
    0 with the entry that started it as parent, a post one step after its
    parent, and a fold's root ``(t0, None, seq, 0)`` is known only by the
    order the replay ran it in.  Raises :class:`FoldDeferred` where the
    steps do not tell."""
    while a is not b:
        if a[0] != b[0]:
            return -1 if a[0] < b[0] else 1
        sa, sb = a[1], b[1]
        if sa is None or sb is None:
            if sa is None and sb is None:  # two roots, in the order they ran
                return (a[2] > b[2]) - (a[2] < b[2])
            raise FoldDeferred
        if sa != sb:
            if sa >= 0 and sb >= 0:
                return -1 if sa < sb else 1
            if sa == 0 or sb == 0:  # a timer's end runs before every post
                return -1 if sa == 0 else 1
            raise FoldDeferred
        c = _cmp(a[2], b[2])
        if c:
            return c
        return (a[3] > b[3]) - (a[3] < b[3])
    return 0


class StepReplay:
    """Chronological replay of a DES schedule in the DES's own order.

    Schedules are plain generators yielding *ops* (tuples); the engine
    drives each generator with :meth:`advance` and orders everything on
    one timer heap and one same-instant queue.  The same schedules run
    on the DES through
    :class:`repro.sim.interpret.DesInterpreter`, which documents the
    key and label conventions; here each op's cost slot holds what
    :class:`~repro.sim.analytic.ReplayCosts` made of its physical work,
    and labels are ignored.  Supported ops:

    ``("cpu", i, dur, label)``
        Hold node *i*'s CPU lane for ``dur``; busy time accrues as
        ``end - start`` exactly like ``ComputeNode.cpu_run``.
    ``("chan", i, dur, label)``
        Hold node *i*'s DRAM-to-FPGA channel for ``dur``.
    ``("fpga_spawn", i, dur, key, label)``
        Non-blocking FPGA job; sets ``key`` when it completes.
    ``("send", key, (svc, size))``
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
        The ops a :class:`~repro.sim.analytic.StretchPlan` stands for, on
        node *i*, with the keys they wait on and set.  Sent None (every
        engine that only steps the process), the process goes on to yield
        those ops one by one; sent True, it skips them, and the engine
        runs them itself.  The DES takes no step for the op.  It promises
        that nothing else uses node *i*'s channel and FPGA but stall
        windows, and that the process waits for an FPGA job's key before
        it spawns another.  This engine folds them (see below).
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
    parts: a heap of timers keyed ``(end, start, seq)`` and a FIFO
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
    ``stretch``             none
    process start           step 1 of t = 0, in start order
    ======================  ============================================

    A step costs a queue entry only when the instant holds other work
    (``dq`` not empty, or ``heap[0][0] == t``).  Otherwise the entry it
    posts is the next one the DES would run, and the replay runs it at
    once: a process goes on where it is.  That holds when the entry is
    the last thing its parent does.  An egress grant (an ingress
    request, then a grant) may also run ahead of what its parent does
    after posting it: a release posts its grant before the releaser
    goes on, and nothing a step runs starts a timer.  A grant starts its timer at once, at
    its place in the timer order: grants are posted in the order the
    DES processes them.  The members of a ``send_batch`` end in the
    order their transfers do, so only the last one takes the steps of
    its ending.

    Every process has its place in the DES's order: :meth:`process`
    starts one at step 1 of t = 0, and :meth:`spawn` (a fault injector's
    stall, installed before the schedule) does too, or starts its sleep's
    timer before any other.

    **Stretches.**  At a ``stretch`` op :meth:`_fold` takes the plan's
    ops over and times them in closed form, up to the first wait on a
    key not set yet: holds that follow each other in one
    :func:`itertools.accumulate`, the FPGA job from its spawn, the wait
    on its key.  Its steps run nowhere: they touch only the node's own
    queues and keys.  What others can see is where the process resumes,
    and that is one entry at its DES position: an ``"E"`` timer for its
    last hold's end (at that wait, or at the op after the plan), or, when
    it waits for its FPGA job, the job's end, an ``"F"`` timer that
    processes the key as the job's process does.  An ``"F"`` timer also
    ends a job the stretch does not wait for.  A wait's key, once set,
    resumes the fold (the internal ``("fold", ...)`` op).  ``cpu_busy``
    adds the folded gemms in the order their timers would have ended.

    A folded timer is keyed ``(end, start, root)``: it ends where the
    unfolded one would, among the timers started at other instants, and
    its ``root`` sorts it ahead of every timer the replay starts at its
    start instant after the fold.  Where another entry has the same end
    and start, the two are ordered by their DES positions
    (:func:`_cmp`, built by :meth:`_pos`; twins, :meth:`_Stretch.twin`,
    run in fold order), and where that order is not known, or the other
    entry is no folded one, the fold raises
    :class:`~repro.sim.analytic.FoldDeferred`: the run is replayed with
    no fold.  While a stretch is on, its CPU lane takes requests only
    through :meth:`_intrude`:

    - another process's request (the LU opMS sink's) is granted from the
      stretch's lane timeline -- inside a virtual hold it waits to the
      hold's end (a ``"C"`` timer, keyed as a folded one), in a gap it
      gets the lane then -- and the stretch is re-timed behind it; its
      hold's end adds the gemms ``owed`` before it first, so
      ``cpu_busy`` adds up in the order the holds end unfolded;
    - a request or a release at one of the stretch's own instants, where
      the order of the unfolded steps would decide, defers the run.

    While a spawned ``stall`` window is pending, ``stretch`` ops fold
    nothing: the channel may not be promised to the schedule, and the
    process yields its ops one by one.  An engine :func:`replay` starts
    over after a deferred fold (``deferred`` set) folds nothing.

    Timers are flat tuples ``(end, start, seq, kind, a, b)`` and queue
    entries ``(kind, a, b)``, dispatched in :meth:`run` in the order of
    how often each kind occurs in the LU sweeps; a transfer is the tuple
    ``(src, dst, svc, size, key, gen, group)``.
    """

    def __init__(self, p: int, links: int) -> None:
        self.heap: list = [_END]  # timers: (end, start, seq, kind, a, b)
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
        # key -> callbacks: generators, (generator, op) pairs and all_of cells [left, gen]
        self.waiters: dict = {}
        self.marks: list = []  # (mark, "apply"|"revert", t) per stall, in order
        self.max_t = 0.0
        self.steps = 0  # same-instant entries run
        self.deferred: Optional[dict] = None  # the work of a run given up for a deferred fold
        self.spawned = 0  # spawned processes (stall windows) not yet over
        self.folded = 0  # ops folded into stretches

    def work(self) -> dict:
        """The run's timers (a fold's entries count once: they share its
        seq) and same-instant entries, and its folded ops."""
        return {"events": self._seq() - 1 + self.steps, "folded": self.folded}

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
            q.until = t + w[0]
            self._start(w, t)
        elif not self.dq and self.heap[0][0] != t:
            self._ingress(w[2], t)
        else:
            self.dq.append(("E", w[2], None))

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
            heappush(self.heap, (end, t, self._seq(), w[1], w[2], w[3]))
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
            heappush(self.heap, (end, t, n, kind, a, b))
        else:
            self.dq.append(("T", (kind, a, b, t), None))

    def _fpga(self, job: tuple, t: float) -> None:
        """An FPGA job's process starts and asks for its FPGA."""
        i, dur, key = job
        w = (dur, "f", i, key)
        q = self.fpga[i]
        if self._acq(q, w):
            q.until = t + dur
            self._start(w, t)

    # -- transfers ------------------------------------------------------

    def _egress(self, tok: tuple, t: float) -> None:
        """Transfer ``tok`` asks for its egress link."""
        q = self.egress[tok[0]]
        if q.in_use >= q.cap:
            q.q.append((None, None, tok, None))
            return
        q.in_use += 1
        if not self.dq and self.heap[0][0] != t:
            self._ingress(tok, t)
        else:
            self.dq.append(("E", tok, None))

    def _ingress(self, tok: tuple, t: float) -> None:
        """Transfer ``tok``, granted its egress link, asks for ingress."""
        q = self.ingress[tok[1]]
        if q.in_use >= q.cap:
            q.q.append((tok[2], "x", tok, None))
            return
        q.in_use += 1
        end = t + tok[2]
        if end != t:
            heappush(self.heap, (end, t, self._seq(), "x", tok, None))
        else:
            self._start((tok[2], "x", tok, None), t)

    def _batch(self, keys: list, burst: tuple, t: float) -> None:
        """A ``send_batch``'s send processes start, in order (as
        :meth:`_egress` and :meth:`_ingress`, inlined); ``burst`` is
        ``(svc, size, group)``."""
        heap, dq, seq, egress, ingress = self.heap, self.dq, self._seq, self.egress, self.ingress
        svc, size, group = burst
        end = t + svc
        for k in keys:
            tok = (k[0], k[1], svc, size, k, None, group)
            q = egress[k[0]]
            if q.in_use >= q.cap:
                q.q.append((None, None, tok, None))
            elif dq or heap[0][0] == t:
                q.in_use += 1
                dq.append(("E", tok, None))
            else:
                q.in_use += 1
                q = ingress[k[1]]
                if q.in_use >= q.cap:
                    q.q.append((svc, "x", tok, None))
                elif end != t:
                    q.in_use += 1
                    heappush(heap, (end, t, seq(), "x", tok, None))
                else:
                    q.in_use += 1
                    self._start((svc, "x", tok, None), t)

    # -- events, messages and all_of ------------------------------------

    def _resume(self, cb, t: float) -> None:
        """Resume a callback that is a generator or a (generator, op) pair."""
        if type(cb) is tuple:
            self.advance(cb[0], t, cb[1])
        else:
            self.advance(cb, t)

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
                self._resume(cb, t)
            else:
                # It resumes here, but the callbacks after it still run
                # now: hold the queue so it runs nothing ahead of them.
                dq.append(_HOLD)
                self._resume(cb, t)
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
        cell.append(len(keys) - ready)  # messages on their way
        if cell[2]:
            # A receive process ending before one of those counts down
            # unseen: the last count, which resumes the all_of, is theirs.
            cell[0] -= ready
        elif ready == 1 and not dq and self.heap[0][0] != t:
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
        if kind == "x":  # a zero-delay transfer: run's timer loop ends it, next
            heappush(self.heap, (t, start, self._seq(), kind, a, b))
        elif kind == "f":  # an FPGA job ends; b is its completion key
            self.fpga_busy[a] += t - start
            q = self.fpga[a]
            if q.q:
                self._release(q, t)
            else:
                q.in_use -= 1
            if not self.dq and self.heap[0][0] != t:
                self._fire(b, t)
            else:
                self.dq.append(("e", b, None))
        elif kind == "g":  # a spawned process wakes
            self.advance(a, t)
        elif kind == "r":  # a stall window ends
            self.marks.append((b, "revert", t))
            self._release(self.chan[a], t)
            self.spawned -= 1
        else:  # "c" / "C" / "h": a hold ends
            if kind == "C":  # granted at a folded hold's end
                self._tie(t, start, kind, None)
            q = (self.chan if kind == "h" else self.lane)[a]
            if q.q:
                self._release(q, t)
            else:
                q.in_use -= 1
            if kind != "h":
                if q.fold is not None:
                    self._released(q.fold, t)
                self.cpu_busy[a] += t - start
            self.advance(b, t)

    # -- stretches -------------------------------------------------------

    def _fold(self, gen, i: int, t: float, plan: StretchPlan, keys: list, k: int,
              after) -> Optional[tuple]:
        """Fold ``plan``'s steps from ``k`` on, for ``gen`` on node ``i``,
        from ``t`` (see the class doc); returns the op to run unfolded
        next, or None.

        ``after`` is the op ``gen`` yields after the plan's ops, or
        ``_TAKE`` when the plan comes from the ``stretch`` op just
        yielded: then the fold takes the ops over (sends True) only once
        it folds or parks something, and declines (returns ``_TAKE``)
        where the unfolded steps must order what happens at ``t`` -- a
        busy channel or FPGA, a lane waiter, a lane holder ending at
        ``t``.  A fold that resumes a plan taken over defers there
        instead.
        """
        steps, events = plan.steps, self.events
        n = len(steps)
        j = k
        while j < n and steps[j][0] == "wait":
            key = keys[steps[j][1]]
            if key not in events:  # fold on once it is set
                if after is _TAKE:
                    try:
                        after = gen.send(True)
                    except StopIteration:
                        after = None
                self.waiters.setdefault(key, []).append(
                    (gen, ("fold", i, plan, keys, j + 1, after)))
                return None
            j += 1
        lane, chan = self.lane[i], self.chan[i]
        at = plan.at[j] if j < n else None
        if at is not None and at[0] and j > k and (self.dq or self.heap[0][0] == t):
            # The stretch asks for its CPU lane first, after a message's
            # get, at an instant that holds other work: the get takes its
            # step here, so the lane request has its place among others.
            for g in range(k, j):
                if type(keys[steps[g][1]][0]) is not str:
                    if after is _TAKE:
                        try:
                            after = gen.send(True)
                        except StopIteration:
                            after = None
                    self.folded += g + 1 - k
                    self.dq.append(("g", gen, ("fold", i, plan, keys, g + 1, after)))
                    return None
        if (at is None or chan.in_use or lane.q or lane.fold is not None
                or (lane.in_use and lane.until == t)):
            if after is _TAKE:
                return _TAKE
            # A message's get takes a step.
            gets = sum(type(keys[x][0]) is not str for _, x in steps[k:j])
            if j < n or gets > 1:
                raise FoldDeferred
            if gets and (self.dq or self.heap[0][0] == t):
                self.dq.append(("g", gen, after))
                return None
            return after
        # Up to the first wait whose key is not set; an FPGA job the
        # stretch spawns sets its key, and so does the job's running one.
        running = own = None
        for pos, x in at[1]:
            if keys[x] not in events:
                if x == plan.fpga_key and self.fpga[i].in_use:
                    running, own = self.fpga[i].until, pos
                    continue
                stop = plan.cut[pos]
                durs, gemms, spawn, reached = plan.span(j, stop, at[2])
                break
        else:
            stop = plan.cut[n]
            durs, gemms, spawn, reached = at[3]
        if reached:
            own = at[2]
        elif own is not None and own >= stop:
            running = own = None
        fpga = self.fpga[i]
        if ((own is not None and own != stop - 1)  # holds after the FPGA key's wait
                or (spawn is not None and (fpga.in_use or fpga.until > t))):
            if after is _TAKE:
                return _TAKE
            raise FoldDeferred
        if after is _TAKE:
            try:
                after = gen.send(True)
            except StopIteration:
                after = None
        self.folded += stop - k
        rec = _Stretch()
        rec.gen, rec.i, rec.t0, rec.plan, rec.keys, rec.k0, rec.k, rec.j, rec.after = (
            gen, i, t, plan, keys, k, j, stop, after)
        rec.reach = reached or running is not None
        if running is not None:
            rec.fe = running
        if lane.in_use:  # the lane's holder: a gemm may wait for it
            rec.lane0 = lane.until
            self._play(rec)
        else:
            rec.lane0 = t
            rec.ends = ends = list(accumulate(durs, initial=t))
            rec.gemms = gemms
            rec.end, rec.vpt = ends[-1], ends[-2]
            if spawn is not None:
                rec.fs = ends[spawn]
                rec.fe = rec.fs + plan.fpga
            if rec.reach and rec.fe > rec.end:
                rec.end = rec.vpt = rec.fe
        lane.fold = rec
        lane.cap = 0
        rec.root = self._seq()
        if spawn is not None:
            fs, fe = rec.fs, rec.fe
            self.fpga_busy[i] += fe - fs
            fpga.until = fe
            if not reached or fe == rec.end:  # the job's end is a timer of its own
                fpga.in_use = 1
                heappush(self.heap, (fe, fs, rec.root, "F", rec, None))
        if rec.reach and rec.end == rec.fe:  # it resumes at the FPGA key
            rec.cell = (gen, ("fin", rec))
            self.waiters.setdefault(keys[plan.fpga_key], []).append(rec.cell)
        else:
            rec.tok = 1
            heappush(self.heap, (rec.end, rec.vpt, rec.root, "E", rec, 1))
        return None

    def _settle(self, rec: _Stretch) -> None:
        """Push ``rec``'s end entry for where the process resumes now, or
        park it on its FPGA key when it resumes there."""
        if rec.reach and rec.end == rec.fe:
            if rec.cell is None:
                rec.cell = (rec.gen, ("fin", rec))
                self.waiters.setdefault(rec.keys[rec.plan.fpga_key], []).append(rec.cell)
            return
        if rec.cell is not None:  # re-timed past the FPGA job's end
            self.waiters[rec.keys[rec.plan.fpga_key]].remove(rec.cell)
            rec.cell = None
        rec.tok += 1
        heappush(self.heap, (rec.end, rec.vpt, rec.root, "E", rec, rec.tok))

    def _play(self, rec: _Stretch, holds: Optional[list] = None) -> None:
        """Time ``rec``'s steps from ``t0`` one by one, its lane shared
        FIFO with the outside requests in ``intr`` (each gets its start),
        into ``inst`` and ``owed``; ``holds``, when given, collects each
        hold's ``(start, end, waited)``."""
        t0 = t = rec.t0
        free = rec.lane0
        intr = rec.intr or ()
        k, n = 0, len(intr)
        fk = rec.plan.fpga_key
        inst: list = []
        owed: list = []
        vpt, waits = t, False
        for code, x in rec.plan.steps[rec.k:rec.j]:
            if code == "cpu":
                while k < n and intr[k][0] < t:  # asked before this gemm: ahead of it
                    w = intr[k]
                    w[3] = s = w[0] if free <= w[0] else free
                    free = s + w[1]
                    k += 1
                if t == t0:
                    inst.append(t)
                waited = free > t
                waits = waits or waited
                vpt = start = free if waited else t
                t = free = start + x
                owed.append((t, start))
                inst.append(t)
                if holds is not None:
                    holds.append((start, t, waited))
            elif code == "chan":
                vpt = t
                t = t + x
                inst.append(t)
                if holds is not None:
                    holds.append((vpt, t, False))
            elif code == "wait":
                if x == fk and rec.fe is not None and rec.fe > t:  # on the job's FPGA
                    t = vpt = rec.fe
            elif rec.fs is None:  # the FPGA spawn, timed once
                rec.fs, rec.fe = t, t + x
            elif rec.fs != t:  # an outside request moved it
                raise FoldDeferred
        while k < n:
            w = intr[k]
            w[3] = s = w[0] if free <= w[0] else free
            free = s + w[1]
            k += 1
        rec.inst, rec.owed, rec.end, rec.vpt, rec.waits = inst, owed, t, vpt, waits

    def _pos(self, rec: _Stretch, kind: str) -> Optional[tuple]:
        """The DES position of ``rec``'s ``kind`` entry (the end of its
        last hold, or of its FPGA job), from the fold's root on; None where
        a hold was granted by an entry the fold does not time."""
        holds: list = []
        self._play(rec, holds)
        pos, rank, h = (rec.t0, None, rec.root, 0), 0, 0
        fk, keys, fpop = rec.plan.fpga_key, rec.keys, None
        pops: dict = {}  # a hold's end -> the position of that end
        for code, x in rec.plan.steps[rec.k0:rec.j]:
            if code == "wait":
                if x != fk and type(keys[x][0]) is not str:  # a get: one step
                    pos, rank = _post(pos, rank), 0
            elif code == "fpga_spawn":
                fpop = (rec.fe, 0, _post(pos, rank), 0)
                rank += 1
            else:
                start, end, waited = holds[h]
                h += 1
                if waited:  # granted as the lane's holder released it
                    for w in rec.intr or ():
                        if w[3] + w[1] == start and w[3] != w[0]:
                            break
                    else:
                        return None
                    creator = pops.get(w[3])  # the virtual gemm whose end granted it
                    if creator is None:
                        return None
                    pos = (start, 0, creator, 0)
                pos = pops[end] = (end, 0, pos, 0)
                rank = 0
        return fpop if kind == "F" else pos

    def _before(self, a: _Stretch, akind: str, b: _Stretch, bkind: str) -> bool:
        """Whether ``a``'s entry runs before ``b``'s unfolded, where both
        have one end and start.  Raises :class:`FoldDeferred` where that
        order is not known."""
        if a is not b and akind == bkind and a.twin(b):
            return a.root < b.root
        pa, pb = self._pos(a, akind), self._pos(b, bkind)
        if pa is not None and pb is not None:
            c = _cmp(pa, pb)
            if c:
                return c < 0
        raise FoldDeferred

    def _tie(self, t: float, start: float, kind: str, rec: Optional[_Stretch]) -> None:
        """A folded timer of ``kind`` ending at ``t`` pops: defer unless the
        next entry sorts apart from it, or is a folded one that runs after
        it unfolded (:meth:`_before`)."""
        heap = self.heap
        top = heap[0]
        while top[0] == t and top[1] == start and top[3] == "E" and top[4].tok != top[5]:
            heappop(heap)  # an end entry re-timed since
            top = heap[0]
        if top[0] == t and top[1] == start:
            okind, other = top[3], top[4]
            if (rec is None or (okind != "E" and okind != "F")
                    or not self._before(rec, kind, other, okind)):
                raise FoldDeferred

    def _intrude(self, q: _Q, t: float, waiter: tuple) -> bool:
        """Another process asks for a folded lane at ``t``; True if it
        gets it now (the caller starts its timer)."""
        rec = q.fold
        intr = rec.intr
        if t == rec.end or (intr and intr[-1][0] == t):
            raise FoldDeferred
        dur, _, i, who = waiter
        w = [t, dur, who, None]
        if intr is None:
            rec.intr = [w]
        else:
            intr.append(w)
        end, vpt = rec.end, rec.vpt
        self._play(rec)  # the instants before t stay as they were
        if t in rec.inst and not (t == rec.t0 and rec.inst[0] == t):
            # Only a lane request the process made in the fold's own entry
            # (ahead of this one) is ordered.
            raise FoldDeferred
        if rec.end != end or rec.vpt != vpt:
            self._settle(rec)
        s = w[3]
        q.in_use += 1
        q.until = s + dur
        if s == t:
            return True
        heappush(self.heap, (s + dur, s, rec.root, "C", i, who))
        return False

    def _released(self, rec: _Stretch, t: float) -> None:
        """An outside hold on ``rec``'s lane ends at ``t``: the gemms
        before it in lane order add their busy time first."""
        if rec.owed is None:
            self._play(rec)
        if t in rec.inst or t == rec.end:
            raise FoldDeferred
        owed, n, i = rec.owed, rec.paid, rec.i
        busy = self.cpu_busy
        while n < len(owed) and owed[n][0] <= t:
            end, start = owed[n]
            busy[i] += end - start
            n += 1
        rec.paid = n

    def _finish(self, rec: _Stretch, t: float) -> Optional[tuple]:
        """The process resumes at the end of ``rec``: its node's lane reads
        as if its holds had run; returns the op it goes on with."""
        i, intr = rec.i, rec.intr
        if intr and intr[-1][3] > t:
            raise FoldDeferred  # an outside request still queued
        rec.cell = None  # it holds rec: free the pair without the cycle collector
        lane = self.lane[i]
        lane.fold = None
        lane.cap = 1
        busy = self.cpu_busy
        if rec.owed is None:  # each gemm's end - start, added in order
            ends, b = rec.ends, busy[i]
            for m in rec.gemms:
                b += ends[m + 1] - ends[m]
            busy[i] = b
        else:
            for end, start in rec.owed[rec.paid:]:
                busy[i] += end - start
        plan, j = rec.plan, rec.j
        if j == len(plan.steps):
            return rec.after
        # Stopped at a wait: fold on once its key is set.
        op = ("fold", i, plan, rec.keys, j + 1, rec.after)
        key = rec.keys[plan.steps[j][1]]
        if key not in self.events:
            self.waiters.setdefault(key, []).append((rec.gen, op))
            return None
        if type(key[0]) is not str and (self.dq or self.heap[0][0] == t):
            self.dq.append(("g", rec.gen, op))  # the get of a message there: one step
            return None
        return op

    # -- generator driver ------------------------------------------------

    def process(self, gen) -> None:
        """Start ``gen`` as the DES starts a process spawned before its run."""
        self.dq.append(("g", gen, None))

    def spawn(self, gen, at: float) -> None:
        """Start ``gen`` at time ``at`` like a DES process spawned before
        the run that first sleeps ``at`` (the fault injector's stall);
        stretches fold nothing until its window ends."""
        self.spawned += 1
        if at > 0:  # its sleep's timer, started before any other
            heappush(self.heap, (at, 0.0, self._seq(), "g", gen, None))
        else:
            self.dq.append(("g", gen, None))

    def advance(self, gen, t: float, op: Optional[tuple] = None) -> None:
        """Drive ``gen``, resumed at instant ``t`` (first running ``op``,
        when given), until it blocks or finishes."""
        step = gen.__next__
        heap, dq, seq, events = self.heap, self.dq, self._seq, self.events
        while True:
            if op is None:
                try:
                    op = step()
                except StopIteration:
                    return
            code = op[0]
            if code == "stretch":
                if self.deferred is None and not self.spawned:
                    op = self._fold(gen, op[1], t, op[2], op[3], 0, _TAKE)
                    if op is None:
                        return
                    if op is not _TAKE:
                        continue
                op = None  # the process yields the plan's ops
                continue
            elif code == "fin":  # a stretch's process resumes at its FPGA key
                op = self._finish(op[1], t)
                if op is None:
                    return
                continue
            elif code == "send":
                key, (svc, size) = op[1], op[2]
                self._egress((key[0], key[1], svc, size, key, gen, None), t)
                return
            elif code == "send_batch":
                keys = op[1]
                if keys:
                    burst = op[2] + ([len(keys), gen],)
                    if not dq and heap[0][0] != t:
                        self._batch(keys, burst, t)
                    else:
                        dq.append(("B", keys, burst))
                    return
                # all_of([]) fires at once: one step.
                op = None
                if not dq and heap[0][0] != t:
                    continue
                dq.append(("g", gen, None))
                return
            elif code == "fold":  # a stretch taken over goes on
                op = self._fold(gen, op[1], t, op[2], op[3], op[4], op[5])
                if op is None:
                    return
                continue
            elif code == "set":
                dq.append(("e", op[1], None))
            elif code == "cpu":
                i, dur = op[1], op[2]
                q = self.lane[i]
                if q.in_use < q.cap:
                    q.in_use += 1
                    q.until = end = t + dur
                elif q.fold is None:
                    q.q.append((dur, "c", i, gen))
                    return
                elif self._intrude(q, t, (dur, "c", i, gen)):
                    end = t + dur
                else:
                    return
                if end != t:
                    heappush(heap, (end, t, seq(), "c", i, gen))
                else:
                    self._start((dur, "c", i, gen), t)
                return
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
                op = None
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
            elif code == "wait":
                key = op[1]
                op = None
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
            elif code == "chan":
                i, dur = op[1], op[2]
                q = self.chan[i]
                if not self._acq(q, (dur, "h", i, gen)):
                    return
                end = t + dur
                if end != t:
                    heappush(heap, (end, t, seq(), "h", i, gen))
                else:
                    self._start((dur, "h", i, gen), t)
                return
            elif code == "fpga_spawn":
                dq.append(("F", op[1:4], None))
            elif code == "stall":
                _, i, dur, mark = op
                w = (dur, "r", i, mark)
                if self._acq(self.chan[i], w):
                    self._start(w, t)
                return
            else:  # pragma: no cover - schedule author error
                raise AssertionError(f"unknown replay op {code!r}")
            op = None

    def run(self) -> float:
        """Drain the heap and the same-instant queue; returns the makespan
        (latest time touched)."""
        heap, dq, advance, expire = self.heap, self.dq, self.advance, self._expire
        lane, chan, release = self.lane, self.chan, self._release
        ingress, egress, events, waiters = self.ingress, self.egress, self.events, self.waiters
        seq = self._seq
        t = last = 0.0
        steps = 0
        net = self.net_bytes
        while True:
            if dq and heap[0][0] != t:  # timers ending now run first
                steps += 1
                kind, a, b = dq.popleft()
                if kind == "E":  # a transfer granted egress asks for ingress
                    q = ingress[a[1]]
                    if q.in_use >= q.cap:
                        q.q.append((a[2], "x", a, None))
                    elif t + a[2] != t:
                        q.in_use += 1
                        heappush(heap, (t + a[2], t, seq(), "x", a, None))
                    else:
                        q.in_use += 1
                        self._start((a[2], "x", a, None), t)
                elif kind == "g":  # a process resumes
                    advance(a, t, b)
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
                    self._batch(a, b, t)
                elif kind == "R":  # a wait_all's receive processes start
                    self._recv(a, b, t)
                elif kind == "G":  # a granted stall (or zero-delay hold) resumes
                    self._begin(a, t, b)
                else:  # "T": a zero-delay timer ends
                    expire(t, *a)
                continue
            last = t
            t, start, _, kind, a, b = heappop(heap)
            if kind == "x":
                # A transfer's wire time ends: release ingress, release
                # egress, then the mailbox put resumes the sender a step
                # later and a receiver already waiting right behind it.
                src, dst, _, size, key, gen, group = a
                q = ingress[dst]
                if q.q:
                    release(q, t)
                else:
                    q.in_use -= 1
                q = egress[src]
                if not q.q:
                    q.in_use -= 1
                elif not dq and heap[0][0] != t:  # its head, a transfer, asks for ingress
                    self._ingress(q.q.popleft()[2], t)
                else:
                    dq.append(("E", q.q.popleft()[2], None))
                net += size
                events[key] = t
                if gen is None:  # a send_batch member
                    group[0] -= 1
                    if group[0]:
                        gen = False
                    else:
                        group[0] = 1
                getter = waiters.pop(key, None)
                if getter is None:
                    if gen is False:
                        continue
                    if not dq and heap[0][0] != t:
                        if gen is not None:
                            advance(gen, t)
                        else:  # the send process ends, then its all_of fires
                            group[0] = 0
                            advance(group[1], t)
                    elif gen is not None:
                        dq.append(("g", gen, None))
                    else:
                        dq.append(("S", group, None))
                    continue
                if gen is not False:
                    dq.append(("g", gen, None) if gen is not None else ("S", group, None))
                getter = getter[0]
                if type(getter) is list:  # a wait_all's receive process
                    if getter[2] > 1:  # one of its messages still comes
                        getter[2] -= 1
                        getter[0] -= 1
                    elif not dq and heap[0][0] != t:
                        self._done(getter, t)
                    else:
                        dq.append(("S", getter, None))
                elif type(getter) is tuple:  # a stretch's process: the fold goes on
                    if not dq and heap[0][0] != t:
                        advance(getter[0], t, getter[1])
                    else:
                        dq.append(("g",) + getter)
                elif not dq and heap[0][0] != t:
                    advance(getter, t)
                else:
                    dq.append(("g", getter, None))
            elif kind == "c":  # cpu lane hold ends; a is the node, b the process
                q = lane[a]
                if q.q:
                    release(q, t)
                else:
                    q.in_use -= 1
                if q.fold is not None:
                    self._released(q.fold, t)
                self.cpu_busy[a] += t - start
                advance(b, t)
            elif kind == "h":  # channel hold ends
                q = chan[a]
                if q.q:
                    release(q, t)
                else:
                    q.in_use -= 1
                advance(b, t)
            elif kind == "E":  # a stretch's process resumes; a is the stretch
                if a.tok == b:  # else re-timed since
                    self._tie(t, start, kind, a)
                    op = self._finish(a, t)
                    if op is not None:
                        advance(a.gen, t, op)
            elif kind == "F":  # an FPGA job spawned in a stretch ends; a is the stretch
                self._tie(t, start, kind, a)
                self.fpga[a.i].in_use -= 1
                key = a.keys[a.plan.fpga_key]
                cbs = waiters.get(key)
                if cbs is None or len(cbs) > 1 or type(cbs[0]) is not tuple:
                    if not dq and heap[0][0] != t:
                        self._fire(key, t)
                    else:
                        dq.append(("e", key, None))
                else:  # a stretch's process, the key's one waiter, resumes as it is processed
                    del waiters[key]
                    events[key] = t
                    if not dq and heap[0][0] != t:
                        advance(cbs[0][0], t, cbs[0][1])
                    else:
                        dq.append(("g",) + cbs[0])
            elif kind is not None:
                expire(t, kind, a, b, start)
            else:  # the bottom entry: nothing is left
                self.steps = steps
                self.net_bytes = net
                if last > self.max_t:
                    self.max_t = last
                return self.max_t


def replay(p: int, links: int, start: Callable[[StepReplay], None]) -> StepReplay:
    """A :class:`StepReplay` of ``p`` nodes and ``links`` links per node,
    run to the end over the processes ``start(engine)`` starts.

    Where a stretch fold cannot order one of its instants
    (:class:`~repro.sim.analytic.FoldDeferred`), the run starts over on a
    fresh engine that folds nothing; its ``deferred`` holds the
    :meth:`~StepReplay.work` of the run given up.
    """
    engine = StepReplay(p, links)
    try:
        start(engine)
        engine.run()
        return engine
    except FoldDeferred:
        given_up = engine.work()
    engine = StepReplay(p, links)
    engine.deferred = given_up
    start(engine)
    engine.run()
    return engine
