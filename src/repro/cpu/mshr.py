"""Miss-status holding registers: the transaction front door to the
flat-memory controller.

Every LLC miss is a first-class :class:`MemoryRequest` transaction that
flows core -> MSHR file -> controller -> scheme -> devices as an explicit
state machine::

    QUEUED ----------> DISPATCHED ----------> STAGING ----------> COMPLETE
    (waiting for an    (scheme consulted,     (critical-path      (waiters
     MSHR entry; only   plan attached; may     stages in flight    woken,
     when the file is   be held here by an     on the devices)     entry
     full)              OS epoch stall)                            freed)

The MSHR file itself (:class:`MSHRFile`) models the two behaviours real
hybrid-memory controllers get from their request queues:

* **read coalescing** — a second *read* miss to a 64 B subblock whose
  fill is already in flight for a *read* does not consult the scheme or
  touch the devices again; it joins that transaction's waiter list and
  wakes when the one fill completes.  Coalescing is read-only by
  design: a store carries a state change the scheme must observe (dirty
  bits, migration triggers), and chaining an independent miss onto an
  in-flight *write* serializes it behind traffic the scheme might have
  served faster had it been consulted — the silc-mshr32 postmortem
  (docs/architecture.md) measured write coalescing costing SILC-FM its
  entire speedup, because waiters were welded to slow far-memory fetches
  that a fresh consult would have resolved as near-memory hits after
  the first miss's swap-in.
* **structural stalls** — the file has a configurable number of entries
  (``SystemConfig.mshr_entries``); when all are occupied, new misses
  queue FIFO until an entry frees.  These stalls are counted separately
  (:class:`MSHRStats`) from the cores' full-ROB stalls
  (``CoreStats.stall_events``) so the two bottlenecks are
  distinguishable in the results.  A read that arrives while a read to
  the same subblock is *queued* joins the queued miss directly — it
  burns neither a structural stall nor a fresh entry when the queue
  drains — and a drained miss keeps its original arrival time as its
  ``issue_time`` so latency attribution sees the queue wait.

The default ``SystemConfig.mshr_entries`` is sized to the machine's
aggregate memory-level parallelism (cores × per-core outstanding
misses): any smaller file is a structural concurrency cap that no
dispatch policy can tune away, which is exactly what the silc-mshr32
bench anomaly turned out to be.

``mshr_entries = 0`` is the *compatibility* value: no MSHR file is built
at all and cores talk to the controller directly (via
``FlatMemoryController.handle_miss``, which wraps each miss in a
transaction with a single waiter) — simulated results are bit-identical
to the pre-MSHR design.

Dirty-eviction writebacks never enter the MSHR: they are fire-and-forget
background traffic with no completion to coalesce onto, and routing them
around the file preserves their issue order even when the demand stream
stalls structurally.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Callable, Deque, Dict, List, Optional

from repro.sim.config import SUBBLOCK_BYTES
from repro.sim.engine import Engine

# ---------------------------------------------------------------------------
# transaction states (plain ints: state checks sit on the hot path)
# ---------------------------------------------------------------------------
QUEUED = 0      #: allocated, waiting for a free MSHR entry
DISPATCHED = 1  #: entered the controller; scheme consulted, plan attached
STAGING = 2     #: critical-path stages in flight on the devices
COMPLETE = 3    #: finished; waiters woken, entry freed

STATE_NAMES = {QUEUED: "QUEUED", DISPATCHED: "DISPATCHED",
               STAGING: "STAGING", COMPLETE: "COMPLETE"}


class MemoryRequest:
    """One LLC miss as an explicit transaction.

    Carries everything the old closure chain captured implicitly — the
    current stage index, the count of outstanding ops in that stage, and
    the issue/dispatch/finish timestamps — as plain fields, so the
    controller's stage walk allocates nothing per stage and the state of
    every in-flight miss is inspectable.
    """

    __slots__ = ("paddr", "is_write", "pc", "state",
                 "issue_time", "dispatch_time", "finish_time",
                 "plan", "stages", "stage_index", "remaining_ops",
                 "waiters", "coalesced", "line", "mshr", "controller",
                 "span")

    def __init__(self, paddr: int, is_write: bool, pc: int,
                 issue_time: float) -> None:
        self.paddr = paddr
        self.is_write = is_write
        self.pc = pc
        self.state = QUEUED
        self.issue_time = issue_time
        self.dispatch_time = 0.0
        self.finish_time = 0.0
        self.plan = None
        self.stages = None
        self.stage_index = -1
        self.remaining_ops = 0
        #: per-request trace span (:mod:`repro.telemetry.spans`) when
        #: this transaction was sampled; None otherwise.
        self.span = None
        #: ``on_done(when)`` callbacks woken at completion; the first is
        #: the issuing core's, the rest are coalesced same-subblock
        #: misses.
        self.waiters: List[Callable[[float], None]] = []
        self.coalesced = 0
        self.line = -1
        self.mshr: Optional["MSHRFile"] = None
        self.controller = None

    # ------------------------------------------------------------------
    def op_done(self, when: float) -> None:
        """Device completion callback for every op of the current stage;
        the stage is done when the last op reports in."""
        self.remaining_ops -= 1
        if self.remaining_ops == 0:
            self.controller._advance(self, when)

    def fast_done(self, when: float) -> None:
        """Device completion callback when the whole critical path was
        one device access: that op landing completes the transaction."""
        self.controller._complete(self, when)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"MemoryRequest(paddr={self.paddr:#x}, "
                f"state={STATE_NAMES[self.state]}, "
                f"stage={self.stage_index}, waiters={len(self.waiters)})")


@dataclass
class MSHRStats:
    """MSHR-file accounting.  ``reset()`` supports warmup discarding."""

    allocations: int = 0
    #: misses absorbed by an in-flight same-subblock transaction.
    coalesced: int = 0
    #: arrivals that found the file full and had to queue (the MSHR's
    #: structural stall — distinct from the cores' full-ROB
    #: ``CoreStats.stall_events``).
    structural_stalls: int = 0
    peak_occupancy: int = 0
    peak_pending: int = 0

    def reset(self) -> None:
        self.allocations = 0
        self.coalesced = 0
        self.structural_stalls = 0
        self.peak_occupancy = 0
        self.peak_pending = 0


class PendingMiss:
    """A miss waiting in the FIFO for a free MSHR entry.

    Carries its own waiter list so later same-subblock *reads* can join
    it while it queues (no structural stall, no extra queue slot, no
    second entry at drain time) and remembers the original arrival time
    so the admitted transaction's ``issue_time`` — and therefore span
    latency attribution — includes the queue wait.
    """

    __slots__ = ("paddr", "is_write", "pc", "waiters", "issue_time",
                 "span_issue", "joins")

    def __init__(self, paddr: int, is_write: bool, pc: int,
                 on_done: Callable[[float], None], issue_time: float,
                 span_issue: Optional[float]) -> None:
        self.paddr = paddr
        self.is_write = is_write
        self.pc = pc
        self.waiters: List[Callable[[float], None]] = [on_done]
        self.issue_time = issue_time
        #: arrival time when the miss was span-sampled, None otherwise
        #: (the sampling decision happens at arrival so the modulo
        #: sequence is queue-independent).
        self.span_issue = span_issue
        #: join timestamps of reads that coalesced onto this queued
        #: miss, replayed as span siblings if it was sampled.
        self.joins: List[float] = []


class MSHRFile:
    """A shared LLC-level MSHR file in front of the controller."""

    def __init__(self, engine: Engine, entries: int, controller,
                 subblock_bytes: int = SUBBLOCK_BYTES) -> None:
        if entries < 1:
            raise ValueError("an MSHR file needs at least one entry")
        self._engine = engine
        self.entries = entries
        self._controller = controller
        self._shift = subblock_bytes.bit_length() - 1
        #: occupied entries.  A plain counter: reads register in
        #: ``_reads`` for coalescing, writes hold an entry anonymously
        #: (nothing may coalesce onto them), so a dict of all in-flight
        #: transactions would be dead weight.
        self._occupied = 0
        #: coalescable in-flight *read* transaction per subblock line.
        self._reads: Dict[int, MemoryRequest] = {}
        #: FIFO of misses that arrived while the file was full.
        self._pending: Deque[PendingMiss] = deque()
        #: queued *read* per subblock line, for arrival coalescing onto
        #: pending misses.  Invariant: at most one queued read per line
        #: (a second read joins the first instead of queueing).
        self._pending_reads: Dict[int, PendingMiss] = {}
        self._draining = False
        self.stats = MSHRStats()
        #: span recorder (:class:`repro.telemetry.spans.SpanRecorder`)
        #: when span tracing is enabled; None keeps the hot path to one
        #: ``is None`` check.
        self.spans = None

    # ------------------------------------------------------------------
    @property
    def occupancy(self) -> int:
        return self._occupied

    @property
    def pending(self) -> int:
        return len(self._pending)

    def attach_telemetry(self, hub) -> None:
        """Coalescing/stall meters plus occupancy gauges."""
        stats = self.stats  # warmup reset keeps the object identity
        hub.meter("mshr.allocations", lambda: stats.allocations)
        hub.meter("mshr.coalesced", lambda: stats.coalesced)
        hub.meter("mshr.structural_stalls",
                  lambda: stats.structural_stalls)
        hub.gauge("mshr.occupancy", lambda: float(self._occupied))
        hub.gauge("mshr.pending", lambda: float(len(self._pending)))

    # ------------------------------------------------------------------
    def issue(self, paddr: int, is_write: bool, pc: int,
              on_done: Callable[[float], None]) -> None:
        """Core-facing entry point (same signature as
        ``FlatMemoryController.handle_miss``)."""
        line = paddr >> self._shift
        spans = self.spans
        if not is_write:
            txn = self._reads.get(line)
            if txn is not None:
                # read-onto-read coalesce: join the in-flight fill.
                txn.waiters.append(on_done)
                txn.coalesced += 1
                self.stats.coalesced += 1
                if spans is not None:
                    spans.coalesce(txn)
                return
            pend = self._pending_reads.get(line)
            if pend is not None:
                # the line's fill is queued, not yet in flight: join it
                # there — no structural stall, no second queue slot, no
                # fresh entry at drain time.
                pend.waiters.append(on_done)
                self.stats.coalesced += 1
                if spans is not None:
                    pend.joins.append(self._engine.now)
                return
        now = self._engine.now
        span_issue = None
        if spans is not None and spans.arrival():
            span_issue = now
        if self._occupied >= self.entries:
            self.stats.structural_stalls += 1
            pend = PendingMiss(paddr, is_write, pc, on_done, now,
                               span_issue)
            self._pending.append(pend)
            if not is_write:
                self._pending_reads[line] = pend
            if len(self._pending) > self.stats.peak_pending:
                self.stats.peak_pending = len(self._pending)
            return
        self._allocate(line, paddr, is_write, pc, [on_done], now,
                       span_issue, None)

    def _allocate(self, line: int, paddr: int, is_write: bool, pc: int,
                  waiters: List[Callable[[float], None]],
                  issue_time: float, span_issue: Optional[float],
                  joins: Optional[List[float]]) -> None:
        """Take an entry and dispatch.  ``issue_time`` is the miss's
        original arrival time — for drained pending misses that predates
        ``engine.now`` by the queue wait.  ``waiters`` is adopted, not
        copied."""
        txn = MemoryRequest(paddr, is_write, pc, issue_time)
        txn.line = line
        txn.mshr = self
        txn.waiters = waiters
        txn.coalesced = len(waiters) - 1
        if span_issue is not None:
            span = self.spans.start(paddr, is_write, span_issue)
            span.admit(self._engine.now)
            if joins:
                for join_t in joins:
                    span.join(join_t)
            txn.span = span
        self._occupied += 1
        if not is_write:
            self._reads[line] = txn
        self.stats.allocations += 1
        if self._occupied > self.stats.peak_occupancy:
            self.stats.peak_occupancy = self._occupied
        self._controller.handle_request(txn)

    # ------------------------------------------------------------------
    def release(self, txn: MemoryRequest, when: float) -> None:
        """Called by the controller when ``txn`` completes: free the
        entry, wake every waiter (issue order), then admit queued
        misses into the freed capacity."""
        self._occupied -= 1
        if not txn.is_write and self._reads.get(txn.line) is txn:
            del self._reads[txn.line]
        for waiter in txn.waiters:
            waiter(when)
        if self._pending and not self._draining:
            # a nested completion during admission skips this: the outer
            # drain loop re-checks capacity itself.
            self._drain_pending()

    def _drain_pending(self) -> None:
        """Admit queued misses (FIFO) into freed entries (called from
        :meth:`release` only when the queue is non-empty, which it never
        is at the MLP-sized default file)."""
        self._draining = True
        try:
            while self._pending and self._occupied < self.entries:
                pend = self._pending.popleft()
                line = pend.paddr >> self._shift
                if not pend.is_write:
                    # a queued read cannot find an in-flight read to its
                    # line here: any read that could have become one
                    # joined this queued miss at arrival instead.
                    self._pending_reads.pop(line, None)
                self._allocate(line, pend.paddr, pend.is_write, pend.pc,
                               pend.waiters, pend.issue_time,
                               pend.span_issue, pend.joins)
        finally:
            self._draining = False
