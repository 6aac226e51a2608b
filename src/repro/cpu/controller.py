"""The flat-memory controller: executes a scheme's access plans on the
two memory devices.

Responsibilities:

* drive each :class:`~repro.cpu.mshr.MemoryRequest` transaction through
  its plan's critical-path stages (stage *i+1* issues when stage *i*'s
  last operation completes) at demand priority, then wake the
  transaction's waiters;
* fire background traffic (swaps, migrations, prefetches, writebacks)
  without blocking anyone — it still competes for channel bandwidth;
* drive epoch-based schemes (HMA): run the scheme's epoch at its period,
  issue the bulk-migration traffic and stall *all* demand requests for
  the OS-overhead window (context switch + PTE/TLB work);
* account demand bytes per level for the Fig. 8 bandwidth-split result.

The stage walk is an explicit state machine on the transaction itself
(``stage_index`` / ``remaining_ops`` fields, updated by
``MemoryRequest.op_done``) rather than a chain of nested closures: one
transaction object per miss carries everything, and the oracle and
telemetry hooks fire on its lifecycle events (dispatch, completion).
The common case — one critical-path op, no background traffic — skips
the walk: the scheme answers through ``access_fast`` without building a
plan, and the op's device completion completes the transaction
(``MemoryRequest.fast_done``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Optional

from repro.cpu.mshr import COMPLETE, DISPATCHED, STAGING, MemoryRequest
from repro.dram.device import MemoryDevice
from repro.dram.request import Priority
from repro.schemes.base import AccessPlan, Level, MemoryScheme
from repro.sim.engine import Engine
from repro.telemetry.spans import stage_label

if TYPE_CHECKING:
    from repro.validate.oracle import ValidationOracle


@dataclass
class ControllerStats:
    """Demand/background accounting.  ``reset()`` supports warmup
    discarding (the paper measures steady-state Simpoint regions)."""

    demand_nm_bytes: int = 0
    demand_fm_bytes: int = 0
    background_nm_bytes: int = 0
    background_fm_bytes: int = 0
    writebacks: int = 0
    epoch_stall_cycles: float = 0.0
    total_miss_latency: float = 0.0
    misses_completed: int = 0

    @property
    def nm_demand_fraction(self) -> float:
        """Fraction of demand bandwidth served by NM (Fig. 8's metric)."""
        total = self.demand_nm_bytes + self.demand_fm_bytes
        return self.demand_nm_bytes / total if total else 0.0

    @property
    def mean_miss_latency(self) -> float:
        if not self.misses_completed:
            return 0.0
        return self.total_miss_latency / self.misses_completed

    def reset(self) -> None:
        """Zero every counter (keeps the object identity stable)."""
        self.demand_nm_bytes = 0
        self.demand_fm_bytes = 0
        self.background_nm_bytes = 0
        self.background_fm_bytes = 0
        self.writebacks = 0
        self.epoch_stall_cycles = 0.0
        self.total_miss_latency = 0.0
        self.misses_completed = 0


class FlatMemoryController:
    """Glue between the LLC miss stream, a scheme, and the devices."""

    def __init__(self, engine: Engine, scheme: MemoryScheme,
                 nm_device: MemoryDevice, fm_device: MemoryDevice,
                 oracle: Optional["ValidationOracle"] = None) -> None:
        self._engine = engine
        self.scheme = scheme
        self._nm = nm_device
        self._fm = fm_device
        #: differential oracle (repro.validate); None in normal runs.
        #: Hooked on transaction lifecycle events (dispatch), so it sees
        #: the same metadata snapshots the scheme does,
        #: stall-rescheduling included.
        self.oracle = oracle
        self.stats = ControllerStats()
        #: transactions dispatched into the scheme but not yet complete.
        self.inflight = 0
        #: span recorder (:class:`repro.telemetry.spans.SpanRecorder`)
        #: when span tracing is enabled; None keeps the hot path to
        #: ``is None`` checks on transaction lifecycle events.
        self.spans = None
        self._stall_until = 0.0
        period = scheme.epoch_period_cycles()
        if period is not None:
            engine.schedule(period, self._run_epoch, period)

    # ------------------------------------------------------------------
    def attach_telemetry(self, hub) -> None:
        """Demand/background byte-split meters plus the latency gauge.

        All closures read counters ``_account`` already maintains; the
        service-time signal is the same data Fig. 8 aggregates, but
        windowed so phase changes are visible.
        """
        stats = self.stats  # warmup reset keeps the object identity
        hub.meter("ctrl.demand_nm_bytes", lambda: stats.demand_nm_bytes)
        hub.meter("ctrl.demand_fm_bytes", lambda: stats.demand_fm_bytes)
        hub.meter("ctrl.background_nm_bytes",
                  lambda: stats.background_nm_bytes)
        hub.meter("ctrl.background_fm_bytes",
                  lambda: stats.background_fm_bytes)
        hub.meter("ctrl.writebacks", lambda: stats.writebacks)
        hub.meter("ctrl.misses_completed", lambda: stats.misses_completed)
        hub.gauge("ctrl.inflight", lambda: float(self.inflight))
        hub.gauge("ctrl.nm_demand_fraction",
                  lambda: stats.nm_demand_fraction, trace=True)
        hub.gauge("ctrl.mean_miss_latency", lambda: stats.mean_miss_latency)

    # ------------------------------------------------------------------
    def handle_miss(self, paddr: int, is_write: bool, pc: int,
                    on_done: Callable[[float], None]) -> None:
        """Compatibility front door (``mshr_entries = 0`` and the
        test-suite): wrap one miss in a single-waiter transaction."""
        txn = MemoryRequest(paddr, is_write, pc, self._engine.now)
        txn.waiters.append(on_done)
        spans = self.spans
        if spans is not None and spans.arrival():
            txn.span = spans.start(paddr, is_write)
        self.handle_request(txn)

    def handle_request(self, txn: MemoryRequest) -> None:
        """Dispatch one transaction: consult the scheme, fire background
        traffic, and start walking the critical-path stages.

        Without an oracle or a span recorder the scheme's single-op fast
        shape (:meth:`~repro.schemes.base.MemoryScheme.access_fast`) is
        tried first; it applies exactly the state transitions
        ``access`` would, so both routes reach the same devices at the
        same times.  The oracle and span hooks observe plan objects, so
        with either attached every access builds its plan."""
        now = self._engine.now
        if now < self._stall_until:
            # OS epoch in progress: demand requests wait it out.
            self._engine.schedule_at(
                self._stall_until, self.handle_request, txn)
            return
        txn.state = DISPATCHED
        txn.dispatch_time = now
        txn.controller = self
        scheme = self.scheme
        oracle = self.oracle
        span = txn.span
        if oracle is None and self.spans is None:
            fast = scheme.access_fast(txn.paddr, txn.is_write, txn.pc)
            if fast is not None:
                is_nm, addr, size, op_write = fast
                if is_nm:
                    self.stats.demand_nm_bytes += size
                    device = self._nm
                else:
                    self.stats.demand_fm_bytes += size
                    device = self._fm
                self.inflight += 1
                txn.state = STAGING
                device.access(addr, size, op_write, Priority.DEMAND,
                              txn.fast_done)
                return
            plan = scheme.access(txn.paddr, txn.is_write, txn.pc)
        else:
            if oracle is not None:
                oracle.before_access(txn.paddr, txn.is_write)
            plan = scheme.access(txn.paddr, txn.is_write, txn.pc)
            if oracle is not None:
                oracle.after_access(txn.paddr, txn.is_write, plan)
            if span is not None:
                span.dispatch(now)
                span.decide(scheme.span_row(plan),
                            plan.serviced_from.value, plan.bypassed, now)
        txn.plan = plan
        stages = txn.stages = plan.stages
        self._account(plan)
        nm = self._nm
        fm = self._fm
        for op in plan.background:
            (nm if op.level is Level.NM else fm).access(
                op.addr, op.size, op.is_write, Priority.BACKGROUND)
        self.inflight += 1
        txn.state = STAGING
        if span is None and len(stages) == 1 and len(stages[0]) == 1:
            # one critical-path op: its completion is the transaction's
            op = stages[0][0]
            (nm if op.level is Level.NM else fm).access(
                op.addr, op.size, op.is_write, Priority.DEMAND,
                txn.fast_done)
            return
        txn.stage_index = -1
        self._advance(txn, now)

    def handle_writeback(self, paddr: int) -> None:
        """LLC dirty eviction: a 64 B background write to wherever the
        data lives (:meth:`MemoryScheme.writeback`'s one shape, issued
        without building its plan unless the oracle checks it).

        Writebacks bypass the MSHR file entirely (nothing waits on
        them), so their ordering is independent of demand coalescing."""
        if self.oracle is not None:
            self.oracle.after_writeback(paddr, self.scheme.writeback(paddr))
        level, offset = self.scheme.locate(paddr)
        stats = self.stats
        stats.writebacks += 1
        if level is Level.NM:
            stats.background_nm_bytes += 64
            device = self._nm
        else:
            stats.background_fm_bytes += 64
            device = self._fm
        device.access(offset - offset % 64, 64, True, Priority.BACKGROUND)

    def arm_warmup_halt(self, threshold: int) -> None:
        """Wrap ``handle_request`` so the engine halts at the event
        during which the scheme's miss count reaches ``threshold`` (the
        count only moves inside demand dispatch, so this is the event
        boundary a per-event check would find).  The wrapper unbinds
        itself at the crossing, so steady state pays nothing."""
        inner = type(self).handle_request
        stats = self.scheme.stats
        halt = self._engine.halt
        armed = [True]

        def checking(txn: MemoryRequest) -> None:
            inner(self, txn)
            if armed[0] and stats.misses >= threshold:
                # disarm first: a stalled request may have captured this
                # wrapper in a scheduled retry, which must not halt the
                # steady-state loop when it fires post-warmup.
                armed[0] = False
                del self.handle_request
                halt()

        self.handle_request = checking

    # ------------------------------------------------------------------
    def _advance(self, txn: MemoryRequest, when: float) -> None:
        """Issue the next non-empty stage, or complete the transaction.

        Called at dispatch (``stage_index == -1``) and from
        ``MemoryRequest.op_done`` when a stage's last op lands."""
        stages = txn.stages
        n = len(stages)
        i = txn.stage_index + 1
        nm = self._nm
        fm = self._fm
        span = txn.span
        if span is not None:
            span.end_stage(when)
        while i < n:
            ops = stages[i]
            if ops:
                txn.stage_index = i
                txn.remaining_ops = len(ops)
                op_done = txn.op_done
                if span is None:
                    for op in ops:
                        (nm if op.level is Level.NM else fm).access(
                            op.addr, op.size, op.is_write,
                            Priority.DEMAND, op_done)
                else:
                    span.begin_stage(stage_label(ops), when)
                    for op in ops:
                        (nm if op.level is Level.NM else fm).access(
                            op.addr, op.size, op.is_write,
                            Priority.DEMAND, op_done, span)
                return
            i += 1
        self._complete(txn, self._engine.now)

    def _complete(self, txn: MemoryRequest, when: float) -> None:
        self.inflight -= 1
        stats = self.stats
        stats.misses_completed += 1
        stats.total_miss_latency += when - txn.dispatch_time
        txn.state = COMPLETE
        txn.finish_time = when
        if txn.span is not None:
            self.spans.retire(txn, when)
        mshr = txn.mshr
        if mshr is not None:
            mshr.release(txn, when)
        else:
            for waiter in txn.waiters:
                waiter(when)

    def _issue(self, op, priority: Priority, on_complete) -> None:
        device = self._nm if op.level is Level.NM else self._fm
        device.access(op.addr, op.size, op.is_write, priority, on_complete)

    def _account(self, plan: AccessPlan) -> None:
        stats = self.stats
        for stage in plan.stages:
            for op in stage:
                if op.level is Level.NM:
                    stats.demand_nm_bytes += op.size
                else:
                    stats.demand_fm_bytes += op.size
        for op in plan.background:
            if op.level is Level.NM:
                stats.background_nm_bytes += op.size
            else:
                stats.background_fm_bytes += op.size

    # ------------------------------------------------------------------
    def _run_epoch(self, period: float) -> None:
        ops, stall = self.scheme.epoch()
        if self.oracle is not None:
            self.oracle.after_epoch(ops)
        for op in ops:
            self._issue(op, Priority.BACKGROUND, None)
            if op.level is Level.NM:
                self.stats.background_nm_bytes += op.size
            else:
                self.stats.background_fm_bytes += op.size
        self._stall_until = self._engine.now + stall
        self.stats.epoch_stall_cycles += stall
        self._engine.schedule(period, self._run_epoch, period)
