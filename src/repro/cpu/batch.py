"""The batch engine: vectorized trace replay + an allocation-lean
controller data plane for the post-LLC miss stream.

Selected by ``SystemConfig.batch_window > 0`` (miss mode only; the
scalar engine remains the default and the reference).  The event engine
stays the global sequencer — every miss still issues and completes at
exactly the scalar path's event times — but the *work per event* drops:

* :class:`BatchCore` replays pregenerated column windows
  (:meth:`repro.workloads.model.WorkloadModel.miss_batches`) instead of
  pulling ``MemoryAccess`` objects from a generator;
* :class:`BatchFlatMemoryController` asks the scheme for its
  single-op fast shape (:meth:`repro.schemes.base.MemoryScheme
  .access_fast`), pools transaction objects, and issues device accesses
  through the channels' fast paths — no ``AccessPlan``/``Op``/
  ``DRAMRequest`` allocation and no scheduler pick on the hot path.

Bit-identical equivalence with the scalar engine is the contract, gated
by ``tests/integration/test_batch_equivalence.py``.  The oracle and span
tracing force per-request fallback to the scalar controller logic (their
hooks observe plan objects), so ``--check`` runs validate batched trace
generation with unchanged oracle coverage.
"""

from __future__ import annotations

from typing import Callable, Iterator, List

from repro.cpu.controller import FlatMemoryController
from repro.cpu.core import DIRTY_FIFO_DEPTH, Core
from repro.cpu.mshr import DISPATCHED, QUEUED, STAGING, MemoryRequest
from repro.schemes.base import Level
from repro.sim.engine import Engine

#: recycled MemoryRequest transactions kept by the controller pool.
_TXN_POOL_CAP = 64


class BatchCore(Core):
    """A core replaying pregenerated miss-batch columns.

    Event-for-event identical to :class:`Core` on a miss stream: the
    same issue events at the same times in the same order — only the
    per-event bookkeeping is cheaper (column indexing instead of
    generator resumption and record objects).
    """

    def __init__(self, engine: Engine, core_id: int,
                 batches: Iterator, issue_width: int, max_outstanding: int,
                 translate: Callable[[int], int],
                 send_miss: Callable, send_writeback: Callable[[int], None],
                 on_finished=None) -> None:
        super().__init__(engine, core_id, iter(()), issue_width,
                         max_outstanding, translate, send_miss,
                         send_writeback, classify=None,
                         on_finished=on_finished)
        self._batches = batches
        self._pc: List[int] = []
        self._vaddr: List[int] = []
        self._write: List[bool] = []
        self._gap: List[int] = []
        self._cursor = 0
        self._n = 0
        #: the retire callback bound once — ``self._miss_done`` at a
        #: call site builds a fresh bound method per miss.
        self._retire = self._miss_done
        #: likewise the issue callback: ``_advance`` schedules it once
        #: per miss.
        self._issue_bound = self._issue_cols

    def _advance(self) -> None:
        i = self._cursor
        if i == self._n:
            batch = next(self._batches, None)
            if batch is None:
                self._draining = True
                self._maybe_finish()
                return
            self._pc = batch.pc
            self._vaddr = batch.vaddr
            self._write = batch.is_write
            self._gap = batch.gap_instr
            self._n = len(batch.pc)
            i = 0
        self._cursor = i + 1
        gap = self._gap[i]
        self.stats.instructions += gap
        # same issue event, carrying columns instead of a record object
        self._engine.schedule(gap / self._issue_width, self._issue_bound,
                              self._pc[i], self._vaddr[i], self._write[i])

    def _issue_cols(self, pc: int, vaddr: int, is_write: bool) -> None:
        """``Core._issue`` with the miss-mode-only branches inlined
        (batch mode never runs a cache hierarchy, so ``classify`` is
        always None and ``_track_dirty`` always tracks)."""
        stats = self.stats
        stats.accesses += 1
        paddr = self._translate(vaddr)
        self._outstanding += 1
        stats.misses_issued += 1
        if is_write:
            fifo = self._dirty_fifo
            fifo.append(paddr)
            if len(fifo) > DIRTY_FIFO_DEPTH:
                self._send_writeback(fifo.popleft())
        self._send_miss(paddr, is_write, pc, self._retire)
        if self._outstanding < self._max_outstanding:
            self._advance()
        else:
            self._blocked = True
            stats.stall_events += 1

    def _miss_done(self, when: float) -> None:
        """``Core._miss_done`` with the ``_maybe_finish`` call gated on
        ``_draining`` (its only effect outside the drain phase is three
        attribute reads per retired miss)."""
        self._outstanding -= 1
        self.stats.misses_retired += 1
        if self._blocked:
            self._blocked = False
            self._advance()
        if self._draining:
            self._maybe_finish()


class BatchFlatMemoryController(FlatMemoryController):
    """Controller twin with an allocation-lean demand data plane.

    The scheme-decision points are unchanged — ``access_fast`` applies
    exactly the state transitions ``access`` would, and anything it
    declines (multi-stage plans, background traffic, migrations) takes
    the inherited scalar path.  When the oracle or span tracing is
    active every request takes the scalar path (their hooks consume
    plan objects).
    """

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        #: recycled transactions for the compatibility front door
        #: (``mshr_entries = 0``; with an MSHR file the file owns them).
        self._pool: List[MemoryRequest] = []

    # ------------------------------------------------------------------
    def handle_miss(self, paddr: int, is_write: bool, pc: int,
                    on_done: Callable[[float], None]) -> None:
        if self.spans is not None:
            super().handle_miss(paddr, is_write, pc, on_done)
            return
        pool = self._pool
        if pool:
            txn = pool.pop()
            txn.paddr = paddr
            txn.is_write = is_write
            txn.pc = pc
            txn.issue_time = self._engine.now
            txn.state = QUEUED
        else:
            txn = MemoryRequest(paddr, is_write, pc, self._engine.now)
        txn.waiters.append(on_done)
        self.handle_request(txn)

    def arm_warmup_halt(self, threshold: int) -> None:
        """Wrap ``handle_request`` so the engine halts at the event
        during which the scheme's miss count crosses ``threshold`` —
        the batch twin of ``System.run``'s per-event warmup check (the
        count only moves inside demand dispatch, so checking here hits
        the same event boundary the step loop's check would).  The
        wrapper unbinds itself at the crossing, so steady state pays
        nothing."""
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

    def _recycle(self, txn: MemoryRequest) -> None:
        """Return a completed fast-path transaction to the pool (called
        from ``MemoryRequest.fast_done`` when no MSHR file owns it)."""
        txn.waiters.clear()
        txn.span = None
        pool = self._pool
        if len(pool) < _TXN_POOL_CAP:
            pool.append(txn)

    # ------------------------------------------------------------------
    def handle_request(self, txn: MemoryRequest) -> None:
        if self.oracle is not None or self.spans is not None:
            # validation / tracing hooks consume plan objects: scalar
            # per-request logic, batched trace generation unchanged.
            super().handle_request(txn)
            return
        now = self._engine.now
        if now < self._stall_until:
            self._engine.schedule_at(
                self._stall_until, self.handle_request, txn)
            return
        txn.state = DISPATCHED
        txn.dispatch_time = now
        txn.controller = self
        fast = self.scheme.access_fast(txn.paddr, txn.is_write, txn.pc)
        stats = self.stats
        if fast is not None:
            is_nm, addr, size, op_write = fast
            if is_nm:
                stats.demand_nm_bytes += size
                device = self._nm
            else:
                stats.demand_fm_bytes += size
                device = self._fm
            self.inflight += 1
            txn.state = STAGING
            device.access_turbo(addr, size, op_write, True, txn.fast_done)
            return
        # declined: build the full plan, mirroring the scalar
        # ``handle_request`` step for step
        plan = self.scheme.access(txn.paddr, txn.is_write, txn.pc)
        txn.plan = plan
        txn.stages = plan.stages
        self._account(plan)
        nm = self._nm
        fm = self._fm
        for op in plan.background:
            (nm if op.level is Level.NM else fm).access_turbo(
                op.addr, op.size, op.is_write, False, None)
        self.inflight += 1
        txn.state = STAGING
        stages = plan.stages
        if len(stages) == 1 and len(stages[0]) == 1:
            # single critical-path op: fuse the stage walk + completion.
            op = stages[0][0]
            (nm if op.level is Level.NM else fm).access_turbo(
                op.addr, op.size, op.is_write, True, txn.fast_done)
            return
        txn.stage_index = -1
        self._advance(txn, now)

    def _advance(self, txn: MemoryRequest, when: float) -> None:
        """Stage walk twin: each demand op goes through the devices'
        fused dispatcher.  Span-tracked transactions keep the scalar
        walk (the span rides every chunk there)."""
        if txn.span is not None:
            super()._advance(txn, when)
            return
        stages = txn.stages
        n = len(stages)
        i = txn.stage_index + 1
        nm = self._nm
        fm = self._fm
        while i < n:
            ops = stages[i]
            if ops:
                txn.stage_index = i
                txn.remaining_ops = len(ops)
                op_done = txn.op_done
                for op in ops:
                    (nm if op.level is Level.NM else fm).access_turbo(
                        op.addr, op.size, op.is_write, True, op_done)
                return
            i += 1
        self._complete(txn, self._engine.now)

    # ------------------------------------------------------------------
    def handle_writeback(self, paddr: int) -> None:
        if self.oracle is not None:
            super().handle_writeback(paddr)
            return
        # inline of scheme.writeback + _account + _issue for the one
        # shape writebacks ever take: a 64 B background write at the
        # data's current location.
        level, offset = self.scheme.locate(paddr)
        aligned = offset - offset % 64
        stats = self.stats
        stats.writebacks += 1
        if level is Level.NM:
            stats.background_nm_bytes += 64
            device = self._nm
        else:
            stats.background_fm_bytes += 64
            device = self._fm
        device.access_turbo(aligned, 64, True, False, None)
