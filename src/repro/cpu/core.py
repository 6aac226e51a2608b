"""Trace-driven core model.

Each core replays one benchmark instance: it executes ``gap_instr``
instructions of compute (at its issue width) between memory accesses and
keeps up to ``max_outstanding_misses`` LLC misses in flight — the
memory-level parallelism a 128-entry ROB sustains.  When the window is
full the core stalls until a miss returns; execution time therefore
responds to memory latency *and* to bandwidth saturation, which is what
the paper's bandwidth-bound evaluation needs.

The core is mode-agnostic: an optional ``classify`` callback runs each
trace record through a modelled cache hierarchy (reference mode);
without it every record is already an LLC miss (miss mode, the
default).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Callable, Iterator, List, Optional

from repro.sim.engine import Engine

#: dirty lines a core keeps before the oldest is written back; models the
#: residence time of dirty data in its LLC share.
DIRTY_FIFO_DEPTH = 64


@dataclass
class CoreStats:
    instructions: int = 0
    accesses: int = 0
    misses_issued: int = 0
    misses_retired: int = 0
    stall_events: int = 0
    finish_time: float = 0.0

    def ipc(self) -> float:
        if self.finish_time <= 0:
            return 0.0
        return self.instructions / self.finish_time


class Core:
    """One out-of-order core replaying a trace in column windows.

    ``batches`` yields :class:`~repro.workloads.model.MissBatch` windows
    (:meth:`~repro.workloads.model.WorkloadModel.miss_batches` in miss
    mode, :meth:`~repro.workloads.model.WorkloadModel.reference_batches`
    in reference mode); the window size changes no event, only how
    often the next window is fetched.
    """

    def __init__(self, engine: Engine, core_id: int, batches: Iterator,
                 issue_width: int, max_outstanding: int,
                 translate: Callable[[int], int],
                 send_miss: Callable[[int, bool, int, Callable[[float], None]], None],
                 send_writeback: Callable[[int], None],
                 classify: Optional[Callable[[int, bool, int], "ClassifyResult"]] = None,
                 on_finished: Optional[Callable[["Core"], None]] = None) -> None:
        if issue_width < 1 or max_outstanding < 1:
            raise ValueError("issue width and outstanding window must be >= 1")
        self._engine = engine
        self.core_id = core_id
        self._batches = batches
        self._issue_width = issue_width
        self._max_outstanding = max_outstanding
        self._translate = translate
        self._send_miss = send_miss
        self._send_writeback = send_writeback
        self._classify = classify
        self._on_finished = on_finished
        self._outstanding = 0
        self._blocked = False
        self._draining = False
        self.finished = False
        #: the current window's columns and the next record's index
        self._pc: List[int] = []
        self._vaddr: List[int] = []
        self._write: List[bool] = []
        self._gap: List[int] = []
        self._cursor = 0
        self._n = 0
        #: callbacks bound once — ``self._miss_done`` at a call site
        #: builds a fresh bound method per miss.
        self._retire = self._miss_done
        self._issue_bound = self._issue
        #: bounded FIFO; overflow evicts the oldest entry as a writeback
        #: (an explicit popleft rather than ``maxlen`` because a silent
        #: drop would lose the eviction).  deque makes that O(1) where a
        #: list's ``pop(0)`` was O(depth) per dirty miss.
        self._dirty_fifo: deque = deque()
        self.stats = CoreStats()

    # ------------------------------------------------------------------
    def start(self) -> None:
        self._engine.schedule(0, self._advance)

    def _advance(self) -> None:
        """Take the next trace record and schedule its issue after the
        compute gap."""
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
        self._engine.schedule(gap / self._issue_width, self._issue_bound,
                              self._pc[i], self._vaddr[i], self._write[i])

    def _issue(self, pc: int, vaddr: int, is_write: bool) -> None:
        stats = self.stats
        stats.accesses += 1
        paddr = self._translate(vaddr)
        if self._classify is not None:
            outcome = self._classify(paddr, is_write, self.core_id)
            if outcome.writeback_addr is not None:
                self._send_writeback(outcome.writeback_addr)
            if not outcome.llc_miss:
                # cache hit: its latency folds into compute time
                self._engine.schedule(outcome.latency_cycles, self._advance)
                return
        elif is_write:
            # miss-stream mode: queue a future writeback for the dirtied
            # line (reference mode gets real LLC evictions instead).
            fifo = self._dirty_fifo
            fifo.append(paddr)
            if len(fifo) > DIRTY_FIFO_DEPTH:
                self._send_writeback(fifo.popleft())
        self._outstanding += 1
        stats.misses_issued += 1
        self._send_miss(paddr, is_write, pc, self._retire)
        if self._outstanding < self._max_outstanding:
            self._advance()
        else:
            self._blocked = True
            stats.stall_events += 1

    def _miss_done(self, when: float) -> None:
        self._outstanding -= 1
        self.stats.misses_retired += 1
        if self._blocked:
            self._blocked = False
            self._advance()
        if self._draining:
            self._maybe_finish()

    def _maybe_finish(self) -> None:
        if self._draining and self._outstanding == 0 and not self.finished:
            self.finished = True
            self.stats.finish_time = self._engine.now
            for paddr in self._dirty_fifo:
                self._send_writeback(paddr)
            self._dirty_fifo.clear()
            if self._on_finished is not None:
                self._on_finished(self)
