"""One DRAM channel: request queues, an FR-FCFS-style scheduler and a
shared data bus.

The model is event-driven rather than cycle-stepped: when the scheduler
picks a request it computes, from the bank's row-buffer state and the
bus's next free time, when the transfer completes, and schedules that
completion on the engine.  A small in-flight window (``pipeline_depth``)
lets the next request's bank preparation overlap the current burst, so
back-to-back row hits stream at full bus utilisation while row conflicts
serialise on the bank — the two effects the evaluation depends on.

Scheduling policy (FR-FCFS with priority classes): demand requests beat
background (swap/migration) traffic; within a class, row-buffer hits are
preferred; ties go to the oldest request.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from itertools import islice
from typing import Deque

from repro.dram.bank import Bank
from repro.dram.request import DRAMRequest, Priority
from repro.dram.timing import DRAMTimings
from repro.sim import faults
from repro.sim.engine import Engine


@dataclass
class ChannelStats:
    reads: int = 0
    writes: int = 0
    bytes_read: int = 0
    bytes_written: int = 0
    demand_bytes: int = 0
    background_bytes: int = 0
    bus_busy_cycles: float = 0.0
    total_queue_wait: float = 0.0
    max_queue_depth: int = 0

    @property
    def bytes_total(self) -> int:
        return self.bytes_read + self.bytes_written

    @property
    def accesses(self) -> int:
        return self.reads + self.writes

    @property
    def mean_queue_wait(self) -> float:
        return self.total_queue_wait / self.accesses if self.accesses else 0.0

    def reset(self) -> None:
        """Zero every counter (used for warmup discarding)."""
        self.reads = 0
        self.writes = 0
        self.bytes_read = 0
        self.bytes_written = 0
        self.demand_bytes = 0
        self.background_bytes = 0
        self.bus_busy_cycles = 0.0
        self.total_queue_wait = 0.0
        self.max_queue_depth = 0


class Channel:
    """A single channel of one memory device."""

    #: how many scheduled-but-incomplete requests may overlap; sized to
    #: the paper's 32-entry per-channel queues so all 8 banks of a
    #: channel can be preparing rows while the bus streams data.
    pipeline_depth = 16
    #: FR-FCFS lookahead: only this many of the oldest requests per
    #: priority class are considered for row-hit reordering (a real
    #: scheduler's window is similarly bounded; this also keeps the pick
    #: cost O(window) under deep backlogs).
    scheduler_window = 32

    def __init__(self, engine: Engine, timings: DRAMTimings) -> None:
        self._engine = engine
        self._t = timings
        self._banks = [Bank(timings) for _ in range(timings.banks)]
        self._demand_queue: Deque[DRAMRequest] = deque()
        self._background_queue: Deque[DRAMRequest] = deque()
        self._bus_free: float = 0.0
        self._inflight = 0
        self._picks = 0
        self.refreshes = 0
        self.stats = ChannelStats()
        #: conversion factor and per-size burst durations, cached off the
        #: timing properties — ``_issue`` runs once per DRAM request and
        #: the formulas are pure in ``size``.
        self._cpm = timings.cpu_cycles_per_mem
        self._burst_cpu_cycles: dict = {}
        #: completion callback bound once — a ``schedule_at`` call site
        #: builds a fresh bound method per event otherwise.
        self._complete_bound = self._complete
        if timings.t_refi > 0:
            engine.schedule(timings.t_refi * self._cpm, self._refresh)

    def _refresh(self) -> None:
        """All-bank refresh: every bank precharges and is unavailable
        for tRFC (only modelled when the device enables t_refi).

        Note: the refresh chain reschedules itself forever, so an
        engine driving a refresh-enabled device never drains — run it
        with a horizon (``engine.run(until=...)``) or via ``System.run``
        (which stops when the cores finish)."""
        cpm = self._cpm
        done = self._engine.now + self._t.t_rfc * cpm
        for bank in self._banks:
            bank.open_row = None
            bank.ready = max(bank.ready, done)
        self.refreshes += 1
        self._engine.schedule(self._t.t_refi * cpm, self._refresh)

    #: how many demand requests are served for each background request
    #: when both queues are non-empty.  Background (swap/migration/
    #: writeback) traffic is deprioritised but NOT starved: migration
    #: bandwidth competing with demand is the effect the paper's
    #: PoM-vs-subblocking comparison rests on.
    background_share = 4

    def submit(self, request: DRAMRequest) -> None:
        """Enqueue a request; it completes via ``request.on_complete``."""
        dq = self._demand_queue
        bq = self._background_queue
        if not dq and not bq and self._inflight < self.pipeline_depth:
            # nothing to reorder and a free slot: FR-FCFS would pick
            # this request at once, so it issues without queueing (the
            # queue-depth watermark still counts it, as a depth of 1)
            stats = self.stats
            if stats.max_queue_depth < 1:
                stats.max_queue_depth = 1
            self._issue(request)
            return
        (dq if request.priority == Priority.DEMAND else bq).append(request)
        depth = len(dq) + len(bq)
        stats = self.stats
        if depth > stats.max_queue_depth:
            stats.max_queue_depth = depth
        if self._inflight < self.pipeline_depth:
            self._try_issue()

    @property
    def queue_depth(self) -> int:
        return len(self._demand_queue) + len(self._background_queue)

    def bank(self, index: int) -> Bank:
        return self._banks[index]

    #: oldest-request age (CPU cycles) beyond which FR-FCFS stops
    #: reordering past it — the standard starvation cap that keeps an
    #: endlessly row-hitting stream from blocking a row-miss forever.
    #: Loose enough that it only fires on genuine starvation, not on
    #: ordinary backlog (row batching is what keeps conflict-heavy
    #: streams from spiralling).
    starvation_cap = 2500.0

    # ------------------------------------------------------------------
    def _try_issue(self) -> None:
        """Issue queued requests while the pipeline has room.

        FR-FCFS within the scheduler window; demand is preferred over
        background traffic at a ``background_share`` ratio, so
        migrations are delayed under load but still consume real
        bandwidth.
        """
        dq = self._demand_queue
        bq = self._background_queue
        while (dq or bq) and self._inflight < self.pipeline_depth:
            # -- pick
            if not dq:
                queue = bq
            elif not bq:
                queue = dq
            else:
                self._picks += 1
                share = self.background_share + 1
                queue = bq if self._picks % share == 0 else dq
            best_index = 0
            if self._engine.now - queue[0].arrival < self.starvation_cap:
                banks = self._banks
                # islice walks the deque O(1) per step; indexing a deque
                # is O(i) per probe, which quadraticizes deep-queue scans
                window = islice(queue, self.scheduler_window)
                for i, req in enumerate(window):
                    coords = req.coords
                    if banks[coords.bank].open_row == coords.row:
                        best_index = i
                        break
            if best_index:
                best = queue[best_index]
                del queue[best_index]
            else:
                best = queue.popleft()
            self._issue(best)

    def _issue(self, request: DRAMRequest) -> None:
        """Open the request's row (``Bank.prepare``), claim the data bus
        after it, and schedule the completion."""
        now = self._engine.now
        coords = request.coords
        bank = self._banks[coords.bank]
        if faults.ACTIVE is None:
            data_ready = bank.prepare(coords.row, now)
        else:
            data_ready = faults.bank_prepare(bank, coords.row, now)
        bus_free = self._bus_free
        data_start = data_ready if data_ready > bus_free else bus_free
        size = request.size
        burst = self._burst_cpu_cycles.get(size)
        if burst is None:
            burst = self._t.burst_mem_cycles(size) * self._cpm
            self._burst_cpu_cycles[size] = burst
        completion = data_start + burst
        self._bus_free = completion
        self._inflight += 1
        stats = self.stats
        stats.bus_busy_cycles += burst
        stats.total_queue_wait += data_start - request.arrival
        if request.span is not None:
            # attribute the queue/service split to the sampled request:
            # everything before the data starts moving (bank preparation,
            # bus contention, scheduler backlog) is queueing, the burst
            # itself is service
            request.span.add_dram(data_start - request.arrival, burst)
        self._engine.schedule_at(completion, self._complete_bound, request)

    def _complete(self, request: DRAMRequest) -> None:
        """Stamp and account a finished transfer, run its callback, then
        drain (the callback may have submitted to this very channel)."""
        request.completed_at = now = self._engine.now
        self._inflight -= 1
        stats = self.stats
        size = request.size
        if request.is_write:
            stats.writes += 1
            stats.bytes_written += size
        else:
            stats.reads += 1
            stats.bytes_read += size
        if request.priority == Priority.DEMAND:
            stats.demand_bytes += size
        else:
            stats.background_bytes += size
        if request.on_complete is not None:
            request.on_complete(now)
        if ((self._demand_queue or self._background_queue)
                and self._inflight < self.pipeline_depth):
            self._try_issue()
