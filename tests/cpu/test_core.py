"""Tests for the trace-driven core model."""

from repro.cache.hierarchy import HierarchyOutcome
from repro.cpu.core import DIRTY_FIFO_DEPTH, Core
from repro.sim.engine import Engine
from repro.workloads.model import MissBatch


class FakeMemory:
    """Records misses; completes them after a fixed latency."""

    def __init__(self, engine, latency=100.0):
        self.engine = engine
        self.latency = latency
        self.misses = []
        self.writebacks = []

    def send_miss(self, paddr, is_write, pc, on_done):
        self.misses.append((self.engine.now, paddr, is_write))
        self.engine.schedule(self.latency, on_done, self.engine.now + self.latency)

    def send_writeback(self, paddr):
        self.writebacks.append(paddr)


def trace(records):
    """The records as one column window (what the core replays)."""
    return iter([MissBatch([1 << 40] * len(records),
                           [v for v, _w, _g in records],
                           [w for _v, w, _g in records],
                           [g for _v, _w, g in records])])


def run_core(records, latency=100.0, max_outstanding=2, classify=None):
    engine = Engine()
    memory = FakeMemory(engine, latency)
    finished = []
    core = Core(engine, 0, trace(records), issue_width=4,
                max_outstanding=max_outstanding,
                translate=lambda v: v,
                send_miss=memory.send_miss,
                send_writeback=memory.send_writeback,
                classify=classify,
                on_finished=finished.append)
    core.start()
    engine.run()
    assert finished, "core never finished"
    return engine, memory, core


def test_core_replays_whole_trace():
    records = [(i * 64, False, 10) for i in range(20)]
    engine, memory, core = run_core(records)
    assert len(memory.misses) == 20
    assert core.stats.misses_retired == 20
    assert core.stats.instructions == 200


def test_compute_gap_spaces_issues():
    # single outstanding slot: miss 2 issues gap/width after miss 1 returns
    records = [(0, False, 40), (64, False, 40)]
    engine, memory, core = run_core(records, latency=100, max_outstanding=1)
    t1, t2 = memory.misses[0][0], memory.misses[1][0]
    # miss 1 at 10 (40 instr / width 4); returns at 110; miss 2 at 120
    assert t1 == 10
    assert t2 == 120


def test_mlp_overlaps_misses():
    records = [(i * 64, False, 4) for i in range(8)]
    __, mem_wide, core_wide = run_core(records, latency=1000, max_outstanding=8)
    __, mem_narrow, core_narrow = run_core(records, latency=1000, max_outstanding=1)
    assert core_wide.stats.finish_time < core_narrow.stats.finish_time / 4


def test_stall_counted_when_window_full():
    records = [(i * 64, False, 1) for i in range(10)]
    __, __, core = run_core(records, latency=500, max_outstanding=2)
    assert core.stats.stall_events > 0


def test_dirty_fifo_generates_writebacks():
    records = [(i * 64, True, 1) for i in range(DIRTY_FIFO_DEPTH + 10)]
    __, memory, __ = run_core(records, latency=10, max_outstanding=4)
    # all dirty lines eventually written back (overflow + final drain)
    assert len(memory.writebacks) == DIRTY_FIFO_DEPTH + 10


def test_classify_hits_do_not_reach_memory():
    outcomes = iter([HierarchyOutcome(False, 4), HierarchyOutcome(True, 15)])

    def classify(paddr, is_write, core_id):
        return next(outcomes)

    records = [(0, False, 10), (64, False, 10)]
    __, memory, core = run_core(records, classify=classify)
    assert len(memory.misses) == 1
    assert core.stats.accesses == 2


def test_classify_writebacks_forwarded():
    def classify(paddr, is_write, core_id):
        return HierarchyOutcome(True, 15, writeback_addr=12345 - 12345 % 64)

    records = [(0, False, 10)]
    __, memory, __ = run_core(records, classify=classify)
    assert memory.writebacks == [12345 - 12345 % 64]


def test_ipc_accounting():
    records = [(0, False, 400)]
    __, __, core = run_core(records, latency=100, max_outstanding=1)
    assert core.stats.instructions == 400
    assert 0 < core.stats.ipc() <= 4.0


def test_empty_trace_finishes_immediately():
    engine = Engine()
    memory = FakeMemory(engine)
    finished = []
    core = Core(engine, 0, iter([]), issue_width=4, max_outstanding=2,
                translate=lambda v: v, send_miss=memory.send_miss,
                send_writeback=memory.send_writeback,
                on_finished=finished.append)
    core.start()
    engine.run()
    assert finished and core.finished
    assert core.stats.misses_issued == 0
