"""Unit tests for the discrete-event engine."""

import pytest

from repro.sim.engine import Engine, SimulationError


def test_events_dispatch_in_time_order():
    engine = Engine()
    order = []
    engine.schedule(10, order.append, "late")
    engine.schedule(5, order.append, "early")
    engine.schedule(7.5, order.append, "middle")
    engine.run()
    assert order == ["early", "middle", "late"]
    assert engine.now == 10.0


def test_ties_break_by_insertion_order():
    engine = Engine()
    order = []
    for tag in range(5):
        engine.schedule(3.0, order.append, tag)
    engine.run()
    assert order == [0, 1, 2, 3, 4]


def test_schedule_at_absolute_time():
    engine = Engine()
    seen = []
    engine.schedule_at(42.0, seen.append, "x")
    engine.run()
    assert engine.now == 42.0
    assert seen == ["x"]


def test_negative_delay_rejected():
    engine = Engine()
    with pytest.raises(SimulationError):
        engine.schedule(-1, lambda: None)


def test_schedule_in_past_rejected():
    engine = Engine()
    engine.schedule(10, lambda: None)
    engine.run()
    with pytest.raises(SimulationError):
        engine.schedule_at(5.0, lambda: None)


def test_events_can_schedule_more_events():
    engine = Engine()
    seen = []

    def chain(depth):
        seen.append(depth)
        if depth < 3:
            engine.schedule(1, chain, depth + 1)

    engine.schedule(0, chain, 0)
    engine.run()
    assert seen == [0, 1, 2, 3]
    assert engine.now == 3.0


def test_run_until_horizon_leaves_future_events_queued():
    engine = Engine()
    seen = []
    engine.schedule(5, seen.append, "a")
    engine.schedule(15, seen.append, "b")
    engine.run(until=10)
    assert seen == ["a"]
    assert engine.now == 10
    assert engine.pending == 1
    engine.run()
    assert seen == ["a", "b"]


def test_max_events_watchdog_trips():
    engine = Engine()

    def forever():
        engine.schedule(1, forever)

    engine.schedule(0, forever)
    with pytest.raises(SimulationError, match="livelock"):
        engine.run(max_events=100)


def test_step_returns_false_when_empty():
    engine = Engine()
    assert engine.step() is False
    engine.schedule(1, lambda: None)
    assert engine.step() is True
    assert engine.step() is False


def test_zero_delay_runs_at_current_time():
    engine = Engine()
    times = []
    engine.schedule(5, lambda: engine.schedule(0, lambda: times.append(engine.now)))
    engine.run()
    assert times == [5.0]


def test_events_dispatched_counter():
    engine = Engine()
    for _ in range(7):
        engine.schedule(1, lambda: None)
    engine.run()
    assert engine.events_dispatched == 7


# ---------------------------------------------------------------------------
# edge cases: horizon ties, watchdog, reentrancy, stepping after drain
# ---------------------------------------------------------------------------

def test_until_horizon_dispatches_ties_exactly_at_horizon():
    """Events timestamped exactly at ``until`` are *inside* the horizon
    and must all fire, in insertion order; later events stay queued."""
    engine = Engine()
    seen = []
    engine.schedule(10, seen.append, "at-horizon-1")
    engine.schedule(10, seen.append, "at-horizon-2")
    engine.schedule(10.0000001, seen.append, "beyond")
    engine.run(until=10)
    assert seen == ["at-horizon-1", "at-horizon-2"]
    assert engine.now == 10
    assert engine.pending == 1


def test_until_horizon_with_no_events_beyond_leaves_clock_at_horizon():
    engine = Engine()
    seen = []
    engine.schedule(3, seen.append, "a")
    engine.schedule(7, lambda: engine.schedule(5, seen.append, "spawned"))
    engine.run(until=8)
    # the event spawned at t=12 is past the horizon and stays queued
    assert seen == ["a"]
    assert engine.now == 8
    assert engine.pending == 1
    engine.run()
    assert seen == ["a", "spawned"]
    assert engine.now == 12


def test_max_events_watchdog_fires_at_exact_boundary():
    engine = Engine()
    for _ in range(5):
        engine.schedule(1, lambda: None)
    with pytest.raises(SimulationError, match="max_events"):
        engine.run(max_events=3)
    # the watchdog must release the reentrancy latch so the engine can
    # drain the remainder afterwards
    engine.run()
    assert engine.events_dispatched == 5
    assert engine.pending == 0


def test_max_events_equal_to_queue_size_does_not_trip_early():
    """Unified watchdog semantics: exactly ``max_events`` dispatches are
    allowed, so a queue of exactly that many events completes cleanly —
    the engine raises only when *one more* would have to fire."""
    engine = Engine()
    fired = []
    for tag in range(4):
        engine.schedule(1, fired.append, tag)
    engine.run(max_events=4)
    assert fired == [0, 1, 2, 3]
    assert engine.pending == 0


def test_max_events_one_below_queue_size_trips():
    """The other side of the boundary: one event too many raises, with
    the allowed ``max_events`` dispatches already done."""
    engine = Engine()
    fired = []
    for tag in range(4):
        engine.schedule(1, fired.append, tag)
    with pytest.raises(SimulationError, match="max_events=3"):
        engine.run(max_events=3)
    assert fired == [0, 1, 2]
    assert engine.pending == 1


def test_system_and_engine_watchdogs_agree_at_boundary():
    """`System.run` and `Engine.run` share the watchdog contract; the
    system-level watchdog must not fire on a run that needs exactly the
    budgeted number of events (regression: the two used to disagree,
    ``> max_events`` vs ``>= max_events``)."""
    from repro.cpu.system import System
    from repro.experiments.runner import SCHEMES
    from repro.sim.config import default_config
    from repro.workloads.spec import per_core_spec

    def build():
        config = default_config(scale=0.25)
        setup = SCHEMES["nonm"]
        return System(
            config, scheme_factory=setup.factory,
            workload=per_core_spec("mcf", config), misses_per_core=20,
            alloc_policy=setup.alloc_policy, seed=3)

    # measure the exact event budget, then rerun with precisely it
    probe = build()
    probe.run()
    needed = probe.engine.events_dispatched
    build().run(max_events=needed)  # exactly enough: must not raise
    with pytest.raises(SimulationError, match="max_events"):
        build().run(max_events=needed - 1)


def test_run_is_not_reentrant():
    engine = Engine()
    errors = []

    def nested():
        try:
            engine.run()
        except SimulationError as exc:
            errors.append(str(exc))

    engine.schedule(1, nested)
    engine.run()
    assert len(errors) == 1
    assert "reentrant" in errors[0]


def test_step_after_drain_returns_false_then_accepts_new_work():
    engine = Engine()
    engine.schedule(2, lambda: None)
    engine.run()
    # drained: stepping is a no-op, repeatedly
    assert engine.step() is False
    assert engine.step() is False
    assert engine.now == 2.0
    # the engine is still live: new events schedule and step normally
    seen = []
    engine.schedule(5, seen.append, "late")
    assert engine.step() is True
    assert seen == ["late"]
    assert engine.now == 7.0
    assert engine.step() is False


def test_step_interleaves_with_run():
    engine = Engine()
    order = []
    for tag in ("a", "b", "c"):
        engine.schedule(1, order.append, tag)
    assert engine.step() is True
    engine.run()
    assert order == ["a", "b", "c"]


# ---------------------------------------------------------------------------
# edge semantics: free-list recycling bound and integer-timestamp
# preservation
# ---------------------------------------------------------------------------
def test_free_list_recycling_is_bounded():
    """A burst of queued events beyond _FREE_LIST_CAP must not pin
    entry lists forever: the free list never exceeds the cap."""
    from repro.sim.engine import _FREE_LIST_CAP

    engine = Engine()
    burst = _FREE_LIST_CAP + 500
    for _ in range(burst):
        engine.schedule(1, lambda: None)
    engine.run()
    assert engine.events_dispatched == burst
    assert len(engine._free) <= _FREE_LIST_CAP
    # and the recycled entries are actually reused: scheduling a second
    # burst drains the free list instead of allocating
    before = len(engine._free)
    for _ in range(before):
        engine.schedule(1, lambda: None)
    assert len(engine._free) == 0


def test_recycled_entries_do_not_leak_between_events():
    """An entry recycled mid-run carries no stale callback/args: every
    dispatch sees exactly the payload scheduled for it."""
    engine = Engine()
    seen = []
    # chain long enough to cycle through the same recycled entries
    def tick(n):
        seen.append(n)
        if n < 50:
            engine.schedule(1, tick, n + 1)

    engine.schedule(1, tick, 0)
    engine.run()
    assert seen == list(range(51))


def test_integer_timestamps_survive_int_only_chains():
    """The engine never coerces timestamps: an int-anchored chain
    (``schedule_at`` an int, then int delays — ``now`` stays int inside
    the chain) keeps exact integer arithmetic even past 2**53, where
    consecutive integers stop being representable as floats."""
    engine = Engine()
    big = 2 ** 53
    times = []

    def tick():
        times.append(engine.now)
        if len(times) < 3:
            engine.schedule(1, tick)  # int + int: stays int

    engine.schedule_at(big, tick)
    engine.run()
    assert times == [big, big + 1, big + 2]
    assert all(isinstance(t, int) for t in times)
    # the float chain would have collapsed: big+1.0 rounds back to big
    assert float(big) + 1.0 == float(big)
