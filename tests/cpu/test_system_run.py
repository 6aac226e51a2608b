"""``System.run``'s one warmup path under the watchdog.

Every run, ``max_events`` runs included, reaches the warmup reset
through the controller's warmup halt and the rest of the run through
``Engine.run``; the watchdog only bounds the total number of
dispatches (exactly ``max_events`` are allowed).
"""

import dataclasses
import json

import pytest

from repro.cpu.system import System
from repro.experiments.runner import SCHEMES
from repro.sim import window
from repro.sim.config import default_config
from repro.sim.engine import SimulationError
from repro.workloads.spec import per_core_spec

MISSES = 200
WARMUP = 0.25


def _system(key: str) -> System:
    config = dataclasses.replace(default_config(scale=0.25), cores=4,
                                 seed=5)
    setup = SCHEMES[key]
    return System(config, scheme_factory=setup.factory,
                  workload=per_core_spec("mcf", config),
                  misses_per_core=MISSES, alloc_policy=setup.alloc_policy,
                  warmup_fraction=WARMUP)


def _canonical(result) -> str:
    return json.dumps(result.to_dict(), indent=2, sort_keys=True)


def _phase_marks(key: str, monkeypatch):
    """A plain run's result and the engine's dispatch count at the end
    of each phase (warmup, then the rest)."""
    marks = []
    drive = window.run_closed_form

    def spy(system, *args, **kwargs):
        drive(system, *args, **kwargs)
        marks.append(system.engine.events_dispatched)

    monkeypatch.setattr(window, "run_closed_form", spy)
    result = _system(key).run()
    monkeypatch.undo()
    return result, marks


@pytest.mark.parametrize("key", ["nonm", "silc"])
def test_watchdog_run_is_byte_identical(key, monkeypatch):
    plain, (warmup_events, total_events) = _phase_marks(key, monkeypatch)
    assert 0 < warmup_events < total_events
    assert plain.elapsed_cycles > 0
    watched = _system(key).run(max_events=10**12)
    assert _canonical(watched) == _canonical(plain)
    # exactly max_events dispatches are allowed
    exact = _system(key).run(max_events=total_events)
    assert _canonical(exact) == _canonical(plain)


@pytest.mark.parametrize("key", ["nonm", "silc"])
def test_watchdog_trips_during_warmup(key, monkeypatch):
    _plain, (warmup_events, _total) = _phase_marks(key, monkeypatch)
    with pytest.raises(SimulationError, match="max_events"):
        _system(key).run(max_events=warmup_events // 2)


@pytest.mark.parametrize("key", ["nonm", "silc"])
def test_watchdog_trips_after_warmup(key, monkeypatch):
    _plain, (warmup_events, total_events) = _phase_marks(key, monkeypatch)
    for budget in ((warmup_events + total_events) // 2, total_events - 1):
        with pytest.raises(SimulationError, match="max_events"):
            _system(key).run(max_events=budget)
