"""Mutation self-tests: prove the differential harness has teeth.

A harness asserting scalar == batched proves nothing if it would also
pass with a broken batch engine.  Here three deliberate, realistic
batch-path bugs are planted behind the test-only hook in
:mod:`repro.sim.faults` — a window-boundary off-by-one in the trace
generator, a dropped row-buffer close, and a stale bank busy-until time
in the channel fast path — and each must make the equivalence check
FAIL.  The scalar reference never consults the fault hook, so any
surviving mutant means the harness lost its sensitivity to that class
of bug.  Each fault fires on every SILC-FM miss stream.
"""

import dataclasses
import functools
import json

import pytest

from repro.experiments.runner import run_one
from repro.sim import faults
from repro.sim.config import default_config

SEED = 7
MISSES = 300
BATCH_WINDOW = 64

#: fault -> (scheme, misses_per_core, mshr_entries) whose run exercises
#: the hook site.
CASES = {fault: ("silc", MISSES, 8) for fault in faults.KNOWN}


def _run_json(scheme: str, batch_window: int, misses: int,
              mshr: int) -> str:
    config = dataclasses.replace(
        default_config(0.25), seed=SEED, batch_window=batch_window,
        mshr_entries=mshr)
    result = run_one(scheme, "mcf", config, misses_per_core=misses)
    return json.dumps(result.to_dict(), sort_keys=True)


@functools.lru_cache(maxsize=None)
def _scalar_json(scheme: str, misses: int, mshr: int) -> str:
    """Fault-free scalar baselines, shared across the parametrized
    cases (the fault hook is never consulted on the scalar path, so
    caching cannot leak an injected fault into a baseline)."""
    return _run_json(scheme, 0, misses, mshr)


@pytest.mark.parametrize("fault", faults.KNOWN)
def test_planted_fault_trips_the_equivalence_check(fault):
    scheme, misses, mshr = CASES[fault]
    scalar = _scalar_json(scheme, misses, mshr)
    with faults.inject(fault):
        mutated = _run_json(scheme, BATCH_WINDOW, misses, mshr)
    assert mutated != scalar, (
        f"planted fault {fault!r} survived the equivalence check — the "
        "differential harness cannot detect this bug class")


def test_fault_free_rerun_recovers_equivalence():
    """The fault hook must leave no residue: after a mutated run, a
    clean batched run is byte-identical to scalar again."""
    scalar = _scalar_json("silc", MISSES, 8)
    with faults.inject(faults.KNOWN[0]):
        _run_json("silc", BATCH_WINDOW, MISSES, 8)
    assert _run_json("silc", BATCH_WINDOW, MISSES, 8) == scalar


def test_inject_rejects_unknown_and_nested_faults():
    with pytest.raises(ValueError):
        with faults.inject("not-a-fault"):
            pass
    with faults.inject(faults.KNOWN[0]):
        with pytest.raises(RuntimeError):
            with faults.inject(faults.KNOWN[1]):
                pass
