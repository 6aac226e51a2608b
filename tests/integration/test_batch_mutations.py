"""Mutation self-tests: prove the identity checks have teeth.

A check asserting "same bytes" proves nothing if it would also pass
with a broken engine.  Here three deliberate, realistic bugs are planted
behind the test-only hook in :mod:`repro.sim.faults`, and each must make
its check FAIL:

* a window-boundary off-by-one in the batch trace generator — only the
  batch engine generates traces in windows, so the scalar-vs-batch
  equivalence check must catch it;
* a dropped row-buffer close and a stale bank busy-until time in the
  channel issue step — both engines share that one DRAM data plane, so
  scalar-vs-batch cannot see them; the committed golden ``RunResult``
  files are the reference, and a run on either engine must diverge
  from them.

Any surviving mutant means a check lost its sensitivity to that class
of bug.  Each fault fires on every SILC-FM miss stream.
"""

import dataclasses
import functools
import json
import sys
from pathlib import Path

import pytest

from repro.experiments.runner import run_one
from repro.sim import faults
from repro.sim.config import default_config

SCRIPTS = Path(__file__).resolve().parents[2] / "scripts"
sys.path.insert(0, str(SCRIPTS))

from gen_golden_results import GOLDEN_DIR, WORKLOAD, golden_json  # noqa: E402

SEED = 7
MISSES = 300
BATCH_WINDOW = 64

#: faults in the DRAM data plane both engines share: checked against
#: the committed goldens on each engine (the rest scalar vs batched).
DRAM_FAULTS = ("drop-row-close", "stale-busy")


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
    cases (computed outside any ``faults.inject`` block, so caching
    cannot leak an injected fault into a baseline)."""
    return _run_json(scheme, 0, misses, mshr)


@pytest.mark.parametrize("fault", faults.KNOWN)
def test_planted_fault_trips_the_equivalence_check(fault):
    if fault in DRAM_FAULTS:
        golden = (GOLDEN_DIR / f"silc-{WORKLOAD}.json").read_text()
        for batch_window in (0, BATCH_WINDOW):
            with faults.inject(fault):
                mutated = golden_json("silc", batch_window=batch_window)
            assert mutated != golden, (
                f"planted fault {fault!r} survived the golden replay on "
                f"batch_window={batch_window} — the goldens cannot detect "
                "this bug class")
        return
    scalar = _scalar_json("silc", MISSES, 8)
    with faults.inject(fault):
        mutated = _run_json("silc", BATCH_WINDOW, MISSES, 8)
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
