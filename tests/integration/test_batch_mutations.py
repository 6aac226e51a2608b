"""Mutation self-tests: prove the identity checks have teeth.

A check asserting "same bytes" proves nothing if it would also pass
with a broken simulator.  Here three deliberate, realistic bugs are
planted behind the test-only hook in :mod:`repro.sim.faults`, and each
must make its check FAIL:

* a window-boundary off-by-one in the trace generator;
* a dropped row-buffer close and a stale bank busy-until time in the
  channel issue step.

Every run generates its trace in windows and runs the one DRAM data
plane, so comparing two generation windows cannot isolate any of these
bugs: the committed golden ``RunResult`` files are the reference, and a
run at either window must diverge from them.

Any surviving mutant means a check lost its sensitivity to that class
of bug.  Each fault fires on every SILC-FM miss stream.
"""

import sys
from pathlib import Path

import pytest

from repro.sim import faults

SCRIPTS = Path(__file__).resolve().parents[2] / "scripts"
sys.path.insert(0, str(SCRIPTS))

from gen_golden_results import GOLDEN_DIR, WORKLOAD, golden_json  # noqa: E402

#: the two generation windows each fault must be caught at: the
#: default window, and a small one whose boundaries land mid-trace many
#: times.
WINDOWS = (0, 64)


def _golden() -> str:
    return (GOLDEN_DIR / f"silc-{WORKLOAD}.json").read_text()


@pytest.mark.parametrize("fault", faults.KNOWN)
def test_planted_fault_trips_the_equivalence_check(fault):
    golden = _golden()
    for batch_window in WINDOWS:
        with faults.inject(fault):
            mutated = golden_json("silc", batch_window=batch_window)
        assert mutated != golden, (
            f"planted fault {fault!r} survived the golden replay on "
            f"batch_window={batch_window} — the goldens cannot detect "
            "this bug class")


def test_fault_free_rerun_recovers_equivalence():
    """The fault hook must leave no residue: after a mutated run, a
    clean run reproduces the golden bytes again."""
    with faults.inject(faults.KNOWN[0]):
        golden_json("silc", batch_window=WINDOWS[1])
    assert golden_json("silc", batch_window=WINDOWS[1]) == _golden()


def test_inject_rejects_unknown_and_nested_faults():
    with pytest.raises(ValueError):
        with faults.inject("not-a-fault"):
            pass
    with faults.inject(faults.KNOWN[0]):
        with pytest.raises(RuntimeError):
            with faults.inject(faults.KNOWN[1]):
                pass
