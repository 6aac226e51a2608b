"""The batch engine's equivalence contract: ``batch_window > 0`` must
reproduce the scalar engine's ``RunResult`` byte for byte.

Three layers of proof, from broad to anchored:

* the **differential grid** — every registered scheme x three workload
  shapes (pointer-chasing mcf, stream-like lbm, and the heterogeneous
  mix-blend) x three MSHR configurations (compatibility 0, stall-heavy
  8, roomy 32), scalar vs batched from the same seed;
* an **oracle-checked pass** per scheme — the validation oracle rides a
  batched run (forcing the controller's per-request scalar fallback
  while batched trace generation stays), proving ``--check`` coverage
  is unchanged;
* a **telemetry pass** per scheme, with and without span sampling — the
  whole ``to_dict()`` including the telemetry snapshot (samples, events
  and span aggregates) must match, so observing a run never depends on
  which engine ran it;
* the **golden anchor** — the batched engine must reproduce the
  committed ``tests/data/golden/*.json`` bytes, tying the equivalence
  class to the repository's pinned history, not just to whatever the
  scalar engine currently does.

``tests/integration/test_batch_mutations.py`` proves this suite has
teeth: three deliberately planted batch-path bugs each make it fail.
"""

import dataclasses
import json
import sys
from pathlib import Path

import pytest

from repro.experiments.mixes import run_mix
from repro.experiments.runner import SCHEMES, run_one
from repro.sim.config import default_config

SCRIPTS = Path(__file__).resolve().parents[2] / "scripts"
sys.path.insert(0, str(SCRIPTS))

from gen_golden_results import (  # noqa: E402
    GOLDEN_DIR, SCHEMES as GOLDEN_SCHEMES, WORKLOAD as GOLDEN_WORKLOAD,
    golden_json)

SEED = 7
MISSES = 300
SCALE = 0.25
#: the window under test; odd-sized vs the 300-miss trace so window
#: boundaries land mid-stream (the off-by-one surface).
BATCH_WINDOW = 64

WORKLOADS = ("mcf", "lbm", "mix-blend")
#: compat mode, two undersized files (queue/drain stressed), and the
#: MLP-sized shipping default
MSHR_CONFIGS = (0, 8, 32, 128)


#: telemetry sampling window for the telemetry pass, in CPU cycles
TELEMETRY_WINDOW = 2000


def _run(scheme: str, workload: str, mshr_entries: int, batch_window: int,
         **overrides):
    config = dataclasses.replace(
        default_config(SCALE), seed=SEED, batch_window=batch_window,
        mshr_entries=mshr_entries, **overrides)
    if workload.startswith("mix-"):
        return run_mix(scheme, workload, config,
                       misses_per_core=MISSES, seed=SEED)
    return run_one(scheme, workload, config, misses_per_core=MISSES)


def _run_json(scheme: str, workload: str, mshr_entries: int,
              batch_window: int, check_interval: float = 0.0) -> str:
    result = _run(scheme, workload, mshr_entries, batch_window,
                  check_interval=check_interval)
    return json.dumps(result.to_dict(), sort_keys=True)


@pytest.mark.parametrize("mshr_entries", MSHR_CONFIGS)
@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("scheme", sorted(SCHEMES))
def test_batched_run_is_byte_identical(scheme, workload, mshr_entries):
    scalar = _run_json(scheme, workload, mshr_entries, 0)
    batched = _run_json(scheme, workload, mshr_entries, BATCH_WINDOW)
    assert batched == scalar, (
        f"batch engine diverged from scalar for {scheme}/{workload}/"
        f"mshr={mshr_entries}")


@pytest.mark.parametrize("scheme", sorted(SCHEMES))
def test_oracle_checked_batched_run(scheme):
    """The differential oracle must pass (no InvariantViolation) on a
    batched run and leave the result identical to a scalar checked run:
    ``--check`` loses no coverage to the batch engine."""
    scalar = _run_json(scheme, "mcf", 8, 0, check_interval=5_000.0)
    batched = _run_json(scheme, "mcf", 8, BATCH_WINDOW,
                        check_interval=5_000.0)
    assert batched == scalar


@pytest.mark.parametrize("span_sample_rate", [0, 1])
@pytest.mark.parametrize("scheme", sorted(SCHEMES))
def test_telemetry_run_is_byte_identical(scheme, span_sample_rate):
    """With telemetry on (and optionally every request span-traced),
    the batched run's ``to_dict()`` — telemetry snapshot included —
    equals the scalar run's: neither engine adds, drops or reorders a
    sample, an event or a span."""
    results = [_run(scheme, "mcf", 32, batch_window,
                    telemetry_window=TELEMETRY_WINDOW,
                    span_sample_rate=span_sample_rate)
               for batch_window in (0, BATCH_WINDOW)]
    scalar, batched = (json.dumps(r.to_dict(), sort_keys=True)
                       for r in results)
    assert batched == scalar, (
        f"batch engine diverged from scalar for {scheme}/mcf with "
        f"telemetry (span_sample_rate={span_sample_rate})")
    telemetry = results[1].to_dict()["telemetry"]
    assert telemetry["samples"]
    if span_sample_rate:
        # the batched span run really traced: spans retired and were
        # aggregated, not silently skipped
        assert telemetry["spans"]["spans"] > 0
    else:
        assert "spans" not in telemetry


@pytest.mark.parametrize("scheme", GOLDEN_SCHEMES)
def test_batched_run_matches_committed_golden(scheme):
    """Anchor: the batched engine reproduces the committed golden bytes
    (captured on the scalar engine), not merely the scalar engine's
    current output."""
    golden = (GOLDEN_DIR / f"{scheme}-{GOLDEN_WORKLOAD}.json").read_text()
    assert golden_json(scheme, batch_window=BATCH_WINDOW) == golden, (
        f"{scheme} batched RunResult drifted from the committed golden")
