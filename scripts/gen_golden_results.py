#!/usr/bin/env python
"""Regenerate the golden ``RunResult`` JSONs under ``tests/data/golden/``.

These files pin the *exact* simulation output (every stats counter, every
float) for a fixed config+seed grid.  ``tests/integration/
test_golden_results.py`` replays the same grid and asserts byte-identical
JSON, so any change to the hot path that silently perturbs simulated
behaviour — reordered events, changed float arithmetic, a dropped
counter — fails loudly instead of drifting the paper's figures.

Only regenerate (``python scripts/gen_golden_results.py``) when a change
*intends* to alter simulated behaviour, and say so in the commit message.
"""

from __future__ import annotations

import dataclasses
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.experiments.runner import run_one  # noqa: E402
from repro.sim.config import default_config  # noqa: E402

GOLDEN_DIR = Path(__file__).resolve().parent.parent / "tests" / "data" / "golden"

#: the pinned grid: one epoch scheme (hma), one non-bijective scheme
#: (alloy), the paper scheme (silc), plus cam and the no-NM baseline.
SCHEMES = ["nonm", "silc", "cam", "pom", "hma", "alloy"]
WORKLOAD = "mcf"
MISSES = 300
SEED = 7
SCALE = 0.25


def golden_json(scheme: str, batch_window: int = 0,
                mshr_entries: int | None = None) -> str:
    """Run one golden-grid cell.  ``batch_window`` sets the
    trace-generation window (0 = the default window); every window must
    reproduce the same committed bytes — the goldens are the
    equivalence contract's anchor.  ``mshr_entries``
    overrides the config default: ``None`` runs the default MSHR
    pipeline (the ``{scheme}-{workload}.json`` goldens), 0 the compat
    front door (the ``{scheme}-{workload}-compat.json`` goldens, whose
    bytes are the pre-MSHR pins carried forward unchanged)."""
    config = default_config(scale=SCALE)
    if batch_window:
        config = dataclasses.replace(config, batch_window=batch_window)
    if mshr_entries is not None:
        config = dataclasses.replace(config, mshr_entries=mshr_entries)
    result = run_one(scheme, WORKLOAD, config,
                     misses_per_core=MISSES, seed=SEED)
    return json.dumps(result.to_dict(), indent=2, sort_keys=True) + "\n"


def main() -> None:
    GOLDEN_DIR.mkdir(parents=True, exist_ok=True)
    for scheme in SCHEMES:
        path = GOLDEN_DIR / f"{scheme}-{WORKLOAD}.json"
        path.write_text(golden_json(scheme))
        print(f"wrote {path}")
        compat = GOLDEN_DIR / f"{scheme}-{WORKLOAD}-compat.json"
        compat.write_text(golden_json(scheme, mshr_entries=0))
        print(f"wrote {compat}")


if __name__ == "__main__":
    main()
