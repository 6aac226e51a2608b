"""Output checks and simulated statistics.

Simulated statistics are deterministic, so they serve as correctness
checks rather than measurements: a simulator speed-up must leave every
one of them identical.  Each check returns a list of failure messages;
the benchmark counts every check it makes as attempted and every
message as failed.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from typing import Dict, List, Sequence, Tuple

#: paper reference values the grid is compared against (EXPERIMENTS.md)
PAPER_FIG7_SILC_VS_BEST = 1.36
PAPER_FIG8_SILC_NM_SHARE = 0.76
PAPER_FIG6_LOCKING_DELTA = 0.11


def canonical(result) -> str:
    """The canonical wire form of a ``RunResult`` (what the result
    cache and the goldens store)."""
    return json.dumps(result.to_dict(), indent=2, sort_keys=True) + "\n"


def golden_replay(root: Path, batch_window: int) -> Tuple[int, List[str]]:
    """Replay the committed golden grid on one engine through the
    repository's own golden generator and byte-compare each result with
    its file (read, never rewritten).  Returns the number of files
    compared and one message per mismatch."""
    sys.path.insert(0, str(root / "scripts"))
    from gen_golden_results import GOLDEN_DIR, SCHEMES, WORKLOAD, golden_json

    compared, failures = 0, []
    for scheme in SCHEMES:
        for suffix, mshr_entries in (("", None), ("-compat", 0)):
            path = GOLDEN_DIR / f"{scheme}-{WORKLOAD}{suffix}.json"
            compared += 1
            if golden_json(scheme, batch_window=batch_window,
                           mshr_entries=mshr_entries) != path.read_text():
                failures.append(f"golden {path.name} differs "
                                f"(batch_window={batch_window})")
    return compared, failures


def cell_stats(result, system) -> Dict[str, float]:
    """Simulated per-layer statistics of one cell.

    All but the row-hit rates come from the public ``RunResult``; it
    carries no row-buffer counters, so those are summed from the
    devices' bank counters of the ``System`` that produced it (whole
    run, warmup included)."""
    def row_hit_rate(device) -> float:
        channels = list(device.channels)
        if device.meta_channel is not None:
            channels.append(device.meta_channel)
        hits = total = 0
        for channel in channels:
            for index in range(device.timings.banks):
                stats = channel.bank(index).stats
                hits += stats.row_hits
                total += stats.accesses
        return hits / total if total else 0.0

    accesses = result.scheme_stats.misses
    extras = result.extras
    return {
        "nm_row_hit_rate": row_hit_rate(system.nm_device),
        "fm_row_hit_rate": row_hit_rate(system.fm_device),
        "nm_mean_queue_wait": result.nm_stats.mean_queue_wait,
        "fm_mean_queue_wait": result.fm_stats.mean_queue_wait,
        "nm_demand_share": result.nm_demand_fraction,
        "mshr_coalesced_per_access": (
            extras.get("mshr_coalesced", 0.0) / accesses if accesses else 0.0),
        "structural_stalls": extras.get("mshr_structural_stalls", 0.0),
    }


def compare_runs(label: str, expected: Sequence[str],
                 actual: Sequence[str]) -> List[str]:
    """Canonical results must be identical, position by position."""
    if len(expected) != len(actual):
        return [f"{label}: {len(actual)} results, expected {len(expected)}"]
    return [f"{label}: result {i} differs"
            for i, (a, b) in enumerate(zip(expected, actual)) if a != b]


def paper_reference(runner) -> Dict[str, Dict[str, float]]:
    """Fig. 7 SILC-vs-best, Fig. 8 SILC NM share and the Fig. 6 locking
    delta from a populated ``SuiteRunner``, each with its error against
    the paper.  The scaled model agrees with the paper in shape only
    (who leads, which way a feature moves), not in magnitude."""
    from repro.experiments.figures import FIG7_SCHEMES
    from repro.stats.collectors import geometric_mean
    from repro.workloads.spec import BENCHMARKS

    def geomean(scheme: str) -> float:
        return geometric_mean([runner.speedup(scheme, wl) for wl in BENCHMARKS])

    fig7 = {scheme: geomean(scheme) for scheme in FIG7_SCHEMES}
    best_other = max(v for s, v in fig7.items() if s != "silc")
    share = sum(runner.result("silc", wl).access_rate
                for wl in BENCHMARKS) / len(BENCHMARKS)
    locking = geomean("silc-lock") / geomean("silc-swap") - 1.0
    rows = {
        "fig7_silc_vs_best": (fig7["silc"] / best_other,
                              PAPER_FIG7_SILC_VS_BEST),
        "fig8_silc_nm_share": (share, PAPER_FIG8_SILC_NM_SHARE),
        "fig6_locking_delta": (locking, PAPER_FIG6_LOCKING_DELTA),
    }
    return {name: {"model": model, "paper": paper, "error": model - paper}
            for name, (model, paper) in rows.items()}


class SystemCapture:
    """Collects :func:`cell_stats` for every ``System.run`` while
    active (the row-buffer counters live on the ``System``, which
    ``run_one`` does not return)."""

    def __init__(self) -> None:
        self.stats: List[Dict[str, float]] = []
        self._original = None

    def __enter__(self) -> "SystemCapture":
        from repro.cpu.system import System

        original = self._original = System.run
        stats = self.stats

        def run(system, *args, **kwargs):
            result = original(system, *args, **kwargs)
            stats.append(cell_stats(result, system))
            return result

        System.run = run
        return self

    def __exit__(self, *_exc) -> None:
        from repro.cpu.system import System

        System.run = self._original
