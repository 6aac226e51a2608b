"""Perf-regression bench harness: ``python -m repro bench``.

Runs a pinned (scheme x workload) set through the simulator, timing the
**wall clock** of each cell, and writes a schema-versioned
``BENCH_<date>.json`` so successive checkouts can be compared: a
simulator change that slows the hot path shows up as a drop in
``accesses_per_sec`` long before anyone notices interactive sluggishness,
and a change that shifts the *headline figures of merit* (speedups over
the no-NM baseline) shows up in ``figures_of_merit`` even when all
functional tests still pass.

The workload set is pinned (fixed schemes, workloads, miss counts and
seed) precisely so the numbers are comparable across runs; scale knobs
change the *machine*, not the benchmark definition.  Cells run serially
in-process — parallel workers would share cores and turn wall-clock
timing into noise.

Since schema v3 each cell also carries **request-latency tails**
(``p95_latency``/``p99_latency``, simulation cycles): a second, untimed
run of the same cell with span sampling at rate 1 records every
request's issue-to-retire latency, so a change that quietly lengthens
the tail (a scheduling bug, a lost coalescing opportunity) fails the
regression gate even when throughput and the mean stay flat.  The tails
are deterministic given the pinned seed — the gate threshold is
host-noise-free and tight.  ``--quick`` runs skip the tail pass unless
the config explicitly enables span sampling: the CI-sized suite exists
for throughput, and the untimed pass used to double its runtime.

Since schema v4 each cell is run **twice**, scalar and batched
(``SystemConfig.batch_window = BENCH_BATCH_WINDOW``), both timed.  The
two runs' ``RunResult`` digests must be identical — the bench refuses
to report a speedup for an engine that changed behaviour — and the cell
carries ``batched_wall_seconds``/``batched_accesses_per_sec``/
``batch_speedup`` so the regression gate can hold both engines to their
baselines.

Since schema v6 the payload also carries a ``service`` section: the
multi-tenant sweep service (``python -m repro serve``) driven through a
pinned concurrent load by :func:`repro.service.bench.run_service_bench`
— cold sharded throughput, hot cache-hit latency, dedup hit rate, and
the exactly-once execution witness the gate hard-fails on.
"""

from __future__ import annotations

import json
import platform
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Union

from repro.sim.config import SystemConfig, default_config
from repro.stats.collectors import geometric_mean

#: bump when the BENCH_*.json layout changes.
#: v2: cells gained ``key``/``mshr_entries`` and the suites an
#: MSHR-coalescing variant of the paper scheme.
#: v3: cells gained ``p95_latency``/``p99_latency`` request-latency
#: tails (simulation cycles, from a separate untimed span-sampled run).
#: v4: cells gained a timed batch-engine twin run
#: (``batched_wall_seconds``/``batched_accesses_per_sec``/
#: ``batch_speedup``, digest-checked against the scalar run) and the
#: throughput summary a ``batched_accesses_per_sec`` total; quick runs
#: stopped carrying tails unless span sampling is enabled in the config.
#: v5: the MSHR transaction pipeline became the simulator default after
#: the silc-mshr32 postmortem (docs/architecture.md) — the headline
#: cells now run with the default MSHR file, the old ``silc-mshr32``
#: cell is gone, and a ``silc-compat`` cell (``mshr_entries=0``) keeps
#: the pre-MSHR front door measured so the figures-of-merit gate can
#: assert the default mode dominates it.
#: v6: the payload gained a ``service`` section
#: (:func:`repro.service.bench.run_service_bench`): the sweep service
#: under a pinned multi-tenant load — cold sharded throughput
#: (cells/sec), hot cache-hit throughput and service latency
#: (p50/p95 ms), dedup hit rate, and the exactly-once/conservation
#: correctness witnesses the gate hard-fails on.
#: v7: the payload gained a ``batch_curve`` section — the batch engine
#: swept across ``batch_window`` sizes (:data:`BENCH_CURVE_WINDOWS`,
#: window 0 being the scalar reference) over the pinned quick-suite
#: cells, each point digest-checked against the scalar run.  The
#: regression gate treats a missing curve against a v7+ baseline as a
#: failure (pre-v7 baselines skip), so the curve cannot silently drop
#: out of the bench.
BENCH_SCHEMA_VERSION = 7

#: pinned seed — throughput comparisons need identical event streams.
BENCH_SEED = 1234

#: MSHR size for the default-mode bench cells — the simulator default
#: (cores × per-core outstanding misses, the aggregate MLP), pinned
#: here so the benchmark definition stays frozen even if the simulator
#: default moves again.
BENCH_MSHR_ENTRIES = 128

#: telemetry window for the untimed tail-latency companion run.
BENCH_TAIL_WINDOW = 50_000

#: miss-stream window for the batch-engine twin run (v4).  Pinned like
#: the seed: the speedup column is only comparable across checkouts if
#: every run batches the same way.
BENCH_BATCH_WINDOW = 256

#: ``batch_window`` sweep for the v7 speedup curve.  Window 0 is the
#: scalar reference engine (the curve's denominator); the rest exercise
#: the batch engine at increasing trace-window sizes.  Pinned
#: like everything else: the curve is only comparable across checkouts
#: if every run sweeps the same points.
BENCH_CURVE_WINDOWS = (0, 256, 1024, 4096)

#: suites are (cell key, scheme, mshr_entries) triples; the key names
#: the cell in the JSON and stays stable across schema versions.
#: Full: the paper's main comparison points on three memory-behaviour
#: extremes (latency-bound mcf, low-locality milc, streaming lbm).
FULL_VARIANTS = [
    ("nonm", "nonm", BENCH_MSHR_ENTRIES),
    ("cam", "cam", BENCH_MSHR_ENTRIES),
    ("pom", "pom", BENCH_MSHR_ENTRIES),
    ("silc", "silc", BENCH_MSHR_ENTRIES),
    ("silc-compat", "silc", 0),
]
FULL_WORKLOADS = ["mcf", "milc", "lbm"]
FULL_MISSES = 4000

#: the quick suite (CI-sized): baseline + the paper scheme on one
#: workload, with and without the MSHR front door.
QUICK_VARIANTS = [
    ("nonm", "nonm", BENCH_MSHR_ENTRIES),
    ("silc", "silc", BENCH_MSHR_ENTRIES),
    ("silc-compat", "silc", 0),
]
QUICK_WORKLOADS = ["mcf"]
QUICK_MISSES = 1500


@dataclass
class BenchCell:
    """Timing + headline figures for one (variant, workload) run."""

    key: str
    scheme: str
    mshr_entries: int
    workload: str
    misses_per_core: int
    wall_seconds: float
    accesses: int
    accesses_per_sec: float
    elapsed_cycles: float
    access_rate: float
    #: request-latency tails in simulation cycles, measured by a second
    #: *untimed* run with span sampling at rate 1 (spans off in the timed
    #: run so the throughput numbers stay comparable to older baselines).
    #: Deterministic given the pinned seed, so the regression gate can be
    #: much tighter than the wall-clock one.  ``None`` = histogram
    #: overflow, a pre-v3 baseline, or a quick run with tails disabled.
    p95_latency: Optional[float] = None
    p99_latency: Optional[float] = None
    #: batch-engine twin run (schema v4): same cell with
    #: ``batch_window = BENCH_BATCH_WINDOW``, digest-checked against the
    #: scalar run before its throughput is reported.
    batched_wall_seconds: Optional[float] = None
    batched_accesses_per_sec: Optional[float] = None
    #: scalar wall / batched wall (>1 = the batch engine is faster).
    batch_speedup: Optional[float] = None

    def to_dict(self) -> Dict:
        return dict(self.__dict__)


def run_batch_curve(config: Optional[SystemConfig] = None) -> Dict:
    """The v7 ``batch_window`` speedup curve over the pinned quick-suite
    cells (both quick and full benches run the same curve definition, so
    the points are comparable between them).

    Each swept window re-runs every curve cell; every windowed run's
    ``RunResult`` digest must equal the scalar (window 0) run's — a
    point is only reported for an engine that proved bit-identity at
    that window size.  Returns the ``batch_curve`` payload section.
    """
    import dataclasses

    from repro.experiments.runner import run_one

    config = config or default_config()
    scalar_digests: Dict[tuple, str] = {}
    points = []
    scalar_wall = None
    for window in BENCH_CURVE_WINDOWS:
        start = time.perf_counter()
        for workload in QUICK_WORKLOADS:
            for key, scheme, mshr_entries in QUICK_VARIANTS:
                cell_config = dataclasses.replace(
                    config, mshr_entries=mshr_entries, batch_window=window)
                result = run_one(scheme, workload, cell_config,
                                 misses_per_core=QUICK_MISSES,
                                 seed=BENCH_SEED)
                digest = json.dumps(result.to_dict(), sort_keys=True)
                if window == 0:
                    scalar_digests[(key, workload)] = digest
                elif digest != scalar_digests[(key, workload)]:
                    raise AssertionError(
                        f"batch engine diverged from scalar on "
                        f"curve cell {key}/{workload} at "
                        f"batch_window={window}; run the equivalence "
                        "suite (tests/integration/"
                        "test_batch_equivalence.py)")
        wall = time.perf_counter() - start
        if window == 0:
            scalar_wall = wall
        points.append({
            "batch_window": window,
            "wall_seconds": round(wall, 4),
            "speedup": round(scalar_wall / wall, 2) if wall else 0.0,
        })
    return {
        "variants": [key for key, _s, _m in QUICK_VARIANTS],
        "workloads": list(QUICK_WORKLOADS),
        "misses_per_core": QUICK_MISSES,
        "points": points,
    }


def run_bench(quick: bool = False,
              config: Optional[SystemConfig] = None,
              today: Optional[str] = None,
              profile_dir: Optional[Union[str, Path]] = None) -> Dict:
    """Run the pinned set; returns the ``BENCH_*.json`` payload.

    ``profile_dir`` (the ``--profile`` flag) additionally captures a
    cProfile of one *untimed* batched run per cell, written as
    ``<key>-<workload>.pstats`` side artifacts — outside the
    ``perf_counter`` windows, so the reported throughput stays
    comparable to unprofiled baselines.  Inspect with::

        python -m pstats results/profiles/silc-mcf.pstats
    """
    import dataclasses

    from repro.experiments.runner import run_one

    if profile_dir is not None:
        profile_dir = Path(profile_dir)
        profile_dir.mkdir(parents=True, exist_ok=True)

    variants = QUICK_VARIANTS if quick else FULL_VARIANTS
    workloads = QUICK_WORKLOADS if quick else FULL_WORKLOADS
    misses = QUICK_MISSES if quick else FULL_MISSES
    config = config or default_config()
    # the tail pass is untimed and doubles a cell's cost; quick runs
    # skip it unless the caller's config explicitly samples spans.
    measure_tails = (not quick) or config.span_sample_rate > 0

    cells: List[BenchCell] = []
    results: Dict[tuple, object] = {}
    for workload in workloads:
        for key, scheme, mshr_entries in variants:
            # always replace: an ``if mshr_entries`` guard would make an
            # explicit 0 (the compat cell) silently inherit the config's
            # nonzero default.
            cell_config = dataclasses.replace(config,
                                              mshr_entries=mshr_entries)
            start = time.perf_counter()
            result = run_one(scheme, workload, cell_config,
                             misses_per_core=misses, seed=BENCH_SEED)
            wall = time.perf_counter() - start
            results[(key, workload)] = result
            accesses = misses * config.cores
            # batch-engine twin (v4): same cell, batched windows.  The
            # digest check makes the speedup claim honest — a batch
            # engine that drifts from the scalar engine has no
            # throughput to report, it has a bug.
            batched_config = dataclasses.replace(
                cell_config, batch_window=BENCH_BATCH_WINDOW)
            start = time.perf_counter()
            batched_result = run_one(scheme, workload, batched_config,
                                     misses_per_core=misses,
                                     seed=BENCH_SEED)
            batched_wall = time.perf_counter() - start
            scalar_digest = json.dumps(result.to_dict(), sort_keys=True)
            batched_digest = json.dumps(batched_result.to_dict(),
                                        sort_keys=True)
            if batched_digest != scalar_digest:
                raise AssertionError(
                    f"batch engine diverged from scalar on bench cell "
                    f"{key}/{workload}; run the equivalence suite "
                    "(tests/integration/test_batch_equivalence.py)")
            if profile_dir is not None:
                # untimed profiled re-run of the batched cell, so
                # hotspots are measurable instead of guessed (kept
                # outside the perf_counter windows).
                import cProfile

                profiler = cProfile.Profile()
                profiler.enable()
                run_one(scheme, workload, batched_config,
                        misses_per_core=misses, seed=BENCH_SEED)
                profiler.disable()
                profiler.dump_stats(
                    str(profile_dir / f"{key}-{workload}.pstats"))
            tails = {"p95": None, "p99": None}
            if measure_tails:
                # tail latencies come from a run with span sampling,
                # deliberately outside the perf_counter windows: the
                # timed runs stay span-free so accesses_per_sec is
                # comparable across baselines that predate span tracing.
                tail_config = dataclasses.replace(
                    cell_config, telemetry_window=BENCH_TAIL_WINDOW,
                    span_sample_rate=1)
                tail_result = run_one(scheme, workload, tail_config,
                                      misses_per_core=misses,
                                      seed=BENCH_SEED)
                tails = tail_result.telemetry["spans"]["latency"]
            cells.append(BenchCell(
                key=key,
                scheme=scheme,
                mshr_entries=mshr_entries,
                workload=workload,
                misses_per_core=misses,
                wall_seconds=round(wall, 4),
                accesses=accesses,
                accesses_per_sec=round(accesses / wall, 1) if wall else 0.0,
                elapsed_cycles=result.elapsed_cycles,
                access_rate=round(result.access_rate, 4),
                p95_latency=tails["p95"],
                p99_latency=tails["p99"],
                batched_wall_seconds=round(batched_wall, 4),
                batched_accesses_per_sec=(round(accesses / batched_wall, 1)
                                          if batched_wall else 0.0),
                batch_speedup=(round(wall / batched_wall, 2)
                               if batched_wall else 0.0),
            ))

    # headline figures of merit: per-workload speedups over the no-NM
    # baseline, plus each variant's geomean — the numbers Figs. 6/7 plot.
    speedups: Dict[str, Dict[str, float]] = {}
    for key, _scheme, _mshr in variants:
        if key == "nonm":
            continue
        per_wl = {
            wl: round(results[(key, wl)].speedup_over(
                results[("nonm", wl)]), 4)
            for wl in workloads
        }
        per_wl["geomean"] = round(geometric_mean(list(per_wl.values())), 4)
        speedups[key] = per_wl

    # v6: the sweep service under a pinned concurrent multi-tenant load
    # (its own tiny cell pool — the simulator cells above stay the
    # wall-clock-comparable definition they have always been).
    from repro.service.bench import run_service_bench

    service = run_service_bench(quick=quick)

    # v7: the batch engine's batch_window speedup curve (same
    # pinned definition for quick and full runs).
    batch_curve = run_batch_curve(config)

    total_wall = sum(c.wall_seconds for c in cells)
    total_batched_wall = sum(c.batched_wall_seconds for c in cells)
    total_accesses = sum(c.accesses for c in cells)
    return {
        "schema": BENCH_SCHEMA_VERSION,
        "date": today or time.strftime("%Y-%m-%d"),
        "quick": quick,
        "seed": BENCH_SEED,
        "batch_window": BENCH_BATCH_WINDOW,
        "platform": {
            "python": sys.version.split()[0],
            "implementation": platform.python_implementation(),
            "machine": platform.machine(),
            "system": platform.system(),
        },
        "cells": [c.to_dict() for c in cells],
        "throughput": {
            "total_wall_seconds": round(total_wall, 4),
            "total_accesses": total_accesses,
            "accesses_per_sec": (round(total_accesses / total_wall, 1)
                                 if total_wall else 0.0),
            "batched_wall_seconds": round(total_batched_wall, 4),
            "batched_accesses_per_sec": (
                round(total_accesses / total_batched_wall, 1)
                if total_batched_wall else 0.0),
            "batch_speedup": (round(total_wall / total_batched_wall, 2)
                              if total_batched_wall else 0.0),
        },
        "figures_of_merit": {"speedup_over_nonm": speedups},
        "service": service,
        "batch_curve": batch_curve,
    }


def write_bench(payload: Dict,
                out_dir: Union[str, Path] = "results") -> Path:
    """Write ``BENCH_<date>.json`` (one file per calendar day; a rerun
    the same day overwrites — the latest numbers win)."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / f"BENCH_{payload['date']}.json"
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path
