"""The four benchmark workloads.

Each workload runs its unit of work repeatedly for ``--seconds`` and
reports medians; the seed reaches the program only as the simulation
seed of the cells it runs.  Every workload reports every end-to-end
metric (see README.md for the definition per workload):

* ``grid``       cold regeneration of the EXPERIMENTS.md grid,
* ``cell``       pinned cells on the scalar engine,
* ``cell_batch`` the same cells on the batch engine,
* ``service``    two tenants driving a ``SweepService``.

With ``--trace 1`` a workload instead runs its unit once untraced and
once traced and reports the per-layer ledger.
"""

from __future__ import annotations

import asyncio
import contextlib
import dataclasses
import gc
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
from pathlib import Path
from time import perf_counter
from typing import Callable, Dict, List, Optional, Tuple

import checks
import ledger
from tracing import Tracer

HERE = Path(__file__).resolve().parent

#: pinned cells: scheme-heavy, streaming, epoch-migration, no scheme work
PINNED = (("silc", "mcf"), ("pom", "lbm"), ("hma", "milc"), ("nonm", "mcf"))
#: long enough for the cells to pass warmup and reach steady state
CELL_MISSES = 1000
#: what ``--batch-window`` sets for the batch engine
BATCH_WINDOW = 256
#: the reduced fidelity of the grid regeneration (main grid and Fig. 9)
GRID_MISSES = 40
#: per-cell latency samples wanted for a p99 with ten samples beyond it
HOT_SAMPLES = 1000
#: fresh interpreters timed per run for ``setup_s``
SETUP_PROBES = 5
#: the service's cell pool and each tenant's sweeps (pool indices);
#: the tenants overlap, so single-flight dedup and memo hits both fire
SERVICE_POOL = tuple((scheme, workload) for workload in ("mcf", "lbm")
                     for scheme in ("nonm", "silc", "pom", "hma", "cam",
                                    "camp", "rand"))
SERVICE_MISSES = 200
TENANT_SWEEPS = {
    "tenant-a": ((0, 1, 2, 3), (4, 5, 6, 7), (8, 9, 10, 11)),
    "tenant-b": ((2, 3, 4, 5), (6, 7, 8, 9), (10, 11, 12, 13)),
}
#: hot passes over both tenants' sweeps per service hot burst: 42 x 24
#: cells gives each burst HOT_SAMPLES latency samples
HOT_PASSES = 42
HOT_BURSTS_PER_ROUND = 2


class Context:
    """One benchmark run: its arguments, checks and metrics."""

    def __init__(self, root: Path, seed: int, seconds: float,
                 out_dir: Path) -> None:
        self.root = root
        self.seed = seed
        self.seconds = seconds
        self.out_dir = out_dir
        self.tmp = out_dir / f"tmp-{os.getpid()}"
        self.tmp.mkdir(parents=True, exist_ok=True)
        self.attempted = 0
        self.failures: List[str] = []
        self.metrics: Dict[str, Tuple[float, str]] = {}
        self.notes: List[str] = []

    def check(self, attempted: int, failures: List[str]) -> None:
        self.attempted += attempted
        self.failures.extend(failures)

    def metric(self, name: str, value: float, unit: str) -> None:
        self.metrics[name] = (float(value), unit)

    def fresh_dir(self, name: str) -> Path:
        path = self.tmp / name
        shutil.rmtree(path, ignore_errors=True)
        path.mkdir(parents=True)
        return path

    def cleanup(self) -> None:
        shutil.rmtree(self.tmp, ignore_errors=True)


# ----------------------------------------------------------------------
# shared helpers
# ----------------------------------------------------------------------
def _spawn_ready(cmd: List[str]) -> Tuple[subprocess.Popen, str, float]:
    """Start ``cmd`` and wait for its ``ready`` line; returns the
    process, the line and the seconds from spawn to it."""
    began = perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    watchdog = threading.Timer(60.0, proc.kill)
    watchdog.start()
    try:
        line = proc.stdout.readline()
    finally:
        watchdog.cancel()
    seconds = perf_counter() - began
    if not line.startswith("ready"):
        proc.kill()
        proc.wait()
        raise RuntimeError(f"{cmd[1]} did not become ready")
    return proc, line, seconds


def probe_setup(ctx: Context, kind: str) -> None:
    """``setup_s``: median over fresh interpreters of imports plus the
    workload's set-up until ready."""
    times = []
    for _ in range(SETUP_PROBES):
        proc, _line, seconds = _spawn_ready(
            [sys.executable, str(HERE / "probe.py"), kind])
        proc.wait(timeout=60)
        times.append(seconds)
    ctx.metric("setup_s", statistics.median(times), "s")


def _percentile(samples: List[float], pct: int) -> float:
    return statistics.quantiles(samples, n=100, method="inclusive")[pct - 1]


class HotBursts:
    """The service's hot phase, in bursts of at least ``HOT_SAMPLES``
    per-cell latency samples, so each burst has its own p50 and a p99
    with ten samples beyond it.

    The first burst warms the hot path and is discarded.  On a shared
    2-vCPU virtual machine the hot path slowed by about 1.7x for seconds
    at a time, and a single stall moved a pooled p99 by 2x, so the
    summary is the best burst: the lowest burst p50, the lowest burst
    p99 and the highest rate."""

    def __init__(self) -> None:
        self.bursts: List[Tuple[float, float, float]] = []
        self.warm = False

    def add(self, samples: List[float], seconds: float) -> None:
        if not self.warm:
            self.warm = True
            return
        self.bursts.append((statistics.median(samples),
                            _percentile(samples, 99),
                            len(samples) / seconds))

    def summary(self) -> Dict[str, float]:
        bursts = self.bursts
        return {"hot_cells_per_s": max(b[2] for b in bursts),
                "hot_latency_p50_ms": min(b[0] for b in bursts) * 1e3,
                "hot_latency_p99_ms": min(b[1] for b in bursts) * 1e3}


@contextlib.contextmanager
def _frozen_heap():
    """Move everything the benchmark has allocated so far out of the
    cyclic collector's reach while a hot phase runs, so its collection
    pauses do not depend on how much the cold phases left behind."""
    gc.collect()
    gc.freeze()
    try:
        yield
    finally:
        gc.unfreeze()


def _accesses(cells: int, misses: int, config) -> int:
    return cells * misses * config.cores


def _write_ledger(ctx: Context, workload: str, metrics: Dict[str, float],
                  traced: float, untraced: float, accesses: int,
                  cell_stats: Optional[Dict] = None) -> None:
    for name, value in metrics.items():
        unit = ("1/s" if name.endswith("_per_s")
                else "s" if name.endswith("_s")
                else "ms" if name.endswith("_ms")
                else "count" if ("calls" in name or name.endswith("_cells"))
                else "fraction")
        ctx.metric(name, value, unit)
    stem = ctx.out_dir / f"ledger-{workload}-seed{ctx.seed}"
    stem.with_suffix(".md").write_text(ledger.render(
        workload, ctx.seed, metrics, traced, untraced, accesses, cell_stats))
    stem.with_suffix(".json").write_text(json.dumps({
        "workload": workload, "seed": ctx.seed, "traced_wall_s": traced,
        "untraced_wall_s": untraced, "accesses": accesses,
        "metrics": metrics, "cell_stats": cell_stats}, indent=2,
        sort_keys=True) + "\n")
    ctx.notes.append(f"ledger: {stem.with_suffix('.md')}")


# ----------------------------------------------------------------------
# grid
# ----------------------------------------------------------------------
def grid(ctx: Context, trace: bool) -> None:
    from repro.experiments import report_writer
    from repro.experiments.executor import ExecutorError, ExperimentExecutor
    from repro.experiments.runner import SuiteRunner
    from repro.sim.config import default_config

    config = dataclasses.replace(default_config(), seed=ctx.seed)
    jobs = os.cpu_count() or 1

    def regen(cache_dir: Path):
        """One cold regeneration into ``cache_dir``; every cell the
        executor completes counts as attempted."""
        completed = [0]

        def on_progress(_progress) -> None:
            completed[0] += 1

        executor = ExperimentExecutor(jobs=jobs, cache_dir=str(cache_dir),
                                      on_progress=on_progress)
        try:
            text = report_writer.write_experiments_report(
                ctx.tmp / "EXPERIMENTS.md", config=config, executor=executor,
                misses_per_core=GRID_MISSES, fig9_misses=GRID_MISSES)
        except ExecutorError as exc:
            text = None
            ctx.check(0, [f"grid: {exc}"])
        ctx.check(completed[0], [
            f"grid cell {f.cell.scheme_key}/{f.cell.workload_name} failed"
            for f in executor.failures])
        return executor, text

    if trace:
        began = perf_counter()
        executor, reference = regen(ctx.fresh_dir("cold-untraced"))
        untraced = perf_counter() - began
        cells = len(executor.cache)
        tracer = Tracer(spool_dir=str(ctx.fresh_dir("spool")))
        tracer.install()
        try:
            began = perf_counter()
            _executor, text = regen(ctx.fresh_dir("cold-traced"))
            traced = perf_counter() - began
        finally:
            tracer.uninstall()
        tracer.collect_workers()
        tracer.rec.fold()
        ctx.check(1, [] if text == reference else
                  ["grid: traced report differs from untraced"])
        accesses = _accesses(cells, GRID_MISSES, config)
        metrics = ledger.ledger_metrics(tracer.rec.totals(), traced,
                                        untraced, accesses, jobs=jobs)
        _write_ledger(ctx, "grid", metrics, traced, untraced, accesses)
        return

    deadline = perf_counter() + ctx.seconds
    walls: List[float] = []
    reference = None
    while True:
        cache = ctx.fresh_dir("cold")
        gc.collect()
        began = perf_counter()
        executor, text = regen(cache)
        walls.append(perf_counter() - began)
        if reference is None:
            reference, cells = text, len(executor.cache)
            paper = checks.paper_reference(
                SuiteRunner(config, GRID_MISSES, executor=executor))
        else:
            ctx.check(1, [] if text == reference else
                      ["grid: cold regenerations disagree"])
        if perf_counter() + walls[-1] > deadline:
            break

    wall = statistics.median(walls)
    ctx.metric("wall_s", wall, "s")
    ctx.metric("cells_per_s", cells / wall, "1/s")
    ctx.metric("accesses_per_s",
               _accesses(cells, GRID_MISSES, config) / wall, "1/s")
    ctx.notes.append(f"grid: {len(walls)} cold regenerations of {cells} "
                     f"cells at {GRID_MISSES} misses/core, jobs={jobs}")
    ctx.notes.append("paper reference (the scaled model agrees with the "
                     "paper in shape only):")
    for name, row in paper.items():
        ctx.notes.append(f"  {name}: model {row['model']:.3f}, paper "
                         f"{row['paper']:.2f}, error {row['error']:+.3f}")
    probe_setup(ctx, "grid")


# ----------------------------------------------------------------------
# cell / cell_batch
# ----------------------------------------------------------------------
def _pinned_configs(ctx: Context, batch_window: int):
    from repro.sim.config import default_config

    config = dataclasses.replace(default_config(), seed=ctx.seed,
                                 batch_window=batch_window)
    other = dataclasses.replace(
        config, batch_window=0 if batch_window else BATCH_WINDOW)
    return config, other


def _run_pass(config, run: Callable = None) -> Tuple[List[str], List[float]]:
    """One serial pass over the pinned cells: canonical results and
    per-cell host seconds."""
    from repro.experiments import runner

    results, seconds = [], []
    for index, (scheme, workload) in enumerate(PINNED):
        gc.collect()
        began = perf_counter()
        if run is None:
            result = runner.run_one(scheme, workload, config,
                                    misses_per_core=CELL_MISSES)
        else:
            result = run(index, runner.run_one, scheme, workload, config,
                         misses_per_core=CELL_MISSES)
        seconds.append(perf_counter() - began)
        results.append(checks.canonical(result))
    return results, seconds


def cells(ctx: Context, trace: bool, batch_window: int) -> None:
    name = "cell_batch" if batch_window else "cell"
    config, other = _pinned_configs(ctx, batch_window)
    accesses = _accesses(len(PINNED), CELL_MISSES, config)
    labels = [f"{s}/{w}" for s, w in PINNED]

    if trace:
        with checks.SystemCapture() as capture:
            reference, seconds = _run_pass(config)
        untraced = sum(seconds)
        tracer = Tracer()
        tracer.install()
        try:
            results, seconds = _run_pass(config, tracer.rec.run_cell)
        finally:
            tracer.uninstall()
        tracer.rec.fold()
        traced = sum(seconds)
        ctx.check(len(PINNED), checks.compare_runs(
            f"{name} traced vs untraced", reference, results))
        metrics = ledger.ledger_metrics(tracer.rec.totals(), traced,
                                        untraced, accesses)
        _write_ledger(ctx, name, metrics, traced, untraced, accesses,
                      dict(zip(labels, capture.stats)))
        return

    ctx.check(*checks.golden_replay(ctx.root, batch_window))

    deadline = perf_counter() + ctx.seconds
    times: List[List[float]] = [[] for _ in PINNED]
    reference = None
    while True:
        began = perf_counter()
        if reference is None:
            with checks.SystemCapture() as capture:
                reference, seconds = _run_pass(config)
            stats = capture.stats
        else:
            results, seconds = _run_pass(config)
            ctx.check(len(PINNED), checks.compare_runs(
                f"{name} pass vs first pass", reference, results))
        for column, value in zip(times, seconds):
            column.append(value)
        if perf_counter() + (perf_counter() - began) > deadline:
            break

    # the same cells on the other engine: identical canonical results
    # and identical simulated statistics
    with checks.SystemCapture() as capture:
        twins, _seconds = _run_pass(other)
    ctx.check(len(PINNED), checks.compare_runs(
        "scalar vs batch", reference, twins))
    ctx.check(len(PINNED), [f"{label}: simulated stats differ across engines"
                            for label, a, b in zip(labels, stats, capture.stats)
                            if a != b])

    wall = sum(statistics.median(column) for column in times)
    ctx.metric("wall_s", wall, "s")
    ctx.metric("cells_per_s", len(PINNED) / wall, "1/s")
    ctx.metric("accesses_per_s", accesses / wall, "1/s")
    ctx.notes.append(f"{name}: {len(times[0])} passes over "
                     f"{', '.join(labels)} at {CELL_MISSES} misses/core")
    for label, column in zip(labels, times):
        ctx.notes.append(f"  {label} seconds: "
                         + " ".join(f"{t:.4f}" for t in column))
    for label, row in zip(labels, stats):
        ctx.notes.append(f"  {label}: " + ", ".join(
            f"{k}={v:.6g}" for k, v in row.items()))
    probe_setup(ctx, "cell")


# ----------------------------------------------------------------------
# service
# ----------------------------------------------------------------------
class _ServiceDriver:
    """The client process: two tenants, one NDJSON connection each,
    closed loop (a tenant submits its next sweep only when the previous
    one completes)."""

    def __init__(self, port: int, config) -> None:
        self.port = port
        self.config = config

    def pool(self, round_no: int, seed: int):
        from repro.experiments.executor import Cell

        # a fresh cell seed per round gives fresh keys: every round's
        # cold phase simulates
        return [Cell(scheme, workload, self.config,
                     misses_per_core=SERVICE_MISSES,
                     seed=seed * 1000 + round_no)
                for scheme, workload in SERVICE_POOL]

    async def _tenant(self, client, tenant: str, pool, passes: int,
                      samples: List[float], results: Dict[str, str],
                      errors: List[str]) -> None:
        for _ in range(passes):
            for sweep in TENANT_SWEEPS[tenant]:
                cells = [pool[i] for i in sweep]
                arrivals: Dict[int, float] = {}

                def on_event(message, arrivals=arrivals) -> None:
                    if message["type"] == "cell":
                        arrivals[message["index"]] = perf_counter()

                began = perf_counter()
                outcome = await client.run(cells, tenant=tenant,
                                           on_event=on_event)
                if not outcome.ok or len(outcome.results) != len(cells):
                    errors.append(f"{tenant}: sweep {sweep} {outcome.status}")
                for index, cell in enumerate(cells):
                    if index not in outcome.results:
                        continue
                    samples.append(arrivals[index] - began)
                    text = json.dumps(outcome.results[index], sort_keys=True)
                    key = cell.key()
                    if results.setdefault(key, text) != text:
                        errors.append(f"{tenant}: result of {key[:12]} changed")

    async def phase(self, pool, passes: int, results: Dict[str, str]):
        """Both tenants run their sweeps ``passes`` times; returns the
        per-cell latency samples, the errors and the ``stats`` verb's
        snapshot afterwards."""
        from repro.service import SweepClient

        samples: List[float] = []
        errors: List[str] = []
        clients = [await SweepClient("127.0.0.1", self.port).connect()
                   for _ in TENANT_SWEEPS]
        try:
            await asyncio.gather(*(
                self._tenant(client, tenant, pool, passes, samples, results,
                             errors)
                for client, tenant in zip(clients, TENANT_SWEEPS)))
            stats = await clients[0].stats()
        finally:
            for client in clients:
                await client.close()
        return samples, errors, stats


def _delivered(passes: int) -> int:
    return passes * sum(len(s) for sweeps in TENANT_SWEEPS.values()
                        for s in sweeps)


def _stats_checks(ctx: Context, stats: Dict, label: str) -> None:
    cells = stats["cells"]
    by_source = cells["by_source"]
    ctx.check(2, [m for ok, m in (
        (cells["completed"] == sum(by_source.values()),
         f"{label}: conservation broken {cells}"),
        (stats["max_executions_per_key"] <= 1,
         f"{label}: a key simulated {stats['max_executions_per_key']} times"),
    ) if not ok])


def service(ctx: Context, trace: bool) -> None:
    from repro.sim.config import default_config

    config = default_config()
    cache_dir = ctx.fresh_dir("service-cache")
    cmd = [sys.executable, str(HERE / "service_host.py"), str(cache_dir)]
    setups = []
    for _ in range(0 if trace else SETUP_PROBES - 1):
        proc, line, seconds = _spawn_ready(cmd)
        setups.append(seconds)
        _shutdown(int(line.split()[1]), proc)
    proc, line, seconds = _spawn_ready(cmd)
    setups.append(seconds)
    port = int(line.split()[1])
    driver = _ServiceDriver(port, config)
    unique = len(SERVICE_POOL)
    previous = {"unique_simulated": 0, "cells": {"by_source": {
        "cache": 0, "simulated": 0, "dedup": 0}}}

    def round_trip(round_no: int):
        """One cold phase and its hot bursts; returns the cold seconds,
        the bursts' (latency samples, seconds), the cold phase's cell
        sources and the last stats snapshot."""
        nonlocal previous
        pool = driver.pool(round_no, ctx.seed)
        results: Dict[str, str] = {}
        gc.collect()
        began = perf_counter()
        _samples, errors, cold = asyncio.run(driver.phase(pool, 1, results))
        cold_s = perf_counter() - began
        ctx.check(_delivered(1), errors)
        _stats_checks(ctx, cold, "cold")
        ctx.check(1, [] if cold["unique_simulated"]
                  - previous["unique_simulated"] == unique else
                  [f"cold: simulated {cold['unique_simulated']} keys"])
        bursts = []
        with _frozen_heap():
            for _ in range(HOT_BURSTS_PER_ROUND):
                began = perf_counter()
                samples, errors, hot = asyncio.run(
                    driver.phase(pool, HOT_PASSES, results))
                bursts.append((samples, perf_counter() - began))
                ctx.check(_delivered(HOT_PASSES), errors)
                _stats_checks(ctx, hot, "hot")
                ctx.check(1, [] if hot["unique_simulated"]
                          == cold["unique_simulated"] else
                          ["hot: the hot phase simulated cells"])
        sources = {k: cold["cells"]["by_source"][k]
                   - previous["cells"]["by_source"][k]
                   for k in ("simulated", "dedup")}
        sources["cache"] = (hot["cells"]["by_source"]["cache"]
                            - previous["cells"]["by_source"]["cache"])
        previous = hot
        return cold_s, bursts, sources, hot

    hot = HotBursts()
    try:
        if trace:
            cold_s, bursts, _sources, _stats = round_trip(0)
            untraced = cold_s + sum(seconds for _, seconds in bursts)
            for samples, seconds in bursts:
                hot.add(samples, seconds)
            tracer = Tracer()
            tracer.install()
            try:
                cold_s, bursts, sources, stats = round_trip(1)
            finally:
                tracer.uninstall()
            tracer.rec.fold()
            traced = cold_s + sum(seconds for _, seconds in bursts)
            accesses = _accesses(unique, SERVICE_MISSES, config)
            metrics = ledger.ledger_metrics(
                tracer.rec.totals(), traced, untraced, accesses,
                service={
                    "cache_hit_p50_ms":
                        stats["cache_hit_latency"]["p50_ms"] or 0.0,
                    "simulated_cells": sources["simulated"],
                    "dedup_cells": sources["dedup"],
                    "cache_cells": sources["cache"],
                    **hot.summary(),
                })
            _write_ledger(ctx, "service", metrics, traced, untraced, accesses)
            return

        deadline = perf_counter() + ctx.seconds
        colds: List[float] = []
        round_no = 0
        while True:
            began = perf_counter()
            cold_s, bursts, _sources, _stats = round_trip(round_no)
            round_no += 1
            colds.append(cold_s)
            for samples, seconds in bursts:
                hot.add(samples, seconds)
            if perf_counter() + (perf_counter() - began) > deadline:
                break
    finally:
        _shutdown(port, proc)

    cold = statistics.median(colds)
    ctx.metric("wall_s", cold, "s")
    ctx.metric("cells_per_s", _delivered(1) / cold, "1/s")
    ctx.metric("accesses_per_s",
               _accesses(unique, SERVICE_MISSES, config) / cold, "1/s")
    ctx.metric("setup_s", statistics.median(setups), "s")
    ctx.notes.append("hot path (best of %d bursts; per-layer metrics of "
                     "the traced run, not end-to-end metrics): "
                     % len(hot.bursts) + ", ".join(
                         f"{k} = {v:.6g}" for k, v in hot.summary().items()))
    ctx.notes.append(f"service: {round_no} rounds of {_delivered(1)} cold "
                     f"cells ({unique} unique) + {HOT_BURSTS_PER_ROUND} x "
                     f"{_delivered(HOT_PASSES)} hot cells, 2 workers, "
                     "2 connections, closed loop")


def _shutdown(port: int, proc: subprocess.Popen) -> None:
    """Ask the service to stop; kill it if it does not exit."""
    from repro.service import ServiceError, SweepClient

    async def ask() -> None:
        async with SweepClient("127.0.0.1", port) as client:
            await client.shutdown()

    try:
        asyncio.run(ask())
    except (OSError, ServiceError):
        pass
    try:
        proc.wait(timeout=30)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
