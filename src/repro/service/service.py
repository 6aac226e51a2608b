"""The asyncio sweep service: many tenants, one executor core.

``SweepService`` listens on a localhost TCP port for newline-delimited
JSON requests (:mod:`repro.service.protocol`), shards simulated cells
across a ``ProcessPoolExecutor``, and streams per-cell completion
events back to each submitting connection as they land.

Layering::

    connection handler      one reader loop + one writer queue per client
        |
    job manager             submit/status/cancel, per-job Progress
        |
    single-flight table     key -> in-flight future; identical cells from
        |                   any tenant attach as waiters, execute ONCE
    ExecutorCore            memo + on-disk ResultCache shared with the CLI
        |
    worker process pool     execute_cell_payload — the same entry point
                            the one-shot executor's pool uses

Everything above the pool runs on the event loop, so the single-flight
table and all counters mutate without locks; disk I/O (cache load /
store) is pushed to a thread so a cold cache directory never stalls the
event stream.

Failure isolation: a cell whose worker raises rejects only its own
in-flight future.  The owning job (and any deduped waiter jobs) get a
``cell_error`` event for that cell and keep streaming their remaining
cells; other jobs never notice.  Failed keys are *not* memoised, so a
later resubmission retries them.
"""

from __future__ import annotations

import asyncio
import time
import traceback
from collections import Counter, deque
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Union

from repro.cpu.system import RunResult
from repro.experiments.executor import (
    Cell,
    ExecutorCore,
    execute_cell_payload,
)
from repro.obs import log as obslog
from repro.obs import metrics as obsmetrics
from repro.obs.trace import (
    FleetTraceJournal,
    execute_cell_payload_traced,
    new_span_id,
    new_trace_id,
)
from repro.service import jobs as jobstate
from repro.service.jobs import Job, JobManager
from repro.service.protocol import (
    MAX_LINE_BYTES,
    PROTOCOL_VERSION,
    ProtocolError,
    cells_from_submit,
    encode,
    read_message,
    validate_request,
)

#: default windowed-telemetry emission interval, seconds.
DEFAULT_TELEMETRY_INTERVAL = 1.0

#: cache-hit latency samples kept for the percentile snapshot.
LATENCY_SAMPLES = 4096

_log = obslog.get_logger("repro.service")


class ServiceMetrics:
    """The service's Prometheus registry.

    Counters mirror :class:`ServiceStats` (which stays the wire-level
    ``stats`` source of truth); gauges collect live from the service at
    scrape time.  The exposition's conservation law matches the stats
    one::

        repro_cells_completed_total summed over sources
            == sum of {cache, simulated, dedup}

    and ``repro_unique_simulations_total`` is the exactly-once witness.
    """

    def __init__(self, service: "SweepService") -> None:
        reg = obsmetrics.MetricsRegistry()
        self.registry = reg
        self.jobs = reg.counter(
            "repro_jobs_total",
            "Job lifecycle transitions by state "
            "(submitted/completed/failed/cancelled).",
            labelnames=("state",))
        self.cells_requested = reg.counter(
            "repro_cells_requested_total",
            "Cells received in submit requests.")
        self.cells_completed = reg.counter(
            "repro_cells_completed_total",
            "Successful cell events by source.",
            labelnames=("source",))
        self.cell_errors = reg.counter(
            "repro_cell_errors_total",
            "Cell events that failed on the worker pool "
            "(includes deduped waiters of a failed key).")
        self.protocol_errors = reg.counter(
            "repro_protocol_errors_total",
            "Client requests the service could not honour.",
            labelnames=("kind",))
        self.unique_simulations = reg.counter(
            "repro_unique_simulations_total",
            "Distinct keys executed on the worker pool — the "
            "exactly-once witness.")
        self.ndjson_bytes = reg.counter(
            "repro_ndjson_bytes_total",
            "NDJSON wire bytes by direction.",
            labelnames=("direction",))
        self.cache_hit_latency = reg.histogram(
            "repro_cache_hit_latency_seconds",
            "Cell intake to event emission for cache-served cells.")
        self.cells_per_second = reg.gauge(
            "repro_cells_per_second",
            "Completed cells per second over the last telemetry window.")
        reg.gauge(
            "repro_inflight_keys",
            "Single-flight keys currently executing (queue depth).",
        ).set_function(lambda: len(service._inflight))
        reg.gauge(
            "repro_active_jobs", "Jobs not yet in a terminal state.",
        ).set_function(lambda: service.manager.active)
        reg.gauge(
            "repro_connections", "Open client connections.",
        ).set_function(lambda: len(service._connections))
        reg.gauge(
            "repro_worker_pool_size", "Configured worker processes.",
        ).set_function(lambda: float(service.jobs))
        reg.gauge(
            "repro_worker_pool_busy",
            "Cells currently executing on the worker pool.",
        ).set_function(lambda: float(service._pool_busy))
        reg.gauge(
            "repro_worker_pool_utilization",
            "Busy workers over configured workers, 0..1.",
        ).set_function(
            lambda: service._pool_busy / service.jobs if service.jobs
            else 0.0)


def _percentile(samples: List[float], fraction: float) -> float:
    ordered = sorted(samples)
    index = min(len(ordered) - 1, int(fraction * len(ordered)))
    return ordered[index]


class CellExecutionError(RuntimeError):
    """A cell's worker raised; carries the formatted traceback."""


@dataclass
class ServiceStats:
    """Service-lifetime counters, all mutated on the event loop.

    The conservation law the load generator and CI smoke assert::

        cells_completed == source_cache + source_simulated + source_dedup

    and exactly-once execution::

        max(executions_by_key.values()) <= 1
    """

    started_at: float = field(default_factory=time.monotonic)
    cells_requested: int = 0
    cells_completed: int = 0
    cells_failed: int = 0
    #: successful cell events by source.
    source_cache: int = 0
    source_simulated: int = 0
    source_dedup: int = 0
    #: distinct keys actually executed on the worker pool (successes).
    unique_simulated: int = 0
    #: failed pool executions (by event, incl. deduped waiters).
    failed_keys: int = 0
    #: successful pool executions per key — the exactly-once witness.
    executions_by_key: Counter = field(default_factory=Counter)
    #: seconds from cell intake to event emission for cache-served cells.
    cache_hit_latencies: deque = field(
        default_factory=lambda: deque(maxlen=LATENCY_SAMPLES))

    def record_cache_hit(self, seconds: float) -> None:
        self.source_cache += 1
        self.cache_hit_latencies.append(seconds)

    @property
    def dedup_hit_rate(self) -> float:
        if not self.cells_completed:
            return 0.0
        return self.source_dedup / self.cells_completed

    @property
    def max_executions_per_key(self) -> int:
        return max(self.executions_by_key.values(), default=0)

    def latency_snapshot(self) -> Dict:
        samples = list(self.cache_hit_latencies)
        if not samples:
            return {"count": 0, "p50_ms": None, "p95_ms": None,
                    "max_ms": None}
        return {
            "count": len(samples),
            "p50_ms": round(_percentile(samples, 0.50) * 1e3, 3),
            "p95_ms": round(_percentile(samples, 0.95) * 1e3, 3),
            "max_ms": round(max(samples) * 1e3, 3),
        }

    def snapshot(self) -> Dict:
        return {
            "uptime_seconds": round(time.monotonic() - self.started_at, 3),
            "cells": {
                "requested": self.cells_requested,
                "completed": self.cells_completed,
                "failed": self.cells_failed,
                "by_source": {
                    "cache": self.source_cache,
                    "simulated": self.source_simulated,
                    "dedup": self.source_dedup,
                },
            },
            "unique_simulated": self.unique_simulated,
            "max_executions_per_key": self.max_executions_per_key,
            "dedup_hit_rate": round(self.dedup_hit_rate, 4),
            "cache_hit_latency": self.latency_snapshot(),
        }


class _Inflight:
    """Single-flight record for one executor key."""

    __slots__ = ("future", "owner_job", "waiters")

    def __init__(self, future: asyncio.Future, owner_job: str) -> None:
        self.future = future
        self.owner_job = owner_job
        self.waiters = 1


class _Connection:
    """One client: a writer queue drained by a dedicated task, so job
    fan-out, telemetry, and request responses never interleave bytes."""

    __slots__ = ("writer", "queue", "closed", "watching", "active_jobs",
                 "_drainer", "_on_bytes")
    _SENTINEL = object()

    def __init__(self, writer: asyncio.StreamWriter,
                 on_bytes=None) -> None:
        self.writer = writer
        self.queue: asyncio.Queue = asyncio.Queue()
        self.closed = False
        self.watching = False
        self.active_jobs = 0
        self._on_bytes = on_bytes
        self._drainer = asyncio.ensure_future(self._drain())

    def send(self, message: Dict) -> None:
        if not self.closed:
            data = encode(message)
            if self._on_bytes is not None:
                self._on_bytes(len(data))
            self.queue.put_nowait(data)

    async def _drain(self) -> None:
        while True:
            item = await self.queue.get()
            if item is self._SENTINEL:
                break
            if self.closed:
                continue
            try:
                self.writer.write(item)
                await self.writer.drain()
            except (ConnectionError, OSError):
                self.closed = True

    async def close(self) -> None:
        self.queue.put_nowait(self._SENTINEL)
        try:
            await self._drainer
        except asyncio.CancelledError:
            pass
        self.closed = True
        try:
            self.writer.close()
            await self.writer.wait_closed()
        except (ConnectionError, OSError):
            pass


class SweepService:
    """Long-running multi-tenant sweep backend over the executor core.

    Parameters
    ----------
    host, port:
        Listen address.  ``port=0`` picks an ephemeral port, available
        as :attr:`port` after :meth:`start`.
    jobs:
        Worker processes for simulated cells (default ``os.cpu_count()``).
    cache_dir:
        Shared on-disk result store (``None`` = memo only).  Point the
        service and the CLI at the same directory and they serve each
        other's results.
    force:
        Ignore pre-existing on-disk entries (work done by *this*
        service instance stays memoised either way).
    telemetry_interval:
        Seconds between windowed ``telemetry`` events (0 disables).
    metrics_port:
        Start an HTTP observability listener (``/metrics`` Prometheus
        exposition + ``/healthz``) on this port (0 = ephemeral, exposed
        as :attr:`metrics_http_port`; ``None`` disables).
    trace_dir:
        Write a fleet-trace journal plus per-cell worker span files
        under this directory; ``repro trace --service <dir>`` stitches
        them into one Perfetto trace (``None`` disables tracing).
    """

    def __init__(self, host: str = "127.0.0.1", port: int = 0,
                 jobs: Optional[int] = None,
                 cache_dir: Optional[str] = None,
                 force: bool = False,
                 telemetry_interval: float = DEFAULT_TELEMETRY_INTERVAL,
                 metrics_port: Optional[int] = None,
                 trace_dir: Optional[str] = None,
                 ) -> None:
        import os

        self.host = host
        self._requested_port = port
        self.jobs = jobs if jobs is not None else (os.cpu_count() or 1)
        if self.jobs < 1:
            raise ValueError("jobs must be >= 1")
        if telemetry_interval < 0:
            raise ValueError("telemetry_interval must be >= 0")
        self.core = ExecutorCore(cache_dir=cache_dir, force=force)
        self.manager = JobManager(on_transition=self._on_job_transition)
        self.stats = ServiceStats()
        self.telemetry_interval = telemetry_interval
        self.port: Optional[int] = None
        self._server: Optional[asyncio.AbstractServer] = None
        self._pool: Optional[ProcessPoolExecutor] = None
        self._pool_busy = 0
        self._inflight: Dict[str, _Inflight] = {}
        self._connections: Set[_Connection] = set()
        self._telemetry_task: Optional[asyncio.Task] = None
        self._telemetry_seq = 0
        self._last_window: Optional[Dict] = None
        self._shutdown = asyncio.Event()
        self.metrics = ServiceMetrics(self)
        self._metrics_port = metrics_port
        self.metrics_http_port: Optional[int] = None
        self._http = None
        self.journal: Optional[FleetTraceJournal] = (
            FleetTraceJournal(trace_dir) if trace_dir is not None else None)

    def _on_job_transition(self, job: Job, event: str) -> None:
        """Single choke point for job lifecycle metrics, logs, and the
        fleet-trace journal — fired by the :class:`JobManager`."""
        self.metrics.jobs.inc(state=event)
        log = _log.bind(tenant=job.tenant, job=job.id)
        if event == "submitted":
            log.info("job_created", cells=len(job.cells),
                     trace_id=job.trace_id)
            return
        log.info("job_finished", status=event,
                 completed=job.progress.completed,
                 failed=job.progress.failed)
        if self.journal is not None:
            self.journal.record(
                kind="job", job_id=job.id, tenant=job.tenant,
                trace_id=job.trace_id, span_id=job.span_id,
                parent_id=job.parent_id, status=event,
                cells=len(job.cells), t0=job.created_wall,
                t1=time.time())

    def _record_cache_hit(self, start: float) -> None:
        seconds = time.monotonic() - start
        self.stats.record_cache_hit(seconds)
        self.metrics.cache_hit_latency.observe(seconds)

    def _healthz(self) -> Dict:
        return {
            "ok": True,
            "port": self.port,
            "jobs": self.manager.counters(),
            "cells_completed": self.stats.cells_completed,
            "inflight": len(self._inflight),
            "connections": len(self._connections),
        }

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> None:
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self._requested_port,
            limit=MAX_LINE_BYTES)
        self.port = self._server.sockets[0].getsockname()[1]
        if self.telemetry_interval > 0:
            self._telemetry_task = asyncio.ensure_future(
                self._telemetry_loop())
        if self._metrics_port is not None:
            from repro.obs.http import ObsHTTPServer

            self._http = ObsHTTPServer(
                self.metrics.registry, healthz=self._healthz,
                host=self.host, port=self._metrics_port)
            await self._http.start()
            self.metrics_http_port = self._http.port
        _log.info("service_started", host=self.host, port=self.port,
                  workers=self.jobs,
                  metrics_port=self.metrics_http_port,
                  trace_dir=(str(self.journal.root)
                             if self.journal else None))

    async def stop(self) -> None:
        """Graceful stop: refuse new connections, cancel active jobs,
        tear down the pool."""
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        if self._telemetry_task is not None:
            self._telemetry_task.cancel()
            try:
                await self._telemetry_task
            except asyncio.CancelledError:
                pass
            self._telemetry_task = None
        job_tasks = [job.task for job in self.manager.jobs.values()
                     if job.task is not None and not job.task.done()]
        for job in list(self.manager.jobs.values()):
            self._cancel_job(job)
        # let the cancelled job tasks run their job_done emission
        if job_tasks:
            await asyncio.gather(*job_tasks, return_exceptions=True)
        for entry in list(self._inflight.values()):
            if not entry.future.done():
                entry.future.cancel()
        self._inflight.clear()
        for connection in list(self._connections):
            await connection.close()
        self._connections.clear()
        if self._http is not None:
            await self._http.stop()
            self._http = None
        if self._pool is not None:
            pool = self._pool
            self._pool = None
            await asyncio.to_thread(pool.shutdown, True)
        if self.journal is not None:
            self.journal.close()
        _log.info("service_stopped",
                  cells_completed=self.stats.cells_completed,
                  cells_failed=self.stats.cells_failed)

    async def __aenter__(self) -> "SweepService":
        await self.start()
        return self

    async def __aexit__(self, *_exc) -> None:
        await self.stop()

    async def run_until_shutdown(self) -> None:
        """Serve until a ``shutdown`` request (or cancellation)."""
        if self._server is None:
            await self.start()
        try:
            await self._shutdown.wait()
        finally:
            await self.stop()

    def _ensure_pool(self) -> ProcessPoolExecutor:
        if self._pool is None:
            self._pool = ProcessPoolExecutor(max_workers=self.jobs)
        return self._pool

    # ------------------------------------------------------------------
    # connection handling
    # ------------------------------------------------------------------
    async def _handle_connection(self, reader: asyncio.StreamReader,
                                 writer: asyncio.StreamWriter) -> None:
        connection = _Connection(
            writer,
            on_bytes=lambda n: self.metrics.ndjson_bytes.inc(
                n, direction="out"))
        self._connections.add(connection)
        peer = writer.get_extra_info("peername")
        _log.debug("connection_opened", peer=repr(peer))
        try:
            while True:
                try:
                    message = await read_message(
                        reader,
                        on_bytes=lambda n: self.metrics.ndjson_bytes.inc(
                            n, direction="in"))
                except ProtocolError as exc:
                    self.metrics.protocol_errors.inc(kind="malformed")
                    _log.warning("malformed_request", peer=repr(peer),
                                 error=str(exc))
                    connection.send({"type": "error", "message": str(exc)})
                    break
                if message is None:
                    break
                await self._handle_request(connection, message)
        finally:
            self._connections.discard(connection)
            await connection.close()
            _log.debug("connection_closed", peer=repr(peer))

    async def _handle_request(self, connection: _Connection,
                              message: Dict) -> None:
        req_id = message.get("req_id")

        def fail(text: str, kind: str = "rejected") -> None:
            self.metrics.protocol_errors.inc(kind=kind)
            _log.warning("request_rejected",
                         request=message.get("type"), reason=text)
            error: Dict = {"type": "error", "message": text}
            if req_id is not None:
                error["req_id"] = req_id
            connection.send(error)

        try:
            kind = validate_request(message)
        except ProtocolError as exc:
            fail(str(exc), kind="malformed")
            return

        if kind == "ping":
            connection.send({"type": "pong", "protocol": PROTOCOL_VERSION,
                             **({"req_id": req_id} if req_id else {})})
        elif kind == "watch":
            connection.watching = True
            connection.send({"type": "watching",
                             "interval_seconds": self.telemetry_interval})
        elif kind == "stats":
            payload = {"type": "stats", "protocol": PROTOCOL_VERSION,
                       "jobs": self.manager.counters(),
                       "inflight": len(self._inflight),
                       **self.stats.snapshot()}
            if req_id is not None:
                payload["req_id"] = req_id
            connection.send(payload)
        elif kind == "metrics":
            payload = {"type": "metrics",
                       "content_type": obsmetrics.CONTENT_TYPE,
                       "exposition": self.metrics.registry.render()}
            if req_id is not None:
                payload["req_id"] = req_id
            connection.send(payload)
        elif kind == "status":
            job = self.manager.get(message["job_id"])
            if job is None:
                fail(f"unknown job: {message['job_id']}")
            else:
                connection.send({"type": "job_status", **job.snapshot()})
        elif kind == "cancel":
            job = self.manager.get(message["job_id"])
            if job is None:
                fail(f"unknown job: {message['job_id']}")
            elif self._cancel_job(job):
                connection.send({"type": "cancelled", "job_id": job.id})
            else:
                fail(f"job already {job.status}: {job.id}")
        elif kind == "shutdown":
            connection.send({"type": "shutting_down"})
            self._shutdown.set()
        elif kind == "submit":
            try:
                cells = cells_from_submit(message)
            except ProtocolError as exc:
                fail(str(exc), kind="malformed")
                return
            trace = message.get("trace")
            job = self.manager.create(
                cells, message.get("tenant"),
                trace=trace if isinstance(trace, dict) else None)
            self.stats.cells_requested += len(cells)
            self.metrics.cells_requested.inc(len(cells))
            ack: Dict = {"type": "job", "job_id": job.id,
                         "cells": len(cells)}
            if req_id is not None:
                ack["req_id"] = req_id
            connection.send(ack)
            connection.active_jobs += 1
            job.status = jobstate.RUNNING
            job.task = asyncio.ensure_future(self._run_job(job, connection))

    # ------------------------------------------------------------------
    # job execution
    # ------------------------------------------------------------------
    async def _run_job(self, job: Job, connection: _Connection) -> None:
        cell_tasks = [
            asyncio.ensure_future(self._run_cell(job, connection, index))
            for index in range(len(job.cells))
        ]
        status = jobstate.COMPLETED
        try:
            await asyncio.gather(*cell_tasks)
            status = (jobstate.FAILED if job.progress.failed
                      else jobstate.COMPLETED)
        except asyncio.CancelledError:
            for task in cell_tasks:
                task.cancel()
            await asyncio.gather(*cell_tasks, return_exceptions=True)
            status = jobstate.CANCELLED
        except Exception:
            # defensive: _run_cell handles its own errors; anything that
            # escapes is a service bug, reported as a failed job rather
            # than a silently wedged one
            status = jobstate.FAILED
            connection.send({"type": "error", "job_id": job.id,
                             "message": traceback.format_exc()})
        finally:
            self.manager.finish(job, status)
            connection.active_jobs = max(0, connection.active_jobs - 1)
            connection.send({"type": "job_done", **job.snapshot()})

    async def _run_cell(self, job: Job, connection: _Connection,
                        index: int) -> None:
        if job.cancelled:
            return
        cell = job.cells[index]
        key = job.keys[index]
        start = time.monotonic()

        # memo fast path: results this service already holds in memory
        # are served synchronously — no pool, no disk, no future
        memoised = self.core.peek(key)
        if memoised is not None:
            self._record_cache_hit(start)
            self._deliver(job, connection, index, key, "cache",
                          memoised.to_dict(), start)
            return

        entry = self._inflight.get(key)
        if entry is None:
            entry = _Inflight(asyncio.get_running_loop().create_future(),
                              owner_job=job.id)
            self._inflight[key] = entry
            asyncio.ensure_future(self._execute_key(cell, key, entry))
            owner = True
        else:
            entry.waiters += 1
            owner = False

        try:
            # shield: cancelling one waiter's job must not cancel the
            # shared future other tenants are attached to
            source, result_dict = await asyncio.shield(entry.future)
        except asyncio.CancelledError:
            raise
        except Exception as exc:
            if job.cancelled:
                return
            job.progress.completed += 1
            job.progress.failed += 1
            self.stats.cells_failed += 1
            self.stats.failed_keys += 1
            self.metrics.cell_errors.inc()
            _log.error("cell_error", tenant=job.tenant, job=job.id,
                       index=index, key=key, error=str(exc)[:2000])
            self._journal_cell(job, index, key, "simulated", "error",
                               start)
            connection.send({"type": "cell_error", "job_id": job.id,
                            "index": index, "key": key,
                             "error": str(exc)})
            return

        if job.cancelled:
            return
        if owner:
            if source == "cache":
                self._record_cache_hit(start)
            else:
                self.stats.source_simulated += 1
        else:
            source = "dedup"
            self.stats.source_dedup += 1
        self._deliver(job, connection, index, key, source, result_dict,
                      start)

    def _journal_cell(self, job: Job, index: int, key: str, source: str,
                      status: str, start: float) -> None:
        """Append this cell's span to the fleet-trace journal.  Wall
        t0 is recovered from the monotonic intake stamp so the span
        covers intake-to-emission, not just pool time."""
        if self.journal is None:
            return
        t1 = time.time()
        t0 = t1 - (time.monotonic() - start)
        self.journal.record(
            kind="cell", job_id=job.id, tenant=job.tenant, index=index,
            key=key, source=source, status=status,
            trace_id=job.trace_id, parent_id=job.span_id,
            span_id=new_span_id(), t0=t0, t1=t1)

    def _deliver(self, job: Job, connection: _Connection, index: int,
                 key: str, source: str, result_dict: Dict,
                 start: float) -> None:
        job.progress.completed += 1
        if source == "simulated":
            job.progress.simulated += 1
        else:
            job.progress.cache_hits += 1
        self.stats.cells_completed += 1
        self.metrics.cells_completed.inc(source=source)
        self._journal_cell(job, index, key, source, "ok", start)
        connection.send({
            "type": "cell",
            "job_id": job.id,
            "index": index,
            "key": key,
            "source": source,
            "latency_ms": round((time.monotonic() - start) * 1e3, 3),
            "result": result_dict,
        })

    async def _execute_key(self, cell: Cell, key: str,
                           entry: _Inflight) -> None:
        """Single-flight owner: resolve the key once, for every waiter."""
        try:
            # the disk lookup rides a thread so a cold cache directory
            # (or slow filesystem) never blocks the event loop
            result = await asyncio.to_thread(self.core.lookup, key)
            if result is not None:
                outcome = ("cache", result.to_dict())
            else:
                pool = self._ensure_pool()
                loop = asyncio.get_running_loop()
                self._pool_busy += 1
                try:
                    if self.journal is not None:
                        owner = self.manager.get(entry.owner_job)
                        ctx = {
                            "key": key,
                            "trace_id": (owner.trace_id if owner
                                         else None),
                            "parent_id": (owner.span_id if owner
                                          else None),
                            "spans_dir": str(self.journal.spans_dir),
                        }
                        result_dict, error = await loop.run_in_executor(
                            pool, execute_cell_payload_traced, cell, ctx)
                    else:
                        result_dict, error = await loop.run_in_executor(
                            pool, execute_cell_payload, cell)
                except BrokenProcessPool:
                    # a worker died mid-cell (OOM kill, signal): this
                    # cell fails, and the next key builds a fresh pool
                    # (unless a concurrent failure already replaced it)
                    if self._pool is pool:
                        self._pool = None
                        pool.shutdown(wait=False)
                    raise
                finally:
                    self._pool_busy -= 1
                if error is not None:
                    _log.error("worker_failure", key=key,
                               error=error[:2000])
                    raise CellExecutionError(error)
                self.stats.unique_simulated += 1
                self.stats.executions_by_key[key] += 1
                self.metrics.unique_simulations.inc()
                result = RunResult.from_dict(result_dict)
                await asyncio.to_thread(self.core.remember, key, result,
                                        cell)
                outcome = ("simulated", result_dict)
            if not entry.future.done():
                entry.future.set_result(outcome)
        except CellExecutionError as exc:
            if not entry.future.done():
                entry.future.set_exception(exc)
        except asyncio.CancelledError:
            if not entry.future.done():
                entry.future.cancel()
            raise
        except Exception:
            if not entry.future.done():
                entry.future.set_exception(
                    CellExecutionError(traceback.format_exc()))
        finally:
            # published to memo (or failed): later requests must take
            # the memo path / retry path, not attach to a dead entry
            self._inflight.pop(key, None)

    # ------------------------------------------------------------------
    # cancel / telemetry
    # ------------------------------------------------------------------
    def _cancel_job(self, job: Job) -> bool:
        if job.status in jobstate.TERMINAL:
            return False
        job.cancelled = True
        if job.task is not None:
            job.task.cancel()
        else:
            self.manager.finish(job, jobstate.CANCELLED)
        return True

    async def _telemetry_loop(self) -> None:
        while True:
            await asyncio.sleep(self.telemetry_interval)
            self._emit_telemetry()

    def _emit_telemetry(self) -> None:
        totals = {
            "completed": self.stats.cells_completed,
            "failed": self.stats.cells_failed,
            "cache": self.stats.source_cache,
            "simulated": self.stats.source_simulated,
            "dedup": self.stats.source_dedup,
        }
        last = self._last_window or {key: 0 for key in totals}
        window = {key: totals[key] - last[key] for key in totals}
        self._last_window = totals
        self._telemetry_seq += 1
        self.metrics.cells_per_second.set(
            window["completed"] / self.telemetry_interval
            if self.telemetry_interval else 0.0)
        event = {
            "type": "telemetry",
            "seq": self._telemetry_seq,
            "interval_seconds": self.telemetry_interval,
            "window": {
                **window,
                "cells_per_second": round(
                    window["completed"] / self.telemetry_interval, 3)
                if self.telemetry_interval else 0.0,
            },
            "totals": totals,
            "inflight": len(self._inflight),
            "active_jobs": self.manager.active,
        }
        for connection in self._connections:
            if connection.watching or connection.active_jobs > 0:
                connection.send(event)
