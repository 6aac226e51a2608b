"""Outside-in span tracing for the per-layer ledger.

Spans are recorded around calls into each layer's public boundary by
patching those functions from the benchmark (nothing under ``src/`` is
changed).  A span carries its layer, its parent span and the id of the
cell it belongs to, and lives in compact arrays until its cell ends.
The cell's spans are then folded into per-layer totals:

    self time = span duration - time covered by its direct children

so every host second inside a traced region lands in exactly one layer.
Folding per cell bounds memory to one cell's spans; a parent span that
outlives the fold (the executor's ``run_cells`` around a cell) keeps the
folded child time in a carry table, so its own self time stays exact.

Callbacks that ``repro.sim.window`` recognises by ``__func__`` identity
(``BatchCore._issue_cols``/``_miss_done``, ``Channel._complete_fast``/
``_complete_turbo``, ``MemoryRequest.fast_done``/``op_done``) are never
wrapped: wrapping them would change which tier of the two-tier clock
runs.  Their time is the ``sim`` layer's self time.
"""

from __future__ import annotations

import functools
import json
import os
from array import array
from time import perf_counter
from typing import Callable, Dict, List, Optional, Tuple

#: ledger layers, in report order; ``pool_wait`` is the parent process
#: blocked on executor workers (part of ``experiments``, reported apart
#: so that ``experiments.self_s`` is work, not waiting).
LAYERS = ("workloads", "xmem", "cpu", "schemes", "dram", "sim",
          "experiments", "service")
BUCKETS = LAYERS + ("pool_wait",)
_ID = {name: i for i, name in enumerate(BUCKETS)}

#: the ``__func__`` identities ``repro.sim.window`` dispatches on.
UNWRAPPABLE = frozenset({"_issue_cols", "_miss_done", "_complete_fast",
                         "_complete_turbo", "fast_done", "op_done"})


class SpanRecorder:
    """In-memory span store with per-cell folding into layer totals."""

    def __init__(self) -> None:
        self.layer = array("b")
        self.parent = array("l")
        self.cell = array("l")
        self.t0 = array("d")
        self.t1 = array("d")
        self._stack: List[int] = [-1]
        self._carry: Dict[int, float] = {}
        self.cell_id = -1
        self.self_s = [0.0] * len(BUCKETS)
        self.calls = [0] * len(BUCKETS)
        #: (cell id, seconds) of every folded cell root span.
        self.cell_seconds: List[Tuple[int, float]] = []

    def open(self, bucket: int) -> int:
        index = len(self.t0)
        self.layer.append(bucket)
        self.parent.append(self._stack[-1])
        self.cell.append(self.cell_id)
        self.t1.append(0.0)
        self._stack.append(index)
        self.t0.append(perf_counter())
        return index

    def close(self, index: int) -> None:
        self.t1[index] = perf_counter()
        self._stack.pop()

    def fold(self, start: int = 0) -> None:
        """Fold the (closed) spans ``[start:]`` into the layer totals
        and drop them."""
        t0, t1, parent, layer = self.t0, self.t1, self.parent, self.layer
        end = len(t0)
        durations = [t1[i] - t0[i] for i in range(start, end)]
        child = [0.0] * (end - start)
        for k, i in enumerate(range(start, end)):
            p = parent[i]
            if p >= start:
                child[p - start] += durations[k]
            elif p >= 0:
                self._carry[p] = self._carry.get(p, 0.0) + durations[k]
        self_s, calls, carry = self.self_s, self.calls, self._carry
        for k, i in enumerate(range(start, end)):
            bucket = layer[i]
            self_s[bucket] += durations[k] - child[k] - carry.pop(i, 0.0)
            calls[bucket] += 1
        for arr in (self.layer, self.parent, self.cell, self.t0, self.t1):
            del arr[start:]

    def run_cell(self, cell_id: int, fn: Callable, *args, **kwargs):
        """Run ``fn`` as one cell: its spans carry ``cell_id`` and are
        folded when it returns."""
        start = len(self.t0)
        previous, self.cell_id = self.cell_id, cell_id
        began = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            self.cell_seconds.append((cell_id, perf_counter() - began))
            self.cell_id = previous
            self.fold(start)

    def totals(self) -> Dict:
        return {"self_s": dict(zip(BUCKETS, self.self_s)),
                "calls": dict(zip(BUCKETS, self.calls)),
                "cell_seconds": [s for _, s in self.cell_seconds]}

    def merge(self, totals: Dict) -> None:
        for name, value in totals["self_s"].items():
            self.self_s[_ID[name]] += value
        for name, value in totals["calls"].items():
            self.calls[_ID[name]] += value
        self.cell_seconds.extend((-1, s) for s in totals["cell_seconds"])


def _wrap_call(fn: Callable, rec: SpanRecorder, bucket: int) -> Callable:
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        index = rec.open(bucket)
        try:
            return fn(*args, **kwargs)
        finally:
            rec.close(index)
    return traced


def _wrap_gen(fn: Callable, rec: SpanRecorder, bucket: int) -> Callable:
    """Generator function: one span per item drawn."""
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        inner = fn(*args, **kwargs)

        def items():
            while True:
                index = rec.open(bucket)
                try:
                    item = next(inner)
                except StopIteration:
                    return
                finally:
                    rec.close(index)
                yield item
        return items()
    return traced


def _targets():
    """(layer, owner, attribute, kind) for every traced boundary."""
    from repro.cpu import controller, mshr, system
    from repro.cpu import batch as cpu_batch
    from repro.dram import device
    from repro.experiments import executor, report_writer, runner
    from repro.schemes.base import MemoryScheme
    from repro.service import client
    from repro.sim import engine, window
    from repro.workloads import model
    from repro.xmem import translation

    targets = [
        ("workloads", model.WorkloadModel, "miss_stream", "gen"),
        ("workloads", model.WorkloadModel, "miss_batches", "gen"),
        ("xmem", translation.PageTable, "translate", "call"),
        ("xmem", translation.FrameAllocator, "allocate", "call"),
        ("cpu", system.System, "__init__", "call"),
        ("cpu", system.System, "run", "call"),
        ("cpu", mshr.MSHRFile, "issue", "call"),
        ("cpu", mshr.MSHRFile, "release", "call"),
        ("dram", device.MemoryDevice, "access", "call"),
        ("dram", device.MemoryDevice, "access_fast", "call"),
        ("dram", device.MemoryDevice, "access_turbo", "call"),
        ("sim", engine.Engine, "run", "call"),
        ("sim", engine.Engine, "step", "call"),
        ("sim", window, "run_closed_form", "call"),
        ("experiments", runner, "run_one", "call"),
        ("experiments", report_writer, "write_experiments_report", "call"),
        ("experiments", executor.ExperimentExecutor, "run_cells", "call"),
        ("experiments", executor.ResultCache, "load", "call"),
        ("experiments", executor.ResultCache, "store", "call"),
        ("experiments", system.RunResult, "from_dict", "classmethod"),
        ("pool_wait", executor.ExperimentExecutor, "_dispatch", "gen"),
        # the client imported ``encode`` by name; decode is the json shim
        ("service", client, "encode", "call"),
    ]
    for cls in (controller.FlatMemoryController,
                cpu_batch.BatchFlatMemoryController):
        for name in ("handle_miss", "handle_request", "handle_writeback"):
            if name in vars(cls):
                targets.append(("cpu", cls, name, "call"))
    # every registered scheme class is a MemoryScheme subclass defined
    # in a module the runner imports
    scheme_classes, frontier = [], [MemoryScheme]
    while frontier:
        cls = frontier.pop()
        scheme_classes.append(cls)
        frontier.extend(cls.__subclasses__())
    for cls in sorted(scheme_classes, key=lambda c: c.__qualname__):
        for name in ("access", "access_fast", "writeback", "epoch"):
            if name in vars(cls):
                targets.append(("schemes", cls, name, "call"))
    for _layer, _owner, name, _kind in targets:
        if name in UNWRAPPABLE:
            raise AssertionError(f"{name} must stay unwrapped")
    return targets


class Tracer:
    """Installs span wrappers on every boundary; ``uninstall`` restores
    the originals exactly."""

    def __init__(self, spool_dir: Optional[str] = None) -> None:
        self.rec = SpanRecorder()
        #: where forked executor workers append their per-cell totals
        self.spool_dir = spool_dir
        self._saved: List[Tuple[object, str, object]] = []

    def install(self) -> None:
        rec = self.rec
        for layer, owner, name, kind in _targets():
            bucket = _ID[layer]
            original = vars(owner)[name]
            if kind == "classmethod":
                wrapped = classmethod(_wrap_call(original.__func__, rec, bucket))
            elif kind == "gen":
                wrapped = _wrap_gen(original, rec, bucket)
            else:
                wrapped = _wrap_call(original, rec, bucket)
            self._saved.append((owner, name, original))
            setattr(owner, name, wrapped)
        self._install_json_shim()
        self._install_worker_spool()

    def _install_json_shim(self) -> None:
        """The client decodes every wire message with
        ``protocol.json.loads``; give the protocol module a json whose
        ``loads`` is a ``service`` span (the encode side is the client's
        ``encode``, wrapped above)."""
        import types

        from repro.service import protocol

        shim = types.SimpleNamespace(
            loads=_wrap_call(json.loads, self.rec, _ID["service"]),
            dumps=json.dumps)
        self._saved.append((protocol, "json", protocol.json))
        protocol.json = shim

    def _install_worker_spool(self) -> None:
        """Executor workers are forked after this point, so they inherit
        the wrappers.  Each cell becomes a folded cell span in the
        worker, whose layer totals are appended to a spool file the
        parent merges (``collect_workers``)."""
        from repro.experiments import executor

        rec = self.rec
        original = executor._worker
        parent_pid = os.getpid()

        def _worker(payload):
            if os.getpid() == parent_pid:
                return rec.run_cell(payload[0], original, payload)
            before = rec.totals()
            rec.cell_seconds.clear()
            outcome = rec.run_cell(payload[0], original, payload)
            after = rec.totals()
            delta = {
                "self_s": {k: after["self_s"][k] - before["self_s"][k]
                           for k in BUCKETS},
                "calls": {k: after["calls"][k] - before["calls"][k]
                          for k in BUCKETS},
                "cell_seconds": after["cell_seconds"],
            }
            path = os.path.join(self.spool_dir, f"worker-{os.getpid()}.jsonl")
            with open(path, "a") as fh:
                fh.write(json.dumps(delta) + "\n")
            return outcome

        # the pool pickles the worker function by module and qualname
        _worker.__module__ = original.__module__
        _worker.__qualname__ = original.__qualname__
        self._saved.append((executor, "_worker", original))
        executor._worker = _worker

    def collect_workers(self) -> None:
        """Merge the spooled worker-cell totals into this recorder."""
        if not self.spool_dir or not os.path.isdir(self.spool_dir):
            return
        for name in sorted(os.listdir(self.spool_dir)):
            path = os.path.join(self.spool_dir, name)
            with open(path) as fh:
                for line in fh:
                    self.rec.merge(json.loads(line))
            os.remove(path)

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._saved):
            setattr(owner, name, original)
        self._saved.clear()
