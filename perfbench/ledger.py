"""The per-layer ledger: metrics and report from one traced run.

For each layer the ledger gives its self time, its share of the traced
run's busy time and its calls per simulated access, plus the tracing
overhead (traced minus untraced wall time of the same unit of work).
``calls_per_access`` counts calls at the layer's public boundaries; it
is deterministic and repeats exactly for a given seed.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, List, Optional

from tracing import LAYERS

PREDICTIONS = Path(__file__).resolve().parent / "predictions.json"


def ledger_metrics(totals: Dict, traced_wall: float, untraced_wall: float,
                   accesses: int, jobs: Optional[int] = None,
                   service: Optional[Dict] = None) -> Dict[str, float]:
    """Per-layer metrics from folded recorder ``totals``.

    Shares divide by the busy seconds of the traced unit: the bench
    process's wall time plus, for the pooled ``grid``, the seconds the
    executor's workers spent in cells (``jobs`` set)."""
    self_s, calls = totals["self_s"], totals["calls"]
    worker_busy = sum(totals["cell_seconds"]) if jobs else 0.0
    busy = traced_wall + worker_busy
    metrics: Dict[str, float] = {}
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = self_s[layer]
        metrics[f"{layer}.share"] = self_s[layer] / busy
        metrics[f"{layer}.calls_per_access"] = calls[layer] / accesses
    metrics["experiments.pool_wait_s"] = self_s["pool_wait"]
    metrics["experiments.pool_idle_share"] = (
        1.0 - worker_busy / (jobs * traced_wall) if jobs else 0.0)
    metrics["tracing_overhead_s"] = traced_wall - untraced_wall
    metrics["traced_busy_s"] = busy
    service = service or {}
    metrics["service.transport_s"] = (
        traced_wall - sum(self_s.values()) if service else 0.0)
    for name in ("cache_hit_p50_ms", "simulated_cells", "dedup_cells",
                 "cache_cells", "hot_cells_per_s", "hot_latency_p50_ms",
                 "hot_latency_p99_ms"):
        metrics[f"service.{name}"] = float(service.get(name, 0.0))
    return metrics


def render(workload: str, seed: int, metrics: Dict[str, float],
           traced_wall: float, untraced_wall: float, accesses: int,
           cell_stats: Optional[Dict[str, Dict[str, float]]] = None) -> str:
    """Markdown ledger for one workload, with the predictions each
    layer metric is expected to satisfy."""
    predictions = json.loads(PREDICTIONS.read_text())["layers"]
    lines: List[str] = [
        f"# Ledger: `{workload}` (seed {seed})", "",
        f"Untraced wall {untraced_wall:.3f} s, traced wall "
        f"{traced_wall:.3f} s, tracing overhead "
        f"{metrics['tracing_overhead_s']:.3f} s; "
        f"{accesses} simulated accesses.", "",
        "| layer | self s | share | calls/access | should move |",
        "|---|---|---|---|---|",
    ]
    for layer in LAYERS:
        lines.append(
            f"| {layer} | {metrics[f'{layer}.self_s']:.4f} | "
            f"{metrics[f'{layer}.share']:.1%} | "
            f"{metrics[f'{layer}.calls_per_access']:.4f} | "
            f"{predictions[layer]['moves']} |")
    busy = metrics["traced_busy_s"]
    pool_wait = metrics["experiments.pool_wait_s"]
    unattributed = busy - pool_wait - sum(
        metrics[f"{layer}.self_s"] for layer in LAYERS)
    lines += [
        f"| (pool wait) | {pool_wait:.4f} | {pool_wait / busy:.1%} | | "
        "the bench process blocked on executor workers |",
        f"| (unattributed) | {unattributed:.4f} | {unattributed / busy:.1%} "
        "| | outside every span: benchmark glue and span folding; on "
        "service, the client waiting on the socket |",
        "",
        f"Busy time {busy:.3f} s (bench process wall plus executor worker "
        f"cell time); pool idle share "
        f"{metrics['experiments.pool_idle_share']:.1%}.",
    ]
    if metrics["service.transport_s"]:
        lines.append(
            f"Service (client side): transport {metrics['service.transport_s']:.3f} s; "
            f"server cache-hit p50 {metrics['service.cache_hit_p50_ms']:.3f} ms; "
            f"cells simulated {metrics['service.simulated_cells']:.0f}, "
            f"dedup {metrics['service.dedup_cells']:.0f}, "
            f"cache {metrics['service.cache_cells']:.0f}.  Untraced hot "
            f"path: {metrics['service.hot_cells_per_s']:.0f} cells/s, p50 "
            f"{metrics['service.hot_latency_p50_ms']:.3f} ms, p99 "
            f"{metrics['service.hot_latency_p99_ms']:.3f} ms.")
    if cell_stats:
        names = list(next(iter(cell_stats.values())))
        lines += ["", "Simulated statistics (identical across runs and "
                  "engines):", "",
                  "| cell | " + " | ".join(names) + " |",
                  "|---" * (len(names) + 1) + "|"]
        for cell, stats in cell_stats.items():
            lines.append(f"| {cell} | "
                         + " | ".join(f"{stats[n]:.6g}" for n in names) + " |")
    return "\n".join(lines) + "\n"
