"""The repository benchmark.

Usage (from the repository root)::

    python3 perfbench/run.py --workload {grid,cell,cell_batch,service} \\
        --seed N --seconds S --trace {0,1}

``--trace 0`` prints every end-to-end metric; ``--trace 1`` runs the
workload's unit untraced and traced and prints the per-layer ledger
(also written to ``perfbench/out/``).  Human-readable lines come first;
the last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  The program is imported
from ``src/`` of the checkout this file sits in; without it the
benchmark exits with status 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
OUT_DIR = Path(__file__).resolve().parent / "out"
WORKLOADS = ("grid", "cell", "cell_batch", "service")


def _peak_rss_mb() -> float:
    """Peak resident set of this process plus the largest of its waited
    children (pool workers, probes, the service host), in MiB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"benchmark: no program source under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    import workloads

    ctx = workloads.Context(ROOT, args.seed, args.seconds, OUT_DIR)
    trace = bool(args.trace)
    try:
        if args.workload == "grid":
            workloads.grid(ctx, trace)
        elif args.workload == "service":
            workloads.service(ctx, trace)
        else:
            workloads.cells(ctx, trace,
                            workloads.BATCH_WINDOW
                            if args.workload == "cell_batch" else 0)
    finally:
        ctx.cleanup()
    if not trace:
        ctx.metric("peak_rss_mb", _peak_rss_mb(), "MiB")

    failed = len(ctx.failures)
    attempted = max(ctx.attempted, 1)
    for note in ctx.notes:
        print(note)
    for message in ctx.failures:
        print(f"FAILED: {message}")
    for name, (value, unit) in ctx.metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    print(f"error_rate = {failed / attempted:.6g} "
          f"({failed} failed / {attempted} attempted)")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in ctx.metrics.items()},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
