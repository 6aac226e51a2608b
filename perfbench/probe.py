"""Set-up probe: a fresh interpreter does one workload's set-up and
prints ``ready``; the benchmark times spawn to that line.

Usage: ``python3 perfbench/probe.py {grid,cell}``
"""

import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))


def main(kind: str) -> None:
    from repro.experiments import report_writer, runner  # noqa: F401
    from repro.experiments.executor import ExperimentExecutor
    from repro.sim.config import default_config

    default_config()
    if kind == "grid":
        ExperimentExecutor(jobs=os.cpu_count() or 1)
    print("ready", flush=True)


if __name__ == "__main__":
    main(sys.argv[1])
