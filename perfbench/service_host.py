"""Hosts a ``SweepService`` for the ``service`` workload.

Usage: ``python3 perfbench/service_host.py <cache-dir>``

Starts the service with 2 pool workers, telemetry off and no metrics
listener, prints ``ready <port>`` once it accepts connections, and
serves until a client sends ``shutdown``.
"""

import asyncio
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

WORKERS = 2


async def serve(cache_dir: str) -> None:
    from repro.service import SweepService

    service = SweepService(jobs=WORKERS, cache_dir=cache_dir,
                           telemetry_interval=0)
    await service.start()
    print("ready", service.port, flush=True)
    await service.run_until_shutdown()


if __name__ == "__main__":
    asyncio.run(serve(sys.argv[1]))
