"""Fault injection against a live sweep service: each test plants a
fault a long-running process meets in production and asserts the
service keeps serving."""

import asyncio
import dataclasses
import os
import signal

import pytest

from repro.experiments.executor import Cell
from repro.service import SweepClient, SweepService
from repro.sim.config import default_config

#: long enough that the worker is still simulating when it is killed
LONG_MISSES = 200_000
MISSES = 150


@pytest.fixture(scope="module")
def config():
    return dataclasses.replace(default_config(scale=0.25), cores=2)


async def _kill_worker_mid_cell(service: SweepService) -> None:
    """SIGKILL every pool worker once a cell is running on one."""
    while True:
        pool = service._pool
        if (pool is not None and service._pool_busy
                and getattr(pool, "_processes", None)):
            break
        await asyncio.sleep(0.01)
    await asyncio.sleep(0.2)
    for pid in list(pool._processes):
        os.kill(pid, signal.SIGKILL)


def test_killed_worker_fails_its_cell_and_the_pool_is_rebuilt(
        tmp_path, config):
    """A pool worker SIGKILLed mid-cell fails that cell only; a later
    sweep on the same service simulates on a fresh pool."""
    doomed = [Cell("silc", "mcf", config, misses_per_core=LONG_MISSES)]
    later = [Cell(s, "milc", config, misses_per_core=MISSES)
             for s in ("nonm", "silc")]

    async def go():
        async with SweepService(jobs=1, cache_dir=str(tmp_path),
                                telemetry_interval=0) as service:
            async with SweepClient("127.0.0.1", service.port) as client:
                killer = asyncio.ensure_future(
                    _kill_worker_mid_cell(service))
                first = await client.run(doomed, tenant="victim")
                await killer
                second = await client.run(later, tenant="next")
        return first, second

    first, second = asyncio.run(asyncio.wait_for(go(), timeout=300))
    assert first.status == "failed"
    assert set(first.errors) == {0}
    assert "BrokenProcessPool" in first.errors[0]
    assert second.ok, second.errors
    assert set(second.sources.values()) == {"simulated"}
    assert set(second.results) == {0, 1}
