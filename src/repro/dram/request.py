"""Request objects exchanged with the DRAM substrate."""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import IntEnum
from typing import Callable, Optional

from repro.dram.mapping import DRAMCoordinates


class Priority(IntEnum):
    """Scheduling class.  Demand requests (LLC misses on the critical
    path) beat background traffic (swaps, migrations, writebacks)."""

    DEMAND = 0
    BACKGROUND = 1


@dataclass(slots=True)
class DRAMRequest:
    """One channel-level transfer (at most one interleave unit, 64 B)."""

    addr: int
    size: int
    is_write: bool
    priority: Priority
    arrival: float
    coords: DRAMCoordinates
    on_complete: Optional[Callable[[float], None]] = None
    #: span of the sampled memory request this transfer serves (see
    #: :mod:`repro.telemetry.spans`); None on unsampled traffic, so the
    #: channel's attribution hook is one ``is None`` check.
    span: Optional[object] = None
    completed_at: float = field(default=-1.0)

    @property
    def done(self) -> bool:
        return self.completed_at >= 0.0
