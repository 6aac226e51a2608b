"""Static placement schemes: no hardware migration.

* :class:`StaticScheme` — data stays at its allocated physical frame
  forever.  Combined with a ``fm_only`` frame allocator it is the
  paper's **baseline** (system without die-stacked DRAM); with a
  ``random`` allocator it is the **Random** comparison scheme; with
  ``nm_first`` it is a greedy static placement.

The interesting behaviour lives entirely in the OS frame-allocation
policy (:class:`repro.xmem.translation.FrameAllocator`); the scheme
itself is the identity mapping, which also makes it the reference point
for the part-of-memory bijection tests.
"""

from __future__ import annotations

from typing import Tuple

from repro.schemes.base import AccessPlan, Level, MemoryScheme
from repro.xmem.address import AddressSpace


class StaticScheme(MemoryScheme):
    """Identity mapping: the flat address *is* the storage location."""

    name = "static"
    SPAN_ROWS = ("static",)

    def __init__(self, space: AddressSpace) -> None:
        super().__init__(space)

    def access(self, paddr: int, is_write: bool, pc: int = 0) -> AccessPlan:
        self.on_memory_access()
        level, offset = self.locate(paddr)
        aligned = offset - offset % 64
        plan = AccessPlan.single(
            level, self._op(level, aligned, is_write), "static")
        self.record_plan(plan)
        return plan

    def access_fast(self, paddr: int, is_write: bool, pc: int = 0):
        """Single-op fast shape: every static access is one 64 B op
        with no background traffic, so the whole of :meth:`access`
        (locate + record_plan) inlines here."""
        stats = self.stats
        stats.misses += 1
        space = self.space
        if space.is_nm(paddr):
            stats.nm_serviced += 1
            offset = space.nm_offset(paddr)
            return (True, offset - offset % 64, 64, is_write)
        stats.fm_serviced += 1
        offset = space.fm_offset(paddr)
        return (False, offset - offset % 64, 64, is_write)

    def locate(self, paddr: int) -> Tuple[Level, int]:
        if self.space.is_nm(paddr):
            return Level.NM, self.space.nm_offset(paddr)
        return Level.FM, self.space.fm_offset(paddr)

    def attach_telemetry(self, hub) -> None:
        """Static placement moves nothing, so beyond the base signals
        only the placement split itself is interesting: the NM service
        share of a static scheme is purely the OS frame allocator's
        doing (``fm_only`` pins it at 0, ``random`` at ~NM/total)."""
        super().attach_telemetry(hub)
        hub.gauge("static.nm_service_share",
                  lambda: (self.stats.nm_serviced / self.stats.misses
                           if self.stats.misses else 0.0))

    def check_invariants(self) -> None:
        """The identity mapping carries no mutable metadata; verify the
        address-space split itself is coherent (the oracle's shadow
        covers the rest)."""
        self._invariant(self.space.nm_bytes + self.space.fm_bytes
                        == self.space.total_bytes,
                        "NM+FM regions do not tile the flat space")
        self._invariant(self.locate(0) == (Level.NM, 0),
                        "flat address 0 must be NM-resident, offset 0")
        first_fm = self.space.nm_bytes
        self._invariant(self.locate(first_fm) == (Level.FM, 0),
                        "first FM address must map to FM offset 0")

    def _op(self, level: Level, offset: int, is_write: bool):
        if level is Level.NM:
            return self._nm_data_op(offset, is_write=is_write)
        return self._fm_data_op(offset, is_write=is_write)
