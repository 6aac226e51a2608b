"""A complete memory device: channels + address interleaving.

Accesses larger than one interleave unit (64 B) are split into chunks
that land on successive channels; the completion callback fires when the
last chunk finishes.  This is how a 2 KB PoM migration naturally spreads
over (and saturates) all channels.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.dram.channel import Channel, ChannelStats
from repro.dram.mapping import CHANNEL_INTERLEAVE_BYTES, DRAMCoordinates
from repro.dram.request import DRAMRequest, Priority
from repro.dram.timing import DRAMTimings
from repro.sim.engine import Engine


class MemoryDevice:
    """One of the flat memory's two levels (NM or FM)."""

    def __init__(self, engine: Engine, timings: DRAMTimings, capacity_bytes: int,
                 name: Optional[str] = None,
                 metadata_base: Optional[int] = None) -> None:
        if capacity_bytes <= 0:
            raise ValueError("capacity must be positive")
        if metadata_base is not None and not 0 < metadata_base < capacity_bytes:
            raise ValueError("metadata_base must fall inside the device")
        self._engine = engine
        self.timings = timings
        self.capacity_bytes = capacity_bytes
        self.name = name or timings.name
        self.channels = [Channel(engine, timings) for _ in range(timings.channels)]
        #: accesses at or beyond ``metadata_base`` are routed to a
        #: dedicated metadata channel (the paper stores remap metadata in
        #: a separate channel for row-buffer locality and to keep it out
        #: of the data channels' way — Section III-D).
        self.metadata_base = metadata_base
        self.meta_channel = Channel(engine, timings) if metadata_base else None
        #: geometry cached as plain ints: ``access`` maps every chunk
        #: inline (a mapper call per chunk costs more than the math).
        self._nchan = timings.channels
        self._banks_per_ch = timings.banks
        self._row_bytes = timings.row_bytes

    # ------------------------------------------------------------------
    def access(self, addr: int, size: int, is_write: bool,
               priority: Priority = Priority.DEMAND,
               on_complete: Optional[Callable[[float], None]] = None,
               span=None) -> None:
        """Issue a device access of ``size`` bytes at device-local ``addr``.

        ``on_complete(time)`` fires once, after every chunk has finished.
        ``span``, when given, rides every chunk so the channels can
        attribute queue vs service cycles to the sampled request.
        """
        if not 0 <= addr < self.capacity_bytes:
            raise ValueError(
                f"address {addr:#x} outside {self.name} capacity "
                f"{self.capacity_bytes:#x}"
            )
        if size <= 0:
            raise ValueError("size must be positive")
        if addr + size > self.capacity_bytes:
            raise ValueError("access crosses end of device")
        now = self._engine.now
        banks = self._banks_per_ch
        row_bytes = self._row_bytes
        mb = self.metadata_base
        if mb is not None and addr >= mb:
            # dedicated metadata channel, one request: 32 B groups (one
            # congruence set's remap entries) interleave across its
            # banks, so a serial scan of one set stays in one row while
            # different hot sets hit different banks in parallel —
            # without this the channel would be tCCD-bound on one bank.
            offset = addr - mb
            group = offset // 32
            groups_per_row = row_bytes // 32
            coords = DRAMCoordinates(
                0, group % banks, group // banks // groups_per_row,
                (group // banks % groups_per_row) * 32 + offset % 32)
            self.meta_channel.submit(DRAMRequest(
                addr, size, is_write, priority, now, coords, on_complete,
                span))
            return
        if addr % CHANNEL_INTERLEAVE_BYTES + size <= CHANNEL_INTERLEAVE_BYTES:
            # one interleave unit (the common case — demand subblock
            # reads): ``on_complete`` rides the request directly.
            chunks = ((addr, size),)
            done = on_complete
        else:
            chunks = self._chunks(addr, size)
            remaining = len(chunks)

            def done(when: float) -> None:
                nonlocal remaining
                remaining -= 1
                if remaining == 0 and on_complete is not None:
                    on_complete(when)

        nchan = self._nchan
        channels = self.channels
        for chunk_addr, chunk_size in chunks:
            # the AddressMapper layout, as plain integer arithmetic
            unit = chunk_addr // CHANNEL_INTERLEAVE_BYTES
            within = (unit // nchan * CHANNEL_INTERLEAVE_BYTES
                      + chunk_addr % CHANNEL_INTERLEAVE_BYTES)
            row_index = within // row_bytes
            channel = unit % nchan
            coords = DRAMCoordinates(channel, row_index % banks,
                                     row_index // banks, within % row_bytes)
            channels[channel].submit(DRAMRequest(
                chunk_addr, chunk_size, is_write, priority, now, coords,
                done, span))

    #: ``perfbench/tracing.py`` looks these names up in the class dict
    #: and wraps each as a ``dram`` boundary; both are aliases of the one
    #: access path.
    access_fast = access_turbo = access

    @staticmethod
    def _chunks(addr: int, size: int):
        """Split [addr, addr+size) at interleave-unit boundaries."""
        chunks = []
        end = addr + size
        while addr < end:
            boundary = (addr // CHANNEL_INTERLEAVE_BYTES + 1) * CHANNEL_INTERLEAVE_BYTES
            chunk_end = min(end, boundary)
            chunks.append((addr, chunk_end - addr))
            addr = chunk_end
        return chunks

    # ------------------------------------------------------------------
    # telemetry
    # ------------------------------------------------------------------
    def attach_telemetry(self, hub) -> None:
        """Per-channel probes: instantaneous queue depth (gauge) and
        bus-busy cycles (meter — the per-window delta divided by the
        sample's ``dt`` is that window's bus utilisation).  Device-level
        byte meters summarise the split the channels share.
        """
        def probe_channel(label: str, channel: Channel) -> None:
            hub.gauge(f"{label}.queue_depth",
                      lambda: float(channel.queue_depth), trace=True)
            hub.meter(f"{label}.busy_cycles",
                      lambda: channel.stats.bus_busy_cycles)
            hub.meter(f"{label}.bytes",
                      lambda: channel.stats.bytes_total)

        for i, channel in enumerate(self.channels):
            probe_channel(f"{self.name}.ch{i}", channel)
        if self.meta_channel is not None:
            probe_channel(f"{self.name}.meta", self.meta_channel)
        hub.meter(f"{self.name}.demand_bytes",
                  lambda: sum(c.stats.demand_bytes for c in self.channels))
        hub.meter(f"{self.name}.background_bytes",
                  lambda: sum(c.stats.background_bytes for c in self.channels))

    # ------------------------------------------------------------------
    # aggregate statistics
    # ------------------------------------------------------------------
    def stats(self) -> ChannelStats:
        total = ChannelStats()
        extra = [self.meta_channel] if self.meta_channel is not None else []
        for channel in self.channels + extra:
            s = channel.stats
            total.reads += s.reads
            total.writes += s.writes
            total.bytes_read += s.bytes_read
            total.bytes_written += s.bytes_written
            total.demand_bytes += s.demand_bytes
            total.background_bytes += s.background_bytes
            total.bus_busy_cycles += s.bus_busy_cycles
            total.total_queue_wait += s.total_queue_wait
            total.max_queue_depth = max(total.max_queue_depth, s.max_queue_depth)
        return total

    def utilization(self, elapsed_cycles: float) -> float:
        """Mean data-bus utilisation across channels over ``elapsed_cycles``."""
        if elapsed_cycles <= 0:
            return 0.0
        busy = sum(c.stats.bus_busy_cycles for c in self.channels)
        return busy / (elapsed_cycles * len(self.channels))
