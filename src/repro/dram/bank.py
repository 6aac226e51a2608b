"""Per-bank row-buffer state machine (open-page policy)."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.dram.timing import DRAMTimings


@dataclass
class BankStats:
    row_hits: int = 0
    row_closed: int = 0
    row_conflicts: int = 0

    @property
    def accesses(self) -> int:
        return self.row_hits + self.row_closed + self.row_conflicts

    @property
    def row_hit_rate(self) -> float:
        total = self.accesses
        return self.row_hits / total if total else 0.0


class Bank:
    """One DRAM bank under an open-page policy.

    The bank tracks which row its row buffer holds, when it can start
    its next operation, and when the current row was activated (so a
    precharge respects tRAS).  All times are CPU cycles.
    """

    def __init__(self, timings: DRAMTimings) -> None:
        self._t = timings
        self.open_row: Optional[int] = None
        #: earliest CPU-cycle time the bank can accept its next command
        #: (successive CAS to an open row pipeline at the column-to-
        #: column gap; only activates/precharges occupy the bank long).
        self.ready: float = 0.0
        self._activated_at: float = float("-inf")
        self.stats = BankStats()

    def prepare(self, row: int, now: float) -> float:
        """Account for opening ``row`` and return the CPU-cycle time at
        which column data can start moving.

        Row hit: tCAS, and back-to-back hits pipeline — the next CAS can
        issue one column-to-column gap (~= tCCD, approximated by the
        burst) later, so a hot row streams at bus rate.  Closed bank:
        tRCD + tCAS.  Conflict: wait out tRAS, then tRP + tRCD + tCAS.
        """
        cpm = self._t.cpu_cycles_per_mem
        start = max(now, self.ready)
        if self.open_row == row:
            self.stats.row_hits += 1
            cas_at = start
        elif self.open_row is None:
            self.stats.row_closed += 1
            self._activated_at = start
            cas_at = start + self._t.t_rcd * cpm
        else:
            self.stats.row_conflicts += 1
            precharge_at = max(start, self._activated_at + self._t.t_ras * cpm)
            activate_at = precharge_at + self._t.t_rp * cpm
            self._activated_at = activate_at
            cas_at = activate_at + self._t.t_rcd * cpm
        self.open_row = row
        # the bank can take its next CAS one column gap (tCCD) after
        # this one, so an open row streams at the bus rate.
        self.ready = cas_at + self._t.t_ccd * cpm
        return cas_at + self._t.t_cas * cpm

    # ------------------------------------------------------------------
    def prepare_window(self, row: int, count: int, now: float) -> list:
        """Advance-by-window: fold ``count`` same-row accesses arriving
        together at ``now`` and return each access's data-ready time.

        Bit-identical to ``count`` sequential :meth:`prepare` calls:
        after the first access the row is open and the bank's ready
        time (one tCCD past the last CAS) always exceeds ``now``, so
        every later access is a row hit whose CAS is the previous CAS
        plus one column gap.  That ``cas += ccd`` chain is replayed
        with ``np.add.accumulate`` — a strictly left-to-right scan, so
        the float rounding matches the scalar loop exactly (a closed
        form ``cas1 + i*ccd`` would not, float addition being
        non-associative).
        """
        cpm = self._t.cpu_cycles_per_mem
        ccd = self._t.t_ccd * cpm
        cas_extra = self._t.t_cas * cpm
        start = max(now, self.ready)
        if self.open_row == row:
            self.stats.row_hits += 1
            cas1 = start
        elif self.open_row is None:
            self.stats.row_closed += 1
            self._activated_at = start
            cas1 = start + self._t.t_rcd * cpm
        else:
            self.stats.row_conflicts += 1
            precharge_at = max(start,
                               self._activated_at + self._t.t_ras * cpm)
            activate_at = precharge_at + self._t.t_rp * cpm
            self._activated_at = activate_at
            cas_at = activate_at + self._t.t_rcd * cpm
            cas1 = cas_at
        self.open_row = row
        rest = count - 1
        if rest == 0:
            self.ready = cas1 + ccd
            return [cas1 + cas_extra]
        import numpy as np

        self.stats.row_hits += rest
        steps = np.empty(count, dtype=np.float64)
        steps[0] = cas1
        steps[1:] = ccd
        cas = np.add.accumulate(steps)
        ready = cas + cas_extra
        self.ready = float(cas[rest]) + ccd
        return [float(r) for r in ready]
