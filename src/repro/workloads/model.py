"""Statistical workload model — the reproduction's stand-in for Pin
traces of SPEC CPU2006 Simpoints.

Every flat-memory scheme observes only the post-LLC miss stream, so the
model generates that stream directly from the five characteristics that
drive the paper's results:

* **MPKI** — misses per kilo-instruction; sets the compute gap between
  misses and therefore the bandwidth demand (Table III's low/med/high
  classes).
* **Footprint** — number of distinct 2 KB pages touched; sets the
  pressure on NM capacity (Table III).
* **Hot-set skew** — a fraction of pages receives most accesses; what
  locking and HMA's hot-page detection exploit.
* **Spatial locality** — expected number of distinct subblocks touched
  per page visit; what separates subblock schemes (SILC-FM, CAMEO+P)
  from single-line (CAMEO) and whole-page (PoM) movement.
* **Phase churn** — the hot set drifts every ``phase_misses`` misses;
  what epoch-based HMA is too slow for (gemsfdtd's short-lived pages).

``reference_stream`` additionally expands each miss into cache-hitting
re-references so the real cache hierarchy measures the intended MPKI
(used by the Table III bench and integration tests).
"""

from __future__ import annotations

import random
import zlib
from dataclasses import dataclass
from itertools import islice
from math import log as _log
from typing import Iterator, List, Optional

from repro.sim.config import BLOCK_BYTES, SUBBLOCK_BYTES, SUBBLOCKS_PER_BLOCK
from repro.workloads.trace import MemoryAccess

#: distinct program counters the generator draws from; PC correlates with
#: the touched page, which is what SILC-FM's PC-indexed structures rely on.
PC_POOL_SIZE = 256
#: code region base so PCs never collide with data addresses.
PC_BASE = 1 << 40


@dataclass(frozen=True)
class WorkloadSpec:
    """Parameters of one synthetic benchmark."""

    name: str
    #: LLC misses per kilo-instruction, per core.
    mpki: float
    #: distinct 2 KB pages touched.
    footprint_pages: int
    #: fraction of the footprint that is hot ...
    hot_fraction: float = 0.10
    #: ... and receives this fraction of the page visits.
    hot_weight: float = 0.80
    #: mean distinct subblocks touched per page visit (1..32).
    spatial_run: float = 4.0
    #: fraction of misses that are writes (dirty fills).
    write_fraction: float = 0.25
    #: hot set drifts after this many misses (None = stable).
    phase_misses: Optional[int] = None
    #: fraction of the hot set replaced at each phase change.
    phase_shift: float = 0.5
    #: fraction of each page's 32 subblocks the program ever touches
    #: (a stable, contiguous region per page).  Below 1.0, whole-page
    #: migration (PoM) fetches data that is never used — the paper's
    #: "number of used unique subblocks within 2KB is rather low".
    page_density: float = 1.0
    #: memory references per instruction (for reference_stream).
    refs_per_instr: float = 0.3
    category: str = "medium"

    def __post_init__(self) -> None:
        if self.mpki <= 0:
            raise ValueError("mpki must be positive")
        if self.footprint_pages < 2:
            raise ValueError("footprint must be at least 2 pages")
        if not 0.0 < self.hot_fraction <= 1.0:
            raise ValueError("hot_fraction in (0, 1]")
        if not 0.0 <= self.hot_weight <= 1.0:
            raise ValueError("hot_weight in [0, 1]")
        if not 1.0 <= self.spatial_run <= SUBBLOCKS_PER_BLOCK:
            raise ValueError("spatial_run in [1, 32]")
        if not 0.0 <= self.write_fraction <= 1.0:
            raise ValueError("write_fraction in [0, 1]")
        if not 1.0 / SUBBLOCKS_PER_BLOCK <= self.page_density <= 1.0:
            raise ValueError("page_density in [1/32, 1]")


class WorkloadModel:
    """Generates miss-stream or reference-stream traces for one spec."""

    def __init__(self, spec: WorkloadSpec, seed: int = 1) -> None:
        self.spec = spec
        self._seed = seed

    def _rng(self, tag: str) -> random.Random:
        """Deterministic per-(seed, benchmark, stream-kind) generator.
        zlib.crc32 is used instead of hash() so runs are reproducible
        regardless of PYTHONHASHSEED."""
        digest = zlib.crc32(f"{self.spec.name}:{tag}".encode())
        return random.Random(self._seed * 0x9E3779B1 + digest)

    # ------------------------------------------------------------------
    def miss_stream(self, n_misses: int) -> Iterator[MemoryAccess]:
        """Yield ``n_misses`` LLC-miss records."""
        spec = self.spec
        rng = self._rng("miss")
        hot = self._initial_hot_set(rng)
        pages = spec.footprint_pages
        mean_gap = 1000.0 / spec.mpki
        emitted = 0
        since_phase = 0
        while emitted < n_misses:
            page = self._pick_page(rng, hot, pages)
            active_start, active_len = self._active_region(page)
            run = min(self._run_length(rng), active_len)
            start = rng.randrange(active_len)
            pc = PC_BASE + (page % PC_POOL_SIZE) * 4
            for i in range(run):
                if emitted >= n_misses:
                    break
                subblock = active_start + (start + i) % active_len
                vaddr = page * BLOCK_BYTES + subblock * SUBBLOCK_BYTES
                gap = max(1, int(rng.expovariate(1.0 / mean_gap)))
                yield MemoryAccess(
                    pc=pc,
                    vaddr=vaddr,
                    is_write=rng.random() < spec.write_fraction,
                    gap_instr=gap,
                )
                emitted += 1
                since_phase += 1
            if spec.phase_misses is not None and since_phase >= spec.phase_misses:
                self._shift_hot_set(rng, hot, pages)
                since_phase = 0

    # ------------------------------------------------------------------
    def miss_batches(self, n_misses: int,
                     window: int) -> Iterator["MissBatch"]:
        """Yield :meth:`miss_stream`'s ``n_misses`` records, ``window``
        at a time, as column lists — what :class:`repro.cpu.core.Core`
        replays.

        **Bit-identical by construction**: the RNG draw sequence is
        replayed exactly — burst headers (page pick, run length, start
        offset) and the two per-access uniforms (gap, then write) are
        drawn in :meth:`miss_stream`'s order, and the gap is the same
        ``-log(1-u)/lambd`` libm expression ``random.expovariate``
        evaluates.  A window boundary mid-burst only chunks the
        *output* (the column lists carry the remainder into the next
        window).  Per-page active regions are memoized (they are pure
        in ``page``), which :meth:`miss_stream` recomputes per burst.
        """
        from repro.sim import faults

        if window < 1:
            raise ValueError("window must be >= 1")
        spec = self.spec
        rng = self._rng("miss")
        hot = self._initial_hot_set(rng)
        pages = spec.footprint_pages
        # the same float expovariate receives in miss_stream
        lambd = 1.0 / (1000.0 / spec.mpki)
        wf = spec.write_fraction
        random_ = rng.random
        phase_misses = spec.phase_misses
        regions = {}
        # burst-header draws inlined: ``randrange(n)`` is replayed as
        # CPython's ``_randbelow_with_getrandbits`` (k = n.bit_length()
        # bits, redrawn while >= n) so the underlying MT stream advances
        # identically to miss_stream's method calls.
        getrandbits = rng.getrandbits
        hot_weight = spec.hot_weight
        hot_len = len(hot)
        hot_bits = hot_len.bit_length()
        pages_bits = pages.bit_length()
        run_mean = spec.spatial_run
        run_p = 1.0 / run_mean if run_mean > 1.0 else 1.0
        run_cap = SUBBLOCKS_PER_BLOCK
        #: buffered output columns: pc, vaddr, is_write, gap_instr
        cols = ([], [], [], [])
        pcs, vaddrs, writes, gaps = cols
        emitted = 0
        since_phase = 0
        while emitted < n_misses:
            # _pick_page, inlined
            if random_() < hot_weight:
                r = getrandbits(hot_bits)
                while r >= hot_len:
                    r = getrandbits(hot_bits)
                page = hot[r]
            else:
                r = getrandbits(pages_bits)
                while r >= pages:
                    r = getrandbits(pages_bits)
                page = r
            region = regions.get(page)
            if region is None:
                active_start, active_len = self._active_region(page)
                region = regions[page] = (
                    page * BLOCK_BYTES + active_start * SUBBLOCK_BYTES,
                    active_len, active_len.bit_length())
            base, active_len, len_bits = region
            # _run_length, inlined (geometric, capped at 32)
            run = 1
            if run_mean > 1.0:
                while random_() > run_p and run < run_cap:
                    run += 1
            if run > active_len:
                run = active_len
            # randrange(active_len), inlined
            start = getrandbits(len_bits)
            while start >= active_len:
                start = getrandbits(len_bits)
            k = min(run, n_misses - emitted)
            pcs += [PC_BASE + (page % PC_POOL_SIZE) * 4] * k
            vaddrs += [base + (i % active_len) * SUBBLOCK_BYTES
                       for i in range(start, start + k)]
            for _ in range(k):
                gaps.append(max(1, int(-_log(1.0 - random_()) / lambd)))
                writes.append(random_() < wf)
            emitted += k
            since_phase += k
            if phase_misses is not None and since_phase >= phase_misses:
                self._shift_hot_set(rng, hot, pages)
                since_phase = 0
            while len(pcs) >= window or (emitted >= n_misses and pcs):
                batch = MissBatch(pcs[:window], vaddrs[:window],
                                  writes[:window], gaps[:window])
                for col in cols:
                    del col[:window]
                if (faults.ACTIVE == "window-off-by-one"
                        and (pcs or emitted < n_misses)):
                    # BUG (test-only): resume the next window one record
                    # early — the boundary access is emitted twice.
                    for col, done in zip(cols, (batch.pc, batch.vaddr,
                                                batch.is_write,
                                                batch.gap_instr)):
                        col.insert(0, done[-1])
                yield batch

    def reference_stream(self, n_misses: int) -> Iterator[MemoryAccess]:
        """Expand the miss stream with cache-hitting re-references so a
        real hierarchy observes roughly ``spec.mpki`` at the LLC.

        The miss's instruction gap is *redistributed* over the inserted
        re-references (not added to), so the instruction total — and
        therefore the measured MPKI — matches the miss stream's."""
        spec = self.spec
        rng = self._rng("ref")
        recent: List[int] = []
        for miss in self.miss_stream(n_misses):
            total_gap = miss.gap_instr
            n_refs = max(0, int(total_gap * spec.refs_per_instr) - 1)
            per_gap = total_gap // (n_refs + 1)
            remainder = total_gap - per_gap * n_refs
            yield MemoryAccess(pc=miss.pc, vaddr=miss.vaddr,
                               is_write=miss.is_write,
                               gap_instr=max(1, remainder))
            recent.append(miss.vaddr)
            if len(recent) > 32:
                recent.pop(0)
            # re-reference the recent pool; these hit in L1/L2 so the LLC
            # miss count stays the miss stream's.
            for _ in range(n_refs):
                vaddr = rng.choice(recent)
                yield MemoryAccess(
                    pc=PC_BASE + rng.randrange(PC_POOL_SIZE) * 4,
                    vaddr=vaddr,
                    is_write=rng.random() < spec.write_fraction,
                    gap_instr=max(1, per_gap),
                )

    def reference_batches(self, n_misses: int,
                          window: int) -> Iterator["MissBatch"]:
        """:meth:`reference_stream` in ``window``-record column windows
        (the shape :class:`repro.cpu.core.Core` replays)."""
        if window < 1:
            raise ValueError("window must be >= 1")
        records = self.reference_stream(n_misses)
        while True:
            chunk = list(islice(records, window))
            if not chunk:
                return
            yield MissBatch([r.pc for r in chunk], [r.vaddr for r in chunk],
                            [r.is_write for r in chunk],
                            [r.gap_instr for r in chunk])

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _initial_hot_set(self, rng: random.Random) -> List[int]:
        count = max(1, int(self.spec.footprint_pages * self.spec.hot_fraction))
        return rng.sample(range(self.spec.footprint_pages), count)

    def _shift_hot_set(self, rng: random.Random, hot: List[int], pages: int) -> None:
        replace = max(1, int(len(hot) * self.spec.phase_shift))
        current = set(hot)
        for _ in range(replace):
            victim = rng.randrange(len(hot))
            for _attempt in range(8):
                candidate = rng.randrange(pages)
                if candidate not in current:
                    current.discard(hot[victim])
                    hot[victim] = candidate
                    current.add(candidate)
                    break

    def _active_region(self, page: int) -> tuple:
        """The page's stable active subblock window (start, length).

        Derived from a per-page hash so it never changes across phases
        or re-visits — the program simply never touches the rest of the
        page."""
        length = max(1, round(self.spec.page_density * SUBBLOCKS_PER_BLOCK))
        if length >= SUBBLOCKS_PER_BLOCK:
            return 0, SUBBLOCKS_PER_BLOCK
        digest = zlib.crc32(f"{self._seed}:{self.spec.name}:region:{page}".encode())
        start = digest % (SUBBLOCKS_PER_BLOCK - length + 1)
        return start, length

    def _pick_page(self, rng: random.Random, hot: List[int], pages: int) -> int:
        if rng.random() < self.spec.hot_weight:
            return hot[rng.randrange(len(hot))]
        return rng.randrange(pages)

    def _run_length(self, rng: random.Random) -> int:
        """Geometric run length with mean ``spatial_run``, capped at 32."""
        mean = self.spec.spatial_run
        if mean <= 1.0:
            return 1
        p = 1.0 / mean
        length = 1
        while rng.random() > p and length < SUBBLOCKS_PER_BLOCK:
            length += 1
        return length


class MissBatch:
    """One pregenerated window of a trace, column-major.

    Plain Python lists, so every value JSON-serialises like its
    :class:`MemoryAccess` twin: ``pc``/``vaddr``/``gap_instr`` are
    Python ints, ``is_write`` Python bools.
    """

    __slots__ = ("pc", "vaddr", "is_write", "gap_instr")

    def __init__(self, pc: List[int], vaddr: List[int],
                 is_write: List[bool], gap_instr: List[int]) -> None:
        self.pc = pc
        self.vaddr = vaddr
        self.is_write = is_write
        self.gap_instr = gap_instr

    def __len__(self) -> int:
        return len(self.pc)

    def records(self) -> Iterator[MemoryAccess]:
        """The window as scalar records (test/diagnostic convenience)."""
        for pc, vaddr, is_write, gap in zip(self.pc, self.vaddr,
                                            self.is_write, self.gap_instr):
            yield MemoryAccess(pc=pc, vaddr=vaddr, is_write=is_write,
                               gap_instr=gap)
