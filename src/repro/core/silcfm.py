"""SILC-FM: Subblocked InterLeaved Cache-Like Flat Memory (Section III).

NM is organised as a set-associative structure of 2 KB frames.  FM block
``b`` maps to congruence set ``b mod num_sets`` and may interleave its
subblocks into any unlocked way of that set; swaps are position-for-
position between the frame and the block's FM home, so each (frame,
partner) pair exchanges subblocks under a single 32-bit residency vector
and the flat-space mapping stays a bijection.

The access semantics implement Table I exactly; plans are tagged with
their Table I row so the test-suite can verify every case:

=========  =========  ==========  ==========================================
remap      bit        NM address  action                              (note)
=========  =========  ==========  ==========================================
match      1          --          service from NM                     row1
match      0          --          swap subblock from FM               row2
mismatch   1          yes         swap subblock from FM (native back) row3
mismatch   0          yes         service from NM                     row4
mismatch   1          no          restore current block + swap        row5
mismatch   0          no          restore current block + swap        row6
=========  =========  ==========  ==========================================

On top of the swap machinery sit the four features the evaluation
ablates (Fig. 6): bit-vector history batch fetch, hot-block locking,
set associativity and bandwidth-balancing bypass, plus the way/location
predictor that shortens the metadata critical path (Section III-F).
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, List, Optional, Tuple

from repro.core.activity import ActivityMonitor
from repro.core.bitvector import BitVectorHistoryTable
from repro.core.bypass import BandwidthBalancer
from repro.core.metadata import COUNTER_MAX, FULL_BITVEC, FrameMetadata
from repro.core.predictor import WayPredictor
from repro.schemes.base import AccessPlan, Level, MemoryScheme, Op
from repro.sim.config import (
    BLOCK_BYTES,
    SUBBLOCK_BYTES,
    SUBBLOCKS_PER_BLOCK,
    SilcFmConfig,
)
from repro.xmem.address import AddressSpace

#: one remap entry (remap field + bit vector + counters + lock/LRU bits)
METADATA_ENTRY_BYTES = 8


class SilcFmScheme(MemoryScheme):
    """The paper's contribution."""

    name = "silcfm"
    #: Table I rows this scheme's plans can resolve to (plan notes plus
    #: the ``+lock`` variants for lock-pinned hits) — the span-tracing
    #: row vocabulary ``repro analyze`` reports against.
    SPAN_ROWS = ("row1", "row1+lock", "row2", "row2-bypass",
                 "row3", "row3-bypass", "row4", "row4+lock",
                 "row5", "row5-bypass", "all-locked",
                 "nm-displaced-by-lock")

    def __init__(self, space: AddressSpace,
                 config: Optional[SilcFmConfig] = None) -> None:
        super().__init__(space)
        self.config = config or SilcFmConfig()
        self.assoc = self.config.associativity
        self.num_sets = space.num_sets(self.assoc)
        self.frames = [FrameMetadata() for _ in range(space.nm_blocks)]
        #: FM block -> frame index currently interleaving/holding it.
        self._frame_of_block: Dict[int, int] = {}
        self.monitor = ActivityMonitor(
            self.frames,
            hot_threshold=self.config.hot_threshold,
            aging_period=self.config.aging_period_accesses,
        )
        self.history = BitVectorHistoryTable(self.config.bitvector_table_entries)
        self.predictor = WayPredictor(self.config.predictor_entries)
        self.balancer = BandwidthBalancer(
            self.config.bypass_target_access_rate,
            self.config.access_rate_window,
        )
        self._lru_clock = 0
        self._pending_lock_ops: List[Op] = []
        #: SRAM cache of frames whose remap entry is on chip; a hit
        #: costs nothing, a miss fetches from the metadata channel.
        self._meta_cache: "OrderedDict[int, None]" = OrderedDict()
        self._meta_cache_entries = self.config.metadata_cache_entries
        self.meta_cache_hits = 0
        self.meta_cache_misses = 0
        #: metadata region starts right after the data region on the NM
        #: device (the paper keeps metadata in a separate channel/region).
        self._meta_base = space.nm_bytes
        # feature-level statistics
        self.restores = 0
        self.installs = 0
        self.locks_acquired = 0
        self.locks_released = 0
        self.all_locked_fallbacks = 0
        self.batch_fetched_subblocks = 0

    # ------------------------------------------------------------------
    # public API
    # ------------------------------------------------------------------
    def access(self, paddr: int, is_write: bool, pc: int = 0) -> AccessPlan:
        self.on_memory_access()
        prediction = self.predictor.predict(pc, paddr)
        if self.space.is_fm(paddr):
            plan, way, matched = self._access_fm(paddr, pc)
            nm_home = False
        else:
            plan, way = self._access_nm(paddr, pc)
            matched, nm_home = True, True

        plan = self._apply_latency_model(plan, way, prediction, paddr,
                                         nm_home=nm_home, matched=matched)
        in_fm = plan.serviced_from is Level.FM
        if self.config.enable_predictor and not plan.bypassed:
            # A bypassed access says nothing about where the data will
            # live once balancing ends (the swap was suppressed, not
            # decided against); training in_fm=True here would keep
            # steering post-bypass requests at FM and waste speculative
            # FM reads long after the window closes.
            self.predictor.record_outcome(prediction, way, in_fm)
            self.predictor.update(pc, paddr, way, in_fm)
        if self.config.enable_bypass:
            self.balancer.record(not in_fm)
        self.record_plan(plan)
        return plan

    def on_memory_access(self) -> None:
        if self.monitor.tick() and self.config.enable_locking:
            self._release_stale_locks()

    # ------------------------------------------------------------------
    # single-op fast shape (MemoryScheme.access_fast)
    # ------------------------------------------------------------------
    def access_fast(self, paddr: int, is_write: bool, pc: int = 0):
        """Table I rows 1 and 4 without plan construction.

        Handles the steady-state majority shape — serviced from NM, the
        remap entry in the SRAM metadata cache, no lock transition with
        data movement, no bypass, no speculative FM read — applying
        exactly the mutations :meth:`access` would.  Anything else
        (swaps, installs, restores, metadata DRAM fetches, bypass
        windows, lock fetches, aging boundaries) declines *before any
        mutation* and takes the full :meth:`access` path.
        """
        monitor = self.monitor
        config = self.config
        # ---- pure-read decline checks --------------------------------
        if self._pending_lock_ops:
            return None  # drained into this plan's background by access()
        if (monitor.accesses + 1) % monitor.aging_period == 0:
            return None  # the tick would age counters / release locks
        prediction = self.predictor.predict(pc, paddr)
        has_pred = config.enable_predictor and prediction.way is not None
        if has_pred and prediction.in_fm:
            # NM-serviced outcome would add the wasted speculative FM
            # read to background (or take the perfect-FM branch) — not
            # a single-op shape.
            return None
        space = self.space
        index = space.subblock_index(paddr)
        meta_cache = self._meta_cache
        if paddr < space.nm_bytes:
            # ---- NM-space: row 4 ------------------------------------
            way = space.nm_block_of(paddr)
            frame = self.frames[way]
            if frame.locked and frame.lock_owner == "fm":
                return None  # nm-displaced-by-lock: serviced from FM
            if frame.remap is not None and not frame.locked \
                    and frame.bitvec >> index & 1:
                return None  # row 3: swap-back background traffic
            will_lock = (config.enable_locking and not self._bypassing
                         and not frame.locked
                         and min(COUNTER_MAX, frame.nm_count + 1)
                         >= monitor.hot_threshold)
            if will_lock and frame.remap is not None:
                return None  # the lock would restore interleaving first
            if way not in meta_cache:
                return None  # metadata fetch stage
            # ---- accept: apply access()'s mutations -----------------
            monitor.accesses += 1
            self._touch(frame)
            frame.bump_nm()
            if will_lock:
                frame.lock("nm")
                self.locks_acquired += 1
                if self.telemetry is not None:
                    self.telemetry.instant("lock", cat="lock", way=way,
                                           owner="nm")
            meta_cache.move_to_end(way)
            self.meta_cache_hits += 1
        else:
            # ---- FM-space: row 1 ------------------------------------
            block = space.block_of(paddr)
            way = self._frame_of_block.get(block)
            if way is None:
                return None  # rows 5/6 (or bypass) — install machinery
            frame = self.frames[way]
            if not (frame.locked or frame.bitvec >> index & 1):
                return None  # row 2: swap-in background traffic
            if (config.enable_locking and not self._bypassing
                    and not frame.locked and frame.remap is not None):
                fm_count = min(COUNTER_MAX, frame.fm_count + 1)
                if (fm_count >= monitor.hot_threshold
                        and fm_count >= frame.nm_count
                        and frame.nm_count < monitor.hot_threshold):
                    return None  # lock acquisition fetches subblocks
            if has_pred and prediction.way == way:
                scan = (way,)
            else:
                scan = self._scan_order(way, True, prediction)
            for w in scan:
                if w not in meta_cache:
                    return None  # at least one metadata fetch stage
            # ---- accept: apply access()'s mutations -----------------
            monitor.accesses += 1
            self._touch(frame)
            frame.bump_fm()
            hits = 0
            for w in scan:
                meta_cache.move_to_end(w)
                hits += 1
            self.meta_cache_hits += hits
        if config.enable_predictor:
            self.predictor.record_outcome(prediction, way, False)
            self.predictor.update(pc, paddr, way, False)
        if config.enable_bypass:
            self.balancer.record(True)
        stats = self.stats
        stats.misses += 1
        stats.nm_serviced += 1
        return (True, way * BLOCK_BYTES + index * SUBBLOCK_BYTES,
                SUBBLOCK_BYTES, False)

    # ------------------------------------------------------------------
    # telemetry (pull-based probes + event hooks)
    # ------------------------------------------------------------------
    def attach_telemetry(self, hub) -> None:
        """Register SILC-FM's feature-level signals.

        Meters cover the ablatable mechanisms (Fig. 6): swap/restore
        churn, locking, batch fetch and bypass.  Gauges expose the
        balancer's windowed access rate, predictor accuracy and the
        metadata-cache hit rate.  Bypass-mode flips additionally emit
        instant trace events via the balancer's transition observer —
        the time-domain signal Section III-E's feedback loop produces.
        """
        super().attach_telemetry(hub)
        hub.meter("silcfm.installs", lambda: self.installs)
        hub.meter("silcfm.restores", lambda: self.restores)
        hub.meter("silcfm.locks_acquired", lambda: self.locks_acquired)
        hub.meter("silcfm.locks_released", lambda: self.locks_released)
        hub.meter("silcfm.all_locked_fallbacks",
                  lambda: self.all_locked_fallbacks)
        hub.meter("silcfm.batch_fetched_subblocks",
                  lambda: self.batch_fetched_subblocks)
        hub.meter("silcfm.bypassed_accesses",
                  lambda: self.balancer.bypassed_accesses)
        hub.meter("silcfm.bypass_transitions",
                  lambda: self.balancer.transitions)
        hub.gauge("silcfm.bypassing",
                  lambda: float(self.balancer.bypassing), trace=True)
        hub.gauge("silcfm.window_access_rate",
                  lambda: self.balancer.current_rate(), trace=True)
        hub.gauge("silcfm.lifetime_nm_fraction",
                  lambda: self.balancer.lifetime_rate)
        hub.gauge("silcfm.locked_frames",
                  lambda: float(self.locked_frames), trace=True)
        hub.gauge("silcfm.predictor_way_accuracy",
                  lambda: self.predictor.way_accuracy)
        hub.gauge("silcfm.predictor_location_accuracy",
                  lambda: self.predictor.location_accuracy)
        hub.gauge("silcfm.meta_cache_hit_rate", lambda: (
            self.meta_cache_hits /
            (self.meta_cache_hits + self.meta_cache_misses)
            if self.meta_cache_hits + self.meta_cache_misses else 0.0))
        self.balancer.on_transition = self._on_bypass_transition

    def _on_bypass_transition(self, bypassing: bool, rate: float) -> None:
        if self.telemetry is not None:
            self.telemetry.instant(
                "bypass-on" if bypassing else "bypass-off",
                cat="bypass", window_rate=round(rate, 4))

    def locate(self, paddr: int) -> Tuple[Level, int]:
        within = paddr % SUBBLOCK_BYTES
        index = self.space.subblock_index(paddr)
        if self.space.is_nm(paddr):
            frame_idx = self.space.nm_block_of(paddr)
            frame = self.frames[frame_idx]
            native_swapped_out = (
                frame.remap is not None
                and (frame.bit(index) or (frame.locked and frame.lock_owner == "fm"))
            )
            if native_swapped_out:
                return Level.FM, self._fm_home_offset(frame.remap, index) + within
            return Level.NM, frame_idx * BLOCK_BYTES + index * SUBBLOCK_BYTES + within

        block = self.space.block_of(paddr)
        way = self._frame_of_block.get(block)
        if way is not None:
            frame = self.frames[way]
            resident = frame.bit(index) or (frame.locked and frame.lock_owner == "fm")
            if resident:
                return Level.NM, way * BLOCK_BYTES + index * SUBBLOCK_BYTES + within
        return Level.FM, self._fm_home_offset(block, index) + within

    # ------------------------------------------------------------------
    # FM-space requests (Table I rows 1, 2, 5, 6)
    # ------------------------------------------------------------------
    def _access_fm(self, paddr: int, pc: int) -> Tuple[AccessPlan, int, bool]:
        block = self.space.block_of(paddr)
        index = self.space.subblock_index(paddr)
        way = self._frame_of_block.get(block)

        if way is not None:
            frame = self.frames[way]
            self._touch(frame)
            frame.bump_fm()
            if frame.locked or frame.bit(index):
                plan = AccessPlan.single(
                    Level.NM, self._nm_sub_op(way, index), "row1",
                    locked=frame.locked)
            elif self._bypassing:
                plan = self._bypass_plan(block, index, note="row2-bypass")
            else:
                plan = AccessPlan(
                    Level.FM, [[self._fm_sub_op(block, index)]],
                    self._swap_subblock_in(way, block, index, paddr, pc),
                    False, "row2")
            self._maybe_lock_fm(way)
            return plan, way, True

        # remap mismatch in every way of the set: rows 5/6
        if self._bypassing:
            plan = self._bypass_plan(block, index, note="row5-bypass")
            return plan, self._set_ways(block % self.num_sets)[0], False
        way = self._choose_victim(block % self.num_sets, block)
        if way is None:
            self.all_locked_fallbacks += 1
            plan = AccessPlan.single(
                Level.FM, self._fm_sub_op(block, index), "all-locked",
                locked=True)
            return plan, self._set_ways(block % self.num_sets)[0], False

        background: List[Op] = []
        frame = self.frames[way]
        if frame.remap is not None:
            background.extend(self._restore(way))
        background.extend(self._install(way, block, index, paddr, pc))
        plan = AccessPlan(
            Level.FM, [[self._fm_sub_op(block, index)]], background,
            False, "row5")
        self._touch(frame)
        self._maybe_lock_fm(way)
        return plan, way, False

    # ------------------------------------------------------------------
    # NM-space requests (Table I rows 3, 4)
    # ------------------------------------------------------------------
    def _access_nm(self, paddr: int, pc: int) -> Tuple[AccessPlan, int]:
        frame_idx = self.space.nm_block_of(paddr)
        index = self.space.subblock_index(paddr)
        frame = self.frames[frame_idx]
        self._touch(frame)
        frame.bump_nm()

        if frame.locked and frame.lock_owner == "fm":
            # the native page is fully displaced to the partner's home
            plan = AccessPlan.single(
                Level.FM, self._fm_sub_op(frame.remap, index),
                "nm-displaced-by-lock", locked=True)
        elif frame.remap is not None and not frame.locked and frame.bit(index):
            if self._bypassing:
                plan = self._bypass_plan(frame.remap, index, note="row3-bypass")
            else:
                plan = AccessPlan(
                    Level.FM, [[self._fm_sub_op(frame.remap, index)]],
                    self._swap_subblock_back(frame_idx, index),
                    False, "row3")
        else:
            plan = AccessPlan.single(
                Level.NM, self._nm_sub_op(frame_idx, index), "row4",
                locked=frame.locked)
        self._maybe_lock_nm(frame_idx)
        return plan, frame_idx

    # ------------------------------------------------------------------
    # swap machinery
    # ------------------------------------------------------------------
    def _swap_subblock_in(self, way: int, block: int, index: int,
                          paddr: int, pc: int) -> List[Op]:
        """Row 2: bring the FM block's subblock ``index`` into the frame,
        pushing the native subblock out to the block's home (position-
        for-position exchange)."""
        frame = self.frames[way]
        if frame.bitvec == 0:
            frame.first_pc = pc
            frame.first_addr = paddr
        frame.set_bit(index)
        self.stats.subblock_swaps += 1
        if self.telemetry is not None:
            self.telemetry.instant("swap-in", cat="swap",
                                   way=way, block=block, index=index)
        return [
            self._nm_sub_op(way, index),                      # native out
            self._nm_sub_op(way, index, is_write=True),       # FM data in
            self._fm_sub_op(block, index, is_write=True),     # native to home
        ]

    def _swap_subblock_back(self, way: int, index: int) -> List[Op]:
        """Row 3: the native subblock returns; the partner's goes home."""
        frame = self.frames[way]
        block = frame.remap
        footprint = frame.bitvec
        frame.clear_bit(index)
        if frame.bitvec == 0:
            # Nothing left interleaved: the frame is clean again.  Save
            # the pre-clear footprint first — a block that drains
            # incrementally must train the history table exactly like
            # one evicted by a restore, or its next install batch-
            # fetches nothing (Section III-A).
            if self.config.enable_bitvector_history and footprint:
                self.history.save(frame.first_pc, frame.first_addr, footprint)
            self._forget_remap(way)
        self.stats.subblock_swaps += 1
        if self.telemetry is not None:
            self.telemetry.instant("swap-back", cat="swap",
                                   way=way, block=block, index=index)
        return [
            self._nm_sub_op(way, index),                      # partner out
            self._nm_sub_op(way, index, is_write=True),       # native back in
            self._fm_sub_op(block, index, is_write=True),     # partner to home
        ]

    def _restore(self, way: int) -> List[Op]:
        """Rows 5/6 prologue: undo all interleaving in ``way`` and save
        the usage bit vector in the history table (Section III-A)."""
        frame = self.frames[way]
        block = frame.remap
        bitvec = FULL_BITVEC if frame.locked and frame.lock_owner == "fm" else frame.bitvec
        ops: List[Op] = []
        for j in range(SUBBLOCKS_PER_BLOCK):
            if bitvec >> j & 1:
                ops.append(self._nm_sub_op(way, j))                  # partner out
                ops.append(self._fm_sub_op(block, j, is_write=True))  # partner home
                ops.append(self._fm_sub_op(block, j))                 # native fetch
                ops.append(self._nm_sub_op(way, j, is_write=True))    # native back
        if self.config.enable_bitvector_history and bitvec:
            self.history.save(frame.first_pc, frame.first_addr, bitvec)
        self._forget_remap(way)
        self.restores += 1
        return ops

    def _install(self, way: int, block: int, index: int,
                 paddr: int, pc: int) -> List[Op]:
        """Rows 5/6 epilogue: interleave ``block`` into ``way``, batch-
        fetching the history-predicted footprint."""
        frame = self.frames[way]
        fetch_vec = 1 << index
        if self.config.enable_bitvector_history:
            fetch_vec |= self.history.lookup(pc, paddr)
        frame.remap = block
        frame.bitvec = fetch_vec
        frame.first_pc = pc
        frame.first_addr = paddr
        frame.fm_count = 1
        self._frame_of_block[block] = way
        self.installs += 1
        if self.telemetry is not None:
            self.telemetry.instant("install", cat="swap", way=way,
                                   block=block, fetch_vec=fetch_vec)
        ops: List[Op] = []
        for j in range(SUBBLOCKS_PER_BLOCK):
            if not fetch_vec >> j & 1:
                continue
            self.stats.subblock_swaps += 1
            if j != index:
                ops.append(self._fm_sub_op(block, j))          # batch fetch
                self.batch_fetched_subblocks += 1
            ops.append(self._nm_sub_op(way, j))                # native out
            ops.append(self._nm_sub_op(way, j, is_write=True))  # partner in
            ops.append(self._fm_sub_op(block, j, is_write=True))  # native home
        return ops

    def _forget_remap(self, way: int) -> None:
        frame = self.frames[way]
        if frame.remap is not None:
            self._frame_of_block.pop(frame.remap, None)
        frame.remap = None
        frame.bitvec = 0
        frame.fm_count = 0
        frame.unlock()

    # ------------------------------------------------------------------
    # locking (Section III-C)
    # ------------------------------------------------------------------
    def _maybe_lock_fm(self, way: int) -> None:
        """Lock the frame's remapped FM block when it crosses the hot
        threshold: complete the remap by fetching all missing subblocks."""
        if not self.config.enable_locking or self._bypassing:
            return
        frame = self.frames[way]
        if frame.locked or frame.remap is None:
            return
        if not self.monitor.fm_block_hot(frame):
            return
        if frame.fm_count < frame.nm_count or self.monitor.nm_block_hot(frame):
            # the frame's native page is hot itself: fully displacing it
            # to FM would hurt more than the lock helps (the counters
            # exist precisely to classify the two coexisting blocks).
            return
        block = frame.remap
        pending = frame.missing_indices()
        for j in pending:
            frame.set_bit(j)
            self.stats.subblock_swaps += 1
        self._pending_lock_ops.extend(
            op
            for j in pending
            for op in (
                self._fm_sub_op(block, j),
                self._nm_sub_op(way, j),
                self._nm_sub_op(way, j, is_write=True),
                self._fm_sub_op(block, j, is_write=True),
            )
        )
        frame.lock("fm")
        self.locks_acquired += 1
        if self.telemetry is not None:
            self.telemetry.instant("lock", cat="lock", way=way,
                                   owner="fm", block=block,
                                   fetched=len(pending))

    def _maybe_lock_nm(self, frame_idx: int) -> None:
        """Pin a hot native page: restore any interleaving, then lock so
        no FM block can displace its subblocks."""
        if not self.config.enable_locking or self._bypassing:
            return
        frame = self.frames[frame_idx]
        if frame.locked or not self.monitor.nm_block_hot(frame):
            return
        if frame.remap is not None:
            self._pending_lock_ops.extend(self._restore(frame_idx))
        frame.lock("nm")
        self.locks_acquired += 1
        if self.telemetry is not None:
            self.telemetry.instant("lock", cat="lock", way=frame_idx,
                                   owner="nm")

    def _drain_lock_ops(self) -> List[Op]:
        ops, self._pending_lock_ops = self._pending_lock_ops, []
        return ops

    def _release_stale_locks(self) -> None:
        """After aging, unlock frames whose owner cooled off.  An
        unlocked fm-owner behaves as a normal interleaved block with all
        bits set (Section III-C), so hotter data can displace it
        incrementally."""
        for way in self.monitor.stale_locks():
            frame = self.frames[way]
            owner = frame.lock_owner
            if owner == "fm":
                frame.bitvec = FULL_BITVEC
            frame.unlock()
            self.locks_released += 1
            if self.telemetry is not None:
                self.telemetry.instant("unlock", cat="lock", way=way,
                                       owner=owner)

    # ------------------------------------------------------------------
    # victim choice (associativity, Section III-C)
    # ------------------------------------------------------------------
    def _set_ways(self, set_index: int) -> List[int]:
        return [set_index + w * self.num_sets for w in range(self.assoc)]

    def _choose_victim(self, set_index: int, block: int) -> Optional[int]:
        """Pick the way ``block`` interleaves into.

        Placement is row-locality aware: a 2 KB frame's slices share a
        DRAM row with its 31 neighbouring frames, so blocks of the same
        32-block spatial group prefer the same way — that keeps
        neighbouring hot blocks in neighbouring frames (as a direct map
        would) and their accesses row-buffer friendly.  The preferred
        way is used when it is clean; otherwise fall back to LRU among
        clean, then LRU among unlocked frames.
        """
        ways = self._set_ways(set_index)
        unlocked = [w for w in ways if not self.frames[w].locked]
        if not unlocked:
            return None
        preferred = ways[(block // SUBBLOCKS_PER_BLOCK) % self.assoc]
        clean = [w for w in unlocked if self.frames[w].remap is None]
        if preferred in clean:
            return preferred
        pool = clean or unlocked
        return min(pool, key=lambda w: self.frames[w].lru)

    def _touch(self, frame: FrameMetadata) -> None:
        self._lru_clock += 1
        frame.lru = self._lru_clock

    # ------------------------------------------------------------------
    # bypass (Section III-E)
    # ------------------------------------------------------------------
    @property
    def _bypassing(self) -> bool:
        return self.config.enable_bypass and self.balancer.bypassing

    def _bypass_plan(self, block: int, index: int, note: str) -> AccessPlan:
        self.balancer.note_bypassed()
        return AccessPlan.single(
            Level.FM, self._fm_sub_op(block, index), note, bypassed=True)

    # ------------------------------------------------------------------
    # latency model (Section III-F)
    # ------------------------------------------------------------------
    def _apply_latency_model(self, plan: AccessPlan, way: int, prediction,
                             paddr: int, nm_home: bool,
                             matched: bool) -> AccessPlan:
        """Prepend the metadata-fetch critical path and fold in the
        way/location predictor (Section III-F).

        * An NM-space request's frame is fixed by its address, so exactly
          one remap entry is read.
        * An FM-space request that matches a way needs the scan up to
          that way — collapsed to one entry by a correct way prediction.
        * An FM-space request that matches nowhere must check **all**
          ways before the miss is known.
        * A (correct) FM location prediction launches the FM data access
          in parallel with the first metadata fetch; a wrong one wastes
          an FM read (bandwidth only).
        """
        plan.background.extend(self._drain_lock_ops())
        data_stages = plan.stages
        goes_to_fm = plan.serviced_from is Level.FM
        has_pred = self.config.enable_predictor and prediction.way is not None
        way_correct = has_pred and prediction.way == way

        if nm_home or (matched and way_correct):
            meta_stages = self._meta_stages([way])
        else:
            meta_stages = self._meta_stages(
                self._scan_order(way, matched, prediction))

        if has_pred and way_correct and prediction.in_fm == goes_to_fm:
            # perfect speculation: the data access is launched
            # immediately; the metadata read (if the entry is not in the
            # SRAM metadata cache) proceeds in parallel purely to
            # *verify* the prediction, so it is off the critical path
            # ("the latency is just a single access latency",
            # Section III-F).
            plan.stages = data_stages
            for stage in meta_stages:
                plan.background.extend(stage)
            return plan
        if has_pred and prediction.in_fm and goes_to_fm:
            # FM location speculated correctly (way may be wrong): the
            # request was forwarded to FM alongside the metadata check,
            # so "the latency is just a single FM access latency" —
            # the serialized remap-entry scan proceeds purely as
            # verification, off the critical path (Section III-F).
            plan.stages = data_stages
            for stage in meta_stages:
                plan.background.extend(stage)
            return plan
        if has_pred and prediction.in_fm and not goes_to_fm:
            # wasted speculative FM read: pure bandwidth cost, aimed at
            # the requested address's would-be FM home.
            spec_offset = paddr % self.space.fm_bytes
            spec_offset -= spec_offset % SUBBLOCK_BYTES
            plan.background.append(Op(Level.FM, spec_offset, SUBBLOCK_BYTES, False))
        elif has_pred and way_correct and not prediction.in_fm and goes_to_fm:
            # NM speculated at the right way but the data was in FM:
            # the speculative NM data read is wasted bandwidth.
            plan.background.append(
                self._nm_sub_op(way, self.space.subblock_index(paddr)))
        plan.stages = meta_stages + data_stages
        return plan

    def _scan_order(self, actual_way: int, matched: bool, prediction) -> List[int]:
        """Remap entries probed serially: the (wrong) predicted way
        first, then the set's ways — up to the hit, or all of them when
        nothing matches (rows 5/6: a miss needs every entry checked)."""
        set_index = actual_way % self.num_sets
        ways = self._set_ways(set_index)
        order: List[int] = []
        if (self.config.enable_predictor and prediction.way is not None
                and prediction.way in ways and prediction.way != actual_way):
            order.append(prediction.way)
        for w in ways:
            if w not in order:
                order.append(w)
            if matched and w == actual_way:
                break
        return order

    # ------------------------------------------------------------------
    # op constructors
    # ------------------------------------------------------------------
    def _nm_sub_op(self, way: int, index: int, is_write: bool = False) -> Op:
        return Op(Level.NM, way * BLOCK_BYTES + index * SUBBLOCK_BYTES,
                  SUBBLOCK_BYTES, is_write)

    def _fm_sub_op(self, block: int, index: int, is_write: bool = False) -> Op:
        return Op(Level.FM, self._fm_home_offset(block, index),
                  SUBBLOCK_BYTES, is_write)

    def _fm_home_offset(self, block: int, index: int) -> int:
        offset = block * BLOCK_BYTES - self.space.nm_bytes + index * SUBBLOCK_BYTES
        if offset < 0:
            raise ValueError(f"block {block} is not an FM block")
        return offset

    def _meta_stages(self, ways: List[int]) -> List[List[Op]]:
        """Serial metadata-fetch stages for ``ways``, filtered through
        the SRAM metadata cache (cached entries cost nothing)."""
        stages: List[List[Op]] = []
        for way in ways:
            if way in self._meta_cache:
                self._meta_cache.move_to_end(way)
                self.meta_cache_hits += 1
                continue
            self.meta_cache_misses += 1
            self._meta_cache[way] = None
            if len(self._meta_cache) > self._meta_cache_entries:
                self._meta_cache.popitem(last=False)
            stages.append([self._meta_op(way)])
        return stages

    def _meta_op(self, way: int) -> Op:
        """Remap-entry read.  Entries are laid out set-contiguously
        (set 0's ways, then set 1's, ...) so a serial scan of one set's
        entries stays within one row — consecutive probes are row-buffer
        hits, which is why the metadata region behaves like the paper's
        dedicated metadata channel."""
        set_index = way % self.num_sets
        position = way // self.num_sets
        offset = (set_index * self.assoc + position) * METADATA_ENTRY_BYTES
        return Op(Level.NM, self._meta_base + offset, METADATA_ENTRY_BYTES, False)

    # ------------------------------------------------------------------
    # invariants (differential oracle hook)
    # ------------------------------------------------------------------
    def check_invariants(self) -> None:
        """Metadata agreement: residency bit vectors, the
        ``_frame_of_block`` reverse map and the lock owners must tell
        one consistent story (the flat-space bijection depends on it)."""
        remap_seen: Dict[int, int] = {}
        for way, frame in enumerate(self.frames):
            self._invariant(0 <= frame.bitvec <= FULL_BITVEC,
                            f"way {way} bit vector {frame.bitvec:#x} "
                            "out of range")
            self._invariant(0 <= frame.nm_count <= COUNTER_MAX
                            and 0 <= frame.fm_count <= COUNTER_MAX,
                            f"way {way} activity counter out of 6-bit range")
            if frame.locked:
                self._invariant(frame.lock_owner in ("nm", "fm"),
                                f"way {way} locked with owner "
                                f"{frame.lock_owner!r}")
            else:
                self._invariant(frame.lock_owner is None,
                                f"way {way} unlocked but owner "
                                f"{frame.lock_owner!r} lingers")
            if frame.remap is None:
                self._invariant(frame.bitvec == 0,
                                f"way {way} has residency bits "
                                f"{frame.bitvec:#x} but no remapped block")
                self._invariant(frame.fm_count == 0,
                                f"way {way} counts FM activity with no "
                                "remapped block")
                self._invariant(frame.lock_owner != "fm",
                                f"way {way} fm-locked with no remapped block")
                continue
            block = frame.remap
            self._invariant(block >= self.space.nm_blocks,
                            f"way {way} remaps NM-native block {block}")
            self._invariant(block < self.space.total_blocks,
                            f"way {way} remaps out-of-space block {block}")
            self._invariant(block % self.num_sets == way % self.num_sets,
                            f"way {way} (set {way % self.num_sets}) remaps "
                            f"block {block} of set {block % self.num_sets}")
            self._invariant(block not in remap_seen,
                            f"block {block} interleaved into both way "
                            f"{remap_seen.get(block)} and way {way}")
            remap_seen[block] = way
            self._invariant(self._frame_of_block.get(block) == way,
                            f"way {way} remaps block {block} but the "
                            "reverse map says "
                            f"{self._frame_of_block.get(block)}")
            if frame.locked and frame.lock_owner == "fm":
                self._invariant(frame.bitvec == FULL_BITVEC,
                                f"way {way} fm-locked with partial bit "
                                f"vector {frame.bitvec:#x}")
            elif frame.locked:
                self._invariant(False,
                                f"way {way} nm-locked while block {block} is "
                                "remapped into it (restore must precede the "
                                "lock)")
            else:
                self._invariant(frame.bitvec != 0,
                                f"way {way} remaps block {block} with an "
                                "empty bit vector (drain should have "
                                "forgotten it)")
        for block, way in self._frame_of_block.items():
            self._invariant(0 <= way < len(self.frames),
                            f"block {block} mapped to bad way {way}")
            self._invariant(self.frames[way].remap == block,
                            f"reverse map says way {way} holds block "
                            f"{block} but the frame metadata disagrees")

    # ------------------------------------------------------------------
    # introspection for tests / reports
    # ------------------------------------------------------------------
    def frame(self, way: int) -> FrameMetadata:
        """The metadata of NM frame ``way`` (read-only introspection)."""
        return self.frames[way]

    def way_of_block(self, block: int) -> Optional[int]:
        """The frame currently interleaving/holding FM ``block``, if any."""
        return self._frame_of_block.get(block)

    @property
    def locked_frames(self) -> int:
        return sum(frame.locked for frame in self.frames)
