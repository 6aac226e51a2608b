"""Property proof for the DRAM data plane: random access streams through
:class:`MemoryDevice` and its :class:`Channel` objects must produce the
same completion times — and leave every channel and bank in the same
state — as an independent reference written here as plainly as it can
be: the device split through :class:`AddressMapper`, then per request an
FR-FCFS pick, ``Bank.prepare``, the data-bus chain and the stats adds,
one step per method with all state on the object.

The streams cover the three shapes the one data plane must get right:
requests that issue immediately (idle channel, pipeline room), requests
that queue behind a full pipeline and are picked later (FR-FCFS
reordering, the demand/background share, the starvation cap), and
multi-chunk 2 KB accesses, including one whose chunks land on a
backlogged channel and on idle ones at once.

Element-wise ``==`` on floats is deliberate: the contract is
bit-identical, not approximately-equal, so any reassociated float add
in the channel's issue step fails immediately.
"""

from hypothesis import example, given, settings, strategies as st

from repro.dram.bank import Bank
from repro.dram.channel import Channel
from repro.dram.device import MemoryDevice
from repro.dram.mapping import CHANNEL_INTERLEAVE_BYTES, AddressMapper
from repro.dram.request import Priority
from repro.dram.timing import DRAMTimings
from repro.sim.engine import Engine

#: small rows so random streams mix row hits, closed banks and conflicts
TIMINGS = DRAMTimings(name="prop", channels=4, banks_per_rank=4,
                      row_bytes=256)
DATA = 1 << 16
META = 1 << 12
SIZES = [8, 32, 64, 72, 256, 2048]


class RefRequest:
    def __init__(self, bank, row, size, is_write, priority, arrival, done):
        self.bank = bank
        self.row = row
        self.size = size
        self.is_write = is_write
        self.priority = priority
        self.arrival = arrival
        self.done = done


class RefChannel:
    """One channel's scheduler, written independently of ``Channel``."""

    def __init__(self, engine):
        self.engine = engine
        self.banks = [Bank(TIMINGS) for _ in range(TIMINGS.banks)]
        self.queues = {Priority.DEMAND: [], Priority.BACKGROUND: []}
        self.bus_free = 0.0
        self.inflight = 0
        self.picks = 0
        self.busy = 0.0
        self.qwait = 0.0
        self.max_depth = 0
        self.counts = {"reads": 0, "writes": 0, "bytes_read": 0,
                       "bytes_written": 0, "demand_bytes": 0,
                       "background_bytes": 0}

    def depth(self):
        return sum(len(q) for q in self.queues.values())

    def submit(self, req):
        self.queues[req.priority].append(req)
        self.max_depth = max(self.max_depth, self.depth())
        self.drain()

    def drain(self):
        while self.depth() and self.inflight < Channel.pipeline_depth:
            self.issue(self.pick())

    def pick(self):
        demand = self.queues[Priority.DEMAND]
        background = self.queues[Priority.BACKGROUND]
        if not demand:
            queue = background
        elif not background:
            queue = demand
        else:
            self.picks += 1
            share = Channel.background_share + 1
            queue = background if self.picks % share == 0 else demand
        index = 0
        if self.engine.now - queue[0].arrival < Channel.starvation_cap:
            for i, req in enumerate(queue[:Channel.scheduler_window]):
                if self.banks[req.bank].open_row == req.row:
                    index = i
                    break
        return queue.pop(index)

    def issue(self, req):
        now = self.engine.now
        data_ready = self.banks[req.bank].prepare(req.row, now)
        data_start = max(data_ready, self.bus_free)
        burst = (TIMINGS.burst_mem_cycles(req.size)
                 * TIMINGS.cpu_cycles_per_mem)
        self.bus_free = data_start + burst
        self.inflight += 1
        self.busy += burst
        self.qwait += data_start - req.arrival
        self.engine.schedule_at(self.bus_free, self.complete, req)

    def complete(self, req):
        self.inflight -= 1
        counts = self.counts
        if req.is_write:
            counts["writes"] += 1
            counts["bytes_written"] += req.size
        else:
            counts["reads"] += 1
            counts["bytes_read"] += req.size
        if req.priority == Priority.DEMAND:
            counts["demand_bytes"] += req.size
        else:
            counts["background_bytes"] += req.size
        if req.done is not None:
            req.done(self.engine.now)
        self.drain()


class RefDevice:
    """The device split: 64 B chunks mapped by ``AddressMapper``; the
    metadata region's 32 B groups interleaved over the meta channel's
    banks, one request per access."""

    def __init__(self, engine):
        self.engine = engine
        self.mapper = AddressMapper(TIMINGS)
        self.channels = [RefChannel(engine) for _ in range(TIMINGS.channels)]
        self.meta_channel = RefChannel(engine)

    def access(self, addr, size, is_write, priority, on_complete):
        now = self.engine.now
        if addr >= DATA:
            group = (addr - DATA) // 32
            groups_per_row = TIMINGS.row_bytes // 32
            self.meta_channel.submit(RefRequest(
                group % TIMINGS.banks,
                group // TIMINGS.banks // groups_per_row,
                size, is_write, priority, now, on_complete))
            return
        pieces = []
        start = addr
        while start < addr + size:
            boundary = ((start // CHANNEL_INTERLEAVE_BYTES + 1)
                        * CHANNEL_INTERLEAVE_BYTES)
            end = min(addr + size, boundary)
            pieces.append((start, end - start))
            start = end
        remaining = [len(pieces)]

        def piece_done(when):
            remaining[0] -= 1
            if remaining[0] == 0:
                on_complete(when)

        for piece_addr, piece_size in pieces:
            coords = self.mapper.map(piece_addr)
            self.channels[coords.channel].submit(RefRequest(
                coords.bank, coords.row, piece_size, is_write, priority,
                now, piece_done))


def _channel_state(channel):
    if isinstance(channel, RefChannel):
        return (channel.bus_free, channel.busy, channel.qwait,
                channel.max_depth, channel.counts, _bank_state(channel.banks))
    stats = channel.stats
    return (channel._bus_free, stats.bus_busy_cycles, stats.total_queue_wait,
            stats.max_queue_depth,
            {name: getattr(stats, name) for name in (
                "reads", "writes", "bytes_read", "bytes_written",
                "demand_bytes", "background_bytes")},
            _bank_state(channel._banks))


def _bank_state(banks):
    return [(b.open_row, b.ready, b._activated_at, b.stats.row_hits,
             b.stats.row_closed, b.stats.row_conflicts) for b in banks]


def _drive(engine, device, bursts):
    """Issue each burst of accesses at its time; return the completion
    log ``[(access index, time)]`` in completion order.

    An access is ``(addr, size, is_write, is_demand)``, optionally with
    a fifth item: a follow-up access issued from its completion
    callback (logged under index ``~i``), the way a controller's stage
    walk submits the next stage while the channel is mid-completion."""
    log = []

    def issue(i, addr, size, is_write, is_demand, *then):
        def done(t):
            log.append((i, t))
            if then and then[0] is not None:
                issue(~i, *then[0])

        device.access(addr, size, is_write,
                      Priority.DEMAND if is_demand else Priority.BACKGROUND,
                      done)

    when = 0.0
    index = 0
    for gap, accesses in bursts:
        when += gap
        numbered = list(enumerate(accesses, start=index))
        index += len(accesses)

        def fire(numbered=numbered):
            for i, access in numbered:
                issue(i, *access)

        engine.schedule_at(when, fire)
    engine.run()
    return log


def _assert_equivalent(bursts):
    engine = Engine()
    device = MemoryDevice(engine, TIMINGS, DATA + META, metadata_base=DATA)
    ref_engine = Engine()
    ref = RefDevice(ref_engine)
    got = _drive(engine, device, bursts)
    expected = _drive(ref_engine, ref, bursts)
    assert len(got) == sum(1 + (len(access) > 4 and access[4] is not None)
                           for _, accesses in bursts for access in accesses)
    assert got == expected
    for mine, theirs in zip(device.channels + [device.meta_channel],
                            ref.channels + [ref.meta_channel]):
        assert _channel_state(mine) == _channel_state(theirs)
    return device


data_access = st.builds(
    lambda offset, size, is_write, is_demand: (
        min(offset, DATA - size), size, is_write, is_demand),
    st.integers(0, DATA - 1), st.sampled_from(SIZES), st.booleans(),
    st.booleans())
meta_access = st.builds(
    lambda offset, size, is_write, is_demand: (
        DATA + min(offset, META - size), size, is_write, is_demand),
    st.integers(0, META - 1), st.sampled_from([8, 32]), st.booleans(),
    st.booleans())
chained_access = st.builds(lambda access, then: access + (then,),
                           data_access, st.one_of(data_access, meta_access))
bursts = st.lists(
    st.tuples(st.floats(min_value=0.0, max_value=4000.0, allow_nan=False,
                        allow_infinity=False),
              st.lists(st.one_of(data_access, data_access, meta_access,
                                 chained_access),
                       min_size=1, max_size=40)),
    min_size=1, max_size=8)

#: every access on channel 0: the stride skips the other channels
CH0 = CHANNEL_INTERLEAVE_BYTES * TIMINGS.channels


# pinned shapes: each would falsify a specific issue-loop bug (keep them
# even if the strategies change)
# one request on an idle device, then a row hit after it drains
@example(bursts=[(0.0, [(0, 64, False, True)]),
                 (500.0, [(8, 8, True, True)])])
# a 2 KB access on an idle device: 32 chunks over four channels
@example(bursts=[(0.0, [(0, 2048, False, True)])])
# a backlog on one channel: the pipeline fills, the rest queue and
# FR-FCFS reorders row hits past a conflict
@example(bursts=[(0.0, [(i * CH0 % DATA, 64, False, i % 3 != 0)
                        for i in range(40)])])
# completion callbacks that submit to their own backlogged channel: the
# freed slot must go to the FR-FCFS pick over the queue, not to the
# newcomer
@example(bursts=[(0.0, [(i * CH0 % DATA, 64, False, True,
                         ((i + 7) * CH0 % DATA, 64, True, True))
                        for i in range(24)])])
# the scheduler window: the only row hit sits past the 32 oldest queued
# requests (bank 1 rows, all closed), so FR-FCFS must not reach it
@example(bursts=[(0.0, [(0, 64, False, True)] * 16
                  + [(4096 * (1 + i % 15) + 1024, 64, False, True)
                     for i in range(Channel.scheduler_window + 1)]
                  + [(0, 64, False, True)])])
# the starvation cap: a conflict (bank 0, row 1) queued behind row hits
# to bank 0's open row 0, with more hits arriving faster than the bus
# drains them, so only the cap ever lets the conflict issue
@example(bursts=[(0.0, [(0, 64, False, True)] * 24
                  + [(16 * CH0, 64, False, True)])]
         + [(50.0, [(0, 64, False, True)] * 4)] * 60)
@given(bursts=bursts)
@settings(deadline=None, max_examples=150)
def test_data_plane_matches_reference(bursts):
    _assert_equivalent(bursts)


def test_issue_immediately_matches_reference():
    """Idle channels: every request issues inside ``submit`` and never
    waits in a queue."""
    bursts = [(0.0, [(0, 64, False, True), (64, 64, True, True),
                     (DATA, 8, False, True)]),
              (2000.0, [(1000, 72, False, False)])]
    device = _assert_equivalent(bursts)
    for channel in device.channels + [device.meta_channel]:
        assert channel.stats.max_queue_depth <= 1


def test_backlogged_channel_matches_reference():
    bursts = [(0.0, [(i * CH0 % DATA, 64, i % 2 == 0, i % 5 != 0)
                     for i in range(48)])]
    device = _assert_equivalent(bursts)
    assert device.channels[0].stats.max_queue_depth \
        > Channel.pipeline_depth


def test_2kb_access_over_backlogged_and_idle_channels():
    """A 2 KB access whose chunks land on a backlogged channel and on
    idle ones in the same call: chunks on the idle channels issue at
    once, those on the backlogged one queue behind its traffic."""
    backlog = [(i * CH0, 64, False, True) for i in range(24)]
    big = (DATA // 2, 2048, False, True)
    engine = Engine()
    device = MemoryDevice(engine, TIMINGS, DATA + META, metadata_base=DATA)
    seen = []

    def fire():
        for addr, size, is_write, _ in backlog:
            device.access(addr, size, is_write)
        seen.append([c.queue_depth for c in device.channels])
        device.access(big[0], big[1], big[2])

    engine.schedule_at(0.0, fire)
    engine.run()
    depths = seen[0]
    assert depths[0] > 0 and depths[1:] == [0] * (TIMINGS.channels - 1)
    _assert_equivalent([(0.0, backlog + [big])])
