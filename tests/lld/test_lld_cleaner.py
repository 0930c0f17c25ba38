"""Segment cleaner tests: policies, clustering, metadata re-logging."""

import random

import pytest

from repro.ld import LIST_HEAD
from repro.ld.errors import OutOfSpaceError
from repro.lld import LLD
from repro.obs import EventLog, attach_events

from tests.lld.conftest import make_lld, reopen, small_config
from tests.lld.test_log_golden import JournalDisk, make_device


def fill_blocks(lld, lid, count, data=None, prev=LIST_HEAD):
    data = data or (b"\xee" * 4096)
    bids = []
    for _ in range(count):
        bid = lld.new_block(lid, prev)
        lld.write(bid, data)
        bids.append(bid)
        prev = bid
    return bids


def test_cleaning_triggered_under_pressure():
    lld = make_lld(capacity_mb=2)
    lid = lld.new_list()
    data = random.Random(0).randbytes(4096)
    capacity = lld.layout.capacity_bytes
    bids = fill_blocks(lld, lid, int(capacity * 0.8) // 4096, data)
    rng = random.Random(1)
    for _ in range(60):
        for bid in rng.sample(bids, 8):
            lld.write(bid, data)
    assert lld.stats.cleanings > 0
    assert lld.stats.blocks_cleaned > 0
    for bid in bids:
        assert lld.read(bid) == data
    assert lld.list_blocks(lid) == bids


def test_explicit_clean_frees_segment():
    lld = make_lld()
    lid = lld.new_list()
    bids = fill_blocks(lld, lid, 20)
    assert lld.stats.segments_sealed >= 1
    # Kill most blocks in the first segment to make it a victim.
    for bid in bids[:10]:
        lld.delete_block(bid, lid, pred_bid_hint=None if bid == bids[0] else bids[bids.index(bid) - 1])
    cleaned = lld.clean(1)
    assert cleaned == 1
    assert lld.stats.blocks_cleaned > 0
    for bid in bids[10:]:
        assert lld.read(bid) == b"\xee" * 4096


def test_cleaned_data_survives_crash():
    lld = make_lld(capacity_mb=2)
    lid = lld.new_list()
    data = random.Random(3).randbytes(4096)
    bids = fill_blocks(lld, lid, 100, data)
    for bid in bids[::3]:
        lld.write(bid, data)
    lld.clean(4)
    lld.flush()
    recovered = reopen(lld)
    assert recovered.list_blocks(lid) == bids
    for bid in bids:
        assert recovered.read(bid) == data


def test_greedy_picks_emptiest_segment():
    lld = make_lld()
    lid = lld.new_list()
    bids = fill_blocks(lld, lid, 45)  # ~3 segments
    # Empty out most of one mid segment.
    seg_blocks = lld.state.segment_blocks
    sealed = [s for s in seg_blocks if s != lld.open_segment_index and seg_blocks[s]]
    victim_expected = sealed[0]
    live = sorted(seg_blocks[victim_expected])
    for bid in live[:-1]:
        idx = bids.index(bid)
        lld.delete_block(bid, lid, pred_bid_hint=bids[idx - 1] if idx else None)
    choice = lld.cleaner.select_victim()
    usage = lld.state.usage
    assert usage.get(choice, 0) == min(
        usage.get(s, 0) for s in lld.slots.cleanable(lld.open_segment_index)
    )


def test_cost_benefit_prefers_cold_segments():
    lld = make_lld(clean_policy="cost_benefit")
    lid = lld.new_list()
    cold = fill_blocks(lld, lid, 15)  # one old segment
    hot = fill_blocks(lld, lid, 15, prev=cold[-1])
    # Rewrite hot blocks so their segment is young.
    for bid in hot:
        lld.write(bid, b"\x99" * 4096)
    choice = lld.cleaner.select_victim()
    assert choice is not None
    # The chosen victim should contain cold blocks, not the hot rewrite.
    mod = lld.state.segment_mod_ts
    candidates = lld.slots.cleanable(lld.open_segment_index)
    assert mod.get(choice, 0) <= min(mod.get(s, 0) for s in candidates) + 1


def test_cleaner_preserves_list_order_clustering():
    """Blocks copied by the cleaner are reordered along their chains."""
    lld = make_lld()
    lid = lld.new_list()
    bids = fill_blocks(lld, lid, 25)
    victim = next(
        s
        for s in sorted(lld.state.segment_blocks)
        if s != lld.open_segment_index and lld.state.segment_blocks[s]
    )
    order = lld.cleaner._clustered_order(victim)
    live = lld.state.segment_blocks[victim]
    assert set(order) == set(live)
    # Consecutive chain members must be adjacent in the copy order.
    positions = {bid: i for i, bid in enumerate(order)}
    for bid in order:
        succ = lld.state.blocks[bid].successor
        if succ in live:
            assert positions[succ] == positions[bid] + 1


@pytest.mark.parametrize("policy", ["greedy", "cost_benefit"])
def test_a_seal_reads_the_next_victims_live_span_before_it_writes(policy):
    """A seal after which the cleaner cleans dispatches the read of that
    pass's victim, under the configured policy, before any write of its
    own; the read covers the victim's live sectors and nothing more, the
    pass takes it (one that cleans another slot drops it), and the
    relocated blocks read back byte-identical."""
    disk = JournalDisk(make_device("raid5"))
    lld = LLD(disk, small_config(clean_policy=policy))
    lld.initialize()
    events = attach_events(EventLog(lld.disk.clock, capacity=1 << 16), lld)
    rng = random.Random(policy)
    lid = lld.new_list()
    want = {}
    pred = LIST_HEAD
    for _ in range(int(lld.layout.capacity_bytes * 0.7) // 4096):
        pred = lld.new_block(lid, pred)
        want[pred] = rng.randbytes(4096)
        lld.write(pred, want[pred])
    reads = []  # (journal position at the seal, victim, its live extent)
    seal, plan = lld.log.seal, lld.log.plan_clean
    sealing = []  # journal position where each seal began

    def sealed() -> None:
        sealing.append(len(disk.log))
        seal()

    def watched(opening: int) -> None:
        mark = sealing[-1]
        plan(opening)
        victim = lld.cleaner.prefetched
        if victim is not None:
            live = sorted(
                (lld.state.blocks[bid] for bid in lld.state.segment_blocks[victim.slot]),
                key=lambda entry: entry.offset,
            )
            end = live[-1].offset + live[-1].stored_length
            lba, nsectors, _skew = lld.layout.block_extent(
                victim.slot, live[0].offset, end - live[0].offset
            )
            reads.append((mark, victim.slot, ("r", lba, nsectors)))

    lld.log.seal, lld.log.plan_clean = sealed, watched
    bids = list(want)
    while lld.stats.cleanings < 20:
        bid = bids[min(int(rng.expovariate(6 / len(bids))), len(bids) - 1)]
        want[bid] = rng.randbytes(4096)
        lld.write(bid, want[bid])
    assert len(reads) >= 15
    for mark, _slot, read in reads:
        assert disk.log[mark] == read  # ahead of the seal's first write
    data_area = lld.config.sectors_per_segment - lld.config.summary_sectors
    assert any(read[2] < data_area for _mark, _slot, read in reads)
    passes = [event.payload for event in events.select(name="lld.cleaner_pass")]
    assert [(p["slot"], p["prefetched"]) for p in passes if p["prefetched"] is not None] == [
        (slot, slot) for _mark, slot, _read in reads
    ]
    # A pass that cleans another slot drops the read and reads its own.
    open_index = lld.open_segment_index
    on_disk = [s for s in lld.slots.cleanable(open_index) if lld.log.resident(s) is None]
    read, other = on_disk[:2]
    lld.cleaner.prefetched = lld.cleaner._read_live_span(read, wait=False)
    lld.cleaner.clean_segment(other)
    assert events.select(name="lld.cleaner_pass")[-1].payload["prefetched"] == read
    assert lld.cleaner.prefetched is None and lld.slots.of[other] == "retired"
    lld.flush()
    assert {bid: lld.read(bid) for bid in want} == want
    lld.crash()
    fresh = LLD(disk, lld.config)
    fresh.initialize()
    assert {bid: fresh.read(bid) for bid in want} == want


def test_cleaning_open_segment_rejected():
    lld = make_lld()
    with pytest.raises(ValueError):
        lld.cleaner.clean_segment(lld.open_segment_index)


def test_out_of_space_when_disk_truly_full():
    lld = make_lld(capacity_mb=2)
    lid = lld.new_list()
    data = b"\xff" * 4096
    with pytest.raises(OutOfSpaceError):
        prev = LIST_HEAD
        for _ in range(10000):
            bid = lld.new_block(lid, prev)
            lld.write(bid, data)
            prev = bid


def test_space_recovered_after_out_of_space():
    lld = make_lld(capacity_mb=2)
    lid = lld.new_list()
    data = b"\xfe" * 4096
    bids = []
    prev = LIST_HEAD
    try:
        for _ in range(10000):
            bid = lld.new_block(lid, prev)
            lld.write(bid, data)
            bids.append(bid)
            prev = bid
    except OutOfSpaceError:
        pass
    # Delete half, space becomes usable again.
    for i, bid in enumerate(bids[: len(bids) // 2]):
        lld.delete_block(bid, lid, pred_bid_hint=bids[i - 1] if i else None)
    lid2 = lld.new_list()
    fresh = lld.new_block(lid2, LIST_HEAD)
    lld.write(fresh, data)
    assert lld.read(fresh) == data


def test_tombstone_compaction_bounds_memory(monkeypatch):
    monkeypatch.setattr("repro.lld.cleaner.MAX_TOMBSTONES", 32)
    lld = make_lld(capacity_mb=2)
    lid = lld.new_list()
    data = b"\x31" * 4096
    bids = fill_blocks(lld, lid, 150, data)
    for i, bid in enumerate(bids):
        lld.delete_block(bid, lid, pred_bid_hint=bids[i - 1] if i else None)
    lld.flush()
    # A deep compaction can always drain the table once everything is dead.
    lld.cleaner.compact_tombstones(0, deep=True)
    assert lld.stats.tombstones_dropped > 0
    assert len(lld.state.tombstones) <= 32
    recovered = reopen(lld)
    assert recovered.list_blocks(lid) == []
    assert recovered.state.live_bytes() == 0


def test_scrub_slot_rejects_live_segment():
    lld = make_lld()
    lid = lld.new_list()
    fill_blocks(lld, lid, 20)
    live_slot = next(
        s
        for s in lld.state.usage
        if lld.state.usage[s] > 0 and s != lld.open_segment_index
    )
    with pytest.raises(ValueError):
        lld.cleaner.scrub_slot(live_slot)


def test_a_scrub_destroys_no_summary_a_recovery_still_needs():
    """``LogWriter.scrub`` is handed slots it may not destroy — compaction
    targets the log opened or filled again meanwhile. The open slot, a
    slot with live data and a free one an open unit pins keep their
    summaries, and a crash recovers every block."""
    lld = make_lld()
    lid = lld.new_list()
    bids = fill_blocks(lld, lid, 40)
    lld.flush()
    pinned = lld.state.blocks[bids[0]].segment
    live = lld.state.blocks[bids[-1]].segment
    lld.begin_aru()
    for bid in bids:
        if lld.state.blocks[bid].segment == pinned:
            lld.write(bid, b"\xaa" * 4096)  # the unit empties the slot it pins
    lld.flush()
    targets = (pinned, live, lld.open_segment_index)
    assert lld.state.usage.get(pinned, 0) == 0 and live != pinned
    assert pinned in lld.slots.pinned() and lld.state.usage[live] > 0
    layout, sectors = lld.layout, lld.config.summary_sectors
    before = [lld.disk.peek(layout.slot_lba(slot), sectors) for slot in targets]
    lld.log.scrub(targets)
    assert [lld.disk.peek(layout.slot_lba(slot), sectors) for slot in targets] == before
    recovered = reopen(lld)  # the unit never commits
    assert all(recovered.read(bid) == b"\xee" * 4096 for bid in bids)


def _deletes_then_compaction(disk):
    """An LLD on ``disk`` through overwrites, fill, acknowledged deletes and
    a deep compaction, every step mirrored; returns the driver."""
    from repro.crashsim import OracleDriver
    from repro.lld import LLD

    from tests.lld.conftest import small_config

    ld = LLD(disk, small_config())
    ld.initialize()
    driver = OracleDriver(ld, disk)
    lid = driver.new_list(ld)
    pred, bids = LIST_HEAD, []
    for i in range(8):
        pred = driver.new_block(ld, lid, pred)
        bids.append(pred)
        driver.write(ld, pred, bytes([i + 1]) * 1500)
    driver.ack(ld, "base")
    for i in range(300):
        if driver.room_low(4608, 256):
            driver.ack(ld, "room")
        else:
            driver.write(ld, bids[2 + i % 6], bytes([i % 251]) * 4096)
    driver.ack(ld, "overwritten")
    extra = []
    while ld.free_segment_count() > 6:
        if driver.room_low(4608, 256):
            driver.ack(ld, "filling")
            continue
        pred = driver.new_block(ld, lid, pred)
        extra.append(pred)
        driver.write(ld, pred, bytes([len(extra) % 251]) * 4096)
    driver.ack(ld, "full")
    while extra:
        # A delete is several records: the summary must have room for all
        # of them, or the seal in the middle makes a state no ack saw. An
        # ack seals only above the fill threshold, so overwrites (one
        # record each) fill the data area until one does.
        while driver.room_low(0, 512):
            driver.ack(ld, "room")
            if driver.room_low(0, 512):
                driver.write(ld, bids[2], bytes([len(extra) % 251]) * 4096)
        driver.delete_block(ld, extra.pop(), lid)
    driver.ack(ld, "deleted")
    ld.cleaner.compact_tombstones(0, deep=True)
    driver.ack(ld, "compacted")
    return driver


def test_a_crash_inside_a_compaction_keeps_the_deletes():
    """Deep compaction right after acknowledged deletes: every crash point
    of its journal must recover the acknowledged list."""
    from repro.crashsim import CrashStateEnumerator, LLDCrashChecker, RecordingDisk
    from repro.disk import SimulatedDisk, fast_test_disk
    from repro.sim import VirtualClock

    disk = RecordingDisk(SimulatedDisk(fast_test_disk(capacity_mb=2), VirtualClock()))
    driver = _deletes_then_compaction(disk)
    enum = CrashStateEnumerator(disk, reorder_samples_per_epoch=0)
    checker = LLDCrashChecker(driver.ld.config, driver.oracle)
    states = [s for s in enum.enumerate() if s.kind == "prefix"]
    violations = [v for s in states for v in checker(enum.materialize(s), s).violations]
    assert violations == []


def test_a_compaction_scrubs_no_slot_the_log_wrote_meanwhile(monkeypatch):
    """The compaction re-logs into slots the log opens while it runs — free
    ones with old summaries, which it had picked to scrub. Scrubbing them
    destroyed what was re-logged there: deaths, whose loss brought deleted
    blocks back in a crash part-way through the scrubs (at the parent of
    this test, a strict xfail of the test above). No scrub may destroy a
    summary that homes anything."""
    from repro.crashsim import RecordingDisk
    from repro.disk import SimulatedDisk, fast_test_disk
    from repro.lld.log import LogWriter
    from repro.sim import VirtualClock

    homing: list[int] = []
    scrub = LogWriter.scrub

    def checked(self, slots):
        slots = list(slots)
        homing.extend(slot for slot in slots if self.state.slot_holds_metadata(slot))
        scrub(self, slots)

    monkeypatch.setattr(LogWriter, "scrub", checked)
    disk = RecordingDisk(SimulatedDisk(fast_test_disk(capacity_mb=2), VirtualClock()))
    driver = _deletes_then_compaction(disk)
    assert driver.ld.stats.tombstones_dropped > 0
    assert homing == []
