"""Segment cleaner tests: policies, clustering, metadata re-logging."""

import random

import pytest

from repro.ld import LIST_HEAD
from repro.ld.errors import OutOfSpaceError

from tests.lld.conftest import make_lld, reopen


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
        usage.get(s, 0) for s in lld.cleaner.candidate_segments()
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
    candidates = lld.cleaner.candidate_segments()
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


def test_tombstone_compaction_bounds_memory():
    lld = make_lld(capacity_mb=2, max_tombstones=32)
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


def _deletes_then_compaction(disk):
    """An LLD on ``disk`` through overwrites, fill, acknowledged deletes and
    a deep compaction, every step mirrored; returns the driver."""
    from repro.crashsim import OracleDriver
    from repro.lld import LLD

    from tests.lld.conftest import small_config

    ld = LLD(disk, small_config(torn_write_protection=True))
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
