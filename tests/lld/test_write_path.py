"""Delta partial-segment flush tests (the incremental write path).

The paper's §3.2 strategy rewrites the whole open-segment image on every
below-threshold Flush. The delta write path keeps a durable watermark in
the open segment and writes only the summary prefix plus the data tail —
at most two contiguous writes — while recovery must see byte-identical
state either way.
"""

import pytest

from repro.ld import LIST_HEAD
from repro.lld import LLD
from repro.lld.nvram import NVRAM

from tests.lld.conftest import make_lld, reopen


def fill_block(i: int, size: int = 4096) -> bytes:
    return bytes([i % 251 + 1]) * size


def recovered_image(lld: LLD) -> dict:
    """Everything a client could observe after recovery."""
    blocks = {bid: lld.read(bid) for bid in sorted(lld.state.blocks)}
    lists = {lid: lld.list_blocks(lid) for lid in sorted(lld.state.lists)}
    return {"blocks": blocks, "lists": lists}


def run_small_write_workload(lld: LLD, count: int = 8) -> tuple[int, list[int]]:
    """``count`` small synced appends to one list; returns (lid, bids)."""
    lid = lld.new_list()
    prev = LIST_HEAD
    bids = []
    for i in range(count):
        bid = lld.new_block(lid, prev)
        lld.write(bid, fill_block(i, 2048))
        lld.flush()
        prev = bid
        bids.append(bid)
    return lid, bids


# ----------------------------------------------------------------------
# Delta-write invariants
# ----------------------------------------------------------------------


def test_first_partial_flush_is_one_full_image_write():
    lld = make_lld()
    lid = lld.new_list()
    bid = lld.new_block(lid, LIST_HEAD)
    lld.write(bid, fill_block(1))
    writes_before = lld.disk.stats.writes
    lld.flush()
    assert lld.disk.stats.writes == writes_before + 1
    assert lld.stats.partial_full_writes == 1
    assert lld.stats.partial_delta_flushes == 0


def test_subsequent_partial_flush_is_at_most_two_writes():
    lld = make_lld()
    lid = lld.new_list()
    a = lld.new_block(lid, LIST_HEAD)
    lld.write(a, fill_block(1))
    lld.flush()
    b = lld.new_block(lid, a)
    lld.write(b, fill_block(2))
    writes_before = lld.disk.stats.writes
    sectors_before = lld.disk.stats.sectors_written
    lld.flush()
    assert lld.disk.stats.writes - writes_before <= 2
    # The delta is tiny compared to the slot: one block of data plus a
    # summary prefix, not the whole accumulated image.
    delta_sectors = lld.disk.stats.sectors_written - sectors_before
    assert delta_sectors * 512 < lld.config.segment_size // 4
    assert lld.stats.partial_delta_flushes == 1


def test_delta_flush_cost_stays_flat_as_segment_fills():
    """The O(n^2) fix: flush cost tracks the delta, not the fill level."""
    lld = make_lld()
    lid = lld.new_list()
    prev = LIST_HEAD
    per_flush_sectors = []
    for i in range(6):
        bid = lld.new_block(lid, prev)
        lld.write(bid, fill_block(i))
        before = lld.disk.stats.sectors_written
        lld.flush()
        per_flush_sectors.append(lld.disk.stats.sectors_written - before)
        prev = bid
    # After the first (full-image) flush, every delta flush costs about
    # the same, instead of growing with the accumulated data.
    deltas = per_flush_sectors[1:]
    assert max(deltas) <= deltas[0] + lld.config.summary_sectors


def test_full_image_path_grows_per_flush():
    """The pre-change baseline really does rewrite everything each time."""
    lld = make_lld(delta_partial_flush=False)
    lid = lld.new_list()
    prev = LIST_HEAD
    per_flush_sectors = []
    for i in range(4):
        bid = lld.new_block(lid, prev)
        lld.write(bid, fill_block(i))
        before = lld.disk.stats.sectors_written
        lld.flush()
        per_flush_sectors.append(lld.disk.stats.sectors_written - before)
        prev = bid
    assert per_flush_sectors == sorted(per_flush_sectors)
    assert per_flush_sectors[-1] > per_flush_sectors[0]
    assert lld.stats.partial_delta_flushes == 0


def test_metadata_only_flush_writes_summary_only():
    lld = make_lld()
    lld.new_list()
    lld.flush()  # first flush on the slot: full image (summary only)
    lld.new_list()
    writes_before = lld.disk.stats.writes
    lld.flush()
    assert lld.disk.stats.writes == writes_before + 1
    assert lld.stats.partial_delta_summary_bytes > 0
    assert lld.stats.partial_delta_data_bytes == 0


def test_clean_partial_flush_writes_nothing():
    lld = make_lld()
    lid = lld.new_list()
    bid = lld.new_block(lid, LIST_HEAD)
    lld.write(bid, fill_block(1))
    lld.flush()
    writes_before = lld.disk.stats.writes
    partials_before = lld.stats.partial_segment_writes
    lld.flush()  # nothing new since the last flush
    assert lld.disk.stats.writes == writes_before
    assert lld.stats.partial_segment_writes == partials_before
    assert lld.stats.partial_delta_noop == 1


def test_flush_counters_skip_empty_noops():
    lld = make_lld()
    lld.flush()
    lld.flush()
    assert lld.stats.flushes == 0
    assert lld.stats.flushes_noop == 2
    lid = lld.new_list()
    bid = lld.new_block(lid, LIST_HEAD)
    lld.write(bid, fill_block(1))
    lld.flush()
    assert lld.stats.flushes == 1
    assert lld.stats.flushes_noop == 2


def test_write_amplification_accounting():
    lld = make_lld(delta_partial_flush=False)
    lid = lld.new_list()
    prev = LIST_HEAD
    for i in range(5):
        bid = lld.new_block(lid, prev)
        lld.write(bid, fill_block(i))
        lld.flush()
        prev = bid
    full = lld.stats
    assert full.data_bytes_logical == 5 * 4096
    assert full.data_bytes_physical > full.data_bytes_logical
    assert full.write_amplification > 1.0

    delta_lld = make_lld()
    lid = delta_lld.new_list()
    prev = LIST_HEAD
    for i in range(5):
        bid = delta_lld.new_block(lid, prev)
        delta_lld.write(bid, fill_block(i))
        delta_lld.flush()
        prev = bid
    assert delta_lld.stats.data_bytes_logical == full.data_bytes_logical
    assert delta_lld.stats.data_bytes_physical < full.data_bytes_physical
    assert "write_amplification" in delta_lld.stats.as_dict()


# ----------------------------------------------------------------------
# Crash-recovery equivalence with the full-image path
# ----------------------------------------------------------------------


def workload_then_crash(delta: bool, nvram: NVRAM | None = None) -> dict:
    lld = make_lld(delta_partial_flush=delta, nvram=nvram)
    lid, bids = run_small_write_workload(lld, count=10)
    # Overwrite one already-durable block, delete another, then flush, so
    # the delta path sees updates as well as appends.
    lld.write(bids[1], fill_block(99, 1024))
    lld.delete_block(bids[2], lid)
    lld.flush()
    recovered = LLD(lld.disk, lld.config, nvram=nvram)
    lld.crash()
    recovered.initialize()
    return recovered_image(recovered)


def test_recovery_equivalence_delta_vs_full_image():
    assert workload_then_crash(delta=True) == workload_then_crash(delta=False)


def test_recovery_equivalence_with_nvram_absorption():
    # A small NVRAM absorbs early flushes and overflows later, exercising
    # the watermark reset on absorption and the fall-back to delta writes.
    with_nvram = workload_then_crash(delta=True, nvram=NVRAM(capacity_bytes=24 * 1024))
    without = workload_then_crash(delta=False)
    assert with_nvram == without


def test_recovery_equivalence_across_partial_sequence():
    """Crash after every prefix of the flush sequence matches the baseline."""
    for crash_after in (1, 3, 7):
        images = []
        for delta in (True, False):
            lld = make_lld(delta_partial_flush=delta)
            lid = lld.new_list()
            prev = LIST_HEAD
            for i in range(crash_after):
                bid = lld.new_block(lid, prev)
                lld.write(bid, fill_block(i, 3000))
                lld.flush()
                prev = bid
            recovered = reopen(lld)
            images.append(recovered_image(recovered))
        assert images[0] == images[1], f"diverged after {crash_after} flushes"


def test_nvram_watermark_reset_falls_back_to_full_image():
    nvram = NVRAM(capacity_bytes=20 * 1024)
    lld = make_lld(nvram=nvram)
    lid = lld.new_list()
    a = lld.new_block(lid, LIST_HEAD)
    lld.write(a, fill_block(1))
    lld.flush()
    assert lld.stats.nvram_absorbed == 1
    assert lld.log.open.never_flushed  # watermark was reset on absorption
    b = lld.new_block(lid, a)
    lld.write(b, fill_block(2))
    lld.write(lld.new_block(lid, b), fill_block(3))
    lld.write(lld.new_block(lid, b), fill_block(4))
    lld.write(lld.new_block(lid, b), fill_block(5))
    lld.flush()  # image no longer fits in NVRAM -> full image to disk
    assert nvram.overflows == 1
    assert not nvram.holds_data  # superseded by the disk copy
    assert lld.stats.partial_full_writes == 1
    recovered = reopen(lld)
    assert recovered.read(a) == fill_block(1)
    assert recovered.read(b) == fill_block(2)


def test_seal_after_deltas_recovers_identically():
    for delta in (True, False):
        lld = make_lld(delta_partial_flush=delta)
        lid = lld.new_list()
        a = lld.new_block(lid, LIST_HEAD)
        lld.write(a, b"early" * 100)
        lld.flush()
        prev = a
        while lld.stats.segments_sealed == 0:
            bid = lld.new_block(lid, prev)
            lld.write(bid, fill_block(7))
            lld.flush()
            prev = bid
        recovered = reopen(lld)
        assert recovered.read(a) == b"early" * 100


# ----------------------------------------------------------------------
# Free-slot set (incremental _pick_free_slot input)
# ----------------------------------------------------------------------


def brute_force_free_slots(lld: LLD) -> set:
    return {
        slot
        for slot in range(lld.layout.segment_count)
        if lld.state.usage.get(slot, 0) <= 0
    }


def test_free_slot_set_matches_usage_scan_through_churn():
    lld = make_lld(capacity_mb=2)
    assert lld.slots.empty == brute_force_free_slots(lld)
    lid = lld.new_list()
    prev = LIST_HEAD
    bids = []
    # Fill enough to seal several segments, then delete to free them.
    for i in range(100):
        bid = lld.new_block(lid, prev)
        lld.write(bid, fill_block(i))
        prev = bid
        bids.append(bid)
    lld.flush()
    assert lld.slots.empty == brute_force_free_slots(lld)
    for bid in bids[:60]:
        lld.delete_block(bid, lid)
    lld.flush()
    assert lld.slots.empty == brute_force_free_slots(lld)
    lld.clean(2)
    assert lld.slots.empty == brute_force_free_slots(lld)
    recovered = reopen(lld)
    assert recovered.slots.empty == brute_force_free_slots(recovered)


def test_free_slot_set_survives_clean_shutdown():
    lld = make_lld()
    lid = lld.new_list()
    bid = lld.new_block(lid, LIST_HEAD)
    lld.write(bid, fill_block(1))
    recovered = reopen(lld, after_crash=False)
    assert recovered.slots.empty == brute_force_free_slots(recovered)


# ----------------------------------------------------------------------
# One funnel: every byte the LD writes is counted
# ----------------------------------------------------------------------


def test_scrub_writes_are_counted_as_physical_bytes(monkeypatch):
    """``data_bytes_physical`` is what reached the disk, scrubs included.

    Tombstone compaction and ``scrub_slot`` overwrite stale summaries; a
    writer that bypasses the funnel makes ``write_amplification``
    under-report delete-heavy runs. No shutdown here, so no checkpoint
    bytes muddy the equality.
    """
    monkeypatch.setattr("repro.lld.cleaner.MAX_TOMBSTONES", 32)
    lld = make_lld()
    compactions = []
    compact = lld.cleaner.compact_tombstones
    lld.cleaner.compact_tombstones = lambda *a, **kw: compactions.append(compact(*a, **kw))
    for round_ in range(40):
        lid = lld.new_list()
        prev = LIST_HEAD
        for i in range(40):
            prev = lld.new_block(lid, prev)
            lld.write(prev, fill_block(round_ * 40 + i, 1024))
        lld.delete_list(lid)
    lld.flush()
    assert compactions and lld.stats.tombstones_dropped > 0
    state = lld.state
    stale = [
        slot
        for slot in sorted(state.summary_min_ts)
        if slot != lld.open_segment_index and state.usage.get(slot, 0) <= 0
    ]
    assert stale
    lld.cleaner.scrub_slot(stale[0])
    assert stale[0] not in state.summary_min_ts
    assert lld.stats.data_bytes_physical == lld.disk.stats.bytes_written


def test_nvram_replay_is_counted_as_physical_bytes():
    nvram = NVRAM(capacity_bytes=20 * 1024)
    lld = make_lld(nvram=nvram)
    lid = lld.new_list()
    lld.write(lld.new_block(lid, LIST_HEAD), fill_block(1))
    lld.flush()
    assert nvram.holds_data
    written = lld.disk.stats.bytes_written
    recovered = LLD(lld.disk, lld.config, nvram=nvram)
    lld.crash()
    recovered.initialize()
    replayed = lld.disk.stats.bytes_written - written
    assert replayed == len(nvram.image) > 0
    assert recovered.stats.data_bytes_physical == replayed
