"""Crash-recovery tests: one-sweep rebuild from segment summaries."""

import pytest

from repro.ld import LIST_HEAD
from repro.ld.errors import NoSuchBlockError, NoSuchListError

from tests.lld.conftest import make_lld, reopen


def test_recovery_on_empty_disk():
    lld = make_lld()
    assert lld.recovery_report is not None
    assert lld.recovery_report.records_applied == 0


def test_flushed_data_survives_crash():
    lld = make_lld()
    lid = lld.new_list()
    bid = lld.new_block(lid, LIST_HEAD)
    lld.write(bid, b"durable" * 100)
    lld.flush()
    recovered = reopen(lld)
    assert recovered.read(bid) == b"durable" * 100
    assert recovered.list_blocks(lid) == [bid]


def test_unflushed_data_lost_on_crash():
    lld = make_lld()
    lid = lld.new_list()
    bid = lld.new_block(lid, LIST_HEAD)
    lld.flush()
    bid2 = lld.new_block(lid, bid)
    lld.write(bid2, b"volatile")
    recovered = reopen(lld)  # crash without flush
    assert recovered.list_blocks(lid) == [bid]
    with pytest.raises(NoSuchBlockError):
        recovered.read(bid2)


def test_sealed_segments_survive_without_flush():
    """Data in segments already written to disk needs no flush."""
    lld = make_lld()
    lid = lld.new_list()
    prev = LIST_HEAD
    bids = []
    for _ in range(40):  # > 2 segments worth of 4 KB blocks
        bid = lld.new_block(lid, prev)
        lld.write(bid, b"\x42" * 4096)
        bids.append(bid)
        prev = bid
    assert lld.stats.segments_sealed >= 2
    recovered = reopen(lld)
    # At least the blocks in sealed segments survive.
    surviving = [b for b in bids if b in recovered.state.blocks]
    assert len(surviving) >= 15 * lld.stats.segments_sealed // 2


def test_recovery_restores_list_structure():
    lld = make_lld()
    l1 = lld.new_list()
    l2 = lld.new_list()
    a = lld.new_block(l1, LIST_HEAD)
    b = lld.new_block(l1, a)
    c = lld.new_block(l1, a)  # between a and b
    d = lld.new_block(l2, LIST_HEAD)
    lld.delete_block(b, l1)
    lld.flush()
    recovered = reopen(lld)
    assert recovered.list_blocks(l1) == [a, c]
    assert recovered.list_blocks(l2) == [d]


def test_recovery_restores_latest_version():
    lld = make_lld()
    lid = lld.new_list()
    bid = lld.new_block(lid, LIST_HEAD)
    for i in range(10):
        lld.write(bid, bytes([i]) * 256)
    lld.flush()
    recovered = reopen(lld)
    assert recovered.read(bid) == bytes([9]) * 256


def test_recovery_after_delete_does_not_resurrect():
    lld = make_lld()
    lid = lld.new_list()
    bid = lld.new_block(lid, LIST_HEAD)
    lld.write(bid, b"ghost" * 100)
    lld.flush()
    lld.delete_block(bid, lid)
    lld.flush()
    recovered = reopen(lld)
    with pytest.raises(NoSuchBlockError):
        recovered.read(bid)
    assert recovered.list_blocks(lid) == []


def test_recovery_after_delete_list():
    lld = make_lld()
    lid = lld.new_list()
    bids = []
    prev = LIST_HEAD
    for _ in range(5):
        bid = lld.new_block(lid, prev)
        lld.write(bid, b"\x11" * 512)
        bids.append(bid)
        prev = bid
    lld.flush()
    lld.delete_list(lid)
    lld.flush()
    recovered = reopen(lld)
    with pytest.raises(NoSuchListError):
        recovered.list_blocks(lid)
    for bid in bids:
        assert bid not in recovered.state.blocks


def test_recovery_is_idempotent():
    lld = make_lld()
    lid = lld.new_list()
    bid = lld.new_block(lid, LIST_HEAD)
    lld.write(bid, b"stable")
    lld.flush()
    first = reopen(lld)
    second = reopen(first)
    assert second.read(bid) == b"stable"
    assert second.list_blocks(lid) == [bid]


def test_recovery_reads_only_summaries():
    """One-sweep recovery: read volume ~ summaries, not whole disk."""
    lld = make_lld()
    lid = lld.new_list()
    prev = LIST_HEAD
    for _ in range(60):
        bid = lld.new_block(lid, prev)
        lld.write(bid, b"\x77" * 4096)
        prev = bid
    lld.flush()
    lld.crash()
    from repro.lld import LLD

    fresh = LLD(lld.disk, lld.config)
    before = lld.disk.stats.as_dict()
    fresh.initialize()
    sectors_read = lld.disk.stats.sectors_read - before["sectors_read"]
    max_expected = (
        fresh.layout.segment_count * fresh.config.summary_sectors
        + fresh.layout.checkpoint_sectors
        + 8
    )
    assert sectors_read <= max_expected


def test_recovery_report_counts():
    lld = make_lld()
    lid = lld.new_list()
    bid = lld.new_block(lid, LIST_HEAD)
    lld.write(bid, b"x")
    lld.flush()
    recovered = reopen(lld)
    report = recovered.recovery_report
    assert report is not None
    assert report.records_applied >= 4  # meta, first, link, block
    assert report.records_discarded == 0
    assert report.simulated_seconds > 0
    assert "recovery" in str(report)


def test_recovery_survives_corrupted_summary():
    """A torn/corrupt summary is skipped, not fatal (checksum guard)."""
    lld = make_lld()
    lid = lld.new_list()
    bid = lld.new_block(lid, LIST_HEAD)
    lld.write(bid, b"keep me")
    lld.flush()
    # Corrupt the summary of an unused slot and of a random high slot.
    victim = lld.layout.segment_count - 1
    lld.disk.corrupt(lld.layout.slot_lba(victim), 2)
    recovered = reopen(lld)
    assert recovered.read(bid) == b"keep me"


def test_next_ids_monotonic_after_recovery():
    lld = make_lld()
    lid = lld.new_list()
    bids = [lld.new_block(lid, LIST_HEAD) for _ in range(5)]
    lld.flush()
    recovered = reopen(lld)
    new_bid = recovered.new_block(lid, LIST_HEAD)
    assert new_bid not in bids
    new_lid = recovered.new_list()
    assert new_lid != lid


def test_compressed_blocks_survive_recovery():
    from repro.compress.data import compressible_bytes
    from repro.ld import ListHints

    lld = make_lld()
    lid = lld.new_list(hints=ListHints(compress=True))
    bid = lld.new_block(lid, LIST_HEAD)
    data = compressible_bytes(4096, ratio=0.6, seed=13)
    lld.write(bid, data)
    assert lld.state.blocks[bid].compressed
    lld.flush()
    recovered = reopen(lld)
    assert recovered.read(bid) == data


# ----------------------------------------------------------------------
# The summary sweep
# ----------------------------------------------------------------------


def test_sweep_issues_one_request_per_slot_on_wide_segments():
    """One read request per slot's summary: at the tests' 64 KB segments,
    and at 8 KB too, where streaming over the gap between neighbouring
    summaries would cost less than a fresh request, and one more for the
    newest summary's last data sector. A damaged summary is skipped, and
    the recovered blocks read back."""
    for segment_size, summary_capacity in ((64 * 1024, 4096), (8192, 512)):
        lld = make_lld(segment_size=segment_size, summary_capacity=summary_capacity)
        lid = lld.new_list()
        bids, pred = [], LIST_HEAD
        for i in range(6):
            pred = lld.new_block(lid, pred)
            lld.write(pred, bytes([i + 1]) * 2048)
            bids.append(pred)
        lld.flush()
        victim = lld.layout.segment_count - 1
        lld.disk.corrupt(lld.layout.slot_lba(victim), 1)
        recovered = reopen(lld)
        report = recovered.recovery_report
        assert report.checkpoint_sequence == 0  # swept
        assert report.summary_read_requests == report.segments_scanned + 1
        assert report.segments_scanned == lld.layout.segment_count
        for i, bid in enumerate(bids):
            assert recovered.read(bid) == bytes([i + 1]) * 2048
