"""Tests for segment summaries, layout math, and the open segment buffer."""

import pytest

from repro.disk import SimulatedDisk, fast_test_disk
from repro.lld.config import SECTOR, LLDConfig
from repro.lld.records import BlockRecord, LinkRecord
from repro.lld.segment import (
    DiskLayout,
    OpenSegment,
    empty_summary,
    parse_summary,
    serialize_summary,
)
from repro.sim import VirtualClock

from tests.lld.reference_codec import serialize_summary_legacy


def config():
    return LLDConfig(
        segment_size=64 * 1024,
        summary_capacity=4096,
        block_size=4096,
        checkpoint_slots=1,
    )


def test_serialize_parse_empty():
    image = serialize_summary([], 4096)
    assert len(image) == 4096
    assert parse_summary(image) == []


def test_serialize_parse_records():
    records = [LinkRecord(bid=i, successor=i + 1) for i in range(10)]
    for i, r in enumerate(records):
        r.timestamp = i + 1
    parsed = parse_summary(serialize_summary(records, 4096))
    assert parsed is not None
    assert [r.bid for r in parsed] == list(range(10))
    assert [r.timestamp for r in parsed] == list(range(1, 11))


def test_parse_rejects_garbage():
    assert parse_summary(b"\x00" * 4096) is None
    assert parse_summary(b"junk" + b"\x01" * 100) is None
    assert parse_summary(b"") is None


def test_parse_rejects_corrupted_body():
    image = bytearray(serialize_summary([LinkRecord(bid=7)], 4096))
    image[20] ^= 0xFF  # flip a bit inside the body
    assert parse_summary(bytes(image)) is None


def test_serialize_overflow_raises():
    records = [BlockRecord(bid=i) for i in range(1000)]
    with pytest.raises(ValueError):
        serialize_summary(records, 4096)


def test_layout_segment_count():
    disk = SimulatedDisk(fast_test_disk(capacity_mb=4), VirtualClock())
    layout = DiskLayout(disk, config())
    # 4 MB disk, 64 KB segments, 1 checkpoint slot -> about 62 slots.
    assert 55 <= layout.segment_count <= 63


def test_layout_slot_lba_monotonic():
    disk = SimulatedDisk(fast_test_disk(capacity_mb=4), VirtualClock())
    layout = DiskLayout(disk, config())
    lbas = [layout.slot_lba(i) for i in range(layout.segment_count)]
    assert lbas == sorted(lbas)
    assert lbas[0] == layout.checkpoint_sectors


def test_layout_rejects_tiny_disk():
    disk = SimulatedDisk(fast_test_disk(capacity_mb=16), VirtualClock())
    big = LLDConfig(segment_size=8 * 1024 * 1024, summary_capacity=4096, checkpoint_slots=1)
    with pytest.raises(ValueError):
        DiskLayout(disk, big)


def test_block_extent_sector_math():
    disk = SimulatedDisk(fast_test_disk(capacity_mb=4), VirtualClock())
    layout = DiskLayout(disk, config())
    lba, nsectors, skew = layout.block_extent(0, 0, 4096)
    assert skew == 0
    assert nsectors == 8
    assert lba == layout.slot_lba(0) + config().summary_sectors


def test_block_extent_misaligned_small_block():
    disk = SimulatedDisk(fast_test_disk(capacity_mb=4), VirtualClock())
    layout = DiskLayout(disk, config())
    # A 64-byte i-node at offset 100 still costs a whole sector.
    lba, nsectors, skew = layout.block_extent(0, 100, 64)
    assert nsectors == 1
    assert skew == 100


def test_open_segment_append_and_read():
    seg = OpenSegment(3, config())
    offset = seg.append_data(b"abc" * 100)
    assert offset == 0
    assert seg.read_data(0, 300) == b"abc" * 100
    second = seg.append_data(b"x" * 10)
    assert second == 300
    assert seg.used == 310


def test_open_segment_fill_fraction():
    cfg = config()
    seg = OpenSegment(0, cfg)
    seg.append_data(b"\x01" * (cfg.data_capacity // 2))
    assert seg.fill_fraction == pytest.approx(0.5)


def test_open_segment_data_overflow():
    cfg = config()
    seg = OpenSegment(0, cfg)
    with pytest.raises(ValueError):
        seg.append_data(b"\x01" * (cfg.data_capacity + 1))


def test_open_segment_summary_overflow():
    cfg = config()
    seg = OpenSegment(0, cfg)
    record = LinkRecord(bid=1)
    while seg.fits(0, record.packed_size):
        seg.append_record(LinkRecord(bid=1))
    with pytest.raises(ValueError):
        seg.append_record(LinkRecord(bid=1))


def test_open_segment_image_roundtrips_summary():
    cfg = config()
    seg = OpenSegment(0, cfg)
    rec = LinkRecord(bid=5, successor=None)
    rec.timestamp = 9
    seg.append_record(rec)
    seg.append_data(b"payload!" * 64)
    image = seg.image()
    assert len(image) % 512 == 0
    parsed = parse_summary(image[: cfg.summary_capacity])
    assert parsed is not None and parsed[0].bid == 5


def test_min_timestamp():
    seg = OpenSegment(0, config())
    assert seg.min_timestamp() is None
    for ts in (7, 3, 9):
        rec = LinkRecord(bid=1)
        rec.timestamp = ts
        seg.append_record(rec)
    assert seg.min_timestamp() == 3


def test_empty_summary_cached_and_identical():
    image = empty_summary(4096)
    assert image is empty_summary(4096)  # cached template
    assert image == serialize_summary([], 4096)
    assert parse_summary(image) == []


def _fill(seg, with_second_round: bool = True):
    """Identical append sequence for cross-implementation comparisons."""
    for i, ts in enumerate((5, 2, 8)):
        rec = LinkRecord(bid=i, successor=i + 1)
        rec.timestamp = ts
        seg.append_record(rec)
    seg.append_data(b"abcdefgh" * 100)
    seg.mark_durable()
    if with_second_round:
        rec = BlockRecord(bid=9, segment=seg.index, offset=800, stored_length=64)
        rec.timestamp = 11
        seg.append_record(rec)
        seg.append_data(b"Z" * 64)


def _reference_image(seg, cfg) -> bytes:
    """The slot image built from the per-entry reference codec."""
    payload = serialize_summary_legacy(seg.records, cfg.summary_capacity)
    payload += bytes(seg.data[: seg.used])
    return payload + b"\x00" * ((-len(payload)) % SECTOR)


def test_open_segment_matches_legacy_byte_for_byte():
    cfg = config()
    seg = OpenSegment(3, cfg)
    _fill(seg)
    assert bytes(seg.image()) == _reference_image(seg, cfg)
    assert seg.min_timestamp() == min(r.timestamp for r in seg.records) == 2


def test_open_segment_delta_and_tail_match_reference_codec():
    """The delta-flush views are sector-aligned slices of the same image."""
    cfg = config()
    seg = OpenSegment(3, cfg)
    _fill(seg)
    reference = _reference_image(seg, cfg)
    delta_sectors = (seg.summary_used + SECTOR - 1) // SECTOR
    assert bytes(seg.summary_delta_image()) == reference[: delta_sectors * SECTOR]
    sector, tail = seg.data_tail()
    assert sector == seg.durable_data // SECTOR == 1  # 800 durable bytes
    assert bytes(tail) == reference[cfg.summary_capacity + sector * SECTOR :]


#: Captured from the parent commit's ``LLDConfig(legacy_codecs=True)`` run
#: of the workload below (the reference generation, since deleted):
#: sha256 of the whole sector store, ``DiskStats.as_dict()``, the clock.
#: The store hash was re-captured when the summary header gained its
#: ``next`` field (the same requests at the same times, four more header
#: bytes in every summary).
_GOLDEN_DISK_SHA256 = "174052f3d4f94e6862795b68418f4496589285941f78c519841399fa79b65443"
#: The request figures were re-based
#: with seal-by-delta: the workload's one seal follows partial flushes, so
#: its 104-sector image (52 KB) became a 12-sector data tail plus a
#: 4-sector summary — one more write, 88 fewer sectors, 11 ms sooner.
_GOLDEN_CLOCK = 0.9600000000000002
_GOLDEN_DISK_STATS = {
    "barriers": 18, "busy_time": 0.9600000000000021, "bytes_read": 254464,
    "bytes_written": 67584, "head_switch_time": 0.0025,
    "overhead_time": 0.11850000000000008, "reads": 63,
    "request_sizes": {1: 1, 2: 3, 3: 2, 4: 2, 8: 63, 12: 7, 20: 1},
    "requests": 79, "rotation_time": 0.6765185185185205, "sector_size": 512,
    "sectors_read": 497, "sectors_written": 132,
    "seek_time": 0.046000000000000006, "seeks": 17,
    "transfer_time": 0.11648148148148155,
    "write_request_sizes": {2: 3, 3: 2, 4: 2, 8: 1, 12: 7, 20: 1},
    "writes": 16,
}


def test_legacy_and_optimized_disks_byte_identical():
    """The reference codec generation's disk, pinned: identical bytes, requests, clock."""
    import hashlib

    from repro.ld.hints import LIST_HEAD
    from repro.lld.lld import LLD

    disk = SimulatedDisk(fast_test_disk(capacity_mb=4), VirtualClock())
    lld = LLD(disk, LLDConfig(segment_size=64 * 1024, checkpoint_slots=1))
    lld.initialize()
    lid = lld.new_list()
    prev = LIST_HEAD
    for i in range(24):
        bid = lld.new_block(lid, prev)
        prev = bid
        lld.write(bid, bytes([i + 1]) * 2048)
        if i % 3 == 2:
            lld.flush()
    lld.delete_block(prev, lid)
    lld.flush()

    assert disk.clock.now == _GOLDEN_CLOCK
    assert disk.sectors_populated == 112
    assert disk.stats.as_dict() == _GOLDEN_DISK_STATS
    image = disk.peek(0, disk.geometry.total_sectors)
    assert hashlib.sha256(image).hexdigest() == _GOLDEN_DISK_SHA256
