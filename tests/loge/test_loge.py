"""Tests for the Loge-style controller (paper section 5.2)."""

import pytest

from repro.disk import SimulatedDisk, fast_test_disk
from repro.ld import LIST_HEAD
from repro.ld.errors import ARUError, NoSuchBlockError, OutOfSpaceError
from repro.loge import LogeDisk
from repro.sim import VirtualClock


def make_loge(capacity_mb: int = 4) -> LogeDisk:
    disk = SimulatedDisk(fast_test_disk(capacity_mb=capacity_mb), VirtualClock())
    loge = LogeDisk(disk)
    loge.initialize()
    return loge


def test_basic_roundtrip():
    loge = make_loge()
    lid = loge.new_list()
    bid = loge.new_block(lid, LIST_HEAD)
    loge.write(bid, b"self-organizing")
    assert loge.read(bid) == b"self-organizing"


def test_every_write_changes_physical_location():
    """Loge never updates in place: each write goes to a fresh slot."""
    loge = make_loge()
    lid = loge.new_list()
    bid = loge.new_block(lid, LIST_HEAD)
    loge.write(bid, b"v1")
    slot1 = loge._table[bid]
    loge.write(bid, b"v2")
    slot2 = loge._table[bid]
    assert slot1 != slot2
    assert loge.read(bid) == b"v2"


def test_old_slot_returns_to_free_pool():
    loge = make_loge()
    lid = loge.new_list()
    bid = loge.new_block(lid, LIST_HEAD)
    loge.write(bid, b"v1")
    slot1 = loge._table[bid]
    loge.write(bid, b"v2")
    assert slot1 in loge._free_slots


def test_writes_are_individually_durable():
    """Recovery finds every written block — no flush required."""
    loge = make_loge()
    lid = loge.new_list()
    bids = []
    for i in range(10):
        bid = loge.new_block(lid, LIST_HEAD)
        loge.write(bid, bytes([i]) * 100)
        bids.append(bid)
    loge.crash()
    fresh = LogeDisk(loge.disk)
    fresh.initialize()
    for i, bid in enumerate(bids):
        assert fresh.read(bid) == bytes([i]) * 100


def test_latest_version_wins_after_recovery():
    loge = make_loge()
    lid = loge.new_list()
    bid = loge.new_block(lid, LIST_HEAD)
    for i in range(5):
        loge.write(bid, bytes([i]) * 64)
    loge.crash()
    fresh = LogeDisk(loge.disk)
    fresh.initialize()
    assert fresh.read(bid) == bytes([4]) * 64


def test_recovery_reads_whole_disk():
    """Loge's recovery cost: a scan of every physical block."""
    loge = make_loge()
    lid = loge.new_list()
    bid = loge.new_block(lid, LIST_HEAD)
    loge.write(bid, b"x")
    loge.crash()
    fresh = LogeDisk(loge.disk)
    fresh.initialize()
    total = loge.disk.geometry.total_sectors
    assert fresh.recovery_sectors_read >= total * 0.95


def test_list_info_is_volatile():
    """The controller cannot recover relationships from the I/O stream."""
    loge = make_loge()
    lid = loge.new_list()
    bid = loge.new_block(lid, LIST_HEAD)
    loge.write(bid, b"data")
    loge.crash()
    fresh = LogeDisk(loge.disk)
    fresh.initialize()
    from repro.ld.errors import NoSuchListError

    with pytest.raises(NoSuchListError):
        fresh.list_blocks(lid)
    # The block itself is recovered (from its header), just unlinked.
    assert fresh.read(bid) == b"data"


def test_no_aru_support():
    loge = make_loge()
    with pytest.raises(ARUError):
        loge.begin_aru()
    with pytest.raises(ARUError):
        loge.end_aru()


def test_placement_prefers_nearby_slots():
    loge = make_loge()
    lid = loge.new_list()
    # Park the head somewhere in the middle of the disk.
    middle = loge.slot_count // 2
    loge.disk.read(loge._slot_lba(middle), 1)
    bid = loge.new_block(lid, LIST_HEAD)
    loge.write(bid, b"near me")
    chosen = loge._table[bid]
    geometry = loge.disk.geometry
    head_cyl = geometry.cylinder_of(loge._slot_lba(middle))
    chosen_cyl = geometry.cylinder_of(loge._slot_lba(chosen))
    assert abs(chosen_cyl - head_cyl) <= 1


def test_reserved_pool_limits_allocation():
    loge = make_loge(capacity_mb=2)
    lid = loge.new_list()
    with pytest.raises(OutOfSpaceError):
        for _ in range(100000):
            bid = loge.new_block(lid, LIST_HEAD)
            loge.write(bid, b"\x01" * 4096)
    # Some slots remain reserved for Loge's internal operation.
    assert len(loge._free_slots) >= int(loge.slot_count * 0.04)


def test_delete_block_frees_slot():
    loge = make_loge()
    lid = loge.new_list()
    bid = loge.new_block(lid, LIST_HEAD)
    loge.write(bid, b"bye")
    slot = loge._table[bid]
    loge.delete_block(bid, lid)
    assert slot in loge._free_slots
    with pytest.raises(NoSuchBlockError):
        loge.read(bid)


def test_flush_is_noop():
    loge = make_loge()
    writes = loge.disk.stats.writes
    loge.flush()
    assert loge.disk.stats.writes == writes
