"""Tests for the update-in-place LD implementation."""

import pytest

from repro.disk import SimulatedDisk, fast_test_disk
from repro.ld import LIST_HEAD
from repro.ld.errors import (
    ARUError,
    LDError,
    NoSuchBlockError,
    NoSuchListError,
    OutOfSpaceError,
)
from repro.sim import VirtualClock
from repro.uld import ULD


def make_uld(capacity_mb: int = 4) -> ULD:
    disk = SimulatedDisk(fast_test_disk(capacity_mb=capacity_mb), VirtualClock())
    uld = ULD(disk)
    uld.initialize()
    return uld


def reopen(uld: ULD, after_crash: bool = True) -> ULD:
    if after_crash:
        uld.crash()
    else:
        uld.shutdown()
    fresh = ULD(uld.disk)
    fresh.initialize()
    return fresh


def test_basic_roundtrip():
    uld = make_uld()
    lid = uld.new_list()
    bid = uld.new_block(lid, LIST_HEAD)
    uld.write(bid, b"in place")
    assert uld.read(bid) == b"in place"


def test_unwritten_block_reads_empty():
    uld = make_uld()
    lid = uld.new_list()
    bid = uld.new_block(lid, LIST_HEAD)
    assert uld.read(bid) == b""


def test_overwrite_stays_in_same_slot():
    """Update-in-place: the physical home never moves."""
    uld = make_uld()
    lid = uld.new_list()
    bid = uld.new_block(lid, LIST_HEAD)
    uld.write(bid, b"v1")
    slot = uld._blocks[bid].slot
    uld.write(bid, b"v2")
    assert uld._blocks[bid].slot == slot
    assert uld.read(bid) == b"v2"


def test_list_order_allocation_clusters_slots():
    uld = make_uld()
    lid = uld.new_list()
    prev = LIST_HEAD
    slots = []
    for _ in range(10):
        bid = uld.new_block(lid, prev)
        uld.write(bid, b"\x01" * 4096)
        slots.append(uld._blocks[bid].slot)
        prev = bid
    assert slots == sorted(slots)
    assert slots[-1] - slots[0] == 9  # perfectly contiguous


def test_list_operations():
    uld = make_uld()
    lid = uld.new_list()
    a = uld.new_block(lid, LIST_HEAD)
    b = uld.new_block(lid, a)
    c = uld.new_block(lid, a)
    assert uld.list_blocks(lid) == [a, c, b]
    uld.delete_block(c, lid, pred_bid_hint=a)
    assert uld.list_blocks(lid) == [a, b]


def test_delete_list_frees_slots():
    uld = make_uld()
    lid = uld.new_list()
    a = uld.new_block(lid, LIST_HEAD)
    uld.write(a, b"x" * 4096)
    free_before = len(uld._free_slots)
    uld.delete_list(lid)
    assert len(uld._free_slots) == free_before + 1
    with pytest.raises(NoSuchListError):
        uld.list_blocks(lid)


def test_flush_persists_metadata_across_crash():
    uld = make_uld()
    lid = uld.new_list()
    bid = uld.new_block(lid, LIST_HEAD)
    uld.write(bid, b"durable data")
    uld.flush()
    fresh = reopen(uld)
    assert fresh.read(bid) == b"durable data"
    assert fresh.list_blocks(lid) == [bid]


def test_unflushed_metadata_lost_on_crash():
    uld = make_uld()
    lid = uld.new_list()
    uld.flush()
    bid = uld.new_block(lid, LIST_HEAD)
    fresh = reopen(uld)
    assert fresh.list_blocks(lid) == []


def test_shadow_paging_survives_torn_flush():
    """Corrupting the newest metadata copy falls back to the older one."""
    uld = make_uld()
    lid = uld.new_list()
    bid = uld.new_block(lid, LIST_HEAD)
    uld.write(bid, b"old state")
    uld.flush()  # seq 1 -> copy B
    uld.write(bid, b"new state")
    uld.flush()  # seq 2 -> copy A
    newest = uld._meta_lbas[uld._meta_seq % 2]
    uld.disk.corrupt(newest, 1)
    fresh = reopen(uld)
    # Fallback to the older metadata: the block still exists.
    assert fresh.list_blocks(lid) == [bid]


def test_aru_buffers_writes_until_commit():
    uld = make_uld()
    lid = uld.new_list()
    bid = uld.new_block(lid, LIST_HEAD)
    uld.write(bid, b"before")
    uld.begin_aru()
    uld.write(bid, b"inside aru")
    assert uld.read(bid) == b"inside aru"  # visible to the writer
    slot = uld._blocks[bid].slot
    raw = uld.disk.peek(uld._slot_lba(slot), 1)
    assert raw.startswith(b"before")  # but not yet on disk
    uld.end_aru()
    raw = uld.disk.peek(uld._slot_lba(slot), 1)
    assert raw.startswith(b"inside aru")


def test_nested_aru_rejected():
    uld = make_uld()
    uld.begin_aru()
    with pytest.raises(ARUError):
        uld.begin_aru()


def test_flush_inside_aru_deferred():
    uld = make_uld()
    lid = uld.new_list()
    uld.flush()
    uld.begin_aru()
    bid = uld.new_block(lid, LIST_HEAD)
    uld.flush()  # must not create a durability point mid-ARU
    fresh = reopen(uld)
    assert fresh.list_blocks(lid) == []


def test_out_of_space():
    uld = make_uld(capacity_mb=2)
    lid = uld.new_list()
    with pytest.raises(OutOfSpaceError):
        prev = LIST_HEAD
        for _ in range(10000):
            bid = uld.new_block(lid, prev)
            uld.write(bid, b"\x01" * 4096)
            prev = bid


def test_reservations():
    uld = make_uld()
    lid = uld.new_list()
    reservation = uld.reserve_blocks(2)
    uld.new_block(lid, LIST_HEAD, reservation=reservation)
    assert reservation.blocks == 1
    uld.cancel_reservation(reservation)


def test_move_sublist():
    uld = make_uld()
    src = uld.new_list()
    dst = uld.new_list()
    a = uld.new_block(src, LIST_HEAD)
    b = uld.new_block(src, a)
    uld.move_sublist(a, b, src, dst, LIST_HEAD)
    assert uld.list_blocks(src) == []
    assert uld.list_blocks(dst) == [a, b]


def test_requires_initialize():
    disk = SimulatedDisk(fast_test_disk(capacity_mb=2), VirtualClock())
    uld = ULD(disk)
    with pytest.raises(LDError):
        uld.read(1)
