"""Partial-segment strategy tests (paper section 3.2).

Below the threshold a Flush writes the partial segment but keeps it in main
memory; the eventual full write replaces the same slot, so the partial
write's physical segment is recycled with no cleaning overhead.
"""

import pytest

from repro.ld import LIST_HEAD
from repro.lld.config import PARTIAL_THRESHOLD

from tests.lld.conftest import make_lld, reopen


def test_flush_below_threshold_is_partial():
    lld = make_lld()
    lid = lld.new_list()
    bid = lld.new_block(lid, LIST_HEAD)
    lld.write(bid, b"\x01" * 4096)
    lld.flush()
    assert lld.stats.partial_segment_writes == 1
    assert lld.stats.segments_sealed == 0


def test_flush_above_threshold_seals():
    lld = make_lld()
    lid = lld.new_list()
    prev = LIST_HEAD
    data_capacity = lld.config.data_capacity
    written = 0
    while (written + 4096) / data_capacity < PARTIAL_THRESHOLD:
        bid = lld.new_block(lid, prev)
        lld.write(bid, b"\x02" * 4096)
        written += 4096
        prev = bid
    lld.flush()  # just below the threshold: partial
    assert lld.stats.partial_segment_writes == 1
    assert lld.stats.segments_sealed == 0
    lld.write(lld.new_block(lid, prev), b"\x02" * 4096)
    lld.flush()  # at or above it: sealed
    assert lld.stats.segments_sealed == 1
    assert lld.stats.partial_segment_writes == 1


def test_open_segment_keeps_filling_after_partial_flush():
    lld = make_lld()
    lid = lld.new_list()
    a = lld.new_block(lid, LIST_HEAD)
    lld.write(a, b"A" * 4096)
    lld.flush()
    open_index = lld.open_segment_index
    b = lld.new_block(lid, a)
    lld.write(b, b"B" * 4096)
    # Still the same physical segment: the partial slot is being reused.
    assert lld.open_segment_index == open_index
    assert lld.read(a) == b"A" * 4096
    assert lld.read(b) == b"B" * 4096


def test_partial_then_crash_recovers_partial_content():
    lld = make_lld()
    lid = lld.new_list()
    a = lld.new_block(lid, LIST_HEAD)
    lld.write(a, b"A" * 4096)
    lld.flush()
    b = lld.new_block(lid, a)
    lld.write(b, b"B" * 4096)  # never flushed
    recovered = reopen(lld)
    assert recovered.list_blocks(lid) == [a]
    assert recovered.read(a) == b"A" * 4096


def test_multiple_partial_flushes_same_slot():
    """Successive flushes keep filling the same slot; on-disk state is
    always a superset of the previous flush (full image or delta)."""
    lld = make_lld()
    lid = lld.new_list()
    prev = LIST_HEAD
    slot = lld.open_segment_index
    for i in range(3):
        bid = lld.new_block(lid, prev)
        lld.write(bid, bytes([i]) * 2048)
        lld.flush()
        assert lld.open_segment_index == slot
        prev = bid
    assert lld.stats.partial_segment_writes == 3
    recovered = reopen(lld)
    assert len(recovered.list_blocks(lid)) == 3


def test_final_seal_supersedes_partials():
    lld = make_lld()
    lid = lld.new_list()
    a = lld.new_block(lid, LIST_HEAD)
    lld.write(a, b"early" * 100)
    lld.flush()  # partial
    prev = a
    while lld.stats.segments_sealed == 0:
        bid = lld.new_block(lid, prev)
        lld.write(bid, b"\x0f" * 4096)
        prev = bid
    recovered = reopen(lld)
    assert recovered.read(a) == b"early" * 100


def test_flush_on_empty_segment_is_noop():
    lld = make_lld()
    writes_before = lld.disk.stats.writes
    lld.flush()
    assert lld.disk.stats.writes == writes_before
    assert lld.stats.partial_segment_writes == 0


def test_partial_write_cost_is_one_disk_write():
    lld = make_lld()
    lid = lld.new_list()
    bid = lld.new_block(lid, LIST_HEAD)
    lld.write(bid, b"\x03" * 4096)
    writes_before = lld.disk.stats.writes
    lld.flush()
    assert lld.disk.stats.writes == writes_before + 1


def test_flush_rate_affects_write_volume():
    """Frequent flushes rewrite blocks multiple times (the paper's noted
    disadvantage versus Sprite LFS)."""
    frequent = make_lld()
    rare = make_lld()
    for lld, every in ((frequent, 1), (rare, 10**9)):
        lid = lld.new_list()
        prev = LIST_HEAD
        for i in range(10):
            bid = lld.new_block(lid, prev)
            lld.write(bid, b"\x04" * 4096)
            prev = bid
            if (i + 1) % every == 0:
                lld.flush()
    assert (
        frequent.disk.stats.sectors_written > rare.disk.stats.sectors_written
    )
