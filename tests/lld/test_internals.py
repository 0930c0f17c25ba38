"""Internals: recovery sweep details, checkpoint edge cases, state queries."""

import pytest

from repro.ld import LIST_HEAD
from repro.lld.checkpoint import CheckpointTooLargeError
from repro.lld.recovery import sweep_summaries
from repro.lld.state import LLDState

from tests.lld.conftest import make_lld, reopen


def test_sweep_returns_slot_ordered_summaries():
    lld = make_lld()
    lid = lld.new_list()
    prev = LIST_HEAD
    for _ in range(40):
        bid = lld.new_block(lid, prev)
        lld.write(bid, b"\x61" * 4096)
        prev = bid
    lld.flush()
    slots = [slot for slot, _records in sweep_summaries(lld)]
    assert slots == sorted(slots)
    assert len(slots) >= 2


def test_checkpoint_too_large_raises():
    """Only a shutdown raises: 4 000 lists are more table than one 16 KB
    slot holds (the write path's refusal: ``test_checkpoint_tail.py``)."""
    lld = make_lld(segment_size=16 * 1024)
    for _ in range(4000):
        lld.new_list()
    with pytest.raises(CheckpointTooLargeError):
        lld.shutdown()


def test_min_summary_timestamp_with_exclusions():
    state = LLDState()
    state.summary_min_ts = {0: 100, 1: 50, 2: 200}
    assert state.min_summary_timestamp() == 50
    assert state.min_summary_timestamp(exclude={1}) == 100
    assert state.min_summary_timestamp(exclude={0, 1}) == 200
    assert state.min_summary_timestamp(exclude={0, 1, 2}) is None


def test_find_predecessor_with_and_without_hint():
    lld = make_lld()
    lid = lld.new_list()
    a = lld.new_block(lid, LIST_HEAD)
    b = lld.new_block(lid, a)
    c = lld.new_block(lid, b)
    state = lld.state
    assert state.find_predecessor(lid, a) is None
    assert state.find_predecessor(lid, c) == b
    assert state.find_predecessor(lid, c, hint=b) == b
    # A wrong hint falls back to the scan and still finds the truth.
    assert state.find_predecessor(lid, c, hint=a) == b


def test_find_predecessor_unknown_block():
    from repro.ld.errors import NoSuchBlockError

    lld = make_lld()
    lid = lld.new_list()
    lld.new_block(lid, LIST_HEAD)
    with pytest.raises(NoSuchBlockError):
        lld.state.find_predecessor(lid, 9999)


def test_free_segment_count_excludes_open():
    lld = make_lld()
    total = lld.layout.segment_count
    assert lld.free_segment_count() == total - 1  # all but the open slot


def test_live_bytes_tracks_writes_and_deletes():
    lld = make_lld()
    lid = lld.new_list()
    assert lld.state.live_bytes() == 0
    bid = lld.new_block(lid, LIST_HEAD)
    lld.write(bid, b"\x62" * 1000)
    assert lld.state.live_bytes() == 1000
    lld.write(bid, b"\x63" * 500)
    assert lld.state.live_bytes() == 500
    lld.delete_block(bid, lid)
    assert lld.state.live_bytes() == 0


def test_stats_extra_dicts_exist():
    lld = make_lld()
    assert lld.stats.extra == {}
    lld.stats.extra["custom"] = 1
    assert lld.stats.extra["custom"] == 1


def test_summary_min_ts_updates_on_partial_and_seal():
    lld = make_lld()
    lid = lld.new_list()
    bid = lld.new_block(lid, LIST_HEAD)
    lld.write(bid, b"\x64" * 4096)
    open_slot = lld.open_segment_index
    assert open_slot not in lld.state.summary_min_ts
    lld.flush()  # partial write records the min timestamp
    assert open_slot in lld.state.summary_min_ts


def test_recovery_handles_interleaved_timestamps():
    """Records from different segments interleave by timestamp; recovery
    must apply them in global order, not per-slot order."""
    lld = make_lld()
    l1 = lld.new_list()
    l2 = lld.new_list()
    a = lld.new_block(l1, LIST_HEAD)
    # Fill to force a seal so l1/l2 updates land in different summaries.
    prev = a
    while lld.stats.segments_sealed == 0:
        filler = lld.new_block(l2, LIST_HEAD)
        lld.write(filler, b"\x65" * 4096)
    b = lld.new_block(l1, a)  # later record in a later summary
    lld.write(a, b"first")
    lld.write(b, b"second")
    lld.flush()
    recovered = reopen(lld)
    assert recovered.list_blocks(l1) == [a, b]
    assert recovered.read(a) == b"first"
    assert recovered.read(b) == b"second"
