"""Clean shutdown / startup via the checkpoint region (paper §3.6)."""

import pytest

from repro.ld import LIST_HEAD, ListHints
from repro.lld import LLD

from tests.lld.conftest import make_lld, reopen


def test_clean_shutdown_skips_recovery():
    lld = make_lld()
    lid = lld.new_list()
    bid = lld.new_block(lid, LIST_HEAD)
    lld.write(bid, b"checkpointed")
    fresh = reopen(lld, after_crash=False)
    assert fresh.recovery_report.checkpoint_sequence  # loaded from checkpoint
    assert fresh.read(bid) == b"checkpointed"
    assert fresh.list_blocks(lid) == [bid]


def test_clean_startup_is_cheaper_than_recovery():
    def populated(after_crash):
        lld = make_lld()
        lid = lld.new_list()
        prev = LIST_HEAD
        for _ in range(50):
            b = lld.new_block(lid, prev)
            lld.write(b, b"\x10" * 4096)
            prev = b
        lld.flush()
        if after_crash:
            lld.crash()
        else:
            lld.shutdown()
        before = lld.disk.clock.now
        fresh = LLD(lld.disk, lld.config)
        fresh.initialize()
        return lld.disk.clock.now - before

    assert populated(after_crash=False) < populated(after_crash=True)


def test_checkpoint_marker_invalidated_after_load():
    """A crash after a clean startup must trigger recovery, not reuse a
    stale checkpoint image."""
    lld = make_lld()
    lid = lld.new_list()
    bid = lld.new_block(lid, LIST_HEAD)
    lld.write(bid, b"v1")
    fresh = reopen(lld, after_crash=False)  # clean shutdown + load
    fresh.write(bid, b"v2")
    fresh.flush()
    recovered = reopen(fresh)  # crash: checkpoint must not resurrect v1
    assert recovered.recovery_report is not None
    assert recovered.read(bid) == b"v2"


def test_checkpoint_preserves_hints_and_order():
    lld = make_lld()
    l1 = lld.new_list(hints=ListHints(compress=True))
    l2 = lld.new_list(pred_lid=l1)
    fresh = reopen(lld, after_crash=False)
    assert fresh.state.lists[l1].hints.compress
    assert fresh.state.list_order == [l1, l2]


def test_checkpoint_preserves_tombstones():
    lld = make_lld()
    lid = lld.new_list()
    bid = lld.new_block(lid, LIST_HEAD)
    lld.write(bid, b"doomed")
    lld.flush()
    lld.delete_block(bid, lid)
    fresh = reopen(lld, after_crash=False)
    # The deletion must hold even across a later crash-recovery.
    recovered = reopen(fresh)
    assert bid not in recovered.state.blocks


def test_shutdown_then_crash_recovery_equivalent():
    lld = make_lld()
    lid = lld.new_list()
    bids = []
    prev = LIST_HEAD
    for i in range(20):
        b = lld.new_block(lid, prev)
        lld.write(b, bytes([i]) * 1024)
        bids.append(b)
        prev = b
    via_checkpoint = reopen(lld, after_crash=False)
    # Now crash the checkpointed instance and recover by sweep.
    via_sweep = reopen(via_checkpoint)
    assert via_sweep.list_blocks(lid) == bids
    for i, b in enumerate(bids):
        assert via_sweep.read(b) == bytes([i]) * 1024


def test_usage_table_rebuilt_from_checkpoint():
    lld = make_lld()
    lid = lld.new_list()
    prev = LIST_HEAD
    for _ in range(30):
        b = lld.new_block(lid, prev)
        lld.write(b, b"\x55" * 4096)
        prev = b
    live_before = lld.state.live_bytes()
    fresh = reopen(lld, after_crash=False)
    assert fresh.state.live_bytes() == live_before
