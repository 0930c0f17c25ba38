"""Space accounting and reservation primitives (paper section 2.2)."""

import pytest

from repro.ld import LIST_HEAD
from repro.ld.errors import OutOfSpaceError, ReservationError

from tests.lld.conftest import make_lld


def test_reserve_and_consume():
    lld = make_lld()
    lid = lld.new_list()
    reservation = lld.reserve_blocks(3)
    assert reservation.blocks == 3
    for _ in range(3):
        bid = lld.new_block(lid, LIST_HEAD, reservation=reservation)
        lld.write(bid, b"\x01" * 4096)
    assert reservation.blocks == 0


def test_consume_beyond_reservation_rejected():
    lld = make_lld()
    lid = lld.new_list()
    reservation = lld.reserve_blocks(1)
    lld.new_block(lid, LIST_HEAD, reservation=reservation)
    with pytest.raises(ReservationError):
        lld.new_block(lid, LIST_HEAD, reservation=reservation)


def test_cancel_returns_space():
    lld = make_lld()
    before = lld._free_bytes()
    reservation = lld.reserve_blocks(10)
    assert lld._free_bytes() == before - 10 * lld.config.block_size
    lld.cancel_reservation(reservation)
    assert lld._free_bytes() == before


def test_cancel_unknown_reservation_rejected():
    lld = make_lld()
    reservation = lld.reserve_blocks(1)
    lld.cancel_reservation(reservation)
    with pytest.raises(ReservationError):
        lld.cancel_reservation(reservation)


def test_zero_reservation_rejected():
    lld = make_lld()
    with pytest.raises(ReservationError):
        lld.reserve_blocks(0)


def test_overlarge_reservation_rejected():
    lld = make_lld(capacity_mb=2)
    blocks = lld.layout.capacity_bytes // lld.config.block_size
    with pytest.raises(OutOfSpaceError):
        lld.reserve_blocks(blocks + 10)


def test_reservation_guards_against_later_writers():
    """The reservation's purpose: a write that was promised cannot fail."""
    lld = make_lld(capacity_mb=2)
    lid = lld.new_list()
    usable = lld._free_bytes()
    keep = 8
    reservation = lld.reserve_blocks(keep)
    # A greedy writer consumes everything that is left...
    prev = LIST_HEAD
    try:
        for _ in range(10000):
            bid = lld.new_block(lid, prev)
            lld.write(bid, b"\xaa" * 4096)
            prev = bid
    except OutOfSpaceError:
        pass
    # ...but the reserved blocks still succeed.
    for _ in range(keep):
        bid = lld.new_block(lid, LIST_HEAD, reservation=reservation)
        lld.write(bid, b"\xbb" * 4096)
        assert lld.read(bid) == b"\xbb" * 4096


def test_free_bytes_decrease_with_writes():
    lld = make_lld()
    lid = lld.new_list()
    before = lld._free_bytes()
    bid = lld.new_block(lid, LIST_HEAD)
    lld.write(bid, b"\x01" * 4096)
    assert lld._free_bytes() == before - 4096


def test_overwrite_does_not_leak_space():
    lld = make_lld()
    lid = lld.new_list()
    bid = lld.new_block(lid, LIST_HEAD)
    lld.write(bid, b"\x01" * 4096)
    after_first = lld._free_bytes()
    for _ in range(50):
        lld.write(bid, b"\x02" * 4096)
    assert lld._free_bytes() == after_first


def test_delete_returns_space():
    lld = make_lld()
    lid = lld.new_list()
    before = lld._free_bytes()
    bid = lld.new_block(lid, LIST_HEAD)
    lld.write(bid, b"\x03" * 4096)
    lld.delete_block(bid, lid)
    assert lld._free_bytes() == before


# ----------------------------------------------------------------------
# A full log: found by the cleaner, once, before it churns
# ----------------------------------------------------------------------


def _attach_log(lld):
    from repro.obs import EventLog, attach_events

    return attach_events(EventLog(lld.disk.clock), lld)


def _starved_once(log, lld):
    """One ``lld.cleaner_starved``, the last thing the log did."""
    [event] = log.select(name="lld.cleaner_starved")
    assert log.events[-1] is event
    assert event.severity == "error" and event.t == lld.disk.clock.now


def test_a_log_full_of_one_byte_blocks_fails_at_the_pass_that_gains_nothing():
    """Admission control counts data bytes, so a 1 MB LLD takes 1-byte
    blocks until their summary records fill every segment. The cleaner
    then empties one slot by filling the one just opened: the pass that
    leaves an empty segment no room for a block is where the write fails,
    with one ``lld.cleaner_starved``. The client gets the same 860 blocks
    in as when the log churned on until its own guard tripped, and the
    run stops at 49 seals where it took 63: the 14 after it only moved
    full segments around."""
    lld = make_lld(capacity_mb=1)
    log = _attach_log(lld)
    lid, written = lld.new_list(), 0
    with pytest.raises(OutOfSpaceError, match="live blocks fill an empty one"):
        while True:
            bid = lld.new_block(lid, LIST_HEAD)
            lld.write(bid, b"x")
            written += 1
    assert written == 860
    assert lld.stats.segments_sealed == 49
    _starved_once(log, lld)


def test_overwrites_inside_one_open_unit_fail_at_the_first_pass_that_gains_nothing():
    """An open ARU pins every slot its overwrites superseded, so the
    cleaner can take only the fully live segments the unit wrote: cleaning
    the first one fills the segment the seal just opened. The write fails
    there, after 6 seals and one pass since the unit began, with one
    ``lld.cleaner_starved`` — where the log used to clean 15 full segments
    over 20 seals before its guard tripped. The unit got the same 80
    overwrites in."""
    lld = make_lld(capacity_mb=1)
    lid, pred, bids = lld.new_list(), LIST_HEAD, []
    for i in range(100):
        pred = lld.new_block(lid, pred)
        lld.write(pred, bytes([i]) * 4096)
        bids.append(pred)
    lld.flush()
    log = _attach_log(lld)
    seals, cleanings = lld.stats.segments_sealed, lld.stats.cleanings
    lld.begin_aru()
    overwrites = 0
    with pytest.raises(OutOfSpaceError, match="live blocks fill an empty one"):
        while True:
            lld.write(bids[overwrites % len(bids)], b"\x07" * 4096)
            overwrites += 1
    assert overwrites == 80
    assert lld.stats.segments_sealed - seals == 6
    assert lld.stats.cleanings - cleanings == 1
    _starved_once(log, lld)
