"""Atomic recovery unit semantics: all-or-nothing across crashes."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ld import LIST_HEAD
from repro.ld.errors import ARUError, NoSuchBlockError, OutOfSpaceError
from repro.lld.records import (
    _RECORD_TYPES,
    BlockDeadRecord,
    BlockRecord,
    CommitRecord,
    LinkRecord,
    ListDeadRecord,
    ListFirstRecord,
    ListMetaRecord,
)
from repro.lld.state import NO_SEGMENT, RECORD_KINDS, LLDState

from tests.lld.conftest import make_lld, reopen


def test_begin_end_basic():
    lld = make_lld()
    aru = lld.begin_aru()
    assert aru > 0
    assert lld.in_aru
    lld.end_aru()
    assert not lld.in_aru


def test_nested_aru_rejected():
    lld = make_lld()
    lld.begin_aru()
    with pytest.raises(ARUError):
        lld.begin_aru()


def test_end_without_begin_rejected():
    lld = make_lld()
    with pytest.raises(ARUError):
        lld.end_aru()


def test_shutdown_inside_aru_rejected():
    lld = make_lld()
    lld.begin_aru()
    with pytest.raises(ARUError):
        lld.shutdown()


def test_committed_aru_survives_crash():
    lld = make_lld()
    lid = lld.new_list()
    lld.begin_aru()
    a = lld.new_block(lid, LIST_HEAD)
    b = lld.new_block(lid, a)
    lld.write(a, b"file data")
    lld.write(b, b"directory entry")
    lld.end_aru()
    lld.flush()
    recovered = reopen(lld)
    assert recovered.list_blocks(lid) == [a, b]
    assert recovered.read(a) == b"file data"
    assert recovered.read(b) == b"directory entry"


def test_uncommitted_aru_discarded_on_crash():
    """The create-file-and-update-directory example from paper §2.1."""
    lld = make_lld()
    lid = lld.new_list()
    stable = lld.new_block(lid, LIST_HEAD)
    lld.write(stable, b"pre-existing")
    lld.flush()

    lld.begin_aru()
    doomed = lld.new_block(lid, stable)
    lld.write(doomed, b"half-created file")
    lld.flush()  # durable but NOT committed

    recovered = reopen(lld)
    assert recovered.list_blocks(lid) == [stable]
    assert recovered.read(stable) == b"pre-existing"
    with pytest.raises(NoSuchBlockError):
        recovered.read(doomed)
    assert recovered.recovery_report.arus_discarded == 1


def test_uncommitted_overwrite_rolls_back():
    lld = make_lld()
    lid = lld.new_list()
    bid = lld.new_block(lid, LIST_HEAD)
    lld.write(bid, b"version 1")
    lld.flush()
    lld.begin_aru()
    lld.write(bid, b"version 2 (aborted)")
    lld.flush()
    recovered = reopen(lld)
    assert recovered.read(bid) == b"version 1"


def test_uncommitted_delete_rolls_back():
    lld = make_lld()
    lid = lld.new_list()
    a = lld.new_block(lid, LIST_HEAD)
    b = lld.new_block(lid, a)
    lld.write(a, b"A")
    lld.write(b, b"B")
    lld.flush()
    lld.begin_aru()
    lld.delete_block(a, lid)
    lld.flush()
    recovered = reopen(lld)
    assert recovered.list_blocks(lid) == [a, b]
    assert recovered.read(a) == b"A"


def test_sequential_arus_commit_independently():
    lld = make_lld()
    lid = lld.new_list()
    lld.begin_aru()
    a = lld.new_block(lid, LIST_HEAD)
    lld.write(a, b"first")
    lld.end_aru()
    lld.begin_aru()
    b = lld.new_block(lid, a)
    lld.write(b, b"second (aborted)")
    lld.flush()  # aru 2 never ends
    recovered = reopen(lld)
    assert recovered.list_blocks(lid) == [a]
    assert recovered.read(a) == b"first"


def test_aru_spanning_segment_seal():
    """An ARU whose records span multiple segments still commits atomically."""
    lld = make_lld()
    lid = lld.new_list()
    lld.begin_aru()
    prev = LIST_HEAD
    bids = []
    for _ in range(40):  # crosses at least two 64 KB segments
        bid = lld.new_block(lid, prev)
        lld.write(bid, b"\x5a" * 4096)
        bids.append(bid)
        prev = bid
    lld.end_aru()
    lld.flush()
    assert lld.stats.segments_sealed >= 2
    recovered = reopen(lld)
    assert recovered.list_blocks(lid) == bids


def test_aru_spanning_segments_aborts_atomically():
    lld = make_lld()
    lid = lld.new_list()
    keep = lld.new_block(lid, LIST_HEAD)
    lld.write(keep, b"keep")
    lld.flush()
    lld.begin_aru()
    prev = keep
    for _ in range(40):
        bid = lld.new_block(lid, prev)
        lld.write(bid, b"\xa5" * 4096)
        prev = bid
    lld.flush()  # never committed
    recovered = reopen(lld)
    assert recovered.list_blocks(lid) == [keep]
    assert recovered.read(keep) == b"keep"


def test_operations_after_aborted_aru_survive():
    """A later committed operation must not drag an aborted ARU with it."""
    lld = make_lld()
    lid = lld.new_list()
    lld.begin_aru()
    doomed = lld.new_block(lid, LIST_HEAD)
    lld.write(doomed, b"doomed")
    # Crash loses the in-memory ARU state; simulate an application that
    # never calls end_aru but keeps using the LD after reopening.
    lld.flush()
    lld.crash()
    from repro.lld import LLD

    second = LLD(lld.disk, lld.config)
    second.initialize()
    later = second.new_block(lid, LIST_HEAD)
    second.write(later, b"later")
    second.flush()
    recovered = reopen(second)
    assert recovered.read(later) == b"later"
    assert doomed not in recovered.state.blocks or recovered.read(doomed) != b"doomed"


def _seal(lld, scratch):
    """Rewrite ``scratch`` until the open segment seals."""
    sealed = lld.stats.segments_sealed
    while lld.stats.segments_sealed == sealed:
        lld.write(scratch, b"\x5a" * 4096)


def test_uncommitted_delete_list_pins_the_list_head_home():
    """An open ARU's ``delete_list`` must pin the segment homing LIST_FIRST.

    The delete drops the list's FIRST and META homes from the in-memory
    state at once; if the cleaner may then take the segment whose summary
    holds the latest LIST_FIRST tuple, nothing re-logs it, the summary is
    scrubbed, and a crash before ``end_aru`` recovers the list from an
    older head — losing acknowledged blocks to a unit that never committed.
    """
    lld = make_lld()
    lid = lld.new_list()  # LIST_META (and the first LIST_FIRST) home in S0
    other = lld.new_list()
    scratch = lld.new_block(other, LIST_HEAD)
    s0 = lld.open_segment_index
    b1 = lld.new_block(lid, LIST_HEAD)
    b2 = lld.new_block(lid, b1)
    lld.write(b1, b"1" * 4096)
    lld.write(b2, b"2" * 4096)
    _seal(lld, scratch)
    s1 = lld.open_segment_index
    head = lld.new_block(lid, LIST_HEAD)  # LIST_FIRST re-homed to S1
    keep = lld.new_block(other, scratch)
    lld.write(keep, b"k" * 100)  # the little live data that makes S1 the victim
    _seal(lld, scratch)
    s2 = lld.open_segment_index
    second = lld.new_block(lid, head)  # LINK(head) re-homed to S2
    lld.write(second, b"s" * 4096)
    _seal(lld, scratch)
    lld.flush()
    acknowledged = lld.list_blocks(lid)
    assert acknowledged == [head, second, b1, b2]
    assert len({s0, s1, s2, lld.open_segment_index}) == 4
    assert lld.state.homes[("first", lid)] == s1

    lld.begin_aru()
    lld.delete_list(lid)
    assert s1 in lld.slots.pinned()
    assert lld.cleaner.select_victim() != s1
    lld.clean(1)
    lld.flush()  # would scrub the cleaned victim's summary
    recovered = reopen(lld)  # crash before end_aru
    assert recovered.list_blocks(lid) == acknowledged
    assert recovered.read(keep) == b"k" * 100


@pytest.mark.parametrize("mount", ["running", "checkpoint"])
def test_a_commit_outlives_the_slot_it_was_logged_in(mount):
    """A committed unit's records in one segment, its COMMIT in the next:
    cleaning the COMMIT's slot re-states the COMMIT while the first
    segment's summary still holds the unit's records, or a crash discards
    them and ten acknowledged overwrites read back their old bytes. Across
    a clean shutdown the checkpoint carries what that needs."""
    lld = make_lld()
    lid = lld.new_list()
    bids, pred = [], LIST_HEAD
    for _ in range(20):
        pred = lld.new_block(lid, pred)
        lld.write(pred, b"1" * 4096)
        bids.append(pred)
    lld.flush()
    with lld.aru() as aru:
        for bid in bids:
            lld.write(bid, b"2" * 4096)
    commit_slot = lld.open_segment_index
    assert lld.state.units[aru] == {commit_slot - 1, commit_slot}
    assert lld.state.homes[("commit", aru)] == commit_slot
    _seal(lld, lld.new_block(lid, bids[-1]))
    if mount == "checkpoint":
        lld = reopen(lld, after_crash=False)
        assert lld.recovery_report.checkpoint_sequence
    lld.cleaner.clean_segment(commit_slot)
    lld.flush()  # scrubs the cleaned slot's summary
    recovered = reopen(lld)
    assert [recovered.read(bid) for bid in bids] == [b"2" * 4096] * 20
    assert recovered.recovery_report.arus_discarded == 0


def _chain_homed_in_a_free_slot():
    """A list of five blocks whose FIRST and LINKs are homed in a slot their
    data has left, acknowledged; the log has since wrapped round the disk
    and is filling the slot before it. Then an ARU deletes the chain: the
    slot homes nothing any more, and the unit pins it — its summary holds
    the pre-ARU list a crash before the COMMIT recovers."""
    lld = make_lld(capacity_mb=1)
    lid = lld.new_list()
    scratch = lld.new_block(lld.new_list(), LIST_HEAD)
    _seal(lld, scratch)
    _seal(lld, scratch)
    slot = lld.open_segment_index
    bids, pred = [], LIST_HEAD
    for i in range(5):
        pred = lld.new_block(lid, pred)
        lld.write(pred, bytes([i + 1]) * 4096)
        bids.append(pred)
    _seal(lld, scratch)
    for bid in bids:  # the data moves on, FIRST and the links stay
        lld.write(bid, b"m" * 4096)
    while lld.open_segment_index != slot - 1:
        lld.write(scratch, b"\x5a" * 4096)
    lld.flush()
    state = lld.state
    assert slot in lld.slots.empty and state.homes[("first", lid)] == slot
    assert lld.list_blocks(lid) == bids == [2, 3, 4, 5, 6]
    lld.begin_aru()
    for bid in bids:
        lld.delete_block(bid, lid)
    assert not state.slot_holds_metadata(slot) and slot in lld.slots.pinned()
    return lld, lid, slot, scratch


def test_the_log_does_not_open_a_slot_an_open_aru_pins():
    """Placement would take the pinned slot next; overwriting its summary
    leaves a crash before the COMMIT with an empty list."""
    lld, lid, slot, scratch = _chain_homed_in_a_free_slot()
    _seal(lld, scratch)
    opened = lld.open_segment_index
    lld.flush()
    recovered = reopen(lld)  # crash before end_aru
    assert recovered.list_blocks(lid) == [2, 3, 4, 5, 6]
    assert opened != slot


def test_scrubbing_a_slot_an_open_aru_pins_is_refused():
    lld, lid, slot, _scratch = _chain_homed_in_a_free_slot()
    with pytest.raises(ValueError, match="pinned"):
        lld.cleaner.scrub_slot(slot)
    recovered = reopen(lld)  # crash before end_aru
    assert recovered.list_blocks(lid) == [2, 3, 4, 5, 6]


# ----------------------------------------------------------------------
# The pin set follows the per-kind declaration
# ----------------------------------------------------------------------

_BIDS = st.integers(1, 6)
_LIDS = st.integers(1, 3)
_SEGMENTS = st.integers(0, 5)
_RECORDS = st.one_of(
    st.builds(LinkRecord, bid=_BIDS, successor=st.none() | _BIDS),
    st.builds(
        BlockRecord,
        bid=_BIDS,
        segment=_SEGMENTS,
        offset=st.integers(0, 4000),
        stored_length=st.integers(1, 96),
        length=st.integers(1, 96),
    ),
    st.builds(BlockDeadRecord, bid=_BIDS, death_timestamp=st.integers(1, 50)),
    st.builds(ListFirstRecord, lid=_LIDS, first=st.none() | _BIDS),
    st.builds(ListMetaRecord, lid=_LIDS, hints=st.integers(0, 3)),
    st.builds(ListDeadRecord, lid=_LIDS, death_timestamp=st.integers(1, 50)),
    st.builds(CommitRecord, aru=st.integers(1, 9)),
)


def _placement(state: LLDState):
    homes = dict(state.homes)
    data = {
        bid: (e.segment, e.offset)
        for bid, e in state.blocks.items()
        if e.segment != NO_SEGMENT
    }
    return homes, data


@settings(derandomize=True, max_examples=300, deadline=None)
@given(
    history=st.lists(st.tuples(_RECORDS, _SEGMENTS), max_size=25),
    record=_RECORDS,
    home=_SEGMENTS,
)
def test_pin_set_covers_everything_apply_supersedes(history, record, home):
    """For every record kind: each segment whose home ``apply`` moves or
    drops, and the old data segment of each block it moves or kills, is in
    the set an open ARU would pin for that record."""
    state = LLDState()
    for ts, (past, segment) in enumerate(history, start=1):
        past.timestamp = ts
        state.apply(past, segment)
    record.timestamp = len(history) + 1
    pins = set(state.superseded_segments(record))
    homes, data = _placement(state)
    state.apply(record, home)
    new_homes, new_data = _placement(state)
    for key, segment in homes.items():
        if new_homes.get(key) != segment:
            assert segment in pins, (record, key)
    for bid, (segment, offset) in data.items():
        if new_data.get(bid) != (segment, offset):
            assert segment in pins, (record, bid)


def test_every_record_kind_is_declared():
    assert set(RECORD_KINDS) == set(_RECORD_TYPES.values())


def test_an_aborted_unit_puts_back_what_it_superseded():
    """An abort puts the values the unit replaced back in the tables: the
    slot holding the committed version is live again, so neither the log
    nor the cleaner can destroy it before a crash needs it."""
    lld = make_lld(capacity_mb=2)
    lid = lld.new_list()
    bids, pred = [], LIST_HEAD
    for _ in range(8):
        pred = lld.new_block(lid, pred)
        bids.append(pred)
        lld.write(pred, b"base" * 100)

    def seal():
        slot = lld.open_segment_index
        while lld.open_segment_index == slot:
            lld.write(bids[7], b"x" * 4096)

    seal()
    with lld.aru():
        lld.write(bids[0], b"gen1" * 100)
    lld.flush()
    committed_in = lld.open_segment_index
    seal()
    seal()
    lld.begin_aru()
    lld.write(bids[0], b"ab99" * 100)
    doomed = lld.new_block(lid, bids[0])
    lld.abort_aru()
    assert lld.read(bids[0]) == b"gen1" * 100
    assert list(lld.state.iter_list(lid)) == bids
    assert doomed not in lld.state.blocks
    assert lld.state.block(bids[0]).segment == committed_in
    assert committed_in not in lld.slots.empty
    assert not lld.slots.pinned() and not lld.log.arus.undo
    for i in range(2000):
        lld.write(bids[2 + i % 5], bytes([i % 251]) * 4096)
        if i % 10 == 0:
            lld.flush()
    lld.flush()
    assert lld.stats.segments_sealed > 2 * lld.layout.segment_count  # the log wrapped
    recovered = reopen(lld)
    assert recovered.read(bids[0]) == b"gen1" * 100
    assert list(recovered.state.iter_list(lid)) == bids


def test_the_cleaner_moving_an_open_units_data_keeps_it_the_units():
    """A relocation of a value an open unit set carries the unit's tag:
    cleaned out of its slot mid-unit and flushed, the value still vanishes
    with an abort, in memory and at a crash before what the abort put
    back is durable, instead of being committed by the relocation."""
    lld = make_lld(capacity_mb=2)
    lid = lld.new_list()
    bids, pred = [], LIST_HEAD
    for _ in range(4):
        pred = lld.new_block(lid, pred)
        bids.append(pred)
        lld.write(pred, b"base" * 100)

    def seal():
        slot = lld.open_segment_index
        while lld.open_segment_index == slot:
            lld.write(bids[3], b"x" * 4096)
        return slot

    seal()
    aru = lld.begin_aru()
    lld.write(bids[0], b"unit" * 100)
    lld.new_block(lid, bids[0])
    lld.attach_aru(0)  # the filler that seals the unit's slot is not the unit's
    unit_slot = seal()
    assert unit_slot not in lld.slots.pinned()
    lld.cleaner.clean_segment(unit_slot)
    assert lld.state.block(bids[0]).segment != unit_slot
    lld.flush()  # the relocation is on the medium; the unit is still open
    lld.attach_aru(aru)
    lld.abort_aru()
    assert lld.read(bids[0]) == b"base" * 100
    assert list(lld.state.iter_list(lid)) == bids
    recovered = reopen(lld)  # before what the abort put back is durable
    assert recovered.read(bids[0]) == b"base" * 100
    assert list(recovered.state.iter_list(lid)) == bids


@pytest.mark.parametrize("checkpoint_slots", [1, 2])
def test_an_abort_with_no_room_to_log_its_rollback_rolls_back_in_memory(checkpoint_slots):
    """A unit that filled the log (its pins keep the cleaner off what it
    superseded) is aborted: the records that put its values back do not
    fit. The abort raises a typed error, and the tables hold the values
    before the unit all the same — what a crash recovers too."""
    lld = make_lld(capacity_mb=1, checkpoint_slots=checkpoint_slots)
    lid = lld.new_list()
    pred, bids = LIST_HEAD, []
    while lld.free_segment_count() > 3:
        pred = lld.new_block(lid, pred)
        lld.write(pred, b"f" * 4096)
        bids.append(pred)
    lld.flush()
    lld.begin_aru()
    with pytest.raises(OutOfSpaceError):
        for i in range(20 * len(bids)):
            lld.write(bids[i % len(bids)], bytes([i % 251 + 1]))
    with pytest.raises(OutOfSpaceError, match="put back in memory"):
        lld.abort_aru()
    assert not lld.in_aru and lld.open_aru_count == 0 and not lld.log.arus.undo
    assert lld.log.arus.kept  # what it superseded stays until restart
    assert all(lld.read(bid) == b"f" * 4096 for bid in bids)
    assert lld.list_blocks(lid) == bids
    recovered = reopen(lld)
    assert all(recovered.read(bid) == b"f" * 4096 for bid in bids)
    assert recovered.list_blocks(lid) == bids
    assert not recovered.log.arus.kept


def test_a_unit_begun_after_a_crash_does_not_commit_a_discarded_one():
    """A recovery discards an uncommitted unit's records but leaves them on
    disk. The restarted log must not reuse their timestamps: a unit's id is
    one, and a new unit with the discarded one's id would commit its
    records at the next recovery."""
    lld = make_lld()
    lid = lld.new_list()
    a = lld.new_block(lid, LIST_HEAD)
    b = lld.new_block(lid, a)
    lld.write(a, b"a0")
    lld.write(b, b"b0")
    lld.flush()
    lld.begin_aru()
    lld.write(b, b"discarded")
    lld.flush()
    recovered = reopen(lld)
    assert recovered.read(b) == b"b0"
    recovered.begin_aru()
    recovered.write(a, b"a1")
    recovered.end_aru()
    recovered.flush()
    again = reopen(recovered)
    assert again.read(a) == b"a1" and again.read(b) == b"b0"


@pytest.mark.parametrize("checkpoint_slots", [1, 2])
@pytest.mark.parametrize("fill", [0.6, 0.7])
@pytest.mark.parametrize("fraction", [0.1, 0.2, 0.3])
def test_the_cleaner_counts_free_slots_the_way_placement_does(checkpoint_slots, fill, fraction):
    """A unit pins the free slots whose summaries hold what it superseded,
    and placement does not open them. The cleaner must not count them
    either: counted, they stop it cleaning while the log has no slot left
    to open, and the unit fails with cleanable segments to spare."""
    lld = make_lld(capacity_mb=4, checkpoint_slots=checkpoint_slots)
    lid = lld.new_list()
    pred, bids = LIST_HEAD, []
    while lld.state.live_bytes() < fill * lld.layout.capacity_bytes:
        pred = lld.new_block(lid, pred)
        lld.write(pred, b"f" * 4096)
        bids.append(pred)
    for bid in bids[::3]:
        lld.write(bid, b"o" * 4096)
    unit = bids[: int(len(bids) * fraction)]
    with lld.aru():
        for bid in unit:
            lld.write(bid, b"a" * 4096)
            assert lld.free_segment_count() == len(lld.slots.reusable())
    assert all(lld.read(bid) == b"a" * 4096 for bid in unit)
    lld.flush()
    recovered = reopen(lld)
    assert all(recovered.read(bid) == b"a" * 4096 for bid in unit)
