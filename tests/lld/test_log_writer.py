"""The pieces the LLD split made testable alone: slot placement as a pure
function, and the log writer over a recording disk with no LLD around it."""

from types import SimpleNamespace

import pytest

from repro.compress.model import CompressionModel
from repro.crashsim import RecordingDisk
from repro.disk import SimulatedDisk, fast_test_disk
from repro.ld.errors import ARUError, OutOfSpaceError
from repro.lld import LLDStats
from repro.lld.checkpoint import CheckpointRegion
from repro.lld.log import ARUTable, LogWriter
from repro.lld.records import FLAG_CLEANER, LinkRecord, ListFirstRecord, ListMetaRecord
from repro.lld.segment import DiskLayout, empty_summary, parse_summary, pick_slot
from repro.lld.state import LLDState
from repro.sim import VirtualClock

from tests.lld.conftest import small_config
from tests.lld.test_log_golden import DEVICES, SCRIPTS, collect


def layout(spindles=None, rows=None):
    return SimpleNamespace(
        slot_spindles=spindles,
        spindle_count=len(set(spindles)) if spindles else 1,
        slot_rows=rows,
    )


#: Eight slots striped over four spindles.
STRIPED = [0, 1, 2, 3, 0, 1, 2, 3]

PLACEMENT_CASES = [
    # (free slots -> rank, spindles, stripe rows, current, expected); the
    # row cases are in test_row_gather.py.
    ({3: 0, 5: 0, 1: 0}, None, None, -1, 1),  # start-up: lowest slot
    ({3: 0, 5: 0, 1: 0}, None, None, 3, 5),  # next after the current one
    ({3: 0, 1: 0}, None, None, 5, 1),  # nothing after it: wrap
    ({1: 1, 2: 1, 6: 1, 7: 0}, None, None, 0, 7),  # cheapest rank beats position
    ({1: 1, 2: 1, 6: 1}, None, None, 3, 6),  # among pure-stale slots: sequential
    ({4: 1}, None, None, 0, 4),  # a pure-stale slot when it is all there is
    ({1: 0, 2: 0, 4: 0}, STRIPED, None, -1, 1),  # no current spindle yet
    ({4: 0, 2: 0, 5: 0}, STRIPED, None, 0, 5),  # next spindle on the ring
    ({4: 0, 2: 0}, STRIPED, None, 0, 2),  # spindle 1 full: two steps on
    ({4: 0}, STRIPED, None, 0, 4),  # same spindle only when nothing else
    ({1: 0, 5: 0}, STRIPED, None, 4, 5),  # same spindle: sequential bias
    ({1: 0, 5: 0}, STRIPED, None, 6, 1),  # equal ring distance, both behind: lowest
]


@pytest.mark.parametrize("ranks, spindles, rows, current, expected", PLACEMENT_CASES)
def test_pick_slot(ranks, spindles, rows, current, expected):
    assert pick_slot(ranks, layout(spindles, rows), current) == expected


def test_pick_slot_with_nothing_free():
    with pytest.raises(OutOfSpaceError):
        pick_slot({}, layout(), 0)


@pytest.mark.parametrize("device", DEVICES)
def test_every_slot_the_log_scripts_open_is_one_no_recovery_needs(monkeypatch, device):
    """Each ``open_next`` of every script of ``test_log_golden`` — start-up
    and recovery included — opens a slot whose summary homes nothing live
    and that no open ARU pins."""
    open_next = LogWriter.open_next
    opened = []

    def checked(self, slot=None):
        pinned = self.arus.pinned_segments()
        open_next(self, slot)
        slot = self.open.index
        assert not self.state.slot_holds_metadata(slot) and slot not in pinned
        opened.append(slot)

    monkeypatch.setattr(LogWriter, "open_next", checked)
    for script in SCRIPTS:
        for on in (False, True):  # delta, torn protection and NVRAM
            collect(script, device, delta=on, torn=on, nvram=on)
    assert len(opened) > 100


# ----------------------------------------------------------------------
# The log writer alone
# ----------------------------------------------------------------------


def make_writer(**config):
    disk = RecordingDisk(SimulatedDisk(fast_test_disk(capacity_mb=4), VirtualClock()))
    cfg = small_config(**config)
    state = LLDState()
    layout = DiskLayout(disk, cfg)
    writer = LogWriter(
        disk, cfg, layout, state, LLDStats(), CompressionModel(disk.clock),
        CheckpointRegion(disk, layout, cfg),
    )
    writer.open_next()
    return writer


def slot_summary(writer, slot):
    lba = writer.layout.slot_lba(slot)
    return parse_summary(writer.disk.peek(lba, writer.config.summary_sectors))


def test_append_applies_and_flush_makes_it_durable():
    writer = make_writer()
    writer.emit(ListMetaRecord(lid=1, hints=0))
    writer.emit(ListFirstRecord(lid=1, first=None))
    writer.write_block(7, b"x" * 1000, 1000)
    state = writer.state
    slot = writer.open.index
    assert state.homes[("meta", 1)] == slot
    assert state.blocks[7].segment == slot and state.usage[slot] == 1000
    assert not writer.disk.events  # nothing written yet
    writer.flush()
    assert [r.timestamp for r in slot_summary(writer, slot)] == [1, 2, 3]
    assert [b.label for b in writer.disk.barriers] == ["segment-image"]
    assert writer.stats.data_bytes_physical == sum(len(e.data) for e in writer.disk.events)


def test_every_write_and_barrier_goes_through_the_funnel():
    writer = make_writer(torn_write_protection=True)
    writer.write_block(1, b"a" * 4096, 4096)
    writer.flush()  # full image: tail, guard, header flip
    writer.write_block(2, b"b" * 4096, 4096)
    writer.flush()  # delta: data tail, summary tail, guard, header flip
    labels = [b.label for b in writer.disk.barriers]
    assert labels == ["summary-guard", "segment-image", "summary-guard", "segment-image"]
    assert writer.disk.events[1].nsectors == 1 and writer.disk.events[-1].nsectors == 1
    assert writer.stats.data_bytes_physical == sum(len(e.data) for e in writer.disk.events)


def test_seal_opens_the_next_slot_and_runs_the_space_policy():
    writer = make_writer()
    sealed = []
    writer.after_seal = lambda: sealed.append(writer.open.index)
    first = writer.open.index
    writer.seal()  # empty: nothing to do
    assert writer.open.index == first and not sealed
    for bid in range(1, 20):
        writer.write_block(bid, bytes([bid]) * 4096, 4096)  # 15 fit a segment
    assert sealed == [first + 1] and writer.stats.segments_sealed == 1
    assert len(slot_summary(writer, first)) == 15
    assert writer.has_room(4096, 64) and not writer.has_room(64 * 1024, 0)
    writer.open = None  # offline
    assert not writer.has_room(0, 0)


def test_relocate_moves_live_blocks_and_relog_moves_their_metadata():
    writer = make_writer()
    writer.emit(LinkRecord(bid=1, successor=2))
    writer.emit(LinkRecord(bid=2, successor=None))
    writer.write_block(1, b"one", 3)
    writer.write_block(2, b"two", 3)
    old = writer.open.index
    data = bytes(writer.open.data[:6])
    writer.seal()
    moved = writer.relocate(
        [2, 99, 1, 2],
        lambda entry: data[entry.offset : entry.offset + 3] if entry.segment == old else None,
        limit=2,
    )
    assert moved == 2  # the unknown block and the repeat are skipped
    writer.relog_slot(old)
    state = writer.state
    new = writer.open.index
    assert state.usage[old] == 0 and old in writer.slots.empty
    assert not state.segment_keys[old] and state.homes[("link", 1)] == new
    assert all(r.flags & FLAG_CLEANER for r in writer.open.records[:2])
    assert writer.open.read_data(0, 6) == b"twoone"
    # retired -> scrubbed: the stale summary goes once the move is durable.
    writer.slots.retire(old)
    writer.flush()
    assert writer.slots.of[old] == "free" and old not in state.summary_min_ts
    lba = writer.layout.slot_lba(old)
    assert writer.disk.peek(lba, writer.config.summary_sectors) == empty_summary(4096)


def test_aru_records_pin_what_they_supersede():
    writer = make_writer()
    writer.emit(LinkRecord(bid=1, successor=None))
    writer.write_block(1, b"old", 3)
    old = writer.open.index
    writer.seal()
    aru = writer.begin_aru()
    writer.write_block(1, b"new", 3)
    assert writer.open.records[-1].aru == aru
    assert writer.arus.pinned_segments() == {old}
    writer.end_aru(commit=True)
    assert writer.open.records[-1].aru == aru and not writer.arus.pins
    assert writer.arus.current == 0


def test_aru_table_reattach_is_validated():
    arus = ARUTable()
    arus.pins[5] = {1}
    arus.pins[9] = {1, 2}
    arus.attach(9)
    assert arus.current == 9 and arus.pinned_segments() == {1, 2}
    arus.attach(0)
    with pytest.raises(ARUError):
        arus.attach(7)
    assert arus.current == 0
