"""A dead row is a blank row (DESIGN.md §14, "What the log grants").

On a device with stripe rows the log grants the volume a whole row as
blank (``Volume.discard``) as it opens a slot of it, when every slot of the
row is empty, openable and off the recovery chain; the volume then takes
every sector of the row as zeros, whatever its members hold, and the
partial writes that fill the row pre-read nothing. The first summary
written into the row carries the ``GRANTED`` header flag, and a recovery
grants back, before anything is written, every row whose slots are all
empty and the sectors of a flagged row no segment has written since.

Pinned here: when a row is granted and when not (a mutant that grants a
row holding a live slot loses client data); the flag on the wire; what a
recovery grants back (two mutants, each leaving part of it out, are
caught); what a client reads back, through all of it.
"""

import random

import pytest

from repro.ld import LIST_HEAD
from repro.lld import LLD
from repro.lld.log import LogWriter
from repro.lld.records import BlockRecord
from repro.lld.segment import (
    GRANTED,
    OpenSegment,
    decode_summary_into,
    summary_granted,
)

from tests.lld import reference_codec
from tests.lld.conftest import small_config
from tests.lld.test_row_gather import make_volume

SECTOR = 512
BLOCK = 4096


class Rig:
    """An LLD on RAID-5 rows, a list of blocks overwritten round after
    round — the log wraps, and the rows it left die whole — and what a
    client must read back."""

    def __init__(self, seed: int = 0, blocks: int = 40) -> None:
        self.volume = make_volume(cylinders=6)
        self.lld = LLD(self.volume, small_config())
        self.lld.initialize()
        assert self.lld.layout.row_width == 3
        self.rng = random.Random(seed)
        self.lid = self.lld.new_list()
        self.bids: list[int] = []
        self.expected: dict[int, bytes] = {}
        pred = LIST_HEAD
        for _ in range(blocks):
            pred = self.lld.new_block(self.lid, pred)
            self.bids.append(pred)
            self.write(pred)
        self.lld.flush()
        #: ``(lba, nsectors)`` of every grant from here on, in order, and
        #: the openings that granted their row.
        self.grants: list[tuple[int, int]] = []
        self.openings_granted = 0
        log = self.lld.log
        discard, open_next = log.discard, log.open_next

        def granting(lba: int, nsectors: int) -> None:
            self.grants.append((lba, nsectors))
            discard(lba, nsectors)

        def opening(slot=None) -> None:
            open_next(slot)
            self.openings_granted += log.open.granted

        log.discard, log.open_next = granting, opening

    def write(self, bid: int) -> None:
        data = self.rng.randbytes(BLOCK)
        self.lld.write(bid, data)
        self.expected[bid] = data

    def round(self, flush_every: int = 7) -> None:
        """Overwrite every block once, flushing now and then."""
        for i, bid in enumerate(self.bids):
            self.write(bid)
            if i % flush_every == flush_every - 1:
                self.lld.flush()
        self.lld.flush()

    def until_granted(self, rounds: int = 40, flush_every: int = 7) -> None:
        """Overwrite round after round until the log has just opened a slot
        into a row it granted."""
        for i in range(rounds * len(self.bids)):
            self.write(self.bids[i % len(self.bids)])
            if i % flush_every == flush_every - 1:
                self.lld.flush()
            if self.openings_granted:
                return
        raise AssertionError("the log never opened a row empty in every slot")

    def mismatches(self, lld: LLD | None = None) -> list[int]:
        lld = lld or self.lld
        return [bid for bid, data in self.expected.items() if lld.read(bid) != data]

    def row_blank(self, row: int) -> bool:
        """Is every sector of the log's ``row`` blank on every member?"""
        volume = self.volume
        pmap = volume.parity_map
        lba, _nsectors = self.lld.layout.row_extent(row)
        base = pmap.row_lba(lba // (pmap.data_per_row * pmap.chunk_sectors))
        chunk = volume.chunk_sectors
        return all(
            volume.stripe_cache.all_blank(member, base, chunk)
            for member in range(len(volume.disks))
        )


def grantable_rows(lld: LLD) -> list[int]:
    """The log's rows whose every slot is openable and off the chain."""
    ranks = lld.slots.openable()
    since = lld.slots.since or ()
    return [
        row
        for row, slots in lld.layout.whole_rows.items()
        if all(slot in ranks and slot not in since for slot in slots)
    ]


# ----------------------------------------------------------------------
# When a row is granted
# ----------------------------------------------------------------------


def test_a_row_empty_in_every_slot_is_granted_as_the_log_opens_it(monkeypatch):
    rig = Rig()
    lld, volume = rig.lld, rig.volume
    seen = []
    real = LogWriter._grantable

    def watched(self, slot, ranks):
        granted = real(self, slot, ranks)
        if granted:
            slots = self.layout.whole_rows[self.layout.slot_rows[slot][0]]
            seen.append((slot, [lld.state.usage.get(other, 0) for other in slots]))
        return granted

    monkeypatch.setattr(LogWriter, "_grantable", watched)
    rig.until_granted()
    (slot, usage) = seen[-1]
    (lba, nsectors) = rig.grants[-1]
    assert usage == [0, 0, 0]  # every slot of the row empty
    assert nsectors == lld.layout.row_width * lld.config.sectors_per_segment
    assert lba == lld.layout.slot_lba(lld.layout.whole_rows[lld.layout.slot_rows[slot][0]][0])
    assert rig.mismatches() == []
    # The slot the log opened into the row says so in its summary.
    lld.flush()
    image = volume.peek(lld.layout.slot_lba(slot), lld.config.summary_sectors)
    assert decode_summary_into(image, []) and summary_granted(image)


def test_writes_into_a_granted_row_pre_read_nothing():
    rig = Rig()
    rig.until_granted()
    lld, stats = rig.lld, rig.volume.volume_stats
    open_slot = lld.log.open.index
    assert lld.log.open.granted
    misses = stats.preread_misses
    for bid in rig.bids[:5]:
        rig.write(bid)
        lld.flush()
        assert lld.log.open.index == open_slot  # still filling the granted slot
    assert stats.preread_misses == misses
    assert rig.mismatches() == []


def test_a_row_holding_a_live_slot_is_never_granted(monkeypatch):
    """The mutant grants the row of any slot it opens: the live blocks in
    the row's other slots then read as zeros."""
    shipped = Rig()
    for _ in range(6):
        shipped.round()
    assert shipped.mismatches() == []

    def any_row(self, slot, ranks):
        return self.discard is not None and self.layout.slot_rows[slot][0] in self.layout.whole_rows

    monkeypatch.setattr(LogWriter, "_grantable", any_row)
    mutant = Rig()
    for _ in range(6):
        mutant.round()
    assert mutant.mismatches() != []


def test_the_flag_is_the_top_bit_of_the_record_count():
    config = small_config()
    seg = OpenSegment(3, config)
    seg.append_record(BlockRecord(bid=7, segment=3, offset=0, stored_length=10, length=10))
    plain = bytes(seg.image())
    seg.granted = True
    flagged = bytes(seg.image())
    assert not summary_granted(plain) and summary_granted(flagged)
    count = int.from_bytes(flagged[4:8], "little")
    assert count == 1 | GRANTED and plain[8:] == flagged[8:]
    records: list = []
    assert decode_summary_into(flagged, records) and [r.bid for r in records] == [7]
    assert [r.bid for r in reference_codec.parse_summary_legacy(flagged)] == [7]


# ----------------------------------------------------------------------
# What a recovery grants back
# ----------------------------------------------------------------------


def crashed_in_a_granted_row(seed: int = 0) -> tuple[Rig, int]:
    """A rig whose log crashed while its newest summary was the flagged
    first one of a granted row; and that slot."""
    rig = Rig(seed)
    rig.until_granted()
    lld = rig.lld
    slot = lld.log.open.index
    rig.write(rig.bids[0])
    lld.flush()  # the flagged summary is on the medium
    assert lld.log.open.index == slot and lld.log.open.granted
    lld.crash()
    assert list(rig.volume.stripe_cache.blank_runs()) == []
    return rig, slot


def expected_after_recovery(rig: Rig, lld: LLD, slot: int) -> tuple[list, list]:
    """The rows a recovery must grant back whole, and the sector runs of
    the flagged row it must grant back besides."""
    layout = lld.layout
    rows = grantable_rows(lld)
    flagged_row = layout.slot_rows[slot][0]
    runs = [
        (layout.slot_lba(other), lld.config.sectors_per_segment)
        for other in layout.whole_rows[flagged_row]
        if other != slot
    ]
    data_end = max(
        entry.offset + entry.stored_length
        for entry in lld.state.blocks.values()
        if entry.segment == slot
    )
    used = lld.config.summary_sectors + -(-data_end // SECTOR)
    runs.append((layout.slot_lba(slot) + used, lld.config.sectors_per_segment - used))
    return rows, runs


def logical_blank(volume, lba: int, nsectors: int) -> bool:
    """Is every data sector of ``[lba, lba + nsectors)`` on the record?"""
    return all(
        volume.stripe_cache.all_blank(sub.disk, sub.plba, sub.nsectors)
        for sub in volume.map.split(lba, nsectors)
    )


def recovered(rig: Rig) -> LLD:
    lld = LLD(rig.volume, rig.lld.config)
    lld.initialize()
    return lld


def test_recovery_grants_back_the_empty_rows_and_the_tail_of_the_flagged_row():
    rig, slot = crashed_in_a_granted_row()
    lld = recovered(rig)
    rows, runs = expected_after_recovery(rig, lld, slot)
    assert rows and all(rig.row_blank(row) for row in rows)
    assert all(logical_blank(rig.volume, lba, n) for lba, n in runs)
    assert rig.mismatches(lld) == []
    # The next writes into the flagged row pre-read nothing.
    stats = rig.volume.volume_stats
    misses = stats.preread_misses
    lld.write(rig.bids[1], rig.expected[rig.bids[1]])
    lld.flush()
    assert stats.preread_misses == misses


@pytest.mark.parametrize("left_out", ["empty_rows", "flagged_row"])
def test_a_recovery_that_leaves_part_out_is_caught(left_out, monkeypatch):
    rig, slot = crashed_in_a_granted_row()
    if left_out == "empty_rows":
        monkeypatch.setattr(LogWriter, "_grant_rows", lambda self, rows: None)
    else:
        real = LogWriter.regrant
        monkeypatch.setattr(LogWriter, "regrant", lambda self, flagged: real(self, {}))
    lld = recovered(rig)
    rows, runs = expected_after_recovery(rig, lld, slot)
    whole_ok = all(rig.row_blank(row) for row in rows)
    tail_ok = all(logical_blank(rig.volume, lba, n) for lba, n in runs)
    assert not (whole_ok and tail_ok)
