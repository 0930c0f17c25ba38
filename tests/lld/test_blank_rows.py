"""A retired slot's scrub waits for its stripe row (DESIGN.md §14).

On a device with stripe rows a scrub — the empty summary written over a
retired slot's stale one — is a partial-row write: two pre-reads and two
writes. The stale summary harms nothing meanwhile, and the log reopening
the slot writes over it, so the log holds the scrub back
(``LogWriter._ripe``) until every slot of the row is openable and off the
recovery chain, or tombstone compaction asks for it; placement meanwhile
ranks a waiting slot as if its scrub were done (``LogWriter._ranks``).

Pinned here: which retired slots a flush scrubs, against the rule restated
from the slot table; that slots do wait, and that the log then reopens
retired slots over their stale summaries, with fewer scrubs than a log
that scrubs at once (the mutant) and the same client reads; placement's
ranks on rows and on a bare disk.
"""

import random

from repro.ld import LIST_HEAD
from repro.lld import LLD
from repro.lld.log import LogWriter
from repro.lld.slots import RETIRED

from tests.lld.conftest import make_lld, small_config
from tests.lld.test_row_gather import make_volume

BLOCK = 4096


class Rig:
    """An LLD on RAID-5 rows, a list of blocks filling about half of it and
    overwritten with a skew — the cleaner retires the slots it empties —
    what a client must read back, and the scrubs and openings of retired
    slots."""

    def __init__(self, seed: int = 0, blocks: int = 400) -> None:
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
        self.scrubs = 0
        self.retired_reopened = 0
        slots = self.lld.slots
        scrub, chain = slots.scrub, slots.chain

        def scrubbing(slot: int) -> bool:
            done = scrub(slot)
            self.scrubs += done
            return done

        def chaining(slot: int) -> None:
            self.retired_reopened += slots.of[slot] == RETIRED
            chain(slot)

        slots.scrub, slots.chain = scrubbing, chaining

    def write(self, bid: int) -> None:
        data = self.rng.randbytes(BLOCK)
        self.lld.write(bid, data)
        self.expected[bid] = data

    def overwrite(self, count: int = 3000, flush_every: int = 7) -> None:
        """``count`` overwrites, nine in ten into the first tenth of the
        blocks, flushing now and then."""
        hot = len(self.bids) // 10
        for i in range(count):
            if self.rng.random() < 0.9:
                self.write(self.bids[self.rng.randrange(hot)])
            else:
                self.write(self.rng.choice(self.bids))
            if i % flush_every == flush_every - 1:
                self.lld.flush()
        self.lld.flush()

    def mismatches(self) -> list[int]:
        return [bid for bid, data in self.expected.items() if self.lld.read(bid) != data]


def dead_rows(lld: LLD) -> set[int]:
    """The log's rows whose every slot is openable and off the chain."""
    ranks = lld.slots.openable()
    since = lld.slots.since or ()
    return {
        row
        for row, slots in lld.layout.whole_rows.items()
        if all(slot in ranks and slot not in since for slot in slots)
    }


def test_a_flush_scrubs_a_retired_slot_only_once_its_row_is_dead():
    rig = Rig()
    lld = rig.lld
    log, layout = lld.log, lld.layout
    waited = scrubbed = 0
    ripe = log._ripe

    def checked(due: set[int]) -> set[int]:
        nonlocal waited, scrubbed
        got = ripe(due)
        dead = dead_rows(lld)
        rows = {slot: layout.slot_rows[slot][0] for slot in due}
        assert got == {
            slot for slot in due if rows[slot] not in layout.whole_rows or rows[slot] in dead
        }
        waited += len(due - got)
        scrubbed += len(got)
        return got

    log._ripe = checked
    rig.overwrite()
    assert waited > 0 and scrubbed > 0  # both sides of the rule were taken
    assert rig.retired_reopened > 0  # the log wrote over stale summaries itself
    assert rig.mismatches() == []


def test_the_wait_saves_scrubs_against_a_log_that_scrubs_at_once(monkeypatch):
    shipped = Rig()
    shipped.overwrite()
    monkeypatch.setattr(LogWriter, "_ripe", lambda self, due: due)
    mutant = Rig()
    mutant.overwrite()
    assert shipped.scrubs < mutant.scrubs
    assert shipped.mismatches() == [] and mutant.mismatches() == []


def test_placement_ranks_a_waiting_slot_as_scrubbed():
    rig = Rig()
    lld = rig.lld
    log, slots = lld.log, lld.slots
    waiting_seen = 0
    choose = log._choose

    def choosing(ranks: dict[int, int], current: int) -> int:
        nonlocal waiting_seen
        openable = slots.openable()
        assert log._ranks() == slots.after_scrubs(openable)
        waiting = slots.scrubbable() - log._ripe(slots.scrubbable())
        for slot in waiting & openable.keys():
            assert openable[slot] == 1 and log._ranks()[slot] == 0
            waiting_seen += 1
        return choose(ranks, current)

    log._choose = choosing
    rig.overwrite()
    assert waiting_seen > 0
    assert rig.mismatches() == []


def test_on_a_bare_disk_nothing_waits():
    lld = make_lld()
    assert lld.layout.whole_rows == {}
    assert lld.log._ripe({1, 2}) == {1, 2}
    assert lld.log._ranks() == lld.slots.openable()
