"""The log leaves a stripe row at a time (DESIGN.md §8, §9).

On a device with stripe rows — RAID-5 with ``chunk == slot``, what every
builder makes — placement fills rows in order, consecutive sealed segments
no ``Flush`` has touched wait in memory for their neighbours
(``LogWriter.held``), leave as one write and are committed in log order.
Pinned here:

* the crash model of a gathered row: every cut, torn and subset state
  inside one recovers — healthy and with a member failed, with and without
  ``torn_write_protection`` — to a prefix of the log no shorter than the
  last acknowledgement, and a state inside an epoch to one of the two cuts
  around it; two mutations of the protocol (summary magics left in place;
  commits in reverse order) are each caught;
* what a segment needs before it may be held — no ``Flush`` has touched
  it, and the summary its body blanks was durably dead when the hold
  began: not one the cleaner emptied since, not one a held segment killed
  — each with the crash state that loses acknowledged data once the
  condition is ignored;
* which slots the log opens at all: none whose summary still homes live
  metadata, even when every free slot does;
* what does not change: what a client reads back (RAID-5 against a bare
  disk under hypothesis scripts), reads of held blocks, the cleaner, the
  byte funnel, the bound on what is held;
* placement: where rows exist, and the row rule of ``pick_slot``.
"""

import dataclasses
import random
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.lld.log as log_module
from repro.crashsim import (
    OracleDriver,
    ParityRecording,
    client_view,
    enumerate_parity_crash_states,
    materialize_parity_crash_state,
)
from repro.disk import SimulatedDisk, fast_test_disk
from repro.ld import LIST_HEAD
from repro.lld import LLD
from repro.lld.log import LogWriter
from repro.lld.segment import DiskLayout, OpenSegment, pick_slot
from repro.obs import Tracer
from repro.sim import VirtualClock
from repro.volume import Volume

from tests.lld.conftest import small_config
from tests.lld.test_log_golden import JournalDisk, Rig, contents_of, observe

SEGMENT = 64 * 1024
SECTOR = 512
BLOCK = 4096
PER_SEGMENT = 15  # 4 KB blocks a 60 KB data area takes

#: Barrier labels that close the epochs of a gathered row.
ROW_LABELS = ("row-body", "row-commit")


def make_volume(
    layout: str = "raid5", chunk: int = SEGMENT // SECTOR, members: int = 4, cylinders: int = 4
) -> Volume:
    """Members of ``cylinders`` x 240 KB (four: the smallest test disk)."""
    geometry = dataclasses.replace(fast_test_disk(capacity_mb=1), cylinders=cylinders)
    disks = [SimulatedDisk(geometry, VirtualClock()) for _ in range(members)]
    return Volume(disks, VirtualClock(), layout=layout, chunk_sectors=chunk)


# ----------------------------------------------------------------------
# The crash walk
# ----------------------------------------------------------------------


def view_key(blocks: dict, lists: dict) -> tuple:
    return tuple(sorted(blocks.items())), tuple(sorted(lists.items()))


class Walk:
    """An LLD on a recorded RAID-5 volume, the sequence of states its client
    passed through, and a recovery of every crash state against it.

    Every :meth:`step` is atomic in the log — one record, or one ARU — so a
    log prefix recovers to the state after some step, and anything else
    (a later segment parsed without an earlier one) to none of them.
    """

    def __init__(self, volume: Volume | None = None, **config) -> None:
        self.volume = volume if volume is not None else make_volume()
        self.recording = ParityRecording(self.volume)
        #: Label of the barrier that closed epoch k: what ran between
        #: boundary k and boundary k + 1 of the enumerator.
        self.labels: list[str] = []
        journalled = self.volume.barrier
        vectors = self.recording.epoch_positions

        def labelled(label: str = "barrier", *, wait: bool = True) -> None:
            before = len(vectors)
            journalled(label, wait=wait)
            if len(vectors) > before and any(vectors[-1]):
                self.labels.append(label)

        self.volume.barrier = labelled
        self.config = small_config(**config)
        self.tracer = Tracer(self.volume.clock)
        self.lld = LLD(self.volume, self.config, tracer=self.tracer)
        self.lld.initialize()
        self.driver = OracleDriver(self.lld, self.recording)
        self.rng = random.Random("row-gather")
        self.lid = self.driver.new_list(self.lld)
        self.bids: list[int] = []
        self.views = [self.view()]
        #: ``(journal position, index into views)`` of every acknowledgement.
        self.acks: list[tuple[int, int]] = []

    def view(self) -> tuple:
        point = self.driver.freeze("step")
        return view_key(point.blocks, point.lists)

    def step(self, *ops, atomic: bool = True) -> None:
        """Run ``ops`` as one step, atomic in the log unless told otherwise
        (in an ARU, unless it is one write and so one record)."""
        driver, ld = self.driver, self.lld
        unit = atomic and (len(ops) > 1 or ops[0][0] != "over")
        if unit:
            driver.begin_aru(ld)
        for op in ops:
            if op[0] in ("new", "alloc"):
                bid = driver.new_block(ld, self.lid, self.bids[-1] if self.bids else LIST_HEAD)
                if op[0] == "new":
                    driver.write(ld, bid, self.rng.randbytes(op[1]))
                self.bids.append(bid)
            elif op[0] == "over":
                driver.write(ld, self.bids[op[1] % len(self.bids)], self.rng.randbytes(op[2]))
            else:
                driver.delete_block(ld, self.bids.pop(op[1] % len(self.bids)), self.lid)
        if unit:
            driver.end_aru(ld)
        self.views.append(self.view())

    def grow(self, count: int, size: int = BLOCK, atomic: bool = True) -> None:
        for _ in range(count):
            self.step(("new", size), atomic=atomic)

    def ack(self) -> None:
        self.lld.flush()
        self.acks.append((self.recording.position, len(self.views) - 1))

    def seals(self) -> list[SimpleNamespace]:
        return [
            SimpleNamespace(**span.attrs)
            for span in self.tracer.spans
            if span.name == "lld.segment_seal"
        ]

    def walk(self, epochs, kinds=("cut", "torn", "subset"), fails=(None, 1)) -> tuple[int, list[tuple]]:
        """Recover the crash states of ``epochs`` (a predicate on the epoch
        number) — cuts at either end of such an epoch, torn and subset
        states inside one — on the resynced volume, whole and with a member
        failed; returns ``(recoveries, violations)``."""
        states = enumerate_parity_crash_states(self.recording, subset_samples_per_epoch=6)
        index = {view: i for i, view in enumerate(self.views)}
        assert len(index) == len(self.views)  # every step changed something
        universe = sorted({bid for blocks, _lists in self.views for bid, _data in blocks})
        checked, violations = 0, []
        for fail in fails:
            cuts: dict[int, int | None] = {}
            for state in states:  # cuts come first
                epoch = int(state.detail.partition(":")[0].removeprefix("epoch@"))
                inside = state.kind != "cut"
                if state.kind not in kinds:
                    continue
                if not (epochs(epoch) or (not inside and epoch and epochs(epoch - 1))):
                    continue
                volume = materialize_parity_crash_state(self.recording, state)
                volume.resync_parity()
                if fail is not None:
                    volume.fail_member(fail)
                lld = LLD(volume, self.config)
                lld.initialize()
                got = index.get(view_key(*client_view(lld, universe, [self.lid])))
                checked += 1
                owed = max((v for seq, v in self.acks if seq <= state.covered_seq), default=0)
                if got is None:
                    problem = "no prefix of the log"
                elif got < owed:
                    problem = f"step {got}, acknowledged {owed}"
                elif inside and got not in (cuts[epoch], cuts[epoch + 1]):
                    problem = f"step {got}, cuts around it {cuts[epoch]}, {cuts[epoch + 1]}"
                else:
                    problem = None
                if not inside:
                    cuts[epoch] = got
                if problem:
                    violations.append((state.kind, state.detail, fail, problem))
        return checked, violations

    def in_rows(self, epoch: int) -> bool:
        return epoch < len(self.labels) and self.labels[epoch] in ROW_LABELS

    def since(self, position: int, end: int | None = None):
        """Epochs that start at or after journal ``position`` (and end by
        ``end``)."""
        bounds = [0] + [sum(v) for v in self.recording.epoch_positions if any(v)]
        end = bounds[-1] if end is None else end
        return lambda k: k + 1 < len(bounds) and position <= bounds[k] and bounds[k + 1] <= end


def back_to_back(torn: bool) -> Walk:
    """Six seals with no flush between them and ARUs across every one."""
    w = Walk(torn_write_protection=torn)
    w.grow(3, 1000)
    w.ack()  # the open segment is partially flushed: it will not be held
    for i in range(20):
        w.step(("new", BLOCK), ("new", BLOCK), ("over", 7 * i, 3000), ("new", BLOCK), ("new", 2200))
        if i % 6 == 5:
            w.step(("del", 11 * i))
        if i % 4 == 1:
            w.step(("over", 3 * i, BLOCK))
    assert w.lld.stats.segments_sealed == 6
    w.ack()
    return w


@pytest.mark.parametrize("torn", [False, True], ids=["plain", "torn"])
def test_every_crash_state_inside_a_gathered_row_is_a_log_prefix(torn):
    w = back_to_back(torn)
    stats = w.lld.stats
    assert [seal.held for seal in w.seals()] == [False] + [True] * 5
    assert stats.rows_written == 2 and stats.segments_gathered == stats.header_commits == 5
    rows = [span.attrs for span in w.tracer.spans if span.name == "lld.row_write"]
    assert [(row["segments"], row["full"]) for row in rows] == [(2, False), (3, True)]
    assert w.volume.volume_stats.full_stripe_writes == 1
    # One body and one single-sector commit per segment, a barrier after each.
    assert w.labels.count("row-body") == 2 and w.labels.count("row-commit") == 5
    # The funnel: every byte the members' volume took was counted.
    assert stats.data_bytes_physical == w.volume.stats.bytes_written
    checked, violations = w.walk(w.in_rows)
    assert checked >= 80
    assert violations == []


def test_a_row_written_with_its_magics_in_place_is_caught(monkeypatch):
    """Mutation: the body is one barrier epoch, so any subset of its member
    writes can land — the second segment's chunk without the first's."""
    monkeypatch.setattr(OpenSegment, "blank_magic", lambda self: None)
    w = back_to_back(torn=False)
    assert w.lld.stats.rows_written == 2
    _checked, violations = w.walk(w.in_rows)
    assert any(problem == "no prefix of the log" for *_state, problem in violations)
    assert {detail.partition(":")[0] for _kind, detail, _fail, _p in violations} <= {
        f"epoch@{k}" for k, label in enumerate(w.labels) if label == "row-body"
    }


def test_commits_in_reverse_order_are_caught(monkeypatch):
    """Mutation: a cut between two commits then holds a later segment
    without an earlier one."""
    commit = LogWriter._commit_row
    monkeypatch.setattr(LogWriter, "_commit_row", lambda self, held: commit(self, held[::-1]))
    w = back_to_back(torn=False)
    _checked, violations = w.walk(w.in_rows)
    assert any(kind == "cut" and problem == "no prefix of the log" for kind, *_s, problem in violations)


# ----------------------------------------------------------------------
# What a segment needs before it may be held
# ----------------------------------------------------------------------


def scripted_placement(monkeypatch) -> list[int]:
    """Slots the log is made to open next, in order, before ``pick_slot``
    decides again — to put a segment where the case needs it."""
    forced: list[int] = []

    def scripted(ranks, layout, current):
        if not forced:
            return pick_slot(ranks, layout, current)
        assert forced[0] in ranks
        return forced.pop(0)

    monkeypatch.setattr(log_module, "pick_slot", scripted)
    return forced


def hold_regardless(monkeypatch, slots) -> None:
    """Mutation: a segment opened over one of ``slots`` is holdable."""
    open_next = LogWriter.open_next

    def mutated(self, slot=None):
        open_next(self, slot)
        if self.open.index in slots:
            self.slots.dead.add(self.open.index)

    monkeypatch.setattr(LogWriter, "open_next", mutated)


def partially_flushed(forget: bool) -> tuple[Walk, int]:
    # Protected, here and below: what is walked includes single images and
    # delta seals, whose unprotected summary writes tear on their own.
    w = Walk(torn_write_protection=True)
    w.grow(4)
    w.ack()  # a partial flush: four blocks the client now relies on
    if forget:
        w.lld.log.open.reset_durable()  # mutation: as if no flush had touched it
    start = w.recording.position
    w.grow(3 * PER_SEGMENT)
    w.ack()
    return w, start


def test_a_partially_flushed_segment_is_not_held():
    """Its body would go out under a blanked header — over the header the
    flush made durable."""
    w, start = partially_flushed(forget=False)
    assert [seal.held for seal in w.seals()] == [False, True, True]
    assert w.seals()[0].delta  # it left by its tail, as before
    checked, violations = w.walk(w.since(start))
    assert checked >= 50 and violations == []


def test_holding_a_partially_flushed_segment_loses_what_the_flush_acknowledged():
    w, start = partially_flushed(forget=True)
    assert [seal.held for seal in w.seals()] == [True, True, True]
    _checked, violations = w.walk(w.since(start))
    # The cut between the body and the first commit: the header the flush
    # made durable is blank, and with it the list and its first four blocks.
    after_body = f"epoch@{w.labels.index('row-body') + 1}"
    assert ("cut", after_body) in {(kind, detail) for kind, detail, *_rest in violations}


def cleaned_behind_a_held_segment(monkeypatch, mutate: bool) -> tuple[Walk, int]:
    """The cleaner empties slot 9 into the open segment on slot 8; that one
    seals and is held; the log then opens slot 9."""
    forced = scripted_placement(monkeypatch)
    w = Walk(torn_write_protection=True)
    forced.extend([9, 11])
    # Not in ARUs: slot 9 is about to be recycled.
    w.grow(PER_SEGMENT - 1, atomic=False)  # slot 2, nearly
    w.grow(1 + PER_SEGMENT, atomic=False)  # seals it; fills slot 9
    w.grow(3, atomic=False)
    w.ack()
    victims = w.bids[PER_SEGMENT : 2 * PER_SEGMENT]
    assert {w.lld.state.blocks[bid].segment for bid in victims} == {9}
    forced.append(8)
    for bid in victims[3:]:  # three blocks of slot 9 stay live
        w.step(("over", w.bids.index(bid), BLOCK))
    w.ack()  # slot 11 is full: the flush seals it and opens slot 8
    assert w.lld.log.open.index == 8 and w.lld.slots.holdable(8)
    assert w.lld.clean(1) == 1 and w.lld.slots.of[9] == "retired"
    assert w.lld.state.blocks[victims[0]].segment == 8
    if mutate:
        hold_regardless(monkeypatch, {9})
    forced.append(9)
    start = w.recording.position
    w.grow(2 * PER_SEGMENT)
    w.ack()
    assert not forced
    return w, start


def test_a_slot_cleaned_while_its_predecessor_fills_is_not_held(monkeypatch):
    w, start = cleaned_behind_a_held_segment(monkeypatch, mutate=False)
    held = {seal.slot: seal.held for seal in w.seals()}
    assert held[8] and not held[9]
    checked, violations = w.walk(w.since(start))
    assert checked >= 30 and violations == []


def test_holding_a_cleaned_slot_loses_the_block_the_cleaner_moved(monkeypatch):
    w, start = cleaned_behind_a_held_segment(monkeypatch, mutate=True)
    held = {seal.slot: seal.held for seal in w.seals()}
    assert held[8] and held[9]
    _checked, violations = w.walk(w.since(start))
    # Crash between the body and the first commit: slot 9's summary and
    # data are gone, and the segment its blocks moved to does not parse yet.
    after_body = f"epoch@{w.labels.index('row-body') + 1}"
    assert ("cut", after_body) in {(kind, detail) for kind, detail, *_rest in violations}


def killed_by_its_predecessor(monkeypatch, mutate: bool) -> tuple[Walk, int]:
    """Dead in memory is not dead on the medium. Slot 6 holds nothing but
    the data of fifteen blocks; the segment on slot 5 overwrites them all,
    seals and is held; the log then opens slot 6, whose summary — pure
    stale, by the tables — is still the blocks' only durable home."""
    forced = scripted_placement(monkeypatch)
    w = Walk(torn_write_protection=True)
    for _ in range(3 * PER_SEGMENT):
        w.step(("alloc",), atomic=False)  # every link lives in slot 2
    w.ack()
    forced.append(6)
    for i in range(2 * PER_SEGMENT + 3):  # data: slot 2, slot 6, three blocks of slot 7
        w.step(("over", i, BLOCK))
    w.ack()
    doomed = w.bids[PER_SEGMENT : 2 * PER_SEGMENT]
    state = w.lld.state
    assert {state.blocks[bid].segment for bid in doomed} == {6} and not state.slot_holds_metadata(6)
    forced.append(5)
    for i in range(PER_SEGMENT - 3):
        w.step(("over", i, BLOCK))
    w.ack()  # slot 7 is full: the flush seals it and opens slot 5
    assert w.lld.log.open.index == 5 and w.lld.slots.holdable(5) and not w.lld.log.held
    if mutate:
        hold_regardless(monkeypatch, {6})
    forced.append(6)
    start = w.recording.position
    for bid in doomed:
        w.step(("over", w.bids.index(bid), BLOCK))
    assert 6 in w.lld.slots.empty and not state.slot_holds_metadata(6)  # rank 1
    for i in range(PER_SEGMENT + 2):
        w.step(("over", i, BLOCK))
    w.ack()
    assert not forced
    return w, start


def test_a_slot_its_held_predecessor_killed_is_not_held(monkeypatch):
    w, start = killed_by_its_predecessor(monkeypatch, mutate=False)
    seals = w.seals()[-2:]
    assert [(seal.slot, seal.held) for seal in seals] == [(5, True), (6, False)]
    checked, violations = w.walk(w.since(start))
    assert checked >= 30 and violations == []


def test_holding_a_slot_its_held_predecessor_killed_loses_its_blocks(monkeypatch):
    w, start = killed_by_its_predecessor(monkeypatch, mutate=True)
    seals = w.seals()[-2:]
    assert [(seal.slot, seal.held) for seal in seals] == [(5, True), (6, True)]
    _checked, violations = w.walk(w.since(start))
    after_body = f"epoch@{w.labels.index('row-body') + 1}"
    assert ("cut", after_body) in {(kind, detail) for kind, detail, *_rest in violations}


def test_a_retired_slot_is_scrubbed_only_once_what_was_relogged_is_durable(monkeypatch):
    """The cleaner empties slot 2 — eight blocks and the links of fifteen —
    into slot 3, which fills, is held, and leaves the rest, the links
    included, to slot 4. The flush then writes slot 3 ahead of slot 4:
    slot 2's summary may go only once slot 4's is on the medium too, or a
    crash between the two loses the links."""
    forced = scripted_placement(monkeypatch)
    w = Walk(torn_write_protection=True)
    w.grow(PER_SEGMENT, atomic=False)  # slot 2: fifteen blocks and their links
    forced.append(3)
    w.ack()
    for i in range(8, PER_SEGMENT):
        w.step(("over", i, BLOCK))
    w.grow(5, atomic=False)  # slot 3 has room for three blocks
    forced.append(4)
    start = w.recording.position
    w.lld.cleaner.clean_segment(2)
    slots = w.lld.slots
    assert (slots.of[2], slots.of[3], slots.of[4]) == ("retired", "held", "open")
    w.ack()
    assert slots.of[2] == "free" and not forced
    checked, violations = w.walk(w.since(start))
    assert checked >= 40 and violations == []


# ----------------------------------------------------------------------
# Which slots the log opens
# ----------------------------------------------------------------------


def test_a_slot_whose_summary_homes_links_is_retired_before_it_is_reused():
    """Every slot of a 20-slot volume once used, each full one homing the
    links of its fifteen blocks; then the oldest blocks are overwritten, so
    their slots go free still homing those links, until no other slot is
    free. Placement alone picks what comes next. Recycling such a slot as
    it is, re-logging its links into itself, is not atomic: with
    ``torn_write_protection`` the new summary's tail goes first, over the
    old records, and a crash before the header flip leaves neither summary
    (ten violations in this walk when the log did so, a plain cut among
    them). The cleaner instead re-logs the links at the log head and
    retires the slot: nothing goes over its summary before the segment
    that carries them."""
    w = Walk(make_volume(cylinders=2), torn_write_protection=True)
    assert w.lld.layout.segment_count == 20
    w.grow(230, atomic=False)
    w.ack()
    start = None
    for i in range(80):
        if i == 60:
            start = w.recording.position
        w.step(("over", i, BLOCK))
        if i % 15 == 14:
            w.ack()
    w.ack()
    stats = w.lld.stats
    # Nothing was cleaned: every record re-logged came out of free slots.
    assert stats.cleanings == 0 and stats.records_relogged >= 15
    checked, violations = w.walk(w.since(start))
    assert checked >= 80
    assert violations == []


# ----------------------------------------------------------------------
# What does not change
# ----------------------------------------------------------------------


class GuardedDisk(JournalDisk):
    """A journalling device that refuses to read a slot whose current
    contents exist only in memory."""

    lld: LLD | None = None

    def _check(self, lba: int, nsectors: int) -> None:
        lld = self.lld
        if lld is None or lld.log.open is None:
            return
        per_slot = lld.config.sectors_per_segment
        first = (lba - lld.layout.data_start_lba) // per_slot
        last = (lba + nsectors - 1 - lld.layout.data_start_lba) // per_slot
        for slot in range(max(first, 0), last + 1):
            assert lld.log.resident(slot) is None, f"slot {slot} read from the medium"

    def read(self, lba, nsectors, *, wait=True):
        self._check(lba, nsectors)
        return super().read(lba, nsectors, wait=wait)

    def read_batch(self, requests, *, wait=True):
        for lba, nsectors in requests:
            self._check(lba, nsectors)
        return super().read_batch(requests, wait=wait)


class GuardedRig(Rig):
    def boot(self) -> None:
        if not isinstance(self.disk, GuardedDisk):
            self.disk = GuardedDisk(self.device)
        self.disk.lld = None
        super().boot()
        self.disk.lld = self.lld


OPS = st.lists(
    st.one_of(
        # Bursts, so that segments fill and seal back to back between flushes.
        st.tuples(st.just("new"), st.integers(4, 24), st.sampled_from([1500, BLOCK, BLOCK])),
        st.tuples(st.just("over"), st.integers(0, 1 << 16), st.integers(1, 20)),
        st.tuples(st.just("del"), st.integers(0, 1 << 16)),
        st.tuples(st.just("aru"), st.integers(0, 1 << 16), st.integers(2, 12)),
        st.tuples(st.just("clean"), st.integers(1, 3)),
        st.tuples(st.just("read"), st.integers(0, 1 << 16)),
        st.tuples(st.just("flush")),
    ),
    min_size=10,
    max_size=50,
)


def play(rig: Rig, ops) -> None:
    lld = rig.lld
    lid = lld.new_list()
    live: list[int] = []
    layout = lld.layout
    for op in ops:
        if op[0] == "new":
            for _ in range(op[1]):
                bid = lld.new_block(lid, live[-1] if live else LIST_HEAD)
                lld.write(bid, rig.data(op[2]))
                live.append(bid)
        elif op[0] == "flush":
            lld.flush()
        elif op[0] == "clean":
            lld.clean(op[1])
        elif not live:
            continue
        elif op[0] == "over":
            for i in range(op[2]):
                lld.write(live[(op[1] + 7 * i) % len(live)], rig.data(BLOCK))
        elif op[0] == "aru":
            with lld.aru():
                for i in range(op[2]):
                    lld.write(live[(op[1] + i) % len(live)], rig.data(3000))
        elif op[0] == "read":
            lld.read_blocks([live[(op[1] + 3 * i) % len(live)] for i in range(6)])
        else:
            lld.delete_block(live.pop(op[1] % len(live)), lid)
        # Never more than the device's own stripe: consecutive slots of one
        # row, and a complete row does not stay.
        held = [seg.index for seg in lld.log.held]
        assert len(held) < layout.row_width
        if held:
            assert held == list(range(held[0], held[0] + len(held)))
            assert len({layout.slot_rows[slot][0] for slot in held}) == 1
    lld.flush()


def left_behind(rig: Rig, funnel: bool = False) -> dict:
    state = observe(rig)  # crashes, recovers
    if funnel:  # every byte the log wrote was counted (a checkpoint's are not)
        assert state["physical"] == state["written"]
    contents = contents_of(state["recovered"])
    return {name: contents[name] for name in ("blocks", "lists", "contents")}


@pytest.mark.parametrize("torn", [False, True], ids=["plain", "torn"])
@given(ops=OPS)
@settings(max_examples=40, deadline=None)
def test_raid5_rows_and_a_bare_disk_give_the_client_the_same(torn, ops):
    assert_same_for_the_client(torn, ops)


#: Scripts hypothesis drew on which RAID-5 lost blocks last written inside
#: an ARU, then flushed, at recovery while the bare disk kept them: the
#: unit's records outlived the slot its COMMIT was logged in, which its
#: placement there recycled or cleaned (``LogWriter.relog_slot`` now
#: re-states such a COMMIT).
ARU_THEN_CLEANING = [
    [
        ("new", 11, 1500), ("over", 42, 2), ("new", 13, 4096), ("new", 10, 4096),
        ("del", 2164), ("del", 15223), ("over", 2888, 11), ("aru", 3213, 3),
        ("over", 65535, 5), ("del", 310), ("new", 21, 1500), ("flush",), ("del", 4536),
        ("del", 1179), ("over", 300, 15), ("new", 22, 4096), ("over", 1022, 3),
        ("aru", 65535, 7), ("clean", 3), ("aru", 2405, 2), ("over", 1585, 20),
        ("clean", 3), ("clean", 1),
    ],
    [
        ("new", 12, 4096), ("new", 24, 4096), ("clean", 1), ("new", 5, 1500),
        ("aru", 0, 6), ("over", 0, 10), ("new", 18, 4096), ("aru", 22337, 11),
        ("over", 244, 7), ("clean", 1), ("over", 1, 8), ("clean", 1),
    ],
]


@pytest.mark.parametrize("torn", [False, True], ids=["plain", "torn"])
def test_an_aru_then_cleaning_script_gives_the_client_the_same(torn):
    for ops in ARU_THEN_CLEANING:
        assert_same_for_the_client(torn, ops)


def assert_same_for_the_client(torn: bool, ops) -> None:
    rigs = {device: GuardedRig("row-gather", device, True, torn, False) for device in ("raid5", "bare")}
    after_crash, after_mount = {}, {}
    for device, rig in rigs.items():
        play(rig, ops)
        after_crash[device] = left_behind(rig, funnel=True)
        rig.boot()  # observe() left the device crashed: recover it again ...
        rig.lld.shutdown()  # ... and leave it cleanly this time
        rig.boot()
        assert rig.lld.recovery_report.checkpoint_sequence  # mounted from the checkpoint
        after_mount[device] = left_behind(rig)
    assert after_crash["raid5"] == after_crash["bare"] == after_mount["raid5"] == after_mount["bare"]
    assert rigs["bare"].past_stats == [] and "rows_written" not in observe(rigs["bare"])["stats"][0]


def held_rig() -> tuple[LLD, GuardedDisk, list[int]]:
    """An LLD with one sealed segment held (slot 2) and slot 3 open."""
    disk = GuardedDisk(make_volume())
    lld = LLD(disk, small_config())
    lld.initialize()
    disk.lld = lld
    del disk.log[:]  # the recovery sweep
    lid = lld.new_list()
    bids, pred = [], LIST_HEAD
    for i in range(PER_SEGMENT + 3):
        pred = lld.new_block(lid, pred)
        lld.write(pred, bytes([i + 1]) * BLOCK)
        bids.append(pred)
    assert [seg.index for seg in lld.log.held] == [2] and lld.log.open.index == 3
    assert not [entry for entry in disk.log if entry[0] == "w"]
    return lld, disk, bids


def test_blocks_of_a_held_segment_are_read_from_memory():
    lld, disk, bids = held_rig()
    entry = lld.state.blocks[bids[4]]
    assert entry.segment == 2 and lld.log.resident(2) is lld.log.held[0]
    assert lld.log.resident(3) is lld.log.open and lld.log.resident(4) is None
    memory_reads = lld.stats.memory_reads
    assert lld.read(bids[4]) == bytes([5]) * BLOCK
    assert lld.read_blocks(bids[:8]) == [bytes([i + 1]) * BLOCK for i in range(8)]
    assert lld.stats.memory_reads == memory_reads + 9
    assert lld.stored_bytes(entry) == bytes([5]) * BLOCK
    assert lld.placement_hint(bids[4]) is None and lld.placement_hint(bids[-1]) is None
    assert not [e for e in disk.log if e[0] in "rR"]
    # Neither slot is a candidate for the next segment, nor counted free.
    free = lld.free_segment_count()
    for bid in bids[:PER_SEGMENT]:
        lld.delete_block(bid, 1)
    assert 2 in lld.slots.empty and lld.free_segment_count() == free
    lld.flush()
    assert lld.free_segment_count() == free + 1 and not lld.log.held
    assert lld.read(bids[-1]) == bytes([PER_SEGMENT + 3]) * BLOCK


def test_the_reorganizer_moves_held_blocks_without_reading_the_medium():
    lld, disk, bids = held_rig()
    assert lld.reorganize() == len(bids)
    assert not [e for e in disk.log if e[0] in "rR"]
    lld.flush()
    assert lld.read_list(1) == [bytes([i + 1]) * BLOCK for i in range(len(bids))]


def test_the_cleaner_finds_its_victim_on_the_medium():
    lld, disk, bids = held_rig()
    for bid in bids[1:PER_SEGMENT]:  # slot 2 keeps one live block: the victim
        lld.write(bid, b"\xee" * BLOCK)
    assert lld.cleaner.select_victim() == 2 and 2 in [seg.index for seg in lld.log.held]
    assert lld.clean(1) == 1  # the guard refuses a read of a resident slot
    assert not lld.log.held and lld.state.blocks[bids[0]].segment != 2
    reads = [entry for entry in disk.log if entry[0] == "r"]
    assert reads == [("r", lld.layout.slot_lba(2) + 8, 120)]  # its data area, once written
    lld.flush()
    assert lld.read(bids[0]) == bytes([1]) * BLOCK
    assert lld.stats.data_bytes_physical == disk.bytes_written


def test_a_crash_drops_what_was_held_and_a_flush_with_only_held_segments_is_not_a_noop():
    lld, disk, bids = held_rig()
    lld.crash()
    assert not lld.log.held
    fresh = LLD(disk, lld.config)
    disk.lld = None
    fresh.initialize()
    assert not fresh.state.blocks  # nothing was acknowledged, nothing came back

    lld, disk, bids = held_rig()
    for bid in bids[PER_SEGMENT:]:
        lld.delete_block(bid, 1)
    lld.log.seal()  # by hand: the open segment is now empty, one is held
    assert lld.log.open.is_empty and len(lld.log.held) == 2
    lld.flush()
    assert lld.stats.flushes == 1 and lld.stats.flushes_noop == 0 and not lld.log.held
    assert [entry[1] for entry in disk.log if entry[0] == "b"] == ["row-body", "row-commit", "row-commit", "flush"]
    lld.flush()
    assert lld.stats.flushes_noop == 1


def test_one_held_segment_leaves_as_the_image_it_would_have_been():
    """Same requests as on a stripe, where nothing is ever held: one image,
    one barrier — only later."""
    journals = {}
    for layout in ("raid5", "stripe"):
        disk = JournalDisk(make_volume(layout))
        lld = LLD(disk, small_config())
        lld.initialize()
        lid = lld.new_list()
        pred = LIST_HEAD
        for i in range(PER_SEGMENT + 3):
            pred = lld.new_block(lid, pred)
            lld.write(pred, bytes([i + 1]) * BLOCK)
        assert len(lld.log.held) == (layout == "raid5")
        lld.flush()
        assert lld.stats.rows_written == lld.stats.header_commits == 0
        # Writes as (slot, sector in it, sectors), and barrier labels.
        base, per_slot = lld.layout.slot_lba(0), SEGMENT // SECTOR
        journals[layout] = [
            (*divmod(entry[1] - base, per_slot), entry[2]) if entry[0] == "w" else entry[1]
            for entry in disk.log
            if entry[0] in "wb"
        ]
    # A row layout starts on the emptiest row — slot 2, not slot 0 — and the
    # images name their slots; their shape and order are the same.
    assert journals["raid5"] == [
        (entry[0] + 2, *entry[1:]) if isinstance(entry, tuple) else entry
        for entry in journals["stripe"]
    ]
    assert journals["raid5"] == [(2, 0, 128), "segment-image", (3, 0, 32), "segment-image", "flush"]


# ----------------------------------------------------------------------
# Placement: where rows exist, and how they are filled
# ----------------------------------------------------------------------


def layout_on(disk, **config) -> DiskLayout:
    return DiskLayout(disk, small_config(**config))


def test_rows_exist_only_where_slots_tile_the_full_stripe():
    chunk = SEGMENT // SECTOR
    raid5 = layout_on(make_volume())
    assert raid5.row_width == 3
    # Slot 0 follows the checkpoint slot: position 1 of row 0; then 3 a row.
    assert raid5.slot_rows[:6] == [(0, 1), (0, 2), (1, 0), (1, 1), (1, 2), (2, 0)]
    assert make_volume().geometry.full_stripe_sectors == 3 * chunk
    # Two checkpoint slots, as the e2e stack has: slot 0 is the last chunk of row 0.
    assert layout_on(make_volume(), checkpoint_slots=2).slot_rows[:2] == [(0, 2), (1, 0)]
    # A chunk of two slots: six slots a row. Of half a slot on five
    # members: the four data chunks of a row are two slots.
    assert layout_on(make_volume(chunk=2 * chunk)).row_width == 6
    assert layout_on(make_volume(chunk=chunk // 2, members=5)).row_width == 2
    # No rows: a stripe smaller than, or no multiple of, the slot; layouts
    # without parity; a bare disk.
    for volume in (
        make_volume(chunk=chunk // 2),
        make_volume(chunk=8),
        make_volume("raid5", chunk=3 * chunk // 2),
        make_volume("stripe"),
        make_volume("mirror"),
    ):
        assert (layout_on(volume).row_width, layout_on(volume).slot_rows) == (1, None)
    assert make_volume("stripe").geometry.full_stripe_sectors == 0
    bare = SimulatedDisk(fast_test_disk(capacity_mb=4), VirtualClock())
    assert not hasattr(bare.geometry, "full_stripe_sectors")
    assert (layout_on(bare).row_width, layout_on(bare).slot_rows) == (1, None)


#: Slots 0-1 end row 0 (the checkpoint slot starts it); then three a row.
ROWS = [(0, 1), (0, 2), (1, 0), (1, 1), (1, 2), (2, 0), (2, 1), (2, 2), (3, 0), (3, 1), (3, 2)]

ROW_CASES = [
    # (free slots -> rank, current, expected)
    ({s: 0 for s in range(11)}, -1, 2),  # start-up: a fresh row from its chunk 0
    ({s: 0 for s in range(11) if s != 2}, 2, 3),  # row continuation
    ({s: 0 for s in range(11) if s not in (2, 3)}, 3, 4),
    ({s: 0 for s in range(11) if s not in (2, 3, 4)}, 4, 5),  # row complete: next whole row
    ({0: 0, 1: 0, 6: 0, 8: 0, 9: 0, 10: 0}, 4, 8),  # the emptiest row, not the nearest
    ({0: 0, 1: 0, 6: 0, 7: 0}, 4, 6),  # equally empty: the first after current ...
    ({0: 0, 1: 0, 6: 0, 7: 0}, 7, 0),  # ... wrapping
    ({4: 0, 7: 0}, 2, 4),  # the current row's next free slot, not necessarily adjacent
    ({2: 0, 5: 0}, 3, 5),  # nothing ahead in the row: behind current does not count
    ({4: 1, 5: 0, 6: 0}, 3, 5),  # rank still comes first ...
    ({4: 1, 5: 1, 6: 1}, 3, 4),  # among equals, the row still continues
    ({3: 1, 4: 0, 8: 1, 9: 1, 10: 1}, 2, 4),  # ... also when counting a row's room
    ({3: 1, 8: 1, 9: 1, 10: 1}, 4, 8),
]


@pytest.mark.parametrize("ranks, current, expected", ROW_CASES)
def test_pick_slot_fills_rows_in_order(ranks, current, expected):
    layout = SimpleNamespace(slot_rows=ROWS)  # nothing else is read on a row layout
    assert pick_slot(ranks, layout, current) == expected
