"""Running checkpoints: recovery from the newest copy and its tail.

With two checkpoint slots the log writer takes a checkpoint after every
``reserve`` openings, listing the slots it opens first; every summary names
the slot the log opened after it. A crash recovers from the newest copy,
the listed slots' summaries and the chain of ``next`` slots past them. The
oracle is the full sweep: the same image recovered with the checkpoint
region blanked must give the same block map, list table and usage
(``recovered_tables``), and know no summary the checkpoint path does not.
"""

import itertools

import pytest

from repro.crashsim import (
    CrashStateEnumerator,
    LLDCrashChecker,
    OracleDriver,
    RecordingDisk,
    recovered_tables,
    run_checkpoint_matrix_workload,
)
from repro.disk import SimulatedDisk, fast_test_disk
from repro.ld import LIST_HEAD, ListHints
from repro.lld import LLD, NVRAM
from repro.lld.checkpoint import CheckpointTooLargeError, _parse_header
from repro.lld.config import SECTOR
from repro.lld.segment import parse_summary
from repro.sim import VirtualClock

from tests.lld.conftest import make_lld, small_config


def populate(lld, n=12, rounds=400, seed=0):
    """A list of ``n`` blocks overwritten ``rounds`` times, flushed now and
    then; returns ``(lid, bids, expected bytes)``."""
    lid = lld.new_list()
    bids, pred = [], LIST_HEAD
    for i in range(n):
        pred = lld.new_block(lid, pred)
        bids.append(pred)
        lld.write(pred, bytes([i]) * 2048)
    for i in range(rounds):
        bid = bids[(i * 7 + seed) % n]
        lld.write(bid, bytes([(i + seed) % 251]) * (700 + (i % 5) * 800))
        if i % 9 == 0:
            lld.flush()
    lld.flush()
    return lid, bids, {bid: lld.read(bid) for bid in bids}


def swept(lld):
    """The full sweep of a copy of ``lld``'s disk (checkpoints blanked)."""
    twin = SimulatedDisk(lld.disk.geometry, VirtualClock())
    twin.restore(lld.disk.snapshot())
    for lba in lld.checkpoint.lbas:
        twin.write(lba, bytes(SECTOR))
    other = LLD(twin, lld.config)
    other.initialize()
    assert other.recovery_report.checkpoint_sequence == 0
    return other


def crash(lld, nvram=None):
    lld.crash()
    fresh = LLD(lld.disk, lld.config, nvram=nvram)
    fresh.initialize()
    return fresh


def test_a_crash_recovers_from_the_checkpoint_and_its_tail():
    lld = make_lld(checkpoint_slots=2)
    lid, bids, expected = populate(lld)
    assert lld.stats.checkpoints_written >= 2
    assert lld.stats.checkpoint_bytes > 0 and lld.stats.checkpoints_refused == 0
    recovered = crash(lld)
    report = recovered.recovery_report
    assert report.checkpoint_sequence == lld.checkpoint.sequence
    assert report.segments_scanned == lld.log.reserve == 8
    assert report.summaries_followed == 0  # the crash fell on the list
    sweep = swept(recovered)
    assert report.records_seen < sweep.recovery_report.records_seen
    assert report.simulated_seconds < sweep.recovery_report.simulated_seconds / 2
    assert recovered_tables(recovered) == recovered_tables(sweep)
    assert {bid: recovered.read(bid) for bid in bids} == expected
    assert recovered.list_blocks(lid) == bids


def test_start_up_writes_nothing_and_the_log_goes_on_with_the_list():
    lld = make_lld(checkpoint_slots=2)
    populate(lld, rounds=130)
    left = set(lld.slots.listed)
    writes = lld.disk.stats.writes
    recovered = crash(lld)
    assert lld.disk.stats.writes == writes
    # The open slot (partially flushed) is used up; the restarted log opens
    # one of the others.
    assert recovered.open_segment_index in left
    assert recovered.slots.listed == left - {recovered.open_segment_index}
    _lid, bids, expected = populate(recovered, rounds=300, seed=3)
    again = crash(recovered)
    assert again.recovery_report.checkpoint_sequence > 1
    assert recovered_tables(again) == recovered_tables(swept(again))
    assert {bid: again.read(bid) for bid in bids} == expected


def test_an_aru_open_when_a_checkpoint_is_due_defers_it():
    """The unit's records are in the tables, so no image may be taken; the
    log goes on past the list instead, and a crash follows the chain."""
    lld = make_lld(checkpoint_slots=2)
    lid, bids, _expected = populate(lld, rounds=60)
    taken = lld.stats.checkpoints_written
    lld.begin_aru()
    for i in itertools.count():
        lld.write(bids[i % len(bids)], b"u" * 4096)
        if lld.stats.checkpoints_refused == 3:
            break
    assert lld.stats.checkpoints_written == taken
    assert not lld.slots.listed and len(lld.slots.since) == lld.log.reserve + 3
    lld.flush()
    recovered = crash(lld)  # the unit never committed: gone
    report = recovered.recovery_report
    assert report.checkpoint_sequence == lld.checkpoint.sequence
    assert report.summaries_followed == 3  # the open one's summary ends the chain
    assert report.arus_discarded == 1
    assert all(recovered.read(bid) != b"u" * 4096 for bid in bids)
    assert recovered_tables(recovered) == recovered_tables(swept(recovered))
    # Committed, the next opening takes a checkpoint again.
    recovered.begin_aru()
    recovered.write(bids[0], b"c" * 4096)
    recovered.end_aru()
    populate(recovered, rounds=40)
    assert recovered.stats.checkpoints_written >= 1 and recovered.slots.since is not None
    assert crash(recovered).read(bids[0]) == b"c" * 4096


def test_aborted_arus_pin_nothing_and_checkpoints_go_on():
    """Every abort puts back what its unit replaced: nothing stays pinned,
    every live byte is a current block's, and the log stays covered —
    a crash, and a restart after a clean shutdown, load a checkpoint."""
    for crashed in (True, False):
        lld = make_lld(capacity_mb=3, checkpoint_slots=2)
        lid, bids, expected = populate(lld, rounds=60)
        taken = lld.stats.checkpoints_written
        for i in range(400):
            bid = bids[(i * 7) % len(bids)]
            if i % 3 == 0:
                lld.begin_aru()
                lld.write(bids[(i * 5) % len(bids)], b"u" * 3000)
                lld.new_block(lid, bid)
                lld.abort_aru()
                assert not lld.slots.pinned() and not lld.log.arus.undo
            lld.write(bid, bytes([i % 251]) * (700 + (i % 5) * 800))
            expected[bid] = lld.read(bid)
            if i % 9 == 0:
                lld.flush()
        lld.flush()
        assert lld.state.live_bytes() == sum(map(len, expected.values()))
        assert lld.stats.checkpoints_written > taken and lld.slots.since is not None
        if crashed:
            fresh = crash(lld)
        else:
            lld.shutdown()
            fresh = LLD(lld.disk, lld.config)
            fresh.initialize()
        assert fresh.recovery_report.checkpoint_sequence
        assert list(fresh.state.iter_list(lid)) == bids
        assert {bid: fresh.read(bid) for bid in bids} == expected


def test_a_full_log_still_recovers_from_its_checkpoint():
    """Fewer slots openable than ``reserve``: the checkpoint lists the
    cleaner's next victims after them, the log goes on past the list, and
    a crash follows the chain."""
    lld = make_lld(capacity_mb=1, checkpoint_slots=2)
    lid = lld.new_list()
    bids, pred = [], LIST_HEAD
    while lld.free_segment_count() > 4:
        pred = lld.new_block(lid, pred)
        lld.write(pred, b"f" * 4096)
        bids.append(pred)
    listed = 0
    victims = set()
    for i in itertools.count():
        written = lld.stats.checkpoints_written
        lld.write(bids[(i * 7) % len(bids)], bytes([i % 251]) * 4096)
        if lld.stats.checkpoints_written != written:
            listed = len(lld.slots.listed | lld.slots.since)
            victims = {slot for slot in lld.slots.listed if lld.state.usage.get(slot, 0)}
        elif listed and len(lld.slots.since) == listed + 3:
            break
    assert listed <= lld.log.reserve and victims and lld.stats.checkpoints_refused == 0
    lld.flush()
    expected = {bid: lld.read(bid) for bid in bids}
    recovered = crash(lld)
    report = recovered.recovery_report
    assert report.checkpoint_sequence == lld.checkpoint.sequence
    assert report.segments_scanned == listed + report.summaries_followed
    assert report.summaries_followed == 3
    assert {bid: recovered.read(bid) for bid in bids} == expected
    assert recovered_tables(recovered) == recovered_tables(swept(recovered))


def test_a_full_log_opens_the_victims_its_checkpoint_listed():
    """Two slots free: the checkpoint lists the victims the cleaner
    empties next, the cleaner takes them first and the log opens them, so
    a crash before the next checkpoint reads every opened slot in the
    batch and follows no chain."""
    lld = make_lld(capacity_mb=1, checkpoint_slots=2)
    lid = lld.new_list()
    bids, pred = [], LIST_HEAD
    while lld.free_segment_count() > 2:
        pred = lld.new_block(lid, pred)
        lld.write(pred, b"f" * 4096)
        bids.append(pred)
    listed: set[int] = set()
    for i in itertools.count():
        written = lld.stats.checkpoints_written
        lld.write(bids[(i * 7) % len(bids)], bytes([i % 251]) * 4096)
        if lld.stats.checkpoints_written != written:
            listed = lld.slots.listed | lld.slots.since
            victims = {slot for slot in listed if lld.state.usage.get(slot, 0)}
        elif listed and len(lld.slots.since) == lld.log.reserve - 1:
            break
    assert len(listed) == lld.log.reserve and victims
    assert lld.slots.since <= listed and lld.slots.since & victims
    lld.flush()
    expected = {bid: lld.read(bid) for bid in bids}
    recovered = crash(lld)
    report = recovered.recovery_report
    assert report.checkpoint_sequence == lld.checkpoint.sequence
    assert report.segments_scanned == lld.log.reserve and report.summaries_followed == 0
    assert {bid: recovered.read(bid) for bid in bids} == expected
    assert recovered_tables(recovered) == recovered_tables(swept(recovered))


def test_an_image_too_large_for_a_copy_is_refused_not_raised():
    """4 000 lists outgrow a 16 KB copy, deflated: the write path refuses
    the checkpoint and goes on along the chain; only a shutdown raises."""
    lld = make_lld(segment_size=16 * 1024, checkpoint_slots=2)
    lids = [lld.new_list() for _ in range(4000)]
    assert lld.stats.checkpoints_written >= 1 and lld.stats.checkpoints_refused >= 1
    assert len(lld.slots.since) > lld.log.reserve
    lld.flush()
    with pytest.raises(CheckpointTooLargeError):
        lld.shutdown()
    recovered = crash(lld)
    report = recovered.recovery_report
    assert report.checkpoint_sequence == lld.checkpoint.sequence
    assert report.summaries_followed >= lld.stats.checkpoints_refused
    assert sorted(recovered.state.lists) == lids


def test_a_newer_copy_with_a_bad_crc_sweeps():
    for sector in (1, 0):  # the payload, then the header itself
        lld = make_lld(checkpoint_slots=2)
        _lid, bids, expected = populate(lld)
        assert lld.stats.checkpoints_written >= 2  # both copies hold one
        lld.crash()
        lld.disk.corrupt(lld.checkpoint.lbas[lld.checkpoint.newest] + sector)
        recovered = LLD(lld.disk, lld.config)
        recovered.initialize()
        assert recovered.recovery_report.checkpoint_sequence == 0
        assert {bid: recovered.read(bid) for bid in bids} == expected


def test_a_torn_newest_copy_falls_back_to_the_older_one():
    lld = make_lld(checkpoint_slots=2)
    populate(lld, rounds=60)
    region = lld.checkpoint
    older = region.lbas[1 - region.newest]
    before = lld.disk.snapshot()
    lld.log.save_checkpoint(lld.log._listing(lld.slots.openable(), lld.open_segment_index))
    image = lld.disk.peek(older, 3)
    for landed in (range(1, 3), range(0, 1)):  # body without header; header alone
        lld.disk.restore(before)
        for sector in landed:
            lld.disk.install(older + sector, image[sector * SECTOR : (sector + 1) * SECTOR])
        recovered = LLD(lld.disk, lld.config)
        recovered.initialize()
        sequence = recovered.recovery_report.checkpoint_sequence
        assert sequence == (region.sequence - 1 if landed[0] else 0)
        assert recovered_tables(recovered) == recovered_tables(swept(recovered))


def test_a_partial_segment_in_nvram_inside_the_tail():
    nvram = NVRAM(capacity_bytes=64 * 1024)
    lld = make_lld(checkpoint_slots=2, nvram=nvram)
    _lid, bids, _ = populate(lld, rounds=100)
    lld.write(bids[0], b"in nvram")
    lld.flush()
    assert nvram.holds_data and nvram.slot in lld.slots.since
    recovered = crash(lld, nvram=nvram)
    assert recovered.recovery_report.checkpoint_sequence
    assert recovered.read(bids[0]) == b"in nvram"
    assert recovered_tables(recovered) == recovered_tables(swept(recovered))


def test_one_slot_checkpoints_only_at_shutdown():
    """The paper's region: a shutdown image that lists nothing. A
    start-up reads just its header and image, and the first opening
    retires it (one sector), so a crash after it sweeps."""
    lld = make_lld()  # checkpoint_slots=1
    _lid, bids, expected = populate(lld)
    assert lld.stats.checkpoints_written == 0 and lld.stats.checkpoints_refused == 0
    lld.shutdown()
    assert lld.stats.checkpoints_written == 1
    reads, writes = lld.disk.stats.reads, lld.disk.stats.writes
    fresh = LLD(lld.disk, lld.config)
    fresh.initialize()
    assert fresh.recovery_report.checkpoint_sequence == 1
    assert fresh.recovery_report.segments_scanned == 0
    assert lld.disk.stats.reads - reads == 2  # the header, then the image
    assert lld.disk.stats.writes - writes == 1 and fresh.checkpoint.sequence == 2
    assert fresh.slots.since is None
    again = crash(fresh)
    assert again.recovery_report.checkpoint_sequence == 0
    assert {bid: again.read(bid) for bid in bids} == expected


def test_the_incremental_image_loads_to_the_live_tables(monkeypatch):
    monkeypatch.setattr("repro.lld.cleaner.MAX_TOMBSTONES", 64)
    lld = make_lld(checkpoint_slots=2)
    lid, bids, _ = populate(lld)
    for bid in bids[::3]:
        lld.delete_block(bid, lid)
    other = lld.new_list(hints=ListHints(compress=True))
    for _ in range(5):
        lld.new_block(other, LIST_HEAD)  # compress_writes: set outside apply
    populate(lld, rounds=100)
    assert lld.stats.checkpoints_written >= 2  # some keys packed long ago
    image = lld.checkpoint.image(lld.state, [])
    fresh = LLD(lld.disk, lld.config)
    header = _parse_header(0, image[:SECTOR])
    assert fresh.checkpoint.load(fresh.state, header, image[SECTOR:])
    live, loaded = lld.state, fresh.state
    assert recovered_tables(fresh) == recovered_tables(lld)
    assert any(e.compress_writes for e in loaded.blocks.values())
    assert {b: e.compress_writes for b, e in loaded.blocks.items()} == {
        b: e.compress_writes for b, e in live.blocks.items()
    }
    assert loaded.homes == live.homes and loaded.tombstones == live.tombstones
    assert loaded.list_order == live.list_order and loaded.units == live.units
    assert loaded.summary_min_ts == live.summary_min_ts


@pytest.mark.parametrize("drive", ["populate", "cleaned", "matrix"])
def test_checkpoint_writes_are_ordered_on_both_sides(drive):
    """Everything before a checkpoint — the scrubs after the last segment
    write included — is on the medium before the copy, and the copy before
    anything after it: a barrier on each side. A retirement (one sector)
    needs only the second: whatever lands before it, a sweep is right.
    (The matrix workload on 3 MB cleans right before a checkpoint.)"""
    disk = RecordingDisk(SimulatedDisk(fast_test_disk(capacity_mb=3), VirtualClock()))
    lld = LLD(disk, small_config(checkpoint_slots=2))
    lld.initialize()
    if drive == "populate":
        populate(lld)
    elif drive == "cleaned":
        # Cleaning just before the list runs out: the seal that takes the
        # checkpoint scrubs the cleaned slots first.
        _lid, bids, _ = populate(lld, rounds=60)
        for i in itertools.count():
            if not lld.slots.listed:
                break
            lld.write(bids[i % len(bids)], b"r" * 4096)
        taken = lld.stats.checkpoints_written
        assert lld.clean(2) >= 1
        while lld.stats.checkpoints_written == taken:
            lld.write(bids[0], b"s" * 4096)
    written = lld.stats.checkpoints_written
    if drive == "matrix":
        out = run_checkpoint_matrix_workload(OracleDriver(lld, disk))
        assert lld.stats.cleanings > 0 and out["checkpoints_refused"] > 0
        written = out["checkpoints_written"]
    region = lld.checkpoint.lbas[0], lld.checkpoint.lbas[-1] + lld.checkpoint.copy_sectors
    ends = {end for _start, end in disk.epoch_bounds()}
    copies = [e for e in disk.events if region[0] <= e.lba < region[1]]
    images = [e for e in copies if e.nsectors > 1]
    assert len(images) == written >= 2
    for event in copies:
        assert event.seq + 1 in ends
    for event in images:
        assert event.seq in ends  # alone in its epoch


def test_every_crash_state_agrees_with_the_sweep():
    disk = SimulatedDisk(fast_test_disk(capacity_mb=2), VirtualClock())
    recording = RecordingDisk(disk)
    lld = LLD(recording, small_config(checkpoint_slots=2))
    lld.initialize()
    driver = OracleDriver(lld, recording)
    out = run_checkpoint_matrix_workload(driver)
    assert out["checkpoints_written"] >= 4 and out["checkpoints_refused"] >= 3
    assert out["restarts"] == 2 and out["startup_checkpoints"] == 1
    enum = CrashStateEnumerator(recording, reorder_samples_per_epoch=0)
    checker = LLDCrashChecker(lld.config, driver.oracle)
    states = [s for s in enum.enumerate() if s.kind == "prefix" or s.state_id % 7 == 0]
    outcomes = [checker(enum.materialize(s), s) for s in states]
    violations = [v for o in outcomes for v in o.violations]
    assert violations == []
    assert checker.from_checkpoint > len(states) // 4


def past_the_list(lld, bids, *, sealed: bool):
    """Hold a unit open while a checkpoint falls due, so that the log goes
    past the list, and stop where the chain's last summary is the open
    segment's (``sealed`` False: the unit commits) or a sealed one's that
    names a slot nothing was written to (True: a flush sealed, the unit
    still open). Returns the bytes a crash there must keep."""
    before = {bid: lld.read(bid) for bid in bids}
    lld.begin_aru()
    for i in itertools.count():
        lld.write(bids[i % len(bids)], b"u" * 4096)
        if lld.stats.checkpoints_refused:
            break
    if sealed:
        while not lld.log.open.is_empty:
            lld.write(bids[0], b"v" * 4096)
            lld.flush()
        expected = before
    else:
        lld.end_aru()
        lld.flush()
        expected = {bid: lld.read(bid) for bid in bids}
    assert lld.slots.since - lld.slots.listed and not lld.slots.listed
    return expected


@pytest.mark.parametrize("sealed", [False, True], ids=["open-tail", "sealed-tail"])
def test_the_restarted_log_opens_a_slot_a_second_crash_finds(sealed):
    """After a crash past the list, the restarted log's first slot must be
    one the next recovery reaches: the one the chain's last summary names
    (start-up writes nothing), or, where that summary names none, one a
    start-up checkpoint lists first."""
    lld = make_lld(checkpoint_slots=2)
    _lid, bids, _ = populate(lld, rounds=60)
    expected = past_the_list(lld, bids, sealed=sealed)
    resume = lld.log.open.index
    writes = lld.disk.stats.writes
    recovered = crash(lld)
    assert recovered.recovery_report.summaries_followed >= 1
    if sealed:
        assert recovered.open_segment_index == resume
        assert lld.disk.stats.writes == writes
    else:
        assert recovered.stats.checkpoints_written == 1
        assert recovered.slots.since == {recovered.open_segment_index}
    for i, bid in enumerate(bids[:4]):
        recovered.write(bid, bytes([i + 7]) * 3000)
        expected[bid] = bytes([i + 7]) * 3000
    recovered.flush()
    again = crash(recovered)
    assert {bid: again.read(bid) for bid in bids} == expected
    assert recovered_tables(again) == recovered_tables(swept(again))


def test_a_recovery_that_does_not_follow_the_chain_is_caught(monkeypatch):
    """The mutant: recovery reads the listed summaries and stops there.
    The crash walk of the checkpoint matrix workload must catch it."""
    import repro.lld.recovery as recovery

    disk = SimulatedDisk(fast_test_disk(capacity_mb=2), VirtualClock())
    recording = RecordingDisk(disk)
    lld = LLD(recording, small_config(checkpoint_slots=2))
    lld.initialize()
    driver = OracleDriver(lld, recording)
    run_checkpoint_matrix_workload(driver)
    monkeypatch.setattr(recovery, "summary_next", lambda image: None)
    enum = CrashStateEnumerator(recording, reorder_samples_per_epoch=0)
    checker = LLDCrashChecker(lld.config, driver.oracle)
    states = [s for s in enum.enumerate() if s.kind == "prefix"]
    violations = [v for s in states for v in checker(enum.materialize(s), s).violations]
    assert violations


def _checkpointed(capacity_mb=1):
    """A two-copy LLD with 24 blocks, overwritten until a checkpoint is
    taken; returns it, the blocks and their contents."""
    lld = make_lld(capacity_mb=capacity_mb, checkpoint_slots=2)
    lid, pred, bids = lld.new_list(), LIST_HEAD, []
    for _ in range(24):
        pred = lld.new_block(lid, pred)
        lld.write(pred, b"\x01" * 4096)
        bids.append(pred)
    lld.flush()
    taken = lld.stats.checkpoints_written
    for i in itertools.count():
        if lld.stats.checkpoints_written > taken:
            break
        lld.write(bids[i % 8], b"\x02" * 4096)
        lld.flush()
    return lld, bids, {bid: lld.read(bid) for bid in bids}


def test_a_chain_slot_is_reopened_only_once_no_checkpoint_covers_the_log():
    """An open unit defers every checkpoint, and the log goes on along the
    chain until every openable slot is on it. Reopening one would cut the
    chain a recovery follows, so the log retires the newest copy first:
    until then no opening reuses a chain slot, and a crash after it
    sweeps."""
    lld, bids, expected = _checkpointed()
    lld.begin_aru()
    lld.attach_aru(0)  # the unit stays open; the writes are outside it
    for n in range(400):
        chain, current = set(lld.slots.since or ()), lld.open_segment_index
        lld.write(bids[n % 8], bytes([3 + n % 200]) * 4096)
        expected[bids[n % 8]] = lld.read(bids[n % 8])
        lld.flush()
        if lld.slots.since is None:
            break
        assert lld.open_segment_index == current or lld.open_segment_index not in chain
    else:
        raise AssertionError("the log never ran out of slots off the chain")
    lld.crash()
    recovered = LLD(lld.disk, lld.config)
    recovered.initialize()
    assert recovered.recovery_report.checkpoint_sequence == 0
    assert all(recovered.read(bid) == expected[bid] for bid in bids)


def test_a_retired_chain_slot_keeps_its_summary_until_the_next_checkpoint():
    """The cleaner empties a slot the log opened since the newest
    checkpoint. Its summary is a link of the chain a recovery follows: it
    stays on the medium through later segment writes, and is scrubbed
    only after the next checkpoint."""
    lld, bids, expected = _checkpointed()
    victim = lld.open_segment_index
    assert victim in lld.slots.since
    lld.write(bids[8], b"\x04" * 4096)  # the one block of it that stays live
    while lld.open_segment_index == victim:
        lld.write(bids[0], b"\x04" * 4096)
    lld.flush()
    assert lld.state.segment_blocks[victim] == {bids[8]} and lld.clean(1) == 1
    assert lld.slots.of[victim] == "retired" and victim in lld.slots.since
    sectors = lld.config.summary_sectors
    summary = lld.disk.peek(lld.layout.slot_lba(victim), sectors)
    assert parse_summary(summary)
    taken = lld.stats.checkpoints_written
    for i in itertools.count():
        if lld.stats.checkpoints_written > taken:
            break
        assert lld.disk.peek(lld.layout.slot_lba(victim), sectors) == summary
        lld.write(bids[i % 8], b"\x06" * 4096)
        lld.flush()
    lld.write(bids[0], b"\x07" * 4096)
    lld.flush()  # the first segment write after the checkpoint scrubs it
    assert lld.slots.of[victim] in ("free", "open")
