"""Order is not acknowledgement, and a write cannot precede its pre-reads.

``barrier(label, *, wait=True)`` is the one protocol argument on the disk
surface. A waiting barrier (the default, every caller but the LLD's log
writer) drains the volume as before. An ordering barrier (``wait=False``)
is forwarded to the members all the same — same journals, same epochs,
same ``disk.barriers`` — but makes the shared clock wait only for the
writes of the barrier *before* it, so one barrier epoch is ever in flight.
The LLD orders with the second kind and acknowledges (``flush``,
``shutdown``) with the first.

The last section pins the dependency that keeps the overlap honest once
members are no longer drained before every seal: a read-modify-write
row's member writes start no earlier than its pre-reads complete — and
its other side: a row whose old bytes the volume remembers from writing
them (the stripe cache) has no pre-read to wait for and starts at once.
(``test_write_shape.py`` pins the same for a reconstruct-write row.)
"""

import random

import pytest

from repro.crashsim import ParityRecording, RecordingDisk
from repro.disk import SimulatedDisk, fast_test_disk
from repro.ld import LIST_HEAD
from repro.lld import LLD
from repro.sim import VirtualClock
from repro.volume import Volume

from tests.lld.conftest import small_config

CHUNK = 8
SECTOR = 512


class TimedMember(SimulatedDisk):
    """A member that remembers when each request started and ended on its
    private clock, and how each barrier was asked for."""

    def __init__(self, mb: int = 2) -> None:
        super().__init__(fast_test_disk(capacity_mb=mb), VirtualClock())
        self.log: list[tuple[str, int, float, float]] = []
        self.waits: list[bool] = []

    def read(self, lba, nsectors):
        start = self.clock.now
        data = super().read(lba, nsectors)
        self.log.append(("r", lba, start, self.clock.now))
        return data

    def write(self, lba, data):
        start = self.clock.now
        super().write(lba, data)
        self.log.append(("w", lba, start, self.clock.now))

    def barrier(self, label="barrier", *, wait=True):
        self.waits.append(wait)
        super().barrier(label, wait=wait)


def make_volume(
    layout: str = "raid5", chunk: int = CHUNK, mb: int = 2, n_disks: int = 4
) -> Volume:
    return Volume(
        [TimedMember(mb) for _ in range(n_disks)],
        VirtualClock(),
        layout=layout,
        chunk_sectors=chunk,
    )


def horizon(volume: Volume) -> float:
    return max(disk.clock.now for disk in volume.disks)


# ----------------------------------------------------------------------
# Volume.barrier(wait=...)
# ----------------------------------------------------------------------


def test_default_barrier_still_drains():
    volume = make_volume()
    volume.write(0, bytes(3 * CHUNK * SECTOR))
    volume.write(5, bytes(SECTOR))
    assert volume.clock.now == 0.0 < horizon(volume)
    volume.barrier()
    assert volume.clock.now == horizon(volume)
    assert all(member.waits == [True] for member in volume.disks)
    assert volume.volume_stats.inflight_writes == 0


@pytest.mark.parametrize("layout", ["stripe", "mirror", "raid5"])
def test_ordering_barrier_waits_for_the_previous_epoch_only(layout):
    volume = make_volume(layout)
    rng = random.Random(layout)
    horizons = [0.0]
    for _ in range(6):
        for _ in range(3):
            lba = rng.randrange(0, 40 * CHUNK)
            volume.write(lba, rng.randbytes(rng.randint(1, 2 * CHUNK) * SECTOR))
        volume.barrier("order", wait=False)
        # Never past what the barrier before this one had queued ...
        assert volume.clock.now == horizons[-1]
        horizons.append(horizon(volume))
    # ... so the caller runs ahead of one epoch of writes, never of two.
    assert horizons == sorted(horizons) and volume.clock.now < horizon(volume)
    assert volume.volume_stats.inflight_writes > 0
    assert volume.stats.barriers == volume.volume_stats.barriers == 6
    volume.barrier("ack")
    assert volume.clock.now == horizon(volume)
    # A waited barrier leaves nothing for the next ordering one to wait for.
    volume.write(0, bytes(SECTOR))
    before = volume.clock.now
    volume.barrier("order", wait=False)
    assert volume.clock.now == before


@pytest.mark.parametrize("layout", ["stripe", "mirror", "raid5"])
def test_an_ordering_barrier_over_an_empty_epoch_orders_nothing(layout):
    """No write since the last barrier: nothing to order, so the caller
    waits for nothing and no horizon is recorded — the epoch before stays
    the one the next barrier with writes behind it waits for. The members
    still see the barrier, and it still counts."""
    volume = make_volume(layout)
    volume.write(0, bytes(2 * CHUNK * SECTOR))
    volume.barrier("image", wait=False)
    first = horizon(volume)
    assert volume.clock.now == 0.0 < first
    for label in ("flush", "again"):
        # Background work (the rebuild scanner's) pushes a member on
        # meanwhile: an empty epoch records no horizon, so the caller never
        # waits for that either.
        volume.disks[1].clock.advance_to(volume.disks[1].clock.now + 1.0)
        volume.barrier(label, wait=False)
        # Not lifted to the epoch just closed, as a barrier with writes
        # behind it would be ...
        assert volume.clock.now == 0.0
        assert volume.volume_stats.inflight_writes > 0
    assert all(member.waits == [False] * 3 for member in volume.disks)
    assert volume.stats.barriers == volume.volume_stats.barriers == 3
    # ... and the one-epoch bound survives: the next epoch's barrier waits
    # for the first epoch's writes, exactly as if the empty ones never were.
    volume.write(3 * CHUNK, bytes(SECTOR))
    volume.barrier("next", wait=False)
    assert volume.clock.now == first <= horizon(volume)
    # A waiting barrier over an empty epoch still drains.
    volume.barrier("ack")
    assert volume.clock.now == horizon(volume)
    assert volume.volume_stats.inflight_writes == 0


def test_an_empty_epoch_closes_no_member_journal_epoch():
    """The timing twin of ``RecordingDisk.barrier``'s rule: epochs never
    go empty, on the journal or on the clock."""
    volume = make_volume()
    recording = ParityRecording(volume)
    volume.write(0, bytes(CHUNK * SECTOR))
    volume.barrier("image", wait=False)
    volume.barrier("flush", wait=False)
    assert len(recording.epoch_positions) == 1
    assert all(member.inner.waits == [False, False] for member in recording.members)
    labels = {b.label for m in recording.members for b in m.barriers}
    assert labels == {"image"}


def test_ordering_barrier_reaches_the_members_like_a_waiting_one():
    """Same member journals, epochs and barrier counts: only the shared
    clock can tell the two kinds apart."""
    runs = {}
    for wait in (True, False):
        volume = make_volume()
        recording = ParityRecording(volume)
        rng = random.Random("journals")
        for _ in range(8):
            for _ in range(rng.randint(1, 3)):
                lba = rng.randrange(0, 40 * CHUNK)
                volume.write(lba, rng.randbytes(rng.randint(1, 3 * CHUNK) * SECTOR))
            volume.barrier("b", wait=wait)
        runs[wait] = {
            "events": [[(e.epoch, e.lba, e.data) for e in m.events] for m in recording.members],
            "barriers": [[(b.position, b.epoch, b.label) for b in m.barriers] for m in recording.members],
            "vectors": recording.epoch_positions,
            "counted": [m.stats.barriers for m in recording.members],
            "asked": [m.inner.waits for m in recording.members],
            "clock": volume.clock.now,
        }
    waited, ordered = runs[True], runs[False]
    assert ordered["asked"] == [[False] * 8] * 4 and waited["asked"] == [[True] * 8] * 4
    for key in ("events", "barriers", "vectors", "counted"):
        assert ordered[key] == waited[key], key
    assert len(ordered["vectors"]) == 8
    assert ordered["clock"] < waited["clock"]


def test_recording_disk_forwards_the_argument():
    inner = TimedMember()
    recording = RecordingDisk(inner)
    recording.write(0, bytes(SECTOR))
    recording.barrier("order", wait=False)
    recording.write(1, bytes(SECTOR))
    recording.barrier("ack")
    assert inner.waits == [False, True]
    assert [b.label for b in recording.barriers] == ["order", "ack"]


# ----------------------------------------------------------------------
# The LLD on RAID-5: seals order, flush and shutdown acknowledge
# ----------------------------------------------------------------------


def make_lld(layout: str = "raid5", **config) -> tuple[LLD, Volume]:
    cfg = small_config(**config)
    volume = make_volume(layout, chunk=cfg.segment_size // SECTOR, mb=1)
    lld = LLD(volume, cfg)
    lld.initialize()
    return lld, volume


def append_blocks(lld: LLD, lid: int, pred: int, count: int) -> int:
    for _ in range(count):
        pred = lld.new_block(lid, pred)
        lld.write(pred, bytes([pred % 251 + 1]) * 4096)
    return pred


def test_back_to_back_seals_leave_one_image_in_flight():
    # On a stripe: a sealed segment leaves at its seal. (RAID-5 with
    # chunk == slot has stripe rows, and leaves a row at a time: below.)
    lld, volume = make_lld("stripe")
    lid = lld.new_list()
    pred = append_blocks(lld, lid, LIST_HEAD, 16)  # the 16th does not fit: seal
    assert lld.stats.segments_sealed == 1
    first_image_done = horizon(volume)
    # The seal's barrier ordered; nobody waited for the image.
    assert volume.clock.now < first_image_done
    append_blocks(lld, lid, pred, 15)
    assert lld.stats.segments_sealed == 2
    # The bound: the second seal's barrier returned when the first image
    # completed — no earlier, and without waiting for the second, which
    # another spindle took.
    assert volume.clock.now == first_image_done
    assert volume.volume_stats.inflight_writes == 1


def test_back_to_back_rows_leave_one_epoch_in_flight():
    """The same bound over stripe rows: the log runs ahead of one barrier
    epoch — a row's body, or one header commit — never of two, so a second
    row's body barrier returns no earlier than the first row's body
    completes."""
    lld, volume = make_lld()
    marks = []  # (label, shared clock on return, slowest member's horizon)
    barrier = volume.barrier

    def spy(label="barrier", *, wait=True):
        barrier(label, wait=wait)
        marks.append((label, volume.clock.now, horizon(volume)))

    volume.barrier = spy
    append_blocks(lld, lld.new_list(), LIST_HEAD, 7 * 15 + 1)
    assert lld.stats.segments_sealed == 7 and lld.stats.rows_written == 2
    assert volume.volume_stats.full_stripe_writes == 2 and len(lld.log.held) == 1
    assert [label for label, _now, _horizon in marks] == ["row-body", "row-commit", "row-commit", "row-commit"] * 2
    (_, returned_1, body_1_done), (_, returned_2, body_2_done) = marks[0], marks[4]
    assert returned_1 < body_1_done  # ordered: nobody waited for the body ...
    assert body_1_done <= returned_2 < body_2_done  # ... until something had to follow it
    for (_label, _returned, in_flight), (_next, returned, _h) in zip(marks, marks[1:]):
        assert returned >= in_flight
    assert volume.clock.now < horizon(volume)  # the last commit is in flight
    lld.flush()
    assert horizon(volume) <= volume.clock.now and not lld.log.held


def test_flush_and_shutdown_return_with_nothing_in_flight():
    """Whatever ran behind ordering barriers — sealed images, scrubs,
    cleaner traffic — an acknowledgement waits for all of it."""
    lld, volume = make_lld()
    rng = random.Random("acks/False")
    lid = lld.new_list()
    live = [append_blocks(lld, lid, LIST_HEAD, 1)]
    ran_ahead = 0
    for _ in range(1400):
        roll = rng.random()
        if roll < 0.55:
            live.append(append_blocks(lld, lid, live[-1], 1))
        elif roll < 0.8:
            lld.write(rng.choice(live), rng.randbytes(rng.choice([300, 4096])))
        elif roll < 0.9 and len(live) > 4:
            lld.delete_block(live.pop(rng.randrange(len(live))), lid)
        else:
            ran_ahead += volume.clock.now < horizon(volume)
            lld.flush()
            assert horizon(volume) <= volume.clock.now
            lld.flush()  # nothing new: still nothing in flight
            assert horizon(volume) <= volume.clock.now
    assert ran_ahead > 5 and lld.stats.segments_sealed > 10 and lld.stats.cleanings > 0
    lld.shutdown()
    assert horizon(volume) <= volume.clock.now
    # A sealed image in flight behind its ordering barrier (stripe), a
    # sealed segment held for its row and not written at all (RAID-5):
    # shutdown waits for either.
    for layout in ("stripe", "raid5"):
        lld, volume = make_lld(layout)
        append_blocks(lld, lld.new_list(), LIST_HEAD, 20)
        if layout == "stripe":
            assert volume.clock.now < horizon(volume)
        else:
            assert len(lld.log.held) == 1 and volume.stats.writes == 0
        lld.shutdown()
        assert horizon(volume) <= volume.clock.now and not lld.log.held
        assert volume.stats.bytes_written > 20 * 4096


def test_only_acknowledgements_wait():
    lld, volume = make_lld()
    lid = lld.new_list()
    pred = append_blocks(lld, lid, LIST_HEAD, 4)
    asked = volume.disks[0].waits
    del asked[:]
    lld.flush()  # partial: segment-image, then the ack
    assert asked == [False, True]
    del asked[:]
    append_blocks(lld, lid, pred, 16)  # seals on the way
    assert asked and not any(asked)
    del asked[:]
    lld.shutdown()
    assert asked[-1] is True and asked.count(True) == 2  # flush, checkpoint


# ----------------------------------------------------------------------
# A read-modify-write row's writes wait for its pre-reads
#
# On five members a row written in one chunk pre-reads two of them by
# read-modify-write and three by reconstruct-write, so it takes the first
# however busy its members are; test_write_shape.py pins the same floor for
# the rows that take the second.
# ----------------------------------------------------------------------

WIDE = 5  # members


def test_rmw_writes_start_after_the_rows_pre_reads_complete():
    volume = make_volume(n_disks=WIDE)
    volume.write(0, random.Random(0).randbytes((WIDE - 1) * CHUNK * SECTOR))  # row 0, full stripe
    volume.barrier()
    pmap = volume.parity_map
    data_member = volume.spindle_of(2)
    parity_member = pmap.parity_disk(0)
    # Keep the data member busy well past "now"; the parity member idles.
    busy = volume.disks[data_member]
    busy.read(100 * CHUNK, 64 * CHUNK)
    assert busy.clock.now > volume.clock.now + 0.05
    for member in volume.disks:
        del member.log[:]

    volume.write(2, bytes([7]) * SECTOR)  # one sector of row 0: RMW
    assert volume.volume_stats.rmw_writes == 1
    (old_data,) = [e for e in busy.log if e[0] == "r"]
    (old_parity,) = [e for e in volume.disks[parity_member].log if e[0] == "r"]
    (data_write,) = [e for e in busy.log if e[0] == "w"]
    (parity_write,) = [e for e in volume.disks[parity_member].log if e[0] == "w"]
    # The idle parity member finished its pre-read long before the busy
    # data member did; the new parity does not exist until both have.
    assert old_parity[3] < old_data[3]
    assert parity_write[2] >= old_data[3]
    assert data_write[2] >= old_data[3]


def test_rows_of_one_request_do_not_wait_for_each_other():
    """The floor is per row: a later row's writes depend on its own
    pre-reads, and a full-stripe row (no pre-reads) on none."""
    volume = make_volume(n_disks=WIDE)
    width = (WIDE - 1) * CHUNK
    volume.write(0, random.Random(1).randbytes(3 * width * SECTOR))
    volume.barrier()
    busy = volume.disks[volume.spindle_of(width - 1)]
    busy.read(100 * CHUNK, 64 * CHUNK)
    late = busy.clock.now
    for member in volume.disks:
        del member.log[:]
    # Last sector of row 0 (RMW on the busy member), then all of row 1.
    volume.write(width - 1, bytes([9]) * (1 + width) * SECTOR)
    assert volume.volume_stats.rmw_writes == 1
    # Row 0's two writes queue behind the busy member's pre-read, each on
    # its own member; the other members take their row-1 chunks at once.
    pmap = volume.parity_map
    waiting = (busy, volume.disks[pmap.parity_disk(0)])
    row1 = [
        event
        for member in volume.disks if member not in waiting
        for event in member.log if event[:2] == ("w", pmap.row_lba(1))
    ]
    assert len(row1) == WIDE - 2 and all(start < late for _op, _lba, start, _end in row1)
    assert all(member.log[-2][2] >= late for member in waiting)  # row 0's write


# ----------------------------------------------------------------------
# ... and has none to wait for when the volume remembers the old bytes
# ----------------------------------------------------------------------


def rmw_events(volume: Volume) -> tuple[list, list]:
    events = [event for member in volume.disks for event in member.log]
    return [e for e in events if e[0] == "r"], [e for e in events if e[0] == "w"]


def installed_row(n_disks: int = 4) -> Volume:
    """A volume whose row 0 holds data and parity put there by ``install``:
    no sector of it is blank, none is resident, no request was issued."""
    volume = make_volume(n_disks=n_disks)
    volume.install(0, random.Random(n_disks).randbytes((n_disks - 1) * CHUNK * SECTOR))
    return volume


def test_rmw_over_a_resident_range_reads_nothing_and_starts_now():
    """What the stripe cache is for: the second write of a range finds the
    old data and the old parity where the first write left them, so it is
    two positioned writes — no read, no turn of the platter before them."""
    volume = installed_row()
    volume.write(2, bytes([7]) * 2 * SECTOR)  # sub-chunk: pre-reads, then remembered
    volume.barrier()
    for member in volume.disks:
        del member.log[:]
    now = volume.clock.now
    volume.write(2, bytes([8]) * 2 * SECTOR)
    reads, writes = rmw_events(volume)
    assert reads == [] and len(writes) == 2
    assert all(start == now for _op, _lba, start, _end in writes)
    assert volume.volume_stats.rmw_writes == 2 and volume.volume_stats.preread_hits == 2


def test_rmw_over_a_half_resident_range_waits_for_the_missing_buffer_only():
    """Each buffer on its own: the parity range is remembered from the write
    to the first chunk, the old data of the second chunk is not — one
    pre-read, on the data member, and both writes start after it."""
    volume = installed_row(n_disks=WIDE)
    volume.write(2, bytes([7]) * 2 * SECTOR)
    volume.barrier()
    data_member = volume.spindle_of(CHUNK + 2)
    busy = volume.disks[data_member]
    busy.read(100 * CHUNK, 64 * CHUNK)  # keep it busy well past "now"
    for member in volume.disks:
        del member.log[:]
    volume.write(CHUNK + 2, bytes([8]) * 2 * SECTOR)  # same row, same parity range
    reads, writes = rmw_events(volume)
    assert reads == [e for e in busy.log if e[0] == "r"] and len(reads) == 1
    (old_data,) = reads
    assert old_data[3] > volume.clock.now + 0.05
    assert len(writes) == 2 and all(start >= old_data[3] for _op, _lba, start, _end in writes)
    stats = volume.volume_stats
    assert (stats.preread_hits, stats.preread_misses, stats.preread_sectors_saved) == (1, 3, 2)


def test_a_recovered_stack_pre_reads_its_first_partial_flush():
    """A power failure takes the volume's memory with the LLD's: the flush
    after recovery rewrites the open slot's summary like every flush before
    the crash did, and reads the old bytes from the members again."""
    lld, volume = make_lld()
    stats = volume.volume_stats
    lid = lld.new_list()
    pred = LIST_HEAD
    for _ in range(3):
        pred = append_blocks(lld, lid, pred, 1)
        lld.flush()
    assert stats.preread_hits > 0  # the summary range, re-written by each flush
    lld.crash()
    assert list(volume.stripe_cache.resident_sectors()) == []
    recovered = LLD(volume, lld.config)
    recovered.initialize()
    hits, misses = stats.preread_hits, stats.preread_misses
    append_blocks(recovered, lid, recovered.list_blocks(lid)[-1], 1)
    recovered.flush()
    assert stats.preread_hits == hits and stats.preread_misses > misses
    append_blocks(recovered, lid, recovered.list_blocks(lid)[-1], 1)
    recovered.flush()
    assert stats.preread_hits > hits  # and remembers again from there on
