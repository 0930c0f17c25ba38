"""RAID-5 degraded-state battery: write paths, failure, rebuild, resync.

The property tests pin the address map and the XOR invariant; this file
pins the *stateful* machinery around them: write-path classification
(full-stripe vs read-modify-write), serving through a single failure,
refusing a second, the online rebuild scanner (including under foreground
traffic, and aborting when the replacement dies), the md-style parity
resync that closes the crash window, and the LLD stack mounted over a
degraded array.
"""

import os
import random

import pytest

from repro.bench.builders import BuildSpec, build_minix_lld, fresh_volume
from repro.crashsim import ParityRecording, enumerate_parity_crash_states
from repro.disk import SimulatedDisk, fast_test_disk
from repro.lld import LLD
from repro.obs import EventLog
from repro.sim import VirtualClock
from repro.volume import Volume, VolumeDegradedError, VolumeError

CHUNK = 8


def make_parity(n: int = 4, mb: int = 2, layout: str = "raid5") -> Volume:
    members = [
        SimulatedDisk(fast_test_disk(capacity_mb=mb), VirtualClock())
        for _ in range(n)
    ]
    return Volume(members, VirtualClock(), layout=layout, chunk_sectors=CHUNK)


def row_width(volume: Volume) -> int:
    pmap = volume.parity_map
    return pmap.data_per_row * pmap.chunk_sectors


def assert_member_images_identical(volume: Volume, control: Volume) -> None:
    """Member-by-member platter images agree (the rebuild scanner also
    materializes never-written rows as zeros, so compare full images, not
    sparse sector stores)."""
    for mine, theirs in zip(volume.disks, control.disks):
        sectors = mine.geometry.total_sectors
        assert mine.peek(0, sectors) == theirs.peek(0, sectors)


def test_write_path_classification():
    """Row-aligned full-width writes take the no-preread full-stripe path;
    anything smaller pays the read-modify-write penalty."""
    volume = make_parity()
    width = row_width(volume)

    volume.write(0, os.urandom(width * 512))
    stats = volume.volume_stats
    assert stats.full_stripe_writes == 1
    assert stats.rmw_writes == 0

    volume.write(0, os.urandom(512))  # one sector: RMW
    assert stats.full_stripe_writes == 1
    assert stats.rmw_writes == 1

    # A straddling write is full-stripe for the whole rows it covers and
    # RMW for the partial edges.
    volume.write(width // 2, os.urandom(2 * width * 512))
    assert stats.full_stripe_writes == 2
    assert stats.rmw_writes == 3


def assert_parity_is_xor_of_data(volume: Volume, row: int) -> None:
    pmap = volume.parity_map
    base = pmap.row_lba(row)
    acc = bytes(CHUNK * 512)
    for member in pmap.data_disks(row):
        chunk = volume.disks[member].peek(base, CHUNK)
        acc = bytes(a ^ b for a, b in zip(acc, chunk))
    assert volume.disks[pmap.parity_disk(row)].peek(base, CHUNK) == acc


def test_rmw_single_and_multi_fragment_rows_keep_parity():
    """The single-fragment read-modify-write XORs old parity, old data and
    payload directly; a row touched in several chunks patches a staging
    copy of the parity range. Both must leave parity == XOR of the row's
    data chunks, and read back what was written."""
    volume = make_parity()
    width = row_width(volume)
    volume.write(0, os.urandom(2 * width * 512))  # rows 0-1 start non-zero
    stats = volume.volume_stats

    single = os.urandom(3 * 512)  # inside one chunk of row 0
    volume.write(CHUNK + 2, single)
    assert stats.rmw_writes == 1
    assert volume.peek(CHUNK + 2, 3) == single
    assert_parity_is_xor_of_data(volume, 0)

    multi = os.urandom((CHUNK + 2) * 512)  # tail of one chunk, head of the next
    volume.write(width + CHUNK - 3, multi[: 5 * 512])  # row 1: two fragments
    assert stats.rmw_writes == 2
    assert volume.peek(width + CHUNK - 3, 5) == multi[: 5 * 512]
    assert_parity_is_xor_of_data(volume, 1)

    # Two fragments at different offsets: sectors [6, 8) of chunk 0 and all
    # of chunk 1, so the touched parity range lo..hi is the whole chunk.
    volume.write(6, multi)
    assert stats.rmw_writes == 3
    assert volume.peek(6, CHUNK + 2) == multi
    assert_parity_is_xor_of_data(volume, 0)
    assert stats.full_stripe_writes == 2 and stats.degraded_writes == 0


def test_non_byte_memoryview_is_measured_in_bytes():
    """The volume sizes a request from a byte view, like its members:
    512 'H' items are two sectors, for ``write`` and for ``install``."""
    for op in ("write", "install"):
        volume = make_parity()
        payload = bytes(range(256)) * 4
        getattr(volume, op)(0, memoryview(payload).cast("H"))
        assert volume.peek(0, 2) == payload
        assert volume.stats.sectors_written == (2 if op == "write" else 0)
        assert_parity_is_xor_of_data(volume, 0)
        with pytest.raises(ValueError):
            getattr(volume, op)(0, memoryview(payload[:510]).cast("H"))


def test_degraded_serving_reads_writes_peek():
    """One failure is invisible to clients: reads reconstruct, writes keep
    parity maintained, peek agrees — for every choice of failed member."""
    for lost in range(4):
        volume = make_parity()
        total = volume.geometry.total_sectors
        model = bytearray(total * 512)
        rng = random.Random(lost)

        def scribble(count):
            for _ in range(count):
                lba = rng.randrange(total)
                n = rng.randint(1, min(total - lba, 3 * row_width(volume)))
                payload = os.urandom(n * 512)
                volume.write(lba, payload)
                model[lba * 512 : (lba + n) * 512] = payload

        scribble(20)
        volume.fail_member(lost)
        assert volume.degraded
        scribble(20)  # degraded writes must still maintain parity
        volume.barrier()
        assert volume.read(0, total) == bytes(model)
        assert volume.peek(0, total) == bytes(model)
        stats = volume.volume_stats
        assert stats.reconstructed_reads > 0
        assert stats.degraded_writes > 0


def test_second_failure_refused_without_damage():
    volume = make_parity()
    total = volume.geometry.total_sectors
    image = os.urandom(total * 512)
    volume.write(0, image)
    volume.fail_member(1)
    with pytest.raises(VolumeDegradedError):
        volume.fail_member(3)
    # The refusal mutated nothing: still exactly one member down, data intact.
    assert volume.alive == [True, False, True, True]
    volume.barrier()
    assert volume.read(0, total) == image


def test_replace_member_validation():
    volume = make_parity()
    with pytest.raises(VolumeError):
        volume.replace_member(0)  # live member: nothing to rebuild
    volume.fail_member(0)
    with pytest.raises(ValueError):
        volume.replace_member(
            0, SimulatedDisk(fast_test_disk(capacity_mb=4), VirtualClock())
        )  # geometry mismatch
    with pytest.raises(ValueError):
        volume.replace_member(
            0, SimulatedDisk(fast_test_disk(capacity_mb=2), volume.clock)
        )  # must carry a private clock
    for index in (-4, 4):  # -4 would alias the failed member 0
        with pytest.raises(ValueError):
            volume.replace_member(index)
    assert not volume.rebuild_active
    volume.replace_member(0)
    with pytest.raises(VolumeError):
        volume.replace_member(0)  # already rebuilding

    stripe = Volume(
        [
            SimulatedDisk(fast_test_disk(capacity_mb=2), VirtualClock())
            for _ in range(2)
        ],
        VirtualClock(),
        layout="stripe",
        chunk_sectors=CHUNK,
    )
    with pytest.raises(VolumeError):
        stripe.replace_member(0)


def test_repeated_failure_is_announced_once():
    """One failure, one ``volume.member_failed``: failing a member that is
    already down changes nothing and tells nobody."""
    volume = make_parity()
    volume.events = log = EventLog(volume.clock)
    volume.fail_member(2)
    volume.fail_member(2)
    assert [e.name for e in log] == ["volume.member_failed"]
    assert volume.alive == [True, True, False, True]
    # The replacement dying mid-rebuild *is* a new failure of that member.
    volume.replace_member(2)
    volume.fail_member(2)
    volume.fail_member(2)
    assert [e.name for e in log].count("volume.member_failed") == 2


def image_chunk(volume: Volume, image: bytes, row: int, member: int) -> bytes:
    """The bytes of ``image`` that ``member``'s data chunk of ``row`` holds."""
    lba = volume.map.to_logical(member, row * CHUNK)
    return image[lba * 512 : (lba + CHUNK) * 512]


def test_corrupt_works_degraded_and_mid_rebuild():
    """``corrupt`` agrees with ``install`` and ``peek``: with a member down
    it damages the sectors that are actually stored and skips the failed
    member's not-yet-rebuilt rows (they exist only as parity)."""
    volume = make_parity()
    total = volume.geometry.total_sectors
    image = os.urandom(total * 512)
    volume.write(0, image)
    volume.barrier()
    width = row_width(volume)
    lost = 1

    volume.fail_member(lost)
    dead_store = list(volume.disks[lost].written_sectors())
    volume.corrupt(0, 2 * width)  # rows 0-1: touches every member
    volume.install(0, image[: 512])  # the surface agrees with itself
    assert list(volume.disks[lost].written_sectors()) == dead_store
    got = volume.peek(0, 2 * width)
    assert got != image[: 2 * width * 512]
    assert volume.read(0, 2 * width) == got
    for row in range(2):
        for member in volume.parity_map.data_disks(row):
            junk = volume.disks[member].peek(row * CHUNK, CHUNK)
            assert (junk != image_chunk(volume, image, row, member)) == (member != lost)

    # Mid-rebuild: rows the scanner has passed live on the replacement and
    # are corruptible; rows it has not are still skipped.
    volume.replace_member(lost)
    volume.rebuild_step(4)
    replacement = volume.disks[lost]
    rebuilt = replacement.peek(0, 8 * CHUNK)
    volume.corrupt(2 * width, 4 * width)  # rows 2-5: two rebuilt, two not
    after = replacement.peek(0, 8 * CHUNK)
    changed = [
        row for row in range(8)
        if after[row * CHUNK * 512 : (row + 1) * CHUNK * 512]
        != rebuilt[row * CHUNK * 512 : (row + 1) * CHUNK * 512]
    ]
    assert changed == [
        row for row in (2, 3) if volume.parity_map.parity_disk(row) != lost
    ]
    assert volume.peek(2 * width, 4 * width) == volume.read(2 * width, 4 * width)


def test_partial_install_on_a_degraded_row_keeps_the_lost_chunk():
    """Member loss, a degraded write (which leaves the dead member's store
    stale), then a partial-row ``install``: the parity it recomputes must
    still encode what the degraded write put in the lost chunk."""
    volume = make_parity()
    width = row_width(volume)
    volume.write(0, os.urandom(width * 512))
    victim = volume.spindle_of(CHUNK)
    assert victim != volume.parity_map.parity_disk(0)
    volume.fail_member(victim)
    new = os.urandom(CHUNK * 512)
    volume.write(CHUNK, new)  # degraded: the victim's store keeps the old bytes
    assert volume.disks[victim].peek(volume.parity_map.row_lba(0), CHUNK) != new
    installed = os.urandom(2 * 512)
    volume.install(0, installed)  # two sectors of another member's chunk
    expected = installed + volume.peek(2, CHUNK - 2) + new
    assert volume.peek(CHUNK, CHUNK) == new
    assert volume.peek(0, 2 * CHUNK) == expected
    assert volume.read(0, 2 * CHUNK) == expected
    # An install into the lost chunk itself lands over the restored one.
    patch = os.urandom(512)
    volume.install(CHUNK + 3, patch)
    expected = expected[: (CHUNK + 3) * 512] + patch + expected[(CHUNK + 4) * 512 :]
    assert volume.peek(0, 2 * CHUNK) == expected
    cache = volume.stripe_cache
    for member, disk in enumerate(volume.disks):  # resident == peek
        held = cache.load(member, volume.parity_map.row_lba(0), CHUNK)
        assert held is None or held == disk.peek(volume.parity_map.row_lba(0), CHUNK)
    volume.replace_member(victim)
    volume.rebuild_run_to_completion()
    assert volume.peek(0, 2 * CHUNK) == expected
    assert volume.read(0, 2 * CHUNK) == expected
    assert volume.resync_parity() == 0


def test_rebuild_completes_and_matches_never_failed():
    """After fail + replace + full rebuild the volume is byte-identical —
    member by member — to one that never failed."""
    volume = make_parity()
    control = make_parity()
    total = volume.geometry.total_sectors
    rng = random.Random(7)
    for _ in range(30):
        lba = rng.randrange(total)
        n = rng.randint(1, min(total - lba, 2 * row_width(volume)))
        payload = os.urandom(n * 512)
        volume.write(lba, payload)
        control.write(lba, payload)

    volume.fail_member(2)
    volume.replace_member(2)
    assert volume.rebuild_active
    assert volume.rebuild_progress == 0.0
    assert volume.rebuild_step(1) == 1
    assert 0.0 < volume.rebuild_progress < 1.0
    volume.rebuild_run_to_completion()
    assert not volume.rebuild_active
    assert not volume.degraded
    assert volume.rebuild_progress == 1.0
    assert volume.volume_stats.rebuilds_completed == 1

    volume.barrier()
    control.barrier()
    assert_member_images_identical(volume, control)

    # Full redundancy is real: any *different* member may now fail.
    volume.fail_member(0)
    assert volume.read(0, total) == control.peek(0, total)


def test_fail_rebuilding_member_aborts_to_degraded():
    """The replacement dying mid-scan is not a second failure: the volume
    drops back to plain degraded and a fresh replacement can start over."""
    volume = make_parity()
    total = volume.geometry.total_sectors
    image = os.urandom(total * 512)
    volume.write(0, image)
    volume.fail_member(1)
    volume.replace_member(1)
    volume.rebuild_step(2)
    volume.fail_member(1)  # replacement spindle dies
    assert not volume.rebuild_active
    assert volume.degraded
    volume.barrier()
    assert volume.read(0, total) == image
    volume.replace_member(1)
    volume.rebuild_run_to_completion()
    assert not volume.degraded
    assert volume.read(0, total) == image


def test_rebuild_under_foreground_traffic():
    """ISSUE 9 satellite: a seeded mixed workload runs while the scanner
    rebuilds. Every acked write stays readable throughout, a second
    failure is refused cleanly mid-rebuild, and the rebuilt volume is
    figure-identical to one that never failed."""
    volume = make_parity(mb=2)
    control = make_parity(mb=2)
    total = volume.geometry.total_sectors
    model = bytearray(total * 512)
    rng = random.Random(42)

    def mixed_op():
        if rng.random() < 0.5:
            lba = rng.randrange(total)
            n = rng.randint(1, min(total - lba, 2 * row_width(volume)))
            payload = os.urandom(n * 512)
            volume.write(lba, payload)
            control.write(lba, payload)
            model[lba * 512 : (lba + n) * 512] = payload
        else:
            lba = rng.randrange(total)
            n = rng.randint(1, min(total - lba, row_width(volume)))
            assert volume.read(lba, n) == bytes(model[lba * 512 : (lba + n) * 512])

    for _ in range(40):
        mixed_op()
    volume.fail_member(3)
    volume.replace_member(3)
    volume.rebuild_rate = 1.5  # rows donated per foreground request

    refused_second_failure = False
    while volume.rebuild_active:
        mixed_op()
        if not refused_second_failure and 0.0 < volume.rebuild_progress < 1.0:
            with pytest.raises(VolumeDegradedError):
                volume.fail_member(0)
            refused_second_failure = True

    assert refused_second_failure
    assert not volume.degraded
    assert volume.volume_stats.rebuilds_completed == 1
    volume.barrier()
    control.barrier()
    assert volume.read(0, total) == bytes(model)
    assert_member_images_identical(volume, control)


def test_resync_closes_the_parity_inconsistency_window():
    """``corrupt`` changes data under parity's feet — the same shape as a
    crash landing a data write without its parity write. A failure taken
    on the inconsistent row reconstructs stale bytes; resyncing first
    (md's post-crash step) makes degraded reads agree with what is
    actually on the platters."""
    lba = 3
    original = os.urandom(512)

    def scenario():
        volume = make_parity(n=3)
        volume.write(lba, original)
        volume.write(100, os.urandom(512))
        volume.barrier()
        volume.corrupt(lba)
        return volume, volume.peek(lba, 1)

    # Without resync: parity still encodes the pre-corruption bytes, so
    # losing the data member resurrects them — reconstruction disagrees
    # with what a direct read would have returned.
    volume, on_disk = scenario()
    assert on_disk != original
    data_member = volume.map.to_physical(lba)[0]
    volume.fail_member(data_member)
    assert volume.read(lba, 1) == original  # the write hole

    # With resync first: parity is recomputed from the as-found data and
    # the same failure reconstructs the true on-disk bytes.
    volume, on_disk = scenario()
    assert volume.resync_parity() > 0
    assert volume.resync_parity() == 0  # idempotent: invariant restored
    volume.fail_member(volume.map.to_physical(lba)[0])
    assert volume.read(lba, 1) == on_disk

    # Guard rails: nothing to resync without parity, or degraded.
    stripe = Volume(
        [SimulatedDisk(fast_test_disk(capacity_mb=2), VirtualClock())],
        VirtualClock(),
        layout="stripe",
        chunk_sectors=CHUNK,
    )
    with pytest.raises(VolumeError):
        stripe.resync_parity()
    degraded = make_parity()
    degraded.fail_member(0)
    with pytest.raises(VolumeError):
        degraded.resync_parity()


def test_every_barrier_vector_is_enumerated_as_a_cut():
    """Narrow epochs are where it matters: a sampled subset of a one-sector
    volume write (two member writes) is the whole epoch one time in four —
    the next cut's plan. Cuts go first, so the state keeps the position of
    the barrier it stands on and the oracle holds it to every
    acknowledgement up to there."""
    volume = make_parity()
    recording = ParityRecording(volume)
    rng = random.Random(11)
    for i in range(24):
        for _ in range(1 if i % 3 else 2):
            volume.write(rng.randrange(60 * CHUNK), os.urandom(512))
        volume.barrier()
    volume.write(0, os.urandom(512))  # writes trailing the last barrier
    states = enumerate_parity_crash_states(recording, subset_samples_per_epoch=8)
    final = tuple(m.position for m in recording.members)
    vectors = [(0,) * 4, *recording.epoch_positions, final]
    cuts = {s.plans: s.covered_seq for s in states if s.kind == "cut"}
    assert len(cuts) == len(vectors) == 26
    for vector in vectors:
        plans = tuple(
            tuple((e.seq, e.nsectors) for e in m.events[:position])
            for m, position in zip(recording.members, vector)
        )
        assert cuts[plans] == sum(vector)
    assert {"torn", "subset"} >= {s.kind for s in states} - {"cut"}
    assert len({s.plans for s in states}) == len(states)


def test_consistent_volume_resync_is_a_noop():
    volume = make_parity()
    rng = random.Random(3)
    total = volume.geometry.total_sectors
    for _ in range(15):
        lba = rng.randrange(total)
        n = rng.randint(1, min(total - lba, 2 * row_width(volume)))
        volume.write(lba, os.urandom(n * 512))
    volume.barrier()
    assert volume.resync_parity() == 0


def test_lld_over_raid5_degrades_and_recovers():
    """The paper stack end-to-end: MINIX over LLD over a 4-member RAID-5.
    Files survive a member failure, and a fresh LLD recovers from the
    degraded array."""
    spec = BuildSpec.from_scale(0.05)
    fs, lld = build_minix_lld(spec, n_disks=4, volume_layout="raid5")
    volume = lld.disk

    blobs = {}
    for i in range(6):
        name = f"/f{i}"
        blobs[name] = os.urandom(3000 + 1111 * i)
        fd = fs.open(name, create=True)
        fs.write(fd, blobs[name])
        fs.close(fd)
    fs.sync()

    volume.fail_member(1)
    for name, blob in blobs.items():
        fd = fs.open(name)
        assert fs.read(fd, len(blob)) == blob
        fs.close(fd)

    # Cold recovery over the degraded array: a fresh LLD instance mounts
    # from reconstructed reads alone (no checkpoint was saved, so this
    # exercises the full recovery sweep through XOR reconstruction).
    fresh = LLD(volume, lld.config)
    fresh.initialize()
    assert fresh.recovery_report is not None
    assert volume.volume_stats.reconstructed_reads > 0


def test_fresh_volume_level_alias():
    spec = BuildSpec.from_scale(0.3)  # big enough to clear the 8 MB member floor
    volume = fresh_volume(spec, 4, layout="raid5")
    assert volume.layout == "raid5"
    with pytest.raises(TypeError):  # one spelling: the level= alias is gone
        fresh_volume(spec, 4, level="raid5")
    # Member sizing: data capacity ~= the single-disk partition, spread
    # over the N-1 data chunks per row (vs N for a stripe).
    raid5_member = volume.geometry.member.total_sectors
    stripe_member = fresh_volume(spec, 4, layout="stripe").geometry.member.total_sectors
    assert raid5_member > stripe_member
