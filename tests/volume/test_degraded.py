"""Degraded-mode behaviour: member failure, survivors, recovery.

The contract under test: a mirrored volume keeps serving — and loses no
acknowledged data — when all but one member drops; a striped volume has
no redundancy and must fail loudly on any access touching a dead member.
"""

import os

import pytest

from repro.crashsim import (
    MirrorRecording,
    OracleDriver,
    degraded_mirror_volume,
    explore_degraded_mirror,
    run_matrix_workload,
)
from repro.disk import SimulatedDisk, fast_test_disk
from repro.lld import LLD, LLDConfig
from repro.sim.clock import VirtualClock
from repro.volume import Volume, VolumeDegradedError

CONFIG = dict(
    segment_size=64 * 1024,
    summary_capacity=4096,
    block_size=4096,
    checkpoint_slots=1,
    torn_write_protection=True,
)


def make_mirror(n=2, mb=8):
    members = [
        SimulatedDisk(fast_test_disk(capacity_mb=mb), VirtualClock())
        for _ in range(n)
    ]
    return Volume(members, VirtualClock(), layout="mirror")


def make_stripe(n=2, mb=8, chunk=8):
    members = [
        SimulatedDisk(fast_test_disk(capacity_mb=mb), VirtualClock())
        for _ in range(n)
    ]
    return Volume(members, VirtualClock(), chunk_sectors=chunk)


# ----------------------------------------------------------------------
# Basic degraded semantics
# ----------------------------------------------------------------------


def test_mirror_serves_reads_and_writes_with_member_down():
    volume = make_mirror(2)
    before = os.urandom(512 * 8)
    volume.write(0, before)
    volume.barrier()

    volume.fail_member(0)
    assert volume.degraded
    assert volume.read(0, 8) == before
    assert volume.volume_stats.degraded_reads >= 1

    after = os.urandom(512 * 8)
    volume.write(64, after)
    volume.barrier()
    assert volume.read(64, 8) == after
    # Only the survivor took the write.
    assert volume.disks[1].peek(64, 8) == after
    assert volume.disks[0].peek(64, 8) != after


def test_mirror_cannot_lose_last_member():
    volume = make_mirror(2)
    volume.fail_member(0)
    with pytest.raises(VolumeDegradedError):
        volume.fail_member(1)
    # The refused drop must not have marked the survivor dead.
    assert volume.alive[1]
    data = os.urandom(512 * 4)
    volume.write(0, data)
    volume.barrier()
    assert volume.read(0, 4) == data


def test_stripe_fails_loudly_on_dead_member():
    volume = make_stripe(2, chunk=8)
    volume.write(0, os.urandom(512 * 16))
    volume.barrier()
    volume.fail_member(1)
    # Chunk 0 (member 0) still serves; chunk 1 (member 1) raises.
    volume.read(0, 8)
    with pytest.raises(VolumeDegradedError):
        volume.read(8, 8)
    with pytest.raises(VolumeDegradedError):
        volume.write(8, os.urandom(512 * 8))


def test_mid_run_member_failure_preserves_acked_data():
    """Fail a member between write generations; every ack must survive."""
    volume = make_mirror(2)
    acked = {}
    for generation in range(6):
        if generation == 3:
            volume.fail_member(generation % 2)
        lba = generation * 64
        data = os.urandom(512 * 16)
        volume.write(lba, data)
        volume.barrier()  # the acknowledgement point
        acked[lba] = data
    for lba, data in acked.items():
        assert volume.read(lba, 16) == data


# ----------------------------------------------------------------------
# LLD over a degraded mirror
# ----------------------------------------------------------------------


def test_lld_mounts_and_recovers_from_single_survivor():
    """Acked LLD writes survive mounting from either member alone."""
    volume = make_mirror(2)
    recording = MirrorRecording(volume)
    config = LLDConfig(**CONFIG)
    lld = LLD(volume, config)
    lld.initialize()
    driver = OracleDriver(lld, recording)
    handles = run_matrix_workload(
        driver, n_small=8, n_overwrites=2, generations=2, n_fill=8
    )
    recording.assert_isomorphic()
    final = driver.oracle.points[-1]

    for survivor in (0, 1):
        # Clone the survivor's full current image onto a fresh disk, then
        # mount it as a degraded mirror: the "other disk is gone" mount.
        member = recording.members[survivor]
        image = SimulatedDisk(member.geometry, VirtualClock())
        for lba, data in member.inner.written_sectors():
            image.install(lba, data)
        degraded = degraded_mirror_volume(image, 2, survivor)
        lld2 = LLD(degraded, config)
        lld2.initialize()
        for bid, expected in final.blocks.items():
            assert lld2.read(bid) == expected, (survivor, bid)
        for lid, chain in final.lists.items():
            assert tuple(lld2.list_blocks(lid)) == chain
        assert handles["lid"] in final.lists


def test_explore_degraded_mirror_zero_violations_small():
    """Crash-state sweep of one member, recovered degraded: no violations."""
    volume = make_mirror(2)
    recording = MirrorRecording(volume)
    config = LLDConfig(**CONFIG)
    lld = LLD(volume, config)
    lld.initialize()
    driver = OracleDriver(lld, recording)
    run_matrix_workload(driver, n_small=4, n_overwrites=2, generations=2, n_fill=4)
    report = explore_degraded_mirror(
        recording,
        config,
        driver.oracle,
        survivor=1,
        reorder_samples_per_epoch=6,
    )
    assert report.states_total > 50
    assert report.violations == []


def test_mirror_recording_rejects_stripes_and_degraded():
    stripe = make_stripe(2)
    with pytest.raises(ValueError, match="mirror"):
        MirrorRecording(stripe)
    mirror = make_mirror(2)
    mirror.fail_member(0)
    with pytest.raises(ValueError, match="degraded"):
        MirrorRecording(mirror)
