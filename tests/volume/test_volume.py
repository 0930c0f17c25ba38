"""Functional tests for the volume layer: striping, mirroring, overlap.

The timing assertions here pin the per-spindle busy-until model — the
tentpole property that requests dispatched to different spindles in one
batch overlap in simulated time — and the N=1 figure-identity that lets
the volume interpose under every existing benchmark without moving a
single figure.
"""

import os

import pytest

from repro.bench.builders import BuildSpec, build_minix_lld, fresh_volume
from repro.disk import SimulatedDisk, fast_test_disk
from repro.obs import Tracer, attach_tracer, registry_of
from repro.sim.clock import VirtualClock
from repro.volume import Volume, VolumeDegradedError


def make_members(n, mb=16):
    return [
        SimulatedDisk(fast_test_disk(capacity_mb=mb), VirtualClock())
        for _ in range(n)
    ]


def make_stripe(n, mb=16, chunk=128):
    return Volume(make_members(n, mb), VirtualClock(), chunk_sectors=chunk)


def make_mirror(n, mb=16):
    return Volume(make_members(n, mb), VirtualClock(), layout="mirror")


# ----------------------------------------------------------------------
# Construction
# ----------------------------------------------------------------------


def test_member_must_not_share_volume_clock():
    shared = VirtualClock()
    member = SimulatedDisk(fast_test_disk(capacity_mb=1), shared)
    with pytest.raises(ValueError, match="private clock"):
        Volume([member], shared)


def test_members_must_share_geometry():
    disks = [
        SimulatedDisk(fast_test_disk(capacity_mb=1), VirtualClock()),
        SimulatedDisk(fast_test_disk(capacity_mb=2), VirtualClock()),
    ]
    with pytest.raises(ValueError, match="geometry"):
        Volume(disks, VirtualClock())


def test_stripe_capacity_sums_members():
    volume = make_stripe(4, mb=1)
    member_total = volume.disks[0].geometry.total_sectors
    usable = (member_total // 128) * 128
    assert volume.geometry.total_sectors == 4 * usable
    assert volume.spindle_count == 4
    assert volume.spindle_of(0) == 0
    assert volume.spindle_of(128) == 1


def test_mirror_capacity_is_one_member():
    volume = make_mirror(3, mb=1)
    assert volume.geometry.total_sectors == volume.disks[0].geometry.total_sectors
    assert volume.spindle_count == 1


# ----------------------------------------------------------------------
# Data integrity
# ----------------------------------------------------------------------


def test_stripe_read_after_write_before_barrier():
    volume = make_stripe(4, chunk=8)
    data = os.urandom(512 * 64)
    volume.write(100, data)
    # Queued write: data must already be visible to reads.
    assert volume.read(100, 64) == data


def test_stripe_chunk_boundary_straddle():
    volume = make_stripe(3, chunk=4)
    data = os.urandom(512 * 11)
    volume.write(2, data)  # straddles three chunks on different members
    volume.barrier()
    assert volume.read(2, 11) == data
    # Single sectors from the middle read back too.
    for i in range(11):
        assert volume.read(2 + i, 1) == data[i * 512 : (i + 1) * 512]


def test_mirror_write_fans_out_to_all_members():
    volume = make_mirror(3)
    data = os.urandom(512 * 4)
    volume.write(40, data)
    volume.barrier()
    for disk in volume.disks:
        assert disk.peek(40, 4) == data
    assert volume.volume_stats.sub_writes == 3


def test_corrupt_hits_relevant_member():
    volume = make_stripe(2, chunk=4)
    data = os.urandom(512 * 8)
    volume.write(0, data)
    volume.barrier()
    volume.corrupt(4, 4)  # second chunk -> member 1
    assert volume.read(0, 4) == data[: 4 * 512]
    assert volume.read(4, 4) != data[4 * 512 :]


# ----------------------------------------------------------------------
# The overlap model
# ----------------------------------------------------------------------


def test_striped_sequential_write_costs_max_not_sum():
    """A striped batch + barrier costs ~max over spindles, not the sum."""

    def run(n):
        volume = make_stripe(n, mb=64, chunk=128)
        payload = os.urandom(512 * 2048)
        for i in range(8):
            volume.write(i * 2048, payload)
        volume.barrier()
        return volume.clock.now

    t1, t4 = run(1), run(4)
    assert t1 / t4 >= 3.0


def test_striped_read_costs_max_not_sum():
    def run(n):
        volume = make_stripe(n, mb=64, chunk=128)
        payload = os.urandom(512 * 2048)
        for i in range(8):
            volume.install(i * 2048, payload)
        t0 = volume.clock.now
        for i in range(8):
            assert volume.read(i * 2048, 2048) == payload
        return volume.clock.now - t0

    t1, t4 = run(1), run(4)
    assert t1 / t4 >= 3.0


def test_read_batch_overlaps_across_spindles():
    volume = make_stripe(4, mb=64, chunk=256)
    payload = os.urandom(512 * 256)
    for i in range(8):
        volume.install(i * 256, payload)

    serial = make_stripe(4, mb=64, chunk=256)
    for i in range(8):
        serial.install(i * 256, payload)

    t0 = volume.clock.now
    out = volume.read_batch([(i * 256, 256) for i in range(8)])
    batch_time = volume.clock.now - t0
    assert all(piece == payload for piece in out)

    t0 = serial.clock.now
    for i in range(8):
        serial.read(i * 256, 256)
    serial_time = serial.clock.now - t0
    assert serial_time / batch_time >= 2.0


def test_same_spindle_requests_queue_fifo():
    """Two batched reads of the same member serialize, not teleport."""
    volume = make_stripe(2, mb=16, chunk=64)
    payload = os.urandom(512 * 64)
    # Both extents land wholly on member 0 (chunks 0 and 2).
    volume.install(0, payload)
    volume.install(128, payload)
    t0 = volume.clock.now
    volume.read_batch([(0, 64), (128, 64)])
    both = volume.clock.now - t0

    single = make_stripe(2, mb=16, chunk=64)
    single.install(0, payload)
    t0 = single.clock.now
    single.read(0, 64)
    one = single.clock.now - t0
    assert both > one  # second request waited for the first


def test_barrier_drains_all_spindles():
    volume = make_stripe(4, mb=16, chunk=8)
    volume.write(0, os.urandom(512 * 32))
    # Writes are queued: shared clock unchanged until the barrier.
    assert volume.clock.now == 0.0
    assert max(d.clock.now for d in volume.disks) > 0.0
    volume.barrier()
    assert volume.clock.now == max(d.clock.now for d in volume.disks)


def test_mirror_read_balances_to_least_busy():
    volume = make_mirror(2)
    data = os.urandom(512 * 8)
    volume.write(0, data)
    volume.barrier()
    reads_before = [d.stats.reads for d in volume.disks]
    for _ in range(6):
        volume.read(0, 8)
    gained = [d.stats.reads - b for d, b in zip(volume.disks, reads_before)]
    # Least-busy balancing alternates between equally-loaded replicas.
    assert min(gained) >= 2


# ----------------------------------------------------------------------
# N=1 figure identity
# ----------------------------------------------------------------------


def test_single_member_volume_is_figure_identical_to_bare_disk():
    bare = SimulatedDisk(fast_test_disk(capacity_mb=16), VirtualClock())
    volume = make_stripe(1, mb=16)
    member = volume.disks[0]

    ops = []
    rng_state = 1234567
    for i in range(40):
        rng_state = (rng_state * 1103515245 + 12345) % (2**31)
        lba = rng_state % 20000
        n = 1 + rng_state % 16
        if i % 3 == 0:
            ops.append(("w", lba, os.urandom(512 * n)))
        elif i % 7 == 0:
            ops.append(("b",))
        else:
            ops.append(("r", lba, n))

    for op in ops:
        if op[0] == "w":
            bare.write(op[1], op[2])
            volume.write(op[1], op[2])
        elif op[0] == "b":
            bare.barrier()
            volume.barrier()
        else:
            assert bare.read(op[1], op[2]) == volume.read(op[1], op[2])
    bare.barrier()
    volume.barrier()

    assert volume.clock.now == bare.clock.now
    assert member.stats.as_dict() == bare.stats.as_dict()


# ----------------------------------------------------------------------
# Stats / metrics / tracing plumbing
# ----------------------------------------------------------------------


def test_volume_stats_rollup_and_snapshot():
    volume = make_stripe(4, mb=16, chunk=8)
    payload = os.urandom(512 * 32)
    for i in range(4):
        volume.write(i * 32, payload)
    volume.barrier()
    volume.read(0, 32)

    rollup = volume.volume_stats.as_dict()
    assert rollup["n_disks"] == 4
    assert rollup["writes"] == 4
    assert rollup["reads"] == 1
    assert rollup["barriers"] == 1
    assert rollup["total_bytes_written"] == 4 * len(payload)
    assert len(rollup["per_disk"]) == 4
    assert 0.0 < rollup["request_balance"] <= 1.0
    assert rollup["write_latency_p50"] > 0.0
    assert rollup["read_latency_p99"] > 0.0
    assert rollup["max_queue_depth"] >= 4

    frozen = volume.volume_stats.as_dict()
    volume.read(0, 32)
    assert frozen["reads"] == 1  # the payload is decoupled
    assert frozen["per_disk"] == rollup["per_disk"]  # members' rows too
    live = volume.volume_stats.as_dict()
    assert live["reads"] == 2 and live["per_disk"] != frozen["per_disk"]


def test_stack_registry_adopts_volume_layer():
    spec = BuildSpec.from_scale(0.1)
    fs, _lld = build_minix_lld(spec, n_disks=2)
    registry = registry_of(fs)
    merged = registry.collect()
    assert any(key.startswith("volume.") for key in merged)
    assert merged["volume.n_disks"] == 2


def test_attach_tracer_reaches_every_spindle():
    volume = make_stripe(2, mb=16)
    tracer = Tracer(volume.clock)
    attach_tracer(tracer, volume)
    assert volume.tracer is tracer
    for disk in volume.disks:
        assert disk.tracer is tracer
    volume.write(0, os.urandom(512))
    volume.barrier()
    names = {span.name for span in tracer.spans}
    assert "volume.write" in names
    assert "disk.write" in names
    attach_tracer(None, volume)
    assert volume.tracer is None
    assert volume.disks[0].tracer is None


# ----------------------------------------------------------------------
# LLD over a volume, end to end
# ----------------------------------------------------------------------


def test_lld_on_striped_volume_round_trips_and_recovers():
    spec = BuildSpec.from_scale(0.1)
    fs, lld = build_minix_lld(spec, n_disks=4)
    assert lld.layout.spindle_count == 4
    assert lld.layout.slot_spindles is not None

    contents = {}
    for i in range(30):
        name = f"/file{i}"
        fd = fs.open(name, create=True)
        data = os.urandom(4096 + (i % 4) * 4096)
        fs.write(fd, data)
        fs.close(fd)
        contents[name] = data
    fs.sync()

    for name, data in contents.items():
        fd = fs.open(name)
        assert fs.read(fd, len(data)) == data
        fs.close(fd)

    # Crash (no shutdown): a fresh LLD over the same volume must
    # one-sweep recover; sweep requests overlap across the spindles.
    from repro.lld import LLD

    lld2 = LLD(lld.disk, lld.config)
    lld2.initialize()
    assert lld2.recovery_report is not None
    assert lld2.recovery_report.summaries_valid >= 1


def test_lld_slot_placement_round_robins_spindles():
    spec = BuildSpec.from_scale(0.1)
    _fs, lld = build_minix_lld(spec, n_disks=4)
    spindles = lld.layout.slot_spindles
    # Segment-granular chunks: every slot maps wholly to one spindle, and
    # consecutive slots alternate members.
    assert spindles is not None
    assert set(spindles) == {0, 1, 2, 3}
    assert all(
        spindles[i] != spindles[i + 1] for i in range(min(8, len(spindles) - 1))
    )


def test_fresh_volume_defaults_to_segment_granular_chunks():
    spec = BuildSpec.from_scale(0.1)
    volume = fresh_volume(spec, 4)
    assert volume.chunk_sectors == spec.segment_size // 512
