"""Unit tests for the simulated disk: data integrity and time accounting."""

import dataclasses

import pytest

from repro.disk import DiskGeometry, SimulatedDisk, fast_test_disk
from repro.sim import VirtualClock


@pytest.fixture
def disk():
    return SimulatedDisk(fast_test_disk(capacity_mb=8), VirtualClock())


def test_unwritten_sectors_read_zero(disk):
    assert disk.read(0, 1) == b"\x00" * 512


def test_write_then_read_roundtrip(disk):
    payload = bytes(range(256)) * 2
    disk.write(10, payload)
    assert disk.read(10, 1) == payload


def test_multisector_roundtrip(disk):
    payload = bytes([i % 251 for i in range(512 * 5)])
    disk.write(100, payload)
    assert disk.read(100, 5) == payload


def test_partial_overwrite(disk):
    disk.write(0, b"\xaa" * 1024)
    disk.write(1, b"\xbb" * 512)
    assert disk.read(0, 2) == b"\xaa" * 512 + b"\xbb" * 512


def test_unaligned_write_rejected(disk):
    with pytest.raises(ValueError):
        disk.write(0, b"short")


def test_out_of_range_rejected(disk):
    total = disk.geometry.total_sectors
    with pytest.raises(ValueError):
        disk.read(total, 1)
    with pytest.raises(ValueError):
        disk.read(total - 1, 2)
    with pytest.raises(ValueError):
        disk.read(0, 0)


def test_access_advances_clock(disk):
    t0 = disk.clock.now
    disk.read(0, 1)
    assert disk.clock.now > t0


def test_stats_counts_requests(disk):
    disk.write(0, b"\x00" * 512)
    disk.read(0, 1)
    disk.read(4, 2)
    assert disk.stats.writes == 1
    assert disk.stats.reads == 2
    assert disk.stats.sectors_written == 1
    assert disk.stats.sectors_read == 3
    assert disk.stats.requests == 3


def test_stats_busy_time_tracks_clock(disk):
    disk.write(0, b"\x01" * 4096)
    disk.read(1000, 8)
    assert disk.stats.busy_time == pytest.approx(disk.clock.now)


def test_stats_byte_totals_follow_geometry_sector_size():
    geometry = dataclasses.replace(fast_test_disk(capacity_mb=8), sector_size=1024)
    disk = SimulatedDisk(geometry, VirtualClock())
    disk.write(0, b"\x42" * 1024 * 3)
    disk.read(0, 2)
    assert disk.stats.sector_size == 1024
    assert disk.stats.bytes_written == 3 * 1024
    assert disk.stats.bytes_read == 2 * 1024
    payload = disk.stats.as_dict()
    assert payload["sector_size"] == 1024
    assert payload["bytes_written"] == 3 * 1024


def test_seek_time_zero_for_same_cylinder(disk):
    assert disk.seek_time(5, 5) == 0.0


def test_seek_time_monotonic_in_distance(disk):
    times = [disk.seek_time(0, d) for d in (1, 4, 16, 64)]
    assert times == sorted(times)
    assert times[0] > 0


def test_full_stroke_seek_matches_max(disk):
    geometry = disk.geometry
    t = disk.seek_time(0, geometry.cylinders - 1)
    assert t == pytest.approx(geometry.max_seek_ms / 1000.0)


def test_far_access_costs_more_than_near(disk):
    near = SimulatedDisk(disk.geometry, VirtualClock())
    far = SimulatedDisk(disk.geometry, VirtualClock())
    near.read(0, 1)
    t_near = near.clock.now
    far.read(disk.geometry.total_sectors - 8, 8)
    t_far = far.clock.now
    assert t_far > t_near


def test_sequential_large_write_faster_per_byte_than_blocks():
    geometry = fast_test_disk(capacity_mb=8)
    big = SimulatedDisk(geometry, VirtualClock())
    small = SimulatedDisk(geometry, VirtualClock())
    nbytes = 64 * 1024
    big.write(0, b"\x07" * nbytes)
    t_big = big.clock.now
    for i in range(nbytes // 4096):
        small.write(i * 8, b"\x07" * 4096)
    t_small = small.clock.now
    assert t_big < t_small / 3  # batching wins big


def test_peek_does_not_advance_clock(disk):
    disk.write(0, b"\x42" * 512)
    t0 = disk.clock.now
    assert disk.peek(0, 1) == b"\x42" * 512
    assert disk.clock.now == t0


def test_corrupt_changes_bytes(disk):
    disk.write(0, b"\x42" * 512)
    disk.corrupt(0)
    assert disk.peek(0, 1) != b"\x42" * 512


def test_sectors_populated(disk):
    assert disk.sectors_populated == 0
    disk.write(0, b"\x01" * 1024)
    assert disk.sectors_populated == 2


def test_transfer_crosses_track_and_cylinder():
    geometry = DiskGeometry(
        sector_size=512, sectors_per_track=4, heads=2, cylinders=8, rpm=6000
    )
    disk = SimulatedDisk(geometry, VirtualClock())
    # 12 sectors spans 3 tracks -> at least one head switch and one cylinder move
    disk.write(0, b"\x05" * (12 * 512))
    assert disk.read(0, 12) == b"\x05" * (12 * 512)
    assert disk.stats.head_switch_time > 0


def test_corrupt_fills_whole_sectors_on_odd_sector_size():
    """Junk is built to ``sector_size`` bytes, not ``4 * (size // 4)``: a
    short junk sector used to shrink everything read across it."""
    geometry = DiskGeometry(sector_size=510, sectors_per_track=10, heads=2, cylinders=4)
    disk = SimulatedDisk(geometry, VirtualClock())
    disk.write(1, b"\x42" * 510)
    disk.corrupt(0, 1)
    image = disk.peek(0, 2)
    assert len(image) == 1020
    assert image[:510] == (b"\xde\xad\xbe\xef" * 128)[:510]
    assert image[510:] == b"\x42" * 510


@pytest.mark.parametrize("op", ["write", "install"])
def test_non_byte_memoryview_is_measured_in_bytes(disk, op):
    """``len()`` of a cast view counts items: 512 'H' items are 1 024 bytes,
    two sectors — range-checked, charged, counted and stored as two."""
    payload = bytes(range(256)) * 4
    getattr(disk, op)(0, memoryview(payload).cast("H"))
    assert disk.peek(0, 2) == payload
    assert len(disk.peek(0, 3)) == 3 * 512
    assert disk.sectors_populated == 2
    if op == "write":
        assert disk.stats.sectors_written == 2
    with pytest.raises(ValueError):  # 255 items, 510 bytes: not whole sectors
        getattr(disk, op)(0, memoryview(payload[:510]).cast("H"))
    with pytest.raises(ValueError):  # last sector in range by items, not by bytes
        getattr(disk, op)(disk.geometry.total_sectors - 1, memoryview(payload).cast("H"))


def test_written_sectors_lists_exactly_the_written_lbas_in_order(disk):
    disk.write(300, b"\x03" * 1024)
    disk.install(5, b"\x01" * 512)
    disk.corrupt(128)
    disk.write(300, b"\x04" * 512)  # overwrite: still one entry
    listed = list(disk.written_sectors())
    assert [lba for lba, _ in listed] == [5, 128, 300, 301]
    assert listed[0][1] == b"\x01" * 512 and listed[2][1] == b"\x04" * 512
    assert disk.sectors_populated == 4


def test_snapshot_and_restore_are_independent_copies(disk):
    disk.write(7, b"\x07" * 512)
    image = disk.snapshot()
    disk.write(7, b"\x08" * 512)
    clone = SimulatedDisk(disk.geometry, VirtualClock())
    clone.restore(image)
    clone.write(9, b"\x09" * 512)
    assert clone.peek(7, 1) == b"\x07" * 512
    assert disk.peek(9, 1) == bytes(512)
    fresh = SimulatedDisk(disk.geometry, VirtualClock())
    fresh.restore(image)  # the image itself was not written through
    assert dict(fresh.written_sectors()) == {7: b"\x07" * 512}
    assert fresh.clock.now == 0.0 and fresh.stats.requests == 0
