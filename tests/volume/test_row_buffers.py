"""A RAID-5 partial-row write allocates nothing of the row's size.

On a warmed 4-disk volume with the e2e stack's 512 KB chunk, one 464 KB
partial-row ``Volume.write`` — a partial segment flush's shape — keeps its
``tracemalloc`` peak under 512 KB, whichever way it computes its parity:
its member pre-reads land in the volume's reused buffers, its XOR runs one
64 KB window at a time, and its parity lands in place. Whole-buffer
parity took about 2 MB here: three operand ints, a join and the result.
"""

import tracemalloc

import pytest

from repro.disk import SimulatedDisk, fast_test_disk
from repro.sim import VirtualClock
from repro.volume import Volume

KB = 1024
SECTOR = 512
CHUNK = 1024  # sectors: 512 KB
ROW = 3 * CHUNK  # data sectors per row on four members
WRITE = 464 * KB
WITHIN = 16  # sectors into the row's first chunk
PEAK_LIMIT = 512 * KB


def warmed(shape: str) -> Volume:
    """Whole rows installed (on the members, nothing resident), then the
    write's shape run on three of them: the buffers have grown and the
    stripe cache is full, so a fourth row's write reuses both."""
    members = [SimulatedDisk(fast_test_disk(capacity_mb=4), VirtualClock()) for _ in range(4)]
    volume = Volume(members, VirtualClock(), layout="raid5", chunk_sectors=CHUNK)
    volume._reconstructs = lambda io, rcw, rmw: shape == "reconstruct_writes"
    volume.install(0, bytes(range(256)) * (4 * ROW * SECTOR // 256))
    for row in range(3):
        volume.write(row * ROW + WITHIN, bytes([row + 1]) * WRITE)
    return volume


@pytest.mark.parametrize("shape", ["rmw_writes", "reconstruct_writes"])
def test_a_partial_row_write_allocates_less_than_the_row(shape):
    volume = warmed(shape)
    stats = volume.volume_stats
    rows, misses = getattr(stats, shape), stats.preread_misses
    payload = b"\x5a" * WRITE
    tracemalloc.start()
    try:
        volume.write(3 * ROW + WITHIN, payload)
        _current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert getattr(stats, shape) == rows + 1
    assert stats.preread_misses == misses + 2  # two member pre-reads, either shape
    assert peak < PEAK_LIMIT, f"{shape}: peak {peak} bytes"
    assert volume.peek(3 * ROW + WITHIN, WRITE // SECTOR) == payload
    assert volume.resync_parity() == 0  # the parity written is the data's XOR


def test_a_lone_reconstructed_chunk_is_not_its_sources_buffer():
    """A degraded write whose failed chunk is the XOR of one buffer alone
    (old data over a parity never written) copies it before the row
    patches that buffer in place: the failed chunk still reads its old
    bytes afterwards, as the other members' XOR."""
    chunk = 8
    members = [SimulatedDisk(fast_test_disk(capacity_mb=1), VirtualClock()) for _ in range(3)]
    old = bytes(range(1, 256)) * (chunk * SECTOR // 255) + bytes(chunk * SECTOR % 255)
    members[0].write(0, old)  # row 0's first data chunk; its parity (member 2) blank
    volume = Volume(members, VirtualClock(), layout="raid5", chunk_sectors=chunk)
    volume.fail_member(1)
    volume.write(0, b"\xc3" * (4 * SECTOR))
    assert volume.volume_stats.degraded_writes == 1
    assert volume.peek(chunk, 4) == old[: 4 * SECTOR]
