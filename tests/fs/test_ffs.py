"""FFS/SunOS-store-specific behaviour: sync metadata, clustering, groups."""

import pytest

from repro.disk import SimulatedDisk, hp_c3010
from repro.fs.ffs import FFSStore, make_ffs
from repro.fs.ffs.store import BLOCKS_PER_GROUP
from repro.sim import VirtualClock


def build(capacity_mb=64, **kw):
    disk = SimulatedDisk(hp_c3010(capacity_mb=capacity_mb), VirtualClock())
    return make_ffs(disk, **kw), disk


def test_uses_8k_blocks():
    fs, _disk = build()
    assert fs.block_size == 8192


def test_creates_are_synchronous():
    """Each create writes metadata through to disk immediately."""
    fs, disk = build()
    writes_before = disk.stats.writes
    fd = fs.open("/f", create=True)
    fs.close(fd)
    assert disk.stats.writes - writes_before >= 2  # i-node block + dir block


def test_deletes_are_synchronous():
    fs, disk = build()
    fd = fs.open("/f", create=True)
    fs.close(fd)
    writes_before = disk.stats.writes
    fs.unlink("/f")
    assert disk.stats.writes - writes_before >= 2


def test_data_writes_are_cached():
    fs, disk = build()
    fd = fs.open("/f", create=True)
    writes_before = disk.stats.writes
    fs.write(fd, b"\x01" * 8192)  # one full block: stays in cache
    assert disk.stats.writes == writes_before
    fs.close(fd)


def test_sync_clusters_contiguous_blocks():
    """EFS-style clustering: one request covers many dirty blocks."""
    fs, disk = build()
    fd = fs.open("/f", create=True)
    fs.write(fd, b"\x02" * (8192 * 21))
    fs.close(fd)
    fs.sync()
    blocks_per_request = max(disk.stats.request_sizes)
    assert blocks_per_request >= 2 * (8192 // 512)  # multi-block writes happened


def test_sequential_write_much_faster_than_minix():
    from repro.fs.minix import make_minix

    def run(fs_factory):
        disk = SimulatedDisk(hp_c3010(capacity_mb=64), VirtualClock())
        fs = fs_factory(disk)
        fd = fs.open("/big", create=True)
        chunk = b"\x03" * 8192
        for _ in range(1024):  # 8 MB > cache
            fs.write(fd, chunk)
        fs.close(fd)
        fs.sync()
        return disk.clock.now

    t_ffs = run(lambda d: make_ffs(d))
    t_minix = run(lambda d: make_minix(d))
    assert t_ffs < t_minix / 2


def test_cylinder_groups_spread_directories():
    fs, _disk = build()
    fs.mkdir("/a")
    fs.mkdir("/b")
    ctx_a = fs._iget(fs._resolve("/a")).lid
    ctx_b = fs._iget(fs._resolve("/b")).lid
    assert ctx_a != ctx_b


def test_files_in_same_directory_share_group():
    fs, _disk = build()
    fs.mkdir("/d")
    fd = fs.open("/d/x", create=True)
    fs.close(fd)
    fd = fs.open("/d/y", create=True)
    fs.close(fd)
    dir_ctx = fs._iget(fs._resolve("/d")).lid
    assert fs._iget(fs._resolve("/d/x")).lid == dir_ctx
    assert fs._iget(fs._resolve("/d/y")).lid == dir_ctx


def test_group_allocation_places_file_in_its_group():
    fs, _disk = build()
    store: FFSStore = fs.store
    fs.mkdir("/d")
    ctx = fs._iget(fs._resolve("/d")).lid
    fd = fs.open("/d/f", create=True)
    fs.write(fd, b"\x04" * 8192)
    fs.close(fd)
    zone = fs._iget(fs._resolve("/d/f")).zones[0]
    group_start = store._group_start((ctx - 1) % store.group_count)
    assert group_start <= zone < group_start + BLOCKS_PER_GROUP + 64
