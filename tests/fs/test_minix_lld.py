"""MINIX-LLD-specific behaviour: lists, crash recovery, i-node modes."""

import pytest

from repro.disk import SimulatedDisk, hp_c3010
from repro.fs.api import FileNotFound
from repro.fs.minix import LDStore, MinixFS, make_minix_lld
from repro.lld import LLD, LLDConfig
from repro.sched import LDServer
from repro.sim import VirtualClock


def build(capacity_mb=32, group_commit=None, **kw):
    """MINIX LLD on a bare LLD, or on a session of a server that commits
    ``group_commit`` syncs at a time."""
    disk = SimulatedDisk(hp_c3010(capacity_mb=capacity_mb), VirtualClock())
    lld = LLD(disk, LLDConfig(segment_size=128 * 1024, checkpoint_slots=1))
    lld.initialize()
    backend = lld
    if group_commit is not None:
        backend = LDServer(lld, group_commit=group_commit).open_session("fs")
    fs = make_minix_lld(backend, ninodes=1024, **kw)
    return fs, lld


def remount_after_crash(fs, lld):
    lld.crash()
    fresh_lld = LLD(lld.disk, lld.config)
    fresh_lld.initialize()
    fresh_fs = MinixFS(
        LDStore(fresh_lld, cache_bytes=fs.store.cache.capacity_bytes),
        readahead=False,
    )
    fresh_fs.mount()
    return fresh_fs, fresh_lld


def test_file_blocks_form_a_list():
    fs, lld = build()
    fd = fs.open("/f", create=True)
    fs.write(fd, b"\x01" * (4096 * 3))
    fs.close(fd)
    lid = fs._iget(fs._resolve("/f")).lid
    assert lid > 0
    blocks = lld.list_blocks(lid)
    assert len(blocks) == 3
    # List order matches file order: zone of block 0 first.
    inode = fs._iget(fs._resolve("/f"))
    assert blocks == [inode.zones[0], inode.zones[1], inode.zones[2]]


def test_single_list_configuration():
    fs, lld = build(list_per_file=False)
    fd = fs.open("/a", create=True)
    fs.write(fd, b"a" * 4096)
    fs.close(fd)
    fd = fs.open("/b", create=True)
    fs.write(fd, b"b" * 4096)
    fs.close(fd)
    # Both files' inodes share the single data list.
    ino_a = fs._iget(fs._resolve("/a"))
    ino_b = fs._iget(fs._resolve("/b"))
    assert ino_a.lid == ino_b.lid


def test_no_zone_bitmap_blocks():
    """MINIX LLD drops the block bitmap (paper §4.1)."""
    fs, _lld = build()
    assert not hasattr(fs.store, "_zmap_start")


def test_data_survives_crash_after_sync():
    fs, lld = build()
    fd = fs.open("/important", create=True)
    fs.write(fd, b"must survive" * 100)
    fs.close(fd)
    fs.sync()
    fresh_fs, _ = remount_after_crash(fs, lld)
    fd = fresh_fs.open("/important")
    assert fresh_fs.read(fd, 10000) == b"must survive" * 100


def test_unsynced_data_lost_after_crash():
    fs, lld = build()
    fd = fs.open("/synced", create=True)
    fs.write(fd, b"old")
    fs.close(fd)
    fs.sync()
    fd = fs.open("/unsynced", create=True)
    fs.write(fd, b"new")
    fs.close(fd)
    fresh_fs, _ = remount_after_crash(fs, lld)
    assert fresh_fs.exists("/synced")
    assert not fresh_fs.exists("/unsynced")


def test_directory_tree_survives_crash():
    fs, lld = build()
    fs.mkdir("/a")
    fs.mkdir("/a/b")
    for i in range(10):
        fd = fs.open(f"/a/b/f{i}", create=True)
        fs.write(fd, bytes([i]) * 1000)
        fs.close(fd)
    fs.sync()
    fresh_fs, _ = remount_after_crash(fs, lld)
    assert sorted(fresh_fs.readdir("/a/b")) == sorted(f"f{i}" for i in range(10))
    fd = fresh_fs.open("/a/b/f7")
    assert fresh_fs.read(fd, 1000) == bytes([7]) * 1000


def test_deleting_file_deletes_its_list():
    fs, lld = build()
    fd = fs.open("/f", create=True)
    fs.write(fd, b"\x02" * 8192)
    fs.close(fd)
    lid = fs._iget(fs._resolve("/f")).lid
    lists_before = len(lld.state.lists)
    fs.unlink("/f")
    assert lid not in lld.state.lists
    assert len(lld.state.lists) == lists_before - 1


def test_delete_uses_predecessor_hints():
    fs, lld = build()
    fd = fs.open("/f", create=True)
    fs.write(fd, b"\x03" * (4096 * 10))
    fs.close(fd)
    misses_before = lld.stats.hint_misses
    fs.unlink("/f")
    # Reverse-order freeing keeps every hint valid.
    assert lld.stats.hint_misses == misses_before


def test_small_inode_blocks_write_64_bytes():
    fs, lld = build(inode_block_mode="small")
    written_before = lld.stats.logical_bytes_written
    fd = fs.open("/f", create=True)
    fs.close(fd)
    fs.sync()
    # The i-node updates are 64-byte LD writes, not 4 KB blocks.
    sizes = {
        entry.length
        for entry in lld.state.blocks.values()
        if entry.length and entry.length <= 64
    }
    assert 64 in sizes


def test_small_inode_mode_roundtrip():
    fs, lld = build(inode_block_mode="small")
    for i in range(20):
        fd = fs.open(f"/f{i}", create=True)
        fs.write(fd, bytes([i]) * 100)
        fs.close(fd)
    fs.sync()
    fresh_fs, _ = remount_after_crash(fs, lld)
    assert fresh_fs.store.inode_block_mode == "small"
    for i in range(20):
        fd = fresh_fs.open(f"/f{i}")
        assert fresh_fs.read(fd, 100) == bytes([i]) * 100


def test_sync_maps_to_flush():
    fs, lld = build()
    fd = fs.open("/f", create=True)
    fs.write(fd, b"x" * 4096)
    fs.close(fd)
    flushes_before = lld.stats.flushes
    fs.sync()
    assert lld.stats.flushes == flushes_before + 1


def test_group_commit_coalesces_syncs():
    fs, lld = build(group_commit=4)
    flushes_before = lld.stats.flushes
    for i in range(3):
        fd = fs.open(f"/g{i}", create=True)
        fs.write(fd, bytes([i]) * 4096)
        fs.close(fd)
        fs.sync()
    # Three deferred syncs: buffers moved into LD, no physical flush yet.
    assert lld.stats.flushes == flushes_before
    assert fs.store.stats.syncs_deferred == 3
    fd = fs.open("/g3", create=True)
    fs.write(fd, bytes([3]) * 4096)
    fs.close(fd)
    fs.sync()  # fourth sync: the whole batch becomes durable at once
    assert lld.stats.flushes == flushes_before + 1
    assert fs.store.stats.group_commits == 1
    # Crash now: the group commit made all four files durable together.
    fresh_fs, _ = remount_after_crash(fs, lld)
    for i in range(4):
        fd = fresh_fs.open(f"/g{i}")
        assert fresh_fs.read(fd, 10) == bytes([i]) * 10


def test_group_commit_crash_loses_only_deferred_syncs():
    fs, lld = build(group_commit=8)
    fd = fs.open("/durable", create=True)
    fs.write(fd, b"\x01" * 4096)
    fs.close(fd)
    fs.store.barrier()  # explicit durability point
    fd = fs.open("/deferred", create=True)
    fs.write(fd, b"\x02" * 4096)
    fs.close(fd)
    fs.sync()  # deferred: physical flush not yet issued
    fresh_fs, _ = remount_after_crash(fs, lld)
    fd = fresh_fs.open("/durable")
    assert fresh_fs.read(fd, 10) == b"\x01" * 10
    with pytest.raises(FileNotFound):
        fresh_fs.open("/deferred")


def test_drop_caches_forces_pending_group_commit():
    fs, lld = build(group_commit=16)
    fd = fs.open("/f", create=True)
    fs.write(fd, b"\x07" * 4096)
    fs.close(fd)
    fs.sync()  # deferred
    flushes_before = lld.stats.flushes
    fs.drop_caches()
    assert lld.stats.flushes == flushes_before + 1
    assert fs.store.session.server.pending_intents == 0


def test_flush_batch_one_is_no_batching():
    """A server committing every intent (``group_commit=1``, the default)
    degenerates to one Flush per sync."""
    fs, lld = build(group_commit=1)
    flushes_before = lld.stats.flushes
    for i in range(4):
        fd = fs.open(f"/n{i}", create=True)
        fs.write(fd, bytes([i + 1]) * 4096)
        fs.close(fd)
        fs.sync()
    assert fs.store.stats.syncs_deferred == 0
    assert fs.store.stats.group_commits == 4
    assert lld.stats.flushes == flushes_before + 4
    # Identical durability to the unbatched path: every file survives a
    # crash immediately after its sync.
    fresh_fs, _ = remount_after_crash(fs, lld)
    for i in range(4):
        fd = fresh_fs.open(f"/n{i}")
        assert fresh_fs.read(fd, 10) == bytes([i + 1]) * 10


def test_barrier_during_open_aru_keeps_uncommitted_ops_invisible():
    """A Flush while an ARU is open makes its records durable but not
    committed: after a crash before EndARU, the whole unit vanishes."""
    fs, lld = build()
    fs.sync()  # baseline durability point
    lld.begin_aru()
    fd = fs.open("/uncommitted", create=True)
    fs.write(fd, b"\x0a" * 4096)
    fs.close(fd)
    fs.store.barrier()  # durable mid-ARU — explicitly legal
    fresh_fs, _ = remount_after_crash(fs, lld)
    assert not fresh_fs.exists("/uncommitted")


def test_barrier_after_aru_commit_makes_ops_durable():
    fs, lld = build()
    fs.sync()
    lld.begin_aru()
    fd = fs.open("/committed", create=True)
    fs.write(fd, b"\x0b" * 4096)
    fs.close(fd)
    fs.store.barrier()  # mid-ARU flush, then commit, then flush again
    lld.end_aru()
    fs.store.barrier()
    fresh_fs, _ = remount_after_crash(fs, lld)
    fd = fresh_fs.open("/committed")
    assert fresh_fs.read(fd, 10) == b"\x0b" * 10


def test_crash_between_deferred_syncs_loses_at_most_the_batch():
    """Group commit's contract: a crash can only lose writes whose syncs
    were deferred — never anything from an already-committed batch."""
    fs, lld = build(group_commit=3)
    for i in range(3):
        fd = fs.open(f"/acked{i}", create=True)
        fs.write(fd, bytes([i + 1]) * 4096)
        fs.close(fd)
        fs.sync()
    assert fs.store.stats.group_commits == 1  # third sync committed all
    assert fs.store.stats.syncs_deferred == 2
    for i in range(2):
        fd = fs.open(f"/deferred{i}", create=True)
        fs.write(fd, bytes([i + 9]) * 4096)
        fs.close(fd)
        fs.sync()
    assert fs.store.stats.syncs_deferred == 4  # both new syncs deferred
    fresh_fs, _ = remount_after_crash(fs, lld)
    for i in range(3):
        fd = fresh_fs.open(f"/acked{i}")
        assert fresh_fs.read(fd, 10) == bytes([i + 1]) * 10
    for i in range(2):
        assert not fresh_fs.exists(f"/deferred{i}")


def test_interlist_clustering_uses_directory_as_predecessor():
    fs, lld = build()
    fs.mkdir("/d")
    dir_lid = fs._iget(fs._resolve("/d")).lid
    fd = fs.open("/d/child", create=True)
    fs.close(fd)
    child_lid = fs._iget(fs._resolve("/d/child")).lid
    order = lld.state.list_order
    assert order.index(child_lid) == order.index(dir_lid) + 1


def test_mount_rejects_foreign_ld():
    disk = SimulatedDisk(hp_c3010(capacity_mb=16), VirtualClock())
    lld = LLD(disk, LLDConfig(segment_size=128 * 1024, checkpoint_slots=1))
    lld.initialize()
    store = LDStore(lld)
    fs = MinixFS(store, readahead=False)
    with pytest.raises(Exception):
        fs.mount()
