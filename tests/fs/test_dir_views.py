"""Decoded views on the MINIX buffer cache (DESIGN.md §16).

Directory blocks, indirect blocks and the i-node map are parsed once per
cached buffer. These tests hold the cached parses to the plain linear
scan they replaced — kept here as the reference — and pin the buffer
cache's reference string, which must not notice the difference.
"""

from __future__ import annotations

import hashlib
import random
import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.disk import SimulatedDisk, hp_c3010
from repro.fs.api import FileNotFound, FileSystemError
from repro.fs.minix import ClassicStore, LDStore, MinixFS
from repro.fs.minix.fs import DIRENT, DIRENT_SIZE, ROOT_INO
from repro.fs.minix.store import lowest_clear_bit
from repro.lld import LLD, LLDConfig
from repro.sim import VirtualClock

# 1 KB blocks: 16 entries per directory block, so 7 direct blocks hold 112
# entries and a directory of 120 reaches into its indirect block.
BLOCK = 1024
PER_BLOCK = BLOCK // DIRENT_SIZE
BIG = 7 * PER_BLOCK + 8


def build(kind: str, cache_blocks: int, capacity_mb: int = 16) -> MinixFS:
    disk = SimulatedDisk(hp_c3010(capacity_mb=capacity_mb), VirtualClock())
    if kind == "classic":
        store = ClassicStore(disk, block_size=BLOCK, cache_bytes=cache_blocks * BLOCK)
    else:
        lld = LLD(disk, LLDConfig(segment_size=64 * 1024, checkpoint_slots=1))
        lld.initialize()
        store = LDStore(lld, block_size=BLOCK, cache_bytes=cache_blocks * BLOCK)
    fs = MinixFS(store, readahead=False)
    fs.mkfs(ninodes=512)
    return fs


def touch(fs: MinixFS, path: str) -> None:
    fs.close(fs.open(path, create=True))


def fill(fs: MinixFS, directory: str, count: int) -> None:
    fs.mkdir(directory)
    for i in range(count):
        touch(fs, f"{directory}/n{i:03d}")


# ----------------------------------------------------------------------
# The reference: the linear scan over _file_read that src/ no longer has
# ----------------------------------------------------------------------


def ref_scan(fs: MinixFS, inode) -> list[tuple[int, bytes]]:
    raw = fs._file_read(inode, 0, inode.size)
    found = []
    for offset in range(0, len(raw) - DIRENT_SIZE + 1, DIRENT_SIZE):
        ino, name = DIRENT.unpack_from(raw, offset)
        if ino:
            found.append((ino, name.rstrip(b"\x00")))
    return found


def ref_entries(fs: MinixFS, inode) -> list[tuple[int, str]]:
    return [(ino, name.decode()) for ino, name in ref_scan(fs, inode)]


def ref_find(fs: MinixFS, inode, name: str) -> int | None:
    target = name.encode()
    return next((ino for ino, entry in ref_scan(fs, inode) if entry == target), None)


def assert_tree_matches_reference(fs: MinixFS, probes: list[str]) -> None:
    """Every directory: cached-view listing and lookups == linear scan."""
    pending = [ROOT_INO]
    while pending:
        dir_ino = pending.pop()
        inode = fs._iget(dir_ino)
        expected = ref_entries(fs, inode)
        assert fs._dir_entries(fs._iget(dir_ino)) == expected
        for name in probes + [name for _ino, name in expected[-2:]]:
            assert fs._dir_find(fs._iget(dir_ino), name) == ref_find(fs, inode, name), name
        pending.extend(ino for ino, _name in expected if fs._iget(ino).is_dir)


# ----------------------------------------------------------------------
# (i) differential: random namespace operations, both stores, small caches
# ----------------------------------------------------------------------

DIRS = ["", "/big", "/big/sub", "/side"]
# Names that are prefixes of one another, plus the first, a middle and the
# last pre-filled entry of /big (removing n000 moves the tail entry into
# slot 0 and leaves its bytes behind past inode.size).
NAMES = ["a", "ab", "abc", "abcd", "n", "n0", "n000", "n0000", "n057", f"n{BIG - 1:03d}", "sub", "x" * 60]

paths = st.builds(lambda d, n: f"{d}/{n}", st.sampled_from(DIRS), st.sampled_from(NAMES))
steps = st.lists(
    st.one_of(
        st.tuples(st.just("create"), paths),
        st.tuples(st.just("create"), paths),
        st.tuples(st.just("unlink"), paths),
        st.tuples(st.just("unlink"), paths),
        st.tuples(st.just("mkdir"), paths),
        st.tuples(st.just("rmdir"), paths),
        st.tuples(st.just("rename"), paths, paths),
        st.tuples(st.just("link"), paths, paths),
        st.tuples(st.just("grow"), paths, st.integers(1, 20)),
        st.tuples(st.just("truncate"), paths, st.integers(0, 12)),
        st.tuples(st.just("drop_caches")),
    ),
    min_size=1,
    max_size=30,
)


def apply_step(fs: MinixFS, step: tuple) -> None:
    op, *args = step
    if op == "create":
        touch(fs, args[0])
    elif op == "grow":
        fd = fs.open(args[0])
        fs.write(fd, b"\xa5" * (args[1] * BLOCK))
        fs.close(fd)
    elif op == "truncate":
        fs.truncate(args[0], args[1] * BLOCK // 2)
    elif op == "drop_caches":
        fs.drop_caches()
    else:
        getattr(fs, op)(*args)


@pytest.mark.parametrize("kind", ["classic", "lld"])
@settings(max_examples=30, deadline=None)
@given(script=steps, cache_blocks=st.sampled_from([3, 6, 24, 4096]))
def test_cached_views_match_linear_scan(kind, script, cache_blocks):
    fs = build(kind, cache_blocks)
    fill(fs, "/big", BIG)
    fs.mkdir("/side")
    assert fs._iget(fs._resolve("/big")).zones[7], "directory must use its indirect block"
    assert_tree_matches_reference(fs, NAMES)
    for step in script:
        try:
            apply_step(fs, step)
        except FileSystemError:
            pass  # a refused operation must leave every directory readable too
        assert_tree_matches_reference(fs, NAMES)
        cache = fs.store.cache
        assert set(cache._views) <= set(cache._buffers)


# ----------------------------------------------------------------------
# (ii) the stale tail: bytes of a moved entry stay behind past inode.size
# ----------------------------------------------------------------------


@pytest.mark.parametrize("kind", ["classic", "lld"])
def test_entry_bytes_past_the_directory_size_read_as_absent(kind):
    fs = build(kind, cache_blocks=4096)
    for name in ("keep", "victim", "mid", "last"):
        touch(fs, f"/{name}")
    last_ino = fs.stat("/last").ino

    fs.unlink("/victim")  # "last" moves into slot 1; its old bytes stay in slot 3
    root = fs._iget(ROOT_INO)
    assert root.size == 3 * DIRENT_SIZE
    block = fs.store.read_zone(root.zones[0])
    assert DIRENT.unpack_from(block, 3 * DIRENT_SIZE) == (last_ino, b"last".ljust(60, b"\x00"))
    assert fs._dir_find(root, "last") == last_ino  # the live copy, slot 1
    assert fs.readdir("/") == ["keep", "last", "mid"]

    fs.unlink("/last")  # "mid" moves into slot 1; only ghosts of "last" remain
    root = fs._iget(ROOT_INO)
    assert root.size == 2 * DIRENT_SIZE
    block = fs.store.read_zone(root.zones[0])
    ghosts = [DIRENT.unpack_from(block, slot * DIRENT_SIZE)[1].rstrip(b"\x00") for slot in (2, 3)]
    assert ghosts == [b"mid", b"last"]
    assert fs._dir_find(root, "last") is None
    assert not fs.exists("/last")
    assert fs.readdir("/") == ["keep", "mid"]
    with pytest.raises(FileNotFound):
        fs.unlink("/last")

    touch(fs, "/last")  # re-created over the ghost of "mid" in slot 2
    assert fs.readdir("/") == ["keep", "mid", "last"]
    assert fs._dir_find(fs._iget(ROOT_INO), "last") == fs.stat("/last").ino
    assert_tree_matches_reference(fs, ["keep", "victim", "mid", "last"])


def test_dir_remove_reports_the_full_path():
    fs = build("lld", cache_blocks=4096)
    fs.mkdir("/d")
    touch(fs, "/d/f")
    parent_ino = fs._resolve("/d")
    with pytest.raises(FileNotFound) as err:
        fs._dir_remove(parent_ino, fs._iget(parent_ino), "gone", "/d/gone")
    assert err.value.args == ("/d/gone",)


# ----------------------------------------------------------------------
# (iii) a cached pointer tuple is shared: nobody may write into it
# ----------------------------------------------------------------------


def on_store_bytes(fs: MinixFS, zone: int) -> bytes:
    fs.sync()
    store = fs.store
    if isinstance(store, ClassicStore):
        per_block = BLOCK // 512
        return store.disk.peek(zone * per_block, per_block)
    return store.ld.read(zone)


@pytest.mark.parametrize("kind", ["classic", "lld"])
def test_pointer_tuples_are_never_mutated_in_place(kind):
    fs = build(kind, cache_blocks=4096)
    unpack = struct.Struct(f"<{BLOCK // 4}I").unpack
    fd = fs.open("/f", create=True)
    fs.write(fd, b"\x11" * (10 * BLOCK))  # 7 direct + 3 through the indirect block
    indirect = fs._iget(fs.stat("/f").ino).zones[7]

    before = fs._read_pointers(indirect)
    assert isinstance(before, tuple)
    assert fs._read_pointers(indirect) is before  # one parse per cached buffer
    frozen = tuple(before)

    fs.write(fd, b"\x22" * (4 * BLOCK))  # allocates into the cached indirect block
    after = fs._read_pointers(indirect)
    assert before == frozen
    assert after is not before
    assert after[:3] == frozen[:3] and all(after[3:7]) and not any(frozen[3:7])
    assert after == unpack(fs.store.read_zone(indirect)) == unpack(on_store_bytes(fs, indirect))

    frozen = tuple(after)
    fs.truncate("/f", 9 * BLOCK)  # frees through the cached indirect block
    shrunk = fs._read_pointers(indirect)
    assert after == frozen
    assert shrunk[:2] == frozen[:2] and not any(shrunk[2:])
    assert shrunk == unpack(on_store_bytes(fs, indirect))
    fs.close(fd)


@pytest.mark.parametrize("kind", ["classic", "lld"])
def test_double_indirect_allocate_and_free_keep_cached_tuples_intact(kind):
    fs = build(kind, cache_blocks=4096)
    pointers = BLOCK // 4
    fd = fs.open("/f", create=True)
    fs.seek(fd, (7 + pointers) * BLOCK)  # first block behind the double-indirect block
    fs.write(fd, b"\x33" * BLOCK)
    double = fs._iget(fs.stat("/f").ino).zones[8]
    level1 = fs._read_pointers(double)
    frozen = tuple(level1)

    fs.seek(fd, (7 + 2 * pointers) * BLOCK)  # needs a second inner block
    fs.write(fd, b"\x44" * BLOCK)
    assert level1 == frozen
    grown = fs._read_pointers(double)
    assert grown[0] == frozen[0] and grown[1] and not frozen[1]

    frozen = tuple(grown)
    fs.truncate("/f", (7 + pointers + 1) * BLOCK)  # drops the second inner block
    assert grown == frozen
    assert fs._read_pointers(double)[:2] == (frozen[0], 0)
    fs.seek(fd, (7 + pointers) * BLOCK)
    assert fs.read(fd, BLOCK) == b"\x33" * BLOCK
    fs.close(fd)


# ----------------------------------------------------------------------
# (c) bitmap search: lowest clear bit, bytes at a time
# ----------------------------------------------------------------------


@settings(max_examples=200, deadline=None)
@given(
    bitmap=st.one_of(
        st.binary(min_size=1, max_size=40),
        st.builds(  # long runs of full bytes, as in a real bitmap
            lambda full, tail: b"\xff" * full + tail,
            st.integers(0, 40),
            st.binary(min_size=1, max_size=4),
        ),
    ),
    data=st.data(),
)
def test_lowest_clear_bit_matches_bit_loop(bitmap, data):
    nbits = len(bitmap) * 8
    start = data.draw(st.integers(0, nbits - 1))
    stop = data.draw(st.integers(0, nbits))
    expected = next(
        (i for i in range(start, stop) if not bitmap[i >> 3] & (1 << (i & 7))), -1
    )
    assert lowest_clear_bit(bitmap, start, stop) == expected


@pytest.mark.parametrize("kind", ["classic", "lld"])
def test_inode_allocation_is_lowest_free_first(kind):
    fs = build(kind, cache_blocks=4096)
    for i in range(20):
        touch(fs, f"/f{i:02d}")
    assert [fs.stat(f"/f{i:02d}").ino for i in range(20)] == list(range(2, 22))
    for i in (13, 3, 8):
        fs.unlink(f"/f{i:02d}")
    touch(fs, "/g0")
    touch(fs, "/g1")
    touch(fs, "/g2")
    touch(fs, "/g3")
    assert [fs.stat(f"/g{i}").ino for i in range(4)] == [5, 10, 15, 22]


def test_classic_zone_search_wraps_and_spans_bitmap_blocks():
    fs = build("classic", cache_blocks=4096, capacity_mb=32)
    store = fs.store
    bits_per_block = BLOCK * 8
    assert store.total_blocks > 2 * bits_per_block  # several zone-bitmap blocks
    target = bits_per_block + 77
    for zone in range(store.first_data, target):
        store._set_bit(store._zmap_start, zone, True)
    assert store._find_free_bit(store._zmap_start, store.total_blocks, store.first_data) == target
    # Nothing free at or after the hint: wrap to the lowest free bit below it.
    for zone in range(target, store.total_blocks):
        store._set_bit(store._zmap_start, zone, True)
    store._set_bit(store._zmap_start, store.first_data + 5, False)
    assert store._find_free_bit(store._zmap_start, store.total_blocks, target) == store.first_data + 5
    store._set_bit(store._zmap_start, store.first_data + 5, True)
    with pytest.raises(FileSystemError):
        store._find_free_bit(store._zmap_start, store.total_blocks, target)


# ----------------------------------------------------------------------
# (iv) the reference string: what the buffer cache and the store see
# ----------------------------------------------------------------------


def reference_script(seed: int = 12, length: int = 300) -> list[tuple]:
    """A fixed op stream: grow /big past 7 blocks, then churn the namespace."""
    rng = random.Random(seed)
    script: list[tuple] = [("mkdir", "/big"), ("mkdir", "/side")]
    script += [("create", f"/big/n{i:03d}") for i in range(BIG)]
    live = [f"/big/n{i:03d}" for i in range(BIG)]
    serial = 0
    while len(script) < length:
        roll = rng.random()
        if roll < 0.30 and live:
            script.append(("unlink", live.pop(rng.randrange(len(live)))))
        elif roll < 0.55:
            serial += 1
            path = f"{rng.choice(['/big', '/side'])}/m{serial:03d}"
            script.append(("create", path))
            live.append(path)
        elif roll < 0.70 and live:
            serial += 1
            old = live.pop(rng.randrange(len(live)))
            new = f"{rng.choice(['/big', '/side'])}/r{serial:03d}"
            script.append(("rename", old, new))
            live.append(new)
        elif roll < 0.78 and live:
            serial += 1
            new = f"/side/l{serial:03d}"
            script.append(("link", rng.choice(live), new))
            live.append(new)
        elif roll < 0.90 and live:
            script.append(("grow", rng.choice(live), rng.randrange(1, 16)))
        elif roll < 0.96 and live:
            script.append(("truncate", rng.choice(live), rng.randrange(0, 10)))
        else:
            script.append(("drop_caches",))
    return script


def run_reference(kind: str) -> dict:
    fs = build(kind, cache_blocks=24)
    for step in reference_script():
        apply_step(fs, step)
    fs.sync()
    store = fs.store
    disk = store.disk if kind == "classic" else store.ld.disk
    image = hashlib.sha256()
    for lba, data in disk.written_sectors():
        image.update(lba.to_bytes(8, "little") + data)
    return {
        "cache": (store.cache.hits, store.cache.misses, store.cache.evictions),
        "store": {k: v for k, v in store.stats.as_dict().items() if v},
        "disk": (disk.stats.reads, disk.stats.writes, disk.stats.sectors_read, disk.stats.sectors_written),
        "clock_us": round(disk.clock.now * 1e6),
        "image": image.hexdigest()[:16],
    }


# Captured by running run_reference() against the parent commit (per-lookup
# linear scan, per-bit bitmap probes). One figure differs by design:
# ClassicStore's hit count was 16557 there, because the old free-bit search
# called cache.get once per bit examined; it now calls it once per bitmap
# block crossed. Those repeat hits on an already-MRU block change neither
# the LRU order, the misses, the evictions, the disk requests nor the image.
_STORE_COUNTS = {
    "inode_reads": 823,
    "inode_writes": 625,
    "inodes_allocated": 168,
    "inodes_freed": 49,
    "syncs": 1,
    "zone_reads": 2725,
    "zone_writes": 480,
    "zones_allocated": 163,
    "zones_freed": 15,
}
GOLDEN = {
    "classic": {
        "cache": (4692, 244, 245),
        "store": _STORE_COUNTS,
        "disk": (244, 360, 488, 720),
        "clock_us": 5623704,
        "image": "ca57495a7e984fd9",
    },
    "lld": {
        "cache": (4167, 223, 194),
        "store": {**_STORE_COUNTS, "group_commits": 11},
        # Writes and sectors written re-based with seal-by-delta (19 writes,
        # 903 sectors before): the two seals that follow partial flushes
        # write a data tail and a summary each instead of a whole image.
        # Reads and clock are the parent's. The image was re-captured when
        # the summary header gained its ``next`` field (same requests, same
        # times, four more header bytes per summary). Reads, sectors and
        # clock re-captured, and the image, when it grew twenty more (the
        # previous prefix and the tail check): a summary fills twenty bytes
        # sooner, so segments seal a few records earlier and 11 reads the
        # open segment served from memory go to the disk. The parent with
        # twenty pad bytes in its header gives the same figures.
        "disk": (364, 21, 2251, 721),
        "clock_us": 4445741,
        "image": "9aa8b25a7d80021e",
    },
}


@pytest.mark.parametrize("kind", ["classic", "lld"])
def test_reference_string_is_pinned(kind):
    assert len(reference_script()) == 300
    assert run_reference(kind) == GOLDEN[kind]


if __name__ == "__main__":  # PYTHONPATH=<commit>/src python tests/fs/test_dir_views.py
    import pprint

    pprint.pprint({kind: run_reference(kind) for kind in ("classic", "lld")})
