"""Demand-vectored file reads: one store request per ``fs.read``.

``MinixFS._file_read`` maps a whole request and asks the store for its
zones in one ``read_zones`` call; ``LDStore`` serves resident buffers from
the cache and fetches the rest with a single ``ld.read_blocks``. The
oracle throughout is the block-at-a-time loop the core used to run
(:func:`reference_read`): one ``_bmap`` and one ``read_zone`` per block.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bench import BuildSpec, build_minix_lld
from repro.ld.errors import LDError, NoSuchBlockError
from tests.fs.conftest import FS_FACTORIES, minix_lld

BLOCK = 4096


def reference_read(fs, inode, pos: int, nbytes: int) -> bytes:
    """The pre-vectoring read loop: map and read one block at a time."""
    end = min(pos + nbytes, inode.size)
    out = bytearray()
    while pos < end:
        index, offset = divmod(pos, fs.block_size)
        take = min(fs.block_size - offset, end - pos)
        zone = fs._bmap(inode, index, allocate=False)
        if zone == 0:
            out += b"\x00" * take
        else:
            out += fs.store.read_zone(zone)[offset : offset + take]
        pos += take
    return bytes(out)


def write_at(fs, fd, pos: int, data: bytes) -> None:
    fs.seek(fd, pos)
    fs.write(fd, data)


def pattern(tag: int, length: int) -> bytes:
    return bytes((tag + i) % 251 for i in range(length))


def spy_read_blocks(store, calls: list):
    """Record every ``read_blocks`` the store issues to its LD."""
    inner = store.ld.read_blocks

    def read_blocks(bids):
        calls.append(list(bids))
        return inner(bids)

    store.ld.read_blocks = read_blocks


# -- differential: vectored read == block-at-a-time loop ----------------------

extents = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=30),  # first block (7 direct, then indirect)
        st.integers(min_value=0, max_value=BLOCK - 1),  # offset inside it
        st.integers(min_value=1, max_value=3 * BLOCK),  # length
    ),
    min_size=1,
    max_size=6,
)
requests = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=34 * BLOCK),
        st.integers(min_value=1, max_value=12 * BLOCK),
    ),
    min_size=1,
    max_size=8,
)


@pytest.mark.parametrize("kind", sorted(FS_FACTORIES))
@pytest.mark.parametrize("cold", [False, True])
@settings(max_examples=20, deadline=None)
@given(extents=extents, requests=requests)
def test_vectored_read_matches_block_loop(kind, cold, extents, requests):
    """Holes, mid-block starts and reads across EOF, warm and cold cache."""
    fs = FS_FACTORIES[kind](capacity_mb=16)
    fd = fs.open("/f", create=True)
    model = bytearray()
    for tag, (block, offset, length) in enumerate(extents):
        pos = block * BLOCK + offset
        data = pattern(tag, length)
        write_at(fs, fd, pos, data)
        if len(model) < pos + length:
            model.extend(bytes(pos + length - len(model)))
        model[pos : pos + length] = data
    for pos, nbytes in requests:
        if cold:
            fs.drop_caches()
        inode = fs._iget(fs._fds[fd].ino)
        got = fs._file_read(inode, pos, nbytes)
        assert got == bytes(model[pos : pos + nbytes])
        assert got == reference_read(fs, inode, pos, nbytes)
    fs.close(fd)


def test_read_crossing_eof_and_starting_mid_block():
    fs = minix_lld()
    fd = fs.open("/f", create=True)
    data = pattern(3, 2 * BLOCK + 100)
    fs.write(fd, data)
    fs.drop_caches()
    fs.seek(fd, BLOCK - 7)
    assert fs.read(fd, 5 * BLOCK) == data[BLOCK - 7 :]
    assert fs.read(fd, 10) == b""


# -- the four constraints of the gather ---------------------------------------


def test_request_larger_than_cache_reads_each_zone_once():
    """64 KB cache, 1 MB read: buffers come from the gather, not a re-lookup."""
    fs = minix_lld(cache_bytes=64 * 1024)
    lld = fs.store.ld
    data = pattern(9, 1024 * 1024)
    fd = fs.open("/big", create=True)
    fs.write(fd, data)
    fs.drop_caches()
    calls: list = []
    spy_read_blocks(fs.store, calls)
    fs.seek(fd, 0)
    before = lld.stats.blocks_read
    misses = fs.store.cache.misses
    assert fs.read(fd, len(data)) == data
    # 256 data zones, the single-indirect block, the i-node block: each once.
    assert lld.stats.blocks_read - before == 256 + 2
    assert [len(bids) for bids in calls] == [256]
    assert fs.store.cache.misses - misses == 256 + 2


def test_dirty_zones_come_from_the_cache_never_from_the_ld():
    fs = minix_lld()
    fd = fs.open("/f", create=True)
    fs.write(fd, pattern(1, 4 * BLOCK))
    fs.drop_caches()
    fresh = pattern(77, BLOCK)
    write_at(fs, fd, BLOCK, fresh)  # whole block: dirty, no pre-read
    inode = fs._iget(fs._fds[fd].ino)
    dirty_zone = inode.zones[1]
    assert fs.store.cache.is_dirty(dirty_zone)
    calls: list = []
    spy_read_blocks(fs.store, calls)
    fs.seek(fd, 0)
    got = fs.read(fd, 4 * BLOCK)
    assert got[BLOCK : 2 * BLOCK] == fresh
    assert got[:BLOCK] == pattern(1, BLOCK)
    assert calls == [[inode.zones[0], inode.zones[2], inode.zones[3]]]
    assert fs.store.cache.is_dirty(dirty_zone)


class FailingReads:
    """Make the store's LD fail every vectored read naming a bad block."""

    def __init__(self, store, bad: set[int] | None = None) -> None:
        self.inner = store.ld.read_blocks
        self.bad = bad
        self.calls = 0
        store.ld.read_blocks = self

    def __call__(self, bids):
        self.calls += 1
        culprits = set(bids) if self.bad is None else self.bad & set(bids)
        if culprits:
            raise NoSuchBlockError(min(culprits))
        return self.inner(bids)


def test_demand_read_surfaces_lderror_prefetch_swallows_it():
    fs = minix_lld()
    fd = fs.open("/f", create=True)
    fs.write(fd, pattern(5, 4 * BLOCK))
    fs.drop_caches()
    zones = fs._iget(fs._fds[fd].ino).zones[:4]
    FailingReads(fs.store)
    fs.store.prefetch(zones)  # a hint: never fails its caller
    assert not any(zone in fs.store.cache for zone in zones)
    fs.seek(fd, 0)
    with pytest.raises(LDError):
        fs.read(fd, 2 * BLOCK)


def test_a_bad_readahead_window_does_not_fail_the_read_it_rides():
    fs = minix_lld(readahead=True, readahead_blocks=2)
    fd = fs.open("/f", create=True)
    data = pattern(5, 6 * BLOCK)
    fs.write(fd, data)
    fs.drop_caches()
    zones = fs._iget(fs._fds[fd].ino).zones
    failing = FailingReads(fs.store, bad={zones[3]})  # in the first read's window
    fs.seek(fd, 0)
    assert fs.read(fd, 2 * BLOCK) == data[: 2 * BLOCK]
    assert failing.calls == 2  # with the window, then without it
    with pytest.raises(LDError):  # now a demand zone: the error is the read's own
        fs.read(fd, 2 * BLOCK)
    assert failing.calls == 3  # not sent a second time


def test_readahead_window_rides_the_demand_request():
    fs = minix_lld(readahead=True, readahead_blocks=4)
    fd = fs.open("/f", create=True)
    data = pattern(2, 7 * BLOCK)
    fs.write(fd, data)
    fs.drop_caches()
    zones = fs._iget(fs._fds[fd].ino).zones
    calls: list = []
    spy_read_blocks(fs.store, calls)
    fs.seek(fd, 0)
    hits, misses = fs.store.cache.hits, fs.store.cache.misses
    assert fs.read(fd, 2 * BLOCK) == data[: 2 * BLOCK]
    assert calls == [zones[:6]]  # two demand zones + the four-block window
    # The window is a hint, neither a hit nor a miss: only the i-node block
    # (resident since the ``_iget`` above) and the two demand zones count.
    assert (fs.store.cache.hits - hits, fs.store.cache.misses - misses) == (1, 2)
    assert fs.read(fd, 2 * BLOCK) == data[2 * BLOCK : 4 * BLOCK]
    assert calls == [zones[:6]]  # zone 6 alone: the scalar path


# -- counters keep their meaning ----------------------------------------------


@pytest.mark.parametrize("kind", ["minix", "minix_lld"])
def test_hits_plus_misses_equals_zones_touched(kind):
    """One cache lookup per zone or i-node read, vectored or not."""
    fs = FS_FACTORIES[kind](readahead=False)
    fd = fs.open("/f", create=True)
    data = pattern(4, 12 * BLOCK)  # reaches the single-indirect block
    fs.write(fd, data)
    fs.drop_caches()
    store, cache = fs.store, fs.store.cache
    for pos, nbytes, hits, misses in (
        (0, 2 * BLOCK, 0, 3),  # i-node block + two zones, all cold
        (0, 2 * BLOCK, 3, 0),  # the same three, resident
        (BLOCK, 3 * BLOCK, 2, 2),  # i-node + zone 1 resident, zones 2-3 cold
        (6 * BLOCK, 3 * BLOCK, 2, 4),  # indirect block: cold once, then a hit
    ):
        before = (cache.hits, cache.misses, store.stats.zone_reads, store.stats.inode_reads)
        fs.seek(fd, pos)
        assert fs.read(fd, nbytes) == data[pos : pos + nbytes]
        got_hits, got_misses = cache.hits - before[0], cache.misses - before[1]
        touched = (
            store.stats.zone_reads - before[2] + store.stats.inode_reads - before[3]
        )
        assert (got_hits, got_misses) == (hits, misses)
        assert got_hits + got_misses == touched


def test_zone_reads_counts_zones_and_fills_are_reported():
    fs = minix_lld()
    fd = fs.open("/f", create=True)
    fs.write(fd, pattern(6, 4 * BLOCK))
    fs.drop_caches()
    fs.seek(fd, 0)
    before = fs.store.stats.snapshot()
    fs.read(fd, 4 * BLOCK)
    fs.seek(fd, 0)
    fs.read(fd, BLOCK)  # resident: no fill
    stats = fs.store.stats
    assert stats.zone_reads - before.zone_reads == 5
    assert stats.extra["vectored_fills"] - before.extra.get("vectored_fills", 0) == 1
    assert stats.extra["vectored_zones"] - before.extra.get("vectored_zones", 0) == 4
    assert stats.extra["zones_per_fill"] == (
        stats.extra["vectored_zones"] / stats.extra["vectored_fills"]
    )


def test_demand_read_span_beside_prefetch_span():
    from repro.obs import Tracer, attach_tracer

    fs = minix_lld()
    tracer = Tracer(fs.store.clock, enabled=True)
    attach_tracer(tracer, fs)
    fd = fs.open("/f", create=True)
    fs.write(fd, pattern(8, 6 * BLOCK))
    fs.drop_caches()
    tracer.clear()
    fs.seek(fd, 0)
    fs.read(fd, 3 * BLOCK)
    fs.store.prefetch(fs._iget(fs._fds[fd].ino).zones[3:6])
    spans = {s.name: s for s in tracer.spans}
    assert spans["fs.demand_read"].attrs["count"] == 3
    assert spans["fs.prefetch"].attrs["count"] == 3
    below = [s for s in tracer.spans if s.parent_id == spans["fs.demand_read"].span_id]
    assert [s.name for s in below] == ["lld.read_blocks"]


# -- unaligned multi-block writes ----------------------------------------------


@pytest.mark.parametrize("kind", sorted(FS_FACTORIES))
def test_unaligned_multi_block_write_matches_model(kind):
    fs = FS_FACTORIES[kind]()
    fd = fs.open("/f", create=True)
    model = bytearray(pattern(1, 5 * BLOCK))
    fs.write(fd, bytes(model))
    fs.drop_caches()
    patch = pattern(90, 2 * BLOCK + 300)
    write_at(fs, fd, BLOCK + 100, patch)
    model[BLOCK + 100 : BLOCK + 100 + len(patch)] = patch
    fs.drop_caches()
    fs.seek(fd, 0)
    assert fs.read(fd, 6 * BLOCK) == bytes(model)


# -- the composed stack ---------------------------------------------------------


def test_one_8k_read_is_one_volume_request_on_the_raid5_stack():
    """MINIX -> LDServer (QoS) -> LLD -> RAID-5: the request crosses each once."""
    spec = BuildSpec.from_scale(0.05)
    fs, lld = build_minix_lld(spec, n_disks=4, volume_layout="raid5", scheduler="qos")
    volume = lld.disk
    fd = fs.open("/large", create=True)
    data = pattern(11, 2 * spec.segment_size)  # seals at least one segment
    fs.write(fd, data)
    fs.drop_caches()
    fs.seek(fd, 2 * BLOCK)
    fs.read(fd, BLOCK)  # warms the i-node block only
    zones = fs._iget(fs._fds[fd].ino).zones
    first, second = (lld.state.block(zone) for zone in zones[:2])
    assert first.segment == second.segment != lld.open_segment_index
    assert second.offset == first.offset + first.stored_length  # adjacent in the log
    server = fs.store.session.server
    before = (
        volume.stats.reads,
        lld.stats.vectored_reads,
        server.stats.ops_dispatched,
        sum(disk.stats.reads for disk in volume.disks),
    )
    fs.seek(fd, 0)
    assert fs.read(fd, 2 * BLOCK) == data[: 2 * BLOCK]
    after = (
        volume.stats.reads,
        lld.stats.vectored_reads,
        server.stats.ops_dispatched,
        sum(disk.stats.reads for disk in volume.disks),
    )
    assert [b - a for a, b in zip(before, after)] == [1, 1, 1, 1]
